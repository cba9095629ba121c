"""Budget-constrained winner determination.

Three constraint kinds over groups of bids:

* ``overlapping``: groups may overlap, each bid in at most t of them; at
  most k bids win per group. The opportunity-cost forward pass and its
  local-ratio oracle (:func:`auctol.solvers.forward_pass` and
  :func:`auctol.solvers.local_ratio`) take the group index as an optional
  argument and then add a group charge for every group containing the bid:
  a 1/k-scaled sum of the positive values already seen in that group.
* ``unweighted``: groups partition the bids, the t = 1 case of
  ``overlapping``; the same pass and oracle serve both count kinds.
* ``weighted``: per-group money budgets b. Heavy bids (weight > b/2) run the
  forward pass with 1 winner per group and light ones (weight <= b/2) a
  multiplicative group discount, each on the whole graph with the other
  bids' weights masked to 0; the better of the two solutions is returned.

The approximation ratio of each solver is in :data:`auctol.instances.RATIO`;
solvers return an uncertified :class:`auctol.solvers.Certificate`.
:data:`SOLVERS_BY_KIND` maps each kind to its one-pass solver and its
cross-check. The exact optimum of a small instance, the oracle the ratios
are checked against, is :func:`exact_feasible`: a thin caller of
:func:`auctol.graphs.exact_search`, the one exhaustive search behind every
exact oracle.

The count-constraint pass is exact in integers: every value is a numerator
over one common denominator, which grows by a factor of k only when a
charge delta/k (the only division) needs it, and its value table reports
``Fraction``s when some k > 1. The local-ratio oracles compute in
``Fraction``. The light pass is the single place fractions are inherent,
so it runs in double precision with a deterministic positivity threshold;
a direct quadratic update mode ships alongside the lazy linear-time one as
a cross-check.
"""

from __future__ import annotations

import copy
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import NamedTuple

from .errors import CapacityError, ValidationError
from .graphs import BidGraph, csr, exact_search, neighbor_masks
from .solvers import Certificate, Solution, ValueTable, forward_pass, local_ratio, selection_solution

KINDS = ("unweighted", "overlapping", "weighted")


@dataclass(frozen=True)
class Group:
    label: str
    members: frozenset[str]
    limit: int  # k (a count) or b (minor currency units), depending on kind

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise ValidationError(f"group {self.label!r} has no members")
        if not isinstance(self.limit, int) or isinstance(self.limit, bool) or self.limit < 1:
            raise ValidationError(f"group {self.label!r}: limit must be an integer >= 1")


@dataclass
class ConstraintSet:
    kind: str
    groups: list[Group]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown constraint kind {self.kind!r}")
        labels = [g.label for g in self.groups]
        if len(set(labels)) != len(labels):
            raise ValidationError("group labels must be unique")

    def overlap(self) -> int:
        """t: the maximum number of groups any single bid belongs to."""
        return max(Counter(chain.from_iterable(grp.members for grp in self.groups)).values(), default=1)


class GroupIndex(NamedTuple):
    """Group membership in index space: node i's groups are
    ``gidx[gptr[i]:gptr[i+1]]`` in ascending group index. When the groups
    partition the bids, ``gptr[i] == i`` and ``gidx`` is each node's one
    group. ``members_by_rank[gi]`` lists group gi's nodes by ascending rank."""

    gptr: array
    gidx: array
    limits: list[int]
    members_by_rank: list[list[int]]


def _check_members(grp: Group, nodes: dict) -> None:
    """Refuse ``grp`` if a member is not in ``nodes``, naming the least such id."""
    if not nodes.keys() >= grp.members:
        raise ValidationError(f"group {grp.label!r} member {min(grp.members - nodes.keys())!r} is not a bid node")


def group_index(g: BidGraph, cs: ConstraintSet) -> GroupIndex:
    """The group index of ``cs`` over ``g``'s ranks, built on every call from
    the groups ``cs`` holds then.

    Checks that every member is a node and, for the partition kinds
    (unweighted, weighted), that every node is in exactly one group.
    """
    pos = g.rank()
    n = len(pos)
    counts = [0] * (n + 1)
    members_by_rank: list[list[int]] = []
    for grp in cs.groups:
        _check_members(grp, pos)
        ranks = []
        for u in grp.members:
            i = pos[u]
            counts[i + 1] += 1
            ranks.append(i)
        ranks.sort()
        members_by_rank.append(ranks)
    if cs.kind != "overlapping" and counts.count(1) != n:
        u, i = next((u, i) for u, i in pos.items() if counts[i + 1] != 1)
        raise ValidationError(
            f"{cs.kind} constraints must partition the bids; bid {u!r} is in {counts[i + 1]} groups"
        )
    for i in range(n):
        counts[i + 1] += counts[i]
    gidx = [0] * counts[n]
    fill = counts[:n]
    for gi, ranks in enumerate(members_by_rank):
        for i in ranks:
            gidx[fill[i]] = gi
            fill[i] += 1
    return GroupIndex(array("q", counts), array("q", gidx), [grp.limit for grp in cs.groups], members_by_rank)


def _expect_kind(cs: ConstraintSet, kind: str) -> None:
    if cs.kind != kind:
        raise ValidationError(f"expected {kind} constraints, got {cs.kind!r}")


def solve_unweighted(g: BidGraph, cs: ConstraintSet) -> tuple[Solution, ValueTable]:
    """k-of-group winner determination over a partition of the bids: the
    opportunity-cost :func:`~auctol.solvers.forward_pass` over the group
    index, with its value table."""
    _expect_kind(cs, "unweighted")
    return forward_pass(g, group_index(g, cs), cs.kind)


def solve_unweighted_lr(g: BidGraph, cs: ConstraintSet) -> Solution:
    """Oracle: the local-ratio form of :func:`solve_unweighted`."""
    _expect_kind(cs, "unweighted")
    return local_ratio(g, group_index(g, cs), cs.kind + "-lr")


def solve_overlapping(g: BidGraph, cs: ConstraintSet) -> Solution:
    """k-of-group winner determination over groups that may overlap, each
    bid in at most t of them: :func:`~auctol.solvers.forward_pass` over the
    group index."""
    _expect_kind(cs, "overlapping")
    return forward_pass(g, group_index(g, cs), cs.kind)[0]


def solve_overlapping_lr(g: BidGraph, cs: ConstraintSet) -> Solution:
    """Oracle: the local-ratio form of :func:`solve_overlapping`."""
    _expect_kind(cs, "overlapping")
    return local_ratio(g, group_index(g, cs), cs.kind + "-lr")


# Light-pass numerics: cur > 1e-9 * b decides "still worth selecting", and a
# group multiplier below 1e-12 is folded back into the stored weights.
POSITIVE_EPS = 1e-9
MULTIPLIER_FLOOR = 1e-12


def solve_light(g: BidGraph, cs: ConstraintSet, mode: str = "lazy") -> tuple[Solution, ValueTable]:
    """Winner determination among light bids (weight <= budget/2).

    Forward pass: when node u is reached with positive current weight c,
    every later neighbor loses c, and u's whole group is then scaled by
    (1 - 2c/b): accepting u eats budget, so group mates lose value in
    proportion to their own size. A later neighbor in u's group is charged
    additively first and scaled with the rest of the group after.

    ``lazy`` keeps one multiplier per group and stores weights divided by
    it, making both charge kinds O(1); the multiplier is folded back into
    the stored weights whenever it underflows. ``direct`` applies the group
    scaling member by member (quadratic) and is the verification mode.

    Reverse pass: accept positive nodes while independence holds and the
    group's accepted original weights stay within b.
    """
    _expect_kind(cs, "weighted")
    if mode not in ("lazy", "direct"):
        raise ValidationError(f"unknown light mode {mode!r}")
    for grp in cs.groups:
        if grp.limit > sys.float_info.max:
            raise ValidationError(f"group {grp.label!r}: budget exceeds the double precision of the light pass")
    order, w = g.order(), g.w
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
    n = len(order)
    gx = group_index(g, cs)
    gi_of, b, members_by_rank = gx.gidx, gx.limits, gx.members_by_rank
    for i in range(n):
        if 2 * w[i] > b[gi_of[i]]:
            raise ValidationError(
                f"bid {order[i]!r} is heavy (weight {w[i]} > budget {b[gi_of[i]]}/2)"
            )
    tol = [POSITIVE_EPS * x for x in b]

    vals = [0.0] * n
    processed: list[int] = []
    if mode == "lazy":
        mult = [1.0] * len(cs.groups)
        nw = [float(x) for x in w]  # stored as cur / mult[group]
        for i in range(n):
            gi = gi_of[i]
            ci = nw[i] * mult[gi]
            vals[i] = ci
            if ci <= tol[gi]:
                continue
            processed.append(i)
            for jj in range(succ_ptr[i], succ_ptr[i + 1]):
                j = succ_idx[jj]
                nw[j] -= ci / mult[gi_of[j]]
            mult[gi] *= 1.0 - 2.0 * ci / b[gi]
            if mult[gi] < MULTIPLIER_FLOOR:
                m = mult[gi]
                for j in members_by_rank[gi]:
                    nw[j] *= m
                mult[gi] = 1.0
    else:
        cur = [float(x) for x in w]
        for i in range(n):
            gi = gi_of[i]
            ci = cur[i]
            vals[i] = ci
            if ci <= tol[gi]:
                continue
            processed.append(i)
            for jj in range(succ_ptr[i], succ_ptr[i + 1]):
                cur[succ_idx[jj]] -= ci
            factor = 1.0 - 2.0 * ci / b[gi]
            for j in members_by_rank[gi]:
                if j > i:
                    cur[j] *= factor

    sel = [False] * n
    spent = [0] * len(cs.groups)
    for i in reversed(processed):
        gi = gi_of[i]
        if spent[gi] + w[i] <= b[gi] and not any(
            sel[succ_idx[jj]] for jj in range(succ_ptr[i], succ_ptr[i + 1])
        ):
            sel[i] = True
            spent[gi] += w[i]
    return selection_solution(g, sel, "weighted-light"), ValueTable(order, vals)


def _reweighted(g: BidGraph, w: list[int]) -> BidGraph:
    """``g`` with rank-space weights ``w``, sharing its rows and orientation."""
    h = copy.copy(g)
    h.w = w
    return h


def solve_weighted(g: BidGraph, cs: ConstraintSet, light_mode: str = "lazy") -> Solution:
    """Money-budget winner determination via the heavy/light split.

    Both sides run on ``g`` with the other bids' weights masked to 0 (a bid
    of weight 0 never takes a positive value, so it never charges or wins).
    Heavy bids (b/2 < weight <= b) are mutually exclusive within a group, so
    that side is :func:`~auctol.solvers.forward_pass` with k=1 per group over
    one group index; the light side (weight <= b/2) runs :func:`solve_light`,
    which builds its own. Bids above their whole group budget are 0 on both.
    The higher-revenue side wins; ties go to the heavy side.
    """
    _expect_kind(cs, "weighted")
    gx = group_index(g, cs)
    budget = [gx.limits[gi] for gi in gx.gidx]  # the groups partition the bids: one per rank
    heavy_w = [w if w <= b < 2 * w else 0 for w, b in zip(g.w, budget)]
    light_w = [w if 2 * w <= b else 0 for w, b in zip(g.w, budget)]
    heavy = forward_pass(_reweighted(g, heavy_w), gx._replace(limits=[1] * len(gx.limits)), "weighted")[0]
    light = solve_light(_reweighted(g, light_w), cs, mode=light_mode)[0]
    if heavy.revenue >= light.revenue:
        return heavy
    return Solution(light.selected, light.revenue, Certificate("weighted"))


# The one-pass solver and its cross-check for each constraint kind, both
# called as ``fn(g, cs)`` and returning a :class:`Solution`.
SOLVERS_BY_KIND = {
    "unweighted": (lambda g, cs: solve_unweighted(g, cs)[0], solve_unweighted_lr),
    "overlapping": (solve_overlapping, solve_overlapping_lr),
    "weighted": (solve_weighted, partial(solve_weighted, light_mode="direct")),
}


def check_feasible(sol: Solution, g: BidGraph, cs: ConstraintSet | None = None) -> tuple[bool, list[str]]:
    """Verify independence plus whichever budget constraints apply."""
    violations: list[str] = []
    chosen = set(sol.selected)
    for u in sorted(chosen):
        if u not in g.index:
            violations.append(f"selected bid {u!r} is not a graph node")
            continue
        for v in sorted(g.neighbors(u)):
            if v in chosen and u < v:
                violations.append(f"conflict: {u!r} and {v!r} share an object")
    expected = sum(g.weights[u] for u in chosen if u in g.weights)
    if sol.revenue != expected:
        violations.append(f"revenue {sol.revenue} != sum of selected weights {expected}")
    if cs is not None:
        for grp in cs.groups:
            inside = sorted(chosen & grp.members)
            if cs.kind in ("unweighted", "overlapping"):
                if len(inside) > grp.limit:
                    violations.append(
                        f"group {grp.label!r}: {len(inside)} winners exceed k={grp.limit}"
                    )
            else:
                spend = sum(g.weights[u] for u in inside)
                if spend > grp.limit:
                    violations.append(
                        f"group {grp.label!r}: spend {spend} exceeds budget {grp.limit} "
                        f"by {spend - grp.limit}"
                    )
    return (not violations, violations)


def group_clique_graph(g: BidGraph, cs: ConstraintSet) -> BidGraph:
    """Materialize 1-of-group constraints as cliques in the conflict graph.

    Valid only when every group limit is 1. Each group becomes a clique, so
    disjoint groups add at most 1 to beta and the plain solvers handle the
    constraint with no budget machinery.
    """
    for grp in cs.groups:
        if grp.limit != 1:
            raise ValidationError(f"group {grp.label!r} has k={grp.limit}; clique form needs k=1")
    index, ptr, nbr = g.index, g.ptr, g.nbr
    cliques: list = [(i, j) for i in range(g.n) for j in nbr[ptr[i] : ptr[i + 1]] if i < j]
    for grp in cs.groups:
        _check_members(grp, index)
        cliques.append([index[u] for u in sorted(grp.members)])
    return BidGraph(dict(g.weights), *csr(g.n, cliques))


def exact_feasible(g: BidGraph, cs: ConstraintSet | None, node_cap: int = 20) -> tuple[int, frozenset[str]]:
    """Oracle: the exact optimum over independent, budget-feasible bid sets
    of a small graph, from :func:`~auctol.graphs.exact_search` over the ids
    in ascending order. Each bid uses 1 of its groups' count limits, or its
    price of their budgets for ``weighted``. Returns the revenue and the
    first optimal set the search reaches.
    """
    if g.n > node_cap:
        raise CapacityError(f"graph has {g.n} nodes, feasibility oracle capped at {node_cap}")
    ids = sorted(g.ids)
    w = [g.weights[u] for u in ids]
    groups = None
    if cs is not None:
        pos = {u: i for i, u in enumerate(ids)}
        groups_of: list[list[int]] = [[] for _ in ids]
        for gi, grp in enumerate(cs.groups):
            _check_members(grp, pos)
            for u in grp.members:
                groups_of[pos[u]].append(gi)
        groups = (groups_of, [grp.limit for grp in cs.groups], w if cs.kind == "weighted" else [1] * len(ids))
    best, taken = exact_search(neighbor_masks(g, [g.index[u] for u in ids]), w, groups)
    return best, frozenset(u for i, u in enumerate(ids) if taken >> i & 1)
