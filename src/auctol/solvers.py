"""Winner-determination solvers on oriented bid graphs.

Two approximation algorithms are provided and they provably return the same
set of bids. Each is written once and takes an optional group index, which
adds the k-of-group limits of :mod:`auctol.budgets`; ``opcost`` and
``lropcost`` are the calls without one.

* :func:`forward_pass`: two passes. A forward pass assigns each node a
  *value*: its weight minus the values of earlier positive-value
  conflicting nodes (the opportunity cost of accepting it). A reverse pass
  then accepts every positive-value node none of whose later neighbors was
  accepted.

* :func:`local_ratio`, the oracle: a weight-decomposition recursion,
  implemented iteratively. Nodes whose current weight has been driven to
  zero or below are dropped; otherwise the earliest remaining node is
  processed, its current weight is charged to all of its later neighbors,
  and on the way back out of the recursion it is accepted whenever that
  keeps the accepted set independent.

Without groups both run in O(|V| + |E|) and approximate the maximum-weight
independent set within the directed local independence number of the
oriented graph. They read the rank-space weights and predecessor/successor
slices that :func:`auctol.graphs.orient` builds once per ordering, and
finish through :func:`selection_solution`.

``greedy``, the classical first-fit baseline, reads the same slices and
finishes the same way. ``exact_mwis`` is the oracle for small graphs that
observed ratios are measured against: a thin caller of
:func:`auctol.graphs.exact_search`, the one exhaustive search behind every
exact oracle.
All weights are integers (minor currency units), so every comparison here is
exact.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd

from .errors import CapacityError
from .graphs import BidGraph, check_independent, exact_search, neighbor_masks, orient


@dataclass(frozen=True)
class Certificate:
    """The algorithm that produced a solution and, once
    :func:`auctol.instances.certify` has run, the beta bound of the ordering
    and the approximation ratio it implies."""

    algorithm: str
    beta_bound: int | None = None
    claimed_ratio: Fraction | None = None


@dataclass(frozen=True)
class Solution:
    """A selected bid set with its revenue and provenance certificate."""

    selected: frozenset[str]
    revenue: int
    certificate: Certificate

    def to_json_obj(self) -> dict:
        ratio = self.certificate.claimed_ratio
        if ratio is not None:
            ratio = int(ratio) if ratio.denominator == 1 else f"{ratio.numerator}/{ratio.denominator}"
        return {
            "algorithm": self.certificate.algorithm,
            "selected": sorted(self.selected),
            "revenue": self.revenue,
            "certificate": {
                "beta_bound": self.certificate.beta_bound,
                "claimed_ratio": ratio,
            },
        }


class ValueTable:
    """Per-node values from a solver's forward pass.

    Backed by the solver's index-space array; the id-keyed dict is
    materialized on first access. With ``den`` given, ``val`` holds integer
    numerators and the values are ``Fraction(num, den)``, made on that first
    access; otherwise ``val`` holds the values themselves.
    """

    __slots__ = ("_order", "_val", "_den", "_val_map")

    def __init__(self, order: list[str], val: list, den: int | None = None):
        self._order = order
        self._val = val
        self._den = den
        self._val_map = None

    @property
    def val(self) -> dict:
        if self._val_map is None:
            den = self._den
            vals = self._val if den is None else (Fraction(x, den) for x in self._val)
            self._val_map = dict(zip(self._order, vals))
        return self._val_map


def selection_solution(g: BidGraph, sel: list[bool], algorithm: str) -> Solution:
    """The :class:`Solution` of a rank-space selection (``sel[i]`` true when
    the i-th node of the order won), after checking that it is independent."""
    order = g.order()
    check_independent(g.succ_ptr, g.succ_idx, sel, order)
    return Solution(frozenset(compress(order, sel)), sum(compress(g.w, sel)), Certificate(algorithm))


def forward_pass(
    g: BidGraph, groups=None, algorithm: str = "opcost", include_zero_value: bool = False
) -> tuple[Solution, ValueTable]:
    """The opportunity-cost algorithm, optionally with k-of-group limits.

    ``groups`` is a group index (``gptr``, ``gidx``, ``limits``,
    ``members_by_rank``, as :class:`auctol.budgets.GroupIndex` builds it
    over ``g``'s ranks) or None. Forward pass, in permutation order::

        value(u) = weight(u) - sum(max(0, value(v)) for predecessors v)
                   - sum(delta(G) / k(G) for groups G containing u)

    where delta(G) is the running sum of the positive values already seen
    in G. Reverse pass: accept u when value(u) > 0, no later neighbor was
    accepted and every group of u has room. ``include_zero_value=True``
    also accepts value-0 nodes (the selection rule's literal non-negative
    form); revenue is unchanged either way, but the returned set can then
    differ from :func:`local_ratio`'s. Runs in O(|V| * t + |E|), t the
    most groups of one node, plus O(|V|) for each of the at most log2(d)
    refinements of d below.

    Arithmetic is exact in integers: every value and running sum is a
    numerator over one common denominator d, which starts at 1. When a
    charge delta(G)/k(G) is not a whole number of 1/d, d is multiplied by
    k(G)/gcd(delta(G), k(G)) and so are the stored numerators. With every
    k = 1, d stays 1 and the values are plain integers; otherwise the value
    table reports them as ``Fraction(num, d)``.
    """
    order, w = g.order(), g.w
    pred_ptr, pred_idx = g.pred_ptr, g.pred_idx
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
    n = len(order)
    gptr, gidx, k, _members = groups if groups is not None else (None, None, (), None)

    d = 1  # every value and running group sum is an integer numerator over d
    delta = [0] * len(k)
    val = [0] * n
    for i in range(n):
        s = 0
        for j in pred_idx[pred_ptr[i] : pred_ptr[i + 1]]:
            vj = val[j]
            if vj > 0:
                s += vj
        v = w[i] * d - s
        if gptr is not None:
            mine = gidx[gptr[i] : gptr[i + 1]]
            for gi in mine:
                c, kg = delta[gi], k[gi]
                if kg != 1:
                    c, r = divmod(c, kg)
                    if r:  # delta/k is not a whole number of 1/d: refine d
                        m = kg // gcd(delta[gi], kg)
                        d *= m
                        val[:i] = [x * m for x in val[:i]]
                        delta = [x * m for x in delta]
                        v *= m
                        c = delta[gi] // kg
                v -= c
            if v > 0:
                for gi in mine:
                    delta[gi] += v
        val[i] = v

    sel = [False] * n
    used = [0] * len(k)
    for i in range(n - 1, -1, -1):
        vi = val[i]
        if vi < 0 or (vi == 0 and not include_zero_value):
            continue
        mine = gidx[gptr[i] : gptr[i + 1]] if gptr is not None else ()
        for gi in mine:
            if used[gi] >= k[gi]:
                break
        else:
            for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
                if sel[j]:
                    break
            else:
                sel[i] = True
                for gi in mine:
                    used[gi] += 1
    den = None if all(x == 1 for x in k) else d
    return selection_solution(g, sel, algorithm), ValueTable(order, val, den)


def local_ratio(g: BidGraph, groups=None, algorithm: str = "lropcost") -> Solution:
    """Oracle: the local-ratio form of :func:`forward_pass` (Bar-Yehuda,
    Bendel, Freund & Rawitz, ACM Comput. Surv. 36(4), 2004), kept as an
    independent cross-check of the one-pass form.

    Iterative emulation of the recursion: maintain current weights; skip any
    node whose current weight is non-positive when reached (it would have
    been deleted); otherwise charge its current weight in full to all later
    neighbors and at 1/k to every later member of each of its groups (a
    later neighbor in the same group is charged under both rules), and push
    it on the processing stack. Unwinding the stack, accept each node whose
    later neighbors are all unaccepted and whose groups all have room.
    Quadratic in group size.
    """
    order, w = g.order(), g.w
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
    n = len(order)
    gptr, gidx, k, members_by_rank = groups if groups is not None else (None, None, (), None)

    exact_ints = all(x == 1 for x in k)
    cur: list = list(w) if exact_ints else [Fraction(x) for x in w]
    processed: list[int] = []
    for i in range(n):
        ci = cur[i]
        if ci <= 0:
            continue
        processed.append(i)
        for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
            cur[j] -= ci
        if gptr is not None:
            for gi in gidx[gptr[i] : gptr[i + 1]]:
                share = ci if exact_ints else ci / k[gi]
                ranks = members_by_rank[gi]
                for j in ranks[bisect_right(ranks, i) :]:
                    cur[j] -= share

    sel = [False] * n
    used = [0] * len(k)
    for i in reversed(processed):
        mine = gidx[gptr[i] : gptr[i + 1]] if gptr is not None else ()
        if mine and any(used[gi] >= k[gi] for gi in mine):
            continue
        for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
            if sel[j]:
                break
        else:
            sel[i] = True
            for gi in mine:
                used[gi] += 1
    return selection_solution(g, sel, algorithm)


def opcost(g: BidGraph, include_zero_value: bool = False) -> tuple[Solution, ValueTable]:
    """Opportunity-cost algorithm: :func:`forward_pass` with no groups."""
    return forward_pass(g, include_zero_value=include_zero_value)


def verify_value_table(g: BidGraph, table: ValueTable) -> bool:
    """Recompute the value recurrence in one pass and compare."""
    order = g.order()
    for i, u in enumerate(order):
        s = 0
        for j in g.pred_idx[g.pred_ptr[i] : g.pred_ptr[i + 1]]:
            vj = table.val[order[j]]
            if vj > 0:
                s += vj
        if table.val[u] != g.w[i] - s:
            return False
    return True


def lropcost(g: BidGraph) -> Solution:
    """Oracle: the local-ratio form of :func:`opcost`, :func:`local_ratio`
    with no groups."""
    return local_ratio(g)


def greedy(g: BidGraph, ordering=None) -> Solution:
    """First-fit baseline: keep each node, in rank order, that no kept earlier
    neighbour blocks; an ``ordering`` other than ``g``'s own orients ``g`` first."""
    if ordering is not None:
        g = orient(g, ordering)
    blocked = bytearray(len(g.order()))  # g.order() raises on an unoriented graph
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
    for i in range(len(blocked)):
        if not blocked[i]:  # kept: block its later neighbours
            for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
                blocked[j] = 1
    return selection_solution(g, [not b for b in blocked], "greedy")


def exact_mwis(g: BidGraph, node_cap: int = 30) -> Solution:
    """Oracle: the exact maximum-weight independent set of a small graph,
    from :func:`~auctol.graphs.exact_search` over the ids in ascending
    order.

    Of two equal-weight optima, returns the one holding the smallest id in
    which they differ: the search's first optimum, extended past its
    largest member by every later id that conflicts with nothing taken
    (each such id has weight 0).
    """
    if g.n > node_cap:
        raise CapacityError(f"graph has {g.n} nodes, exact solver capped at {node_cap}")
    ids = sorted(g.ids)
    masks = neighbor_masks(g, [g.index[u] for u in ids])
    opt, taken = exact_search(masks, [g.weights[u] for u in ids])
    for i in range(taken.bit_length(), len(ids)):
        if not masks[i] & taken:
            taken |= 1 << i
    selected = frozenset(u for i, u in enumerate(ids) if taken >> i & 1)
    check_independent(g.ptr, g.nbr, [u in selected for u in g.ids], g.ids)
    return Solution(selected, opt, Certificate("exact"))
