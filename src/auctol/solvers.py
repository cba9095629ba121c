"""Winner-determination solvers on oriented bid graphs.

Two approximation algorithms are provided and they provably return the same
set of bids:

* ``opcost``: two passes. A forward pass assigns each node a *value*: its
  weight minus the values of earlier positive-value conflicting nodes (the
  opportunity cost of accepting it). A reverse pass then accepts every
  positive-value node none of whose later neighbors was accepted.

* ``lropcost``: a weight-decomposition recursion, implemented iteratively.
  Nodes whose current weight has been driven to zero or below are dropped;
  otherwise the earliest remaining node is processed, its current weight is
  charged to all of its later neighbors, and on the way back out of the
  recursion it is accepted whenever that keeps the accepted set independent.

Both run in O(|V| + |E|) and approximate the maximum-weight independent set
within the directed local independence number of the oriented graph.

``greedy`` is the classical first-fit baseline and ``exact_mwis`` a
branch-and-bound oracle for small graphs, used to measure observed ratios.
All weights are integers (minor currency units), so every comparison here is
exact.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import CapacityError, ValidationError
from .graphs import BidGraph


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
    """Per-node values and selection flags from a solver's two passes.

    Backed by the solver's index-space arrays; the id-keyed dicts are
    materialized on first access.
    """

    __slots__ = ("_order", "_val", "_sel", "_val_map", "_sel_map")

    def __init__(self, order: list[str], val: list, select: list[bool]):
        self._order = order
        self._val = val
        self._sel = select
        self._val_map = None
        self._sel_map = None

    @property
    def val(self) -> dict:
        if self._val_map is None:
            self._val_map = dict(zip(self._order, self._val))
        return self._val_map

    @property
    def select(self) -> dict[str, bool]:
        if self._sel_map is None:
            self._sel_map = dict(zip(self._order, self._sel))
        return self._sel_map


class Compiled:
    """Index-space view of an oriented graph.

    Nodes are renamed to their position in the permutation; predecessor and
    successor adjacency is stored in flat compressed form (an offset array
    plus one packed index array) so the linear passes touch contiguous
    memory instead of a list object per node.
    """

    __slots__ = ("order", "pos", "w", "pred_ptr", "pred_idx", "succ_ptr", "succ_idx", "derived")

    def __init__(self, g: BidGraph):
        order = g.order()
        pos = {u: i for i, u in enumerate(order)}
        n = len(order)
        self.order = order
        self.pos = pos
        self.w = [g.weights[u] for u in order]
        pred_counts = [0] * (n + 1)
        succ_counts = [0] * (n + 1)
        for i, u in enumerate(order):
            for v in g.adj[u]:
                if pos[v] > i:
                    succ_counts[i + 1] += 1
                else:
                    pred_counts[i + 1] += 1
        for i in range(n):
            pred_counts[i + 1] += pred_counts[i]
            succ_counts[i + 1] += succ_counts[i]
        pred_idx = [0] * pred_counts[n]
        succ_idx = [0] * succ_counts[n]
        pfill = list(pred_counts[:n])
        sfill = list(succ_counts[:n])
        for i, u in enumerate(order):
            for v in g.adj[u]:
                j = pos[v]
                if j > i:
                    succ_idx[sfill[i]] = j
                    sfill[i] += 1
                else:
                    pred_idx[pfill[i]] = j
                    pfill[i] += 1
        self.pred_ptr = array("q", pred_counts)
        self.succ_ptr = array("q", succ_counts)
        self.pred_idx = array("q", pred_idx)
        self.succ_idx = array("q", succ_idx)
        self.derived: list = []  # identity-keyed cache for per-constraint indexes

    def cached(self, key, build):
        for k, value in self.derived:
            if k is key:
                return value
        value = build()
        self.derived.append((key, value))
        return value

    def check_selected_independent(self, sel: list[bool]) -> None:
        """Every edge appears once as (node, later neighbor), so scanning
        successor slices of selected nodes covers all conflict pairs."""
        succ_ptr, succ_idx = self.succ_ptr, self.succ_idx
        for i in range(len(self.order)):
            if sel[i]:
                for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
                    if sel[j]:
                        raise AssertionError(
                            f"solver produced conflicting bids "
                            f"{self.order[i]!r} and {self.order[j]!r}"
                        )


def _compiled(g: BidGraph) -> Compiled:
    if g._compiled is None:
        g._compiled = Compiled(g)
    return g._compiled


def assert_independent(g: BidGraph, selected) -> None:
    """Defensive check that no two selected bids conflict."""
    chosen = set(selected)
    for u in chosen:
        for v in g.adj[u]:
            if v in chosen:
                raise AssertionError(f"solver produced conflicting bids {u!r} and {v!r}")


def opcost(g: BidGraph, include_zero_value: bool = False) -> tuple[Solution, ValueTable]:
    """Opportunity-cost algorithm.

    Forward pass, in permutation order::

        value(u) = weight(u) - sum(max(0, value(v)) for predecessors v)

    Reverse pass: accept u when value(u) > 0 and no later neighbor was
    accepted. ``include_zero_value=True`` also accepts value-0 nodes (the
    selection rule's literal non-negative form); revenue is unchanged either
    way, but the returned set can then differ from ``lropcost``'s.
    """
    c = _compiled(g)
    order, w = c.order, c.w
    pred_ptr, pred_idx = c.pred_ptr, c.pred_idx
    succ_ptr, succ_idx = c.succ_ptr, c.succ_idx
    n = len(order)
    val = [0] * n
    for i in range(n):
        s = 0
        for j in pred_idx[pred_ptr[i] : pred_ptr[i + 1]]:
            vj = val[j]
            if vj > 0:
                s += vj
        val[i] = w[i] - s
    sel = [False] * n
    for i in range(n - 1, -1, -1):
        vi = val[i]
        if vi > 0 or (include_zero_value and vi == 0):
            free = True
            for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
                if sel[j]:
                    free = False
                    break
            sel[i] = free
    c.check_selected_independent(sel)
    chosen = list(compress(order, sel))
    revenue = sum(compress(w, sel))
    return Solution(frozenset(chosen), revenue, Certificate("opcost")), ValueTable(order, val, sel)


def verify_value_table(g: BidGraph, table: ValueTable) -> bool:
    """Recompute the value recurrence in one pass and compare."""
    c = _compiled(g)
    for i, u in enumerate(c.order):
        s = 0
        for jj in range(c.pred_ptr[i], c.pred_ptr[i + 1]):
            vj = table.val[c.order[c.pred_idx[jj]]]
            if vj > 0:
                s += vj
        if table.val[u] != c.w[i] - s:
            return False
    return True


def lropcost(g: BidGraph) -> Solution:
    """Local-ratio form of the opportunity-cost algorithm.

    Iterative emulation of the recursion: maintain current weights; skip any
    node whose current weight is non-positive when reached (it would have
    been deleted); otherwise charge its current weight to all later
    neighbors and push it on the processing stack. Unwinding the stack,
    accept each node whose later neighbors are all unaccepted.
    """
    c = _compiled(g)
    order, w = c.order, c.w
    succ_ptr, succ_idx = c.succ_ptr, c.succ_idx
    n = len(order)
    cur = list(w)
    processed: list[int] = []
    for i in range(n):
        ci = cur[i]
        if ci <= 0:
            continue
        processed.append(i)
        for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
            cur[j] -= ci
    sel = [False] * n
    for i in reversed(processed):
        free = True
        for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
            if sel[j]:
                free = False
                break
        sel[i] = free
    c.check_selected_independent(sel)
    chosen = [order[i] for i in processed if sel[i]]
    revenue = sum(w[i] for i in processed if sel[i])
    return Solution(frozenset(chosen), revenue, Certificate("lropcost"))


def greedy(g: BidGraph, ordering=None) -> Solution:
    """First-fit baseline: scan the order, keep whatever fits."""
    order = ordering.order if ordering is not None else g.order()
    if set(order) != set(g.ids):
        raise ValidationError("ordering must cover exactly the graph's nodes")
    blocked: set[str] = set()
    chosen: list[str] = []
    for u in order:
        if u not in blocked:
            chosen.append(u)
            blocked.add(u)
            blocked.update(g.adj[u])
    selected = frozenset(chosen)
    revenue = sum(g.weights[u] for u in chosen)
    assert_independent(g, selected)
    return Solution(selected, revenue, Certificate("greedy"))


def exact_mwis(g: BidGraph, node_cap: int = 30) -> Solution:
    """Exact maximum-weight independent set by branch and bound.

    Branches on the highest-degree remaining node and prunes with the sum of
    remaining weights. Among equal-weight optima, returns the one whose
    sorted id list is lexicographically smallest, found by fixing ids in
    ascending order against the known optimum.
    """
    if g.n > node_cap:
        raise CapacityError(f"graph has {g.n} nodes, exact solver capped at {node_cap}")
    ids = sorted(g.ids)
    pos = {u: i for i, u in enumerate(ids)}
    n = len(ids)
    w = [g.weights[u] for u in ids]
    closed = [1 << i for i in range(n)]
    for u in ids:
        for v in g.adj[u]:
            closed[pos[u]] |= 1 << pos[v]

    def max_weight(free: int, rem: int, floor: int) -> int:
        """Best achievable weight within ``free``; prunes below ``floor``."""
        best = 0

        def dfs(mask: int, cur: int, rem_sum: int) -> None:
            nonlocal best
            if cur > best:
                best = cur
            if mask == 0 or cur + rem_sum <= max(best, floor):
                return
            pick, deg = -1, -1
            m = mask
            while m:
                low = m & -m
                i = low.bit_length() - 1
                d = (closed[i] & mask).bit_count()
                if d > deg:
                    pick, deg = i, d
                m ^= low
            removed = closed[pick] & mask
            drop = 0
            m = removed
            while m:
                low = m & -m
                drop += w[low.bit_length() - 1]
                m ^= low
            dfs(mask & ~removed, cur + w[pick], rem_sum - drop)
            dfs(mask & ~(1 << pick), cur, rem_sum - w[pick])

        dfs(free, 0, rem)
        return best

    full = (1 << n) - 1
    total = sum(w)
    opt = max_weight(full, total, -1)

    chosen: list[str] = []
    free = full
    got = 0
    for i in range(n):
        bit = 1 << i
        if not free & bit:
            continue
        with_i = free & ~closed[i]
        rem = sum(w[j] for j in range(n) if with_i & (1 << j))
        need = opt - got - w[i]
        if w[i] + max_weight(with_i, rem, need - 1) + got >= opt:
            chosen.append(ids[i])
            got += w[i]
            free = with_i
        else:
            free &= ~bit

    selected = frozenset(chosen)
    assert_independent(g, selected)
    assert got == opt
    return Solution(selected, opt, Certificate("exact"))
