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
within the directed local independence number of the oriented graph. They
read the rank-space weights and predecessor/successor slices that
:func:`auctol.graphs.orient` builds once per ordering.

``greedy`` is the classical first-fit baseline and ``exact_mwis`` a
branch-and-bound oracle for small graphs, used to measure observed ratios.
All weights are integers (minor currency units), so every comparison here is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import CapacityError, ValidationError
from .graphs import BidGraph, check_independent, neighbor_masks


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


def opcost(g: BidGraph, include_zero_value: bool = False) -> tuple[Solution, ValueTable]:
    """Opportunity-cost algorithm.

    Forward pass, in permutation order::

        value(u) = weight(u) - sum(max(0, value(v)) for predecessors v)

    Reverse pass: accept u when value(u) > 0 and no later neighbor was
    accepted. ``include_zero_value=True`` also accepts value-0 nodes (the
    selection rule's literal non-negative form); revenue is unchanged either
    way, but the returned set can then differ from ``lropcost``'s.
    """
    order, w = g.order(), g.w
    pred_ptr, pred_idx = g.pred_ptr, g.pred_idx
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
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
    check_independent(succ_ptr, succ_idx, sel, order)
    chosen = list(compress(order, sel))
    revenue = sum(compress(w, sel))
    return Solution(frozenset(chosen), revenue, Certificate("opcost")), ValueTable(order, val, sel)


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
    """Local-ratio form of the opportunity-cost algorithm.

    Iterative emulation of the recursion: maintain current weights; skip any
    node whose current weight is non-positive when reached (it would have
    been deleted); otherwise charge its current weight to all later
    neighbors and push it on the processing stack. Unwinding the stack,
    accept each node whose later neighbors are all unaccepted.
    """
    order, w = g.order(), g.w
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
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
    check_independent(succ_ptr, succ_idx, sel, order)
    chosen = [order[i] for i in processed if sel[i]]
    revenue = sum(w[i] for i in processed if sel[i])
    return Solution(frozenset(chosen), revenue, Certificate("lropcost"))


def greedy(g: BidGraph, ordering=None) -> Solution:
    """First-fit baseline: scan the order, keep whatever fits."""
    order = ordering.order if ordering is not None else g.order()
    if set(order) != set(g.ids):
        raise ValidationError("ordering must cover exactly the graph's nodes")
    index, ptr, nbr = g.index, g.ptr, g.nbr
    blocked = bytearray(g.n)
    chosen: list[str] = []
    for u in order:
        i = index[u]
        if not blocked[i]:
            chosen.append(u)
            blocked[i] = 1
            for j in nbr[ptr[i] : ptr[i + 1]]:
                blocked[j] = 1
    selected = frozenset(chosen)
    check_independent(ptr, nbr, [u in selected for u in g.ids], g.ids)
    return Solution(selected, sum(g.weights[u] for u in chosen), Certificate("greedy"))


def exact_mwis(g: BidGraph, node_cap: int = 30) -> Solution:
    """Exact maximum-weight independent set by branch and bound (an oracle
    for small graphs).

    Branches on the highest-degree remaining node and prunes with the sum of
    remaining weights. Among equal-weight optima, returns the one whose
    sorted id list is lexicographically smallest, found by fixing ids in
    ascending order against the known optimum.
    """
    if g.n > node_cap:
        raise CapacityError(f"graph has {g.n} nodes, exact solver capped at {node_cap}")
    ids = sorted(g.ids)
    n = len(ids)
    w = [g.weights[u] for u in ids]
    closed = [mask | 1 << i for i, mask in enumerate(neighbor_masks(g, [g.index[u] for u in ids]))]

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
    check_independent(g.ptr, g.nbr, [u in selected for u in g.ids], g.ids)
    assert got == opt
    return Solution(selected, opt, Certificate("exact"))
