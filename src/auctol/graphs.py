"""Bid-graph core: conflict graphs over bids, orientations, and the directed
local independence number.

A bid names a set of objects and a price. Two bids conflict when their object
sets intersect; the conflict graph ("bid graph") therefore has an independent
set exactly where a set of bids can all win together. An *orientation* is a
permutation of the nodes: every edge points from the earlier node to the
later one, which makes the graph acyclic by construction and gives each node
well-defined predecessor and successor sets.

For an oriented graph, ``beta(v)`` is the maximum size of an independent set
among v and its successors. Since v conflicts with every successor, that is
``max(1, alpha(successors(v)))``. The graph-level ``beta`` is the maximum over
nodes and equals the approximation ratio of the opportunity-cost solvers.

A bid graph is stored once, in index space: node i is the i-th bid, and its
neighbours are one slice of a packed index array (compressed sparse rows).
Orienting a graph renames the nodes to their rank in the ordering and splits
every row into earlier and later neighbours, again as packed slices, so the
linear-time solvers read contiguous integer arrays. Rows keep a fixed,
input-determined neighbour order, so every iteration is reproducible.

All structures are treated as immutable once built; nothing here mutates a
graph after construction, so instances can be shared freely across threads.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, compress

from .errors import CapacityError, UnsupportedOrderingError, ValidationError


@dataclass(frozen=True)
class Bid:
    """One bid: an id, a non-empty object set, a price in minor currency
    units (integer cents), and an optional constraint-group label."""

    id: str
    objects: frozenset[str]
    price: int
    group: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "objects", frozenset(self.objects))
        if not self.id:
            raise ValidationError("bid id must be a non-empty string")
        if not self.objects:
            raise ValidationError(f"bid {self.id!r}: object set must be non-empty")
        if not isinstance(self.price, int) or isinstance(self.price, bool):
            raise ValidationError(f"bid {self.id!r}: price must be an integer (minor units)")
        if self.price < 0:
            raise ValidationError(f"bid {self.id!r}: price must be >= 0")


class ObjectGraph:
    """Undirected relevance graph over auction objects.

    Bids are *germane* when their object set induces a connected subgraph.
    ``adj`` maps each object to its neighbours (a dict used as an ordered
    set); ``edges`` lists each edge once, endpoints in ascending order.
    """

    def __init__(self, objects, edges=()):
        self.objects = list(objects)
        self.adj: dict[str, dict[str, None]] = {o: {} for o in self.objects}
        if len(self.adj) != len(self.objects):
            seen = set()
            for o in self.objects:
                if o in seen:
                    raise ValidationError(f"duplicate object id {o!r}")
                seen.add(o)
        adj = self.adj
        self.edges: list[tuple[str, str]] = []
        append = self.edges.append
        for a, b in edges:
            row_a, row_b = adj.get(a), adj.get(b)
            if row_a is None or row_b is None or a == b or b in row_a:
                _reject_edge(a, b, adj)
            row_a[b] = None
            row_b[a] = None
            append((a, b) if a < b else (b, a))

    def __contains__(self, o: str) -> bool:
        return o in self.adj

    def neighbors(self, o: str):
        return self.adj[o].keys()

    def has_edge(self, a: str, b: str) -> bool:
        return b in self.adj.get(a, ())


def _reject_edge(a: str, b: str, adj: dict) -> None:
    """Raise the error for an edge :class:`ObjectGraph` cannot add."""
    if a == b:
        raise ValidationError(f"self-loop on object {a!r}")
    if a not in adj or b not in adj:
        missing = a if a not in adj else b
        raise ValidationError(f"edge endpoint {missing!r} is not a declared object")
    lo, hi = (a, b) if a < b else (b, a)
    raise ValidationError(f"duplicate edge {lo!r}-{hi!r}")


def _disconnected(adj: dict, object_sets):
    """Positions, in order, of the sets in ``object_sets`` that do not induce
    a connected subgraph of the graph with adjacency ``adj``.

    One search per set of two or more objects, restricted to the set and
    stopped once every member is reached. A member with more neighbours than
    the set has members is searched from the set's side (``keys() & set``
    walks the smaller operand), so a set costs
    O(|objs| * min(|objs|, largest degree)).
    """
    for i, objs in enumerate(object_sets):
        if (k := len(objs)) > 1:
            unreached = set(objs)
            stack = [unreached.pop()]  # the result does not depend on the start
            while stack and unreached:
                row = adj[stack.pop()]
                for nb in row if len(row) <= k else row.keys() & unreached:
                    if nb in unreached:
                        unreached.remove(nb)
                        stack.append(nb)
            if unreached:
                yield i


def connected_in(og: ObjectGraph, objs: frozenset[str] | set[str]) -> bool:
    """True iff ``objs`` induces a connected subgraph of ``og``."""
    return next(_disconnected(og.adj, [objs]), None) is None


def validate_germane(og: ObjectGraph, bids: list[Bid]) -> list[str]:
    """Return ids of bids whose object set is not connected in ``og``.

    Raises ValidationError if a bid references an undeclared object.
    """
    adj = og.adj
    object_sets = [b.objects for b in bids]
    if not all(map(adj.__contains__, chain.from_iterable(object_sets))):
        for b in bids:
            undeclared = [o for o in b.objects if o not in adj]
            if undeclared:
                raise ValidationError(f"bid {b.id!r} references undeclared object {min(undeclared)!r}")
    return [bids[i].id for i in _disconnected(adj, object_sets)]


@dataclass
class Ordering:
    """A permutation of bid-graph nodes, treated as the processing order.

    ``frontier_sets``, when present, certify a beta bound: for every pair of
    bids A before B with intersecting object sets, B must intersect
    frontier(A). The largest frontier size then bounds beta from above.
    """

    order: list[str]
    provenance: str = "explicit"
    frontier_sets: dict[str, frozenset[str]] | None = None

    def rank(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.order)}


@dataclass
class BetaReport:
    beta_graph: int
    per_node: dict[str, int]
    method: str


class BidGraph:
    """Conflict graph over bids in index space, with an optional orientation.

    Node i is bid ``ids[i]`` (input order). Its neighbours are
    ``nbr[ptr[i]:ptr[i + 1]]`` (compressed sparse rows: an offset array plus
    one packed index array). :func:`orient` attaches an ordering and renames
    nodes to their rank in it: ``w[r]`` is the weight at rank r, and its
    earlier and later neighbours are the rank slices
    ``pred_idx[pred_ptr[r]:pred_ptr[r + 1]]`` and
    ``succ_idx[succ_ptr[r]:succ_ptr[r + 1]]``.
    """

    def __init__(self, weights: dict[str, int], ptr: array, nbr: array):
        self.ids: list[str] = list(weights)
        self.weights: dict[str, int] = weights
        self.index: dict[str, int] = {u: i for i, u in enumerate(self.ids)}
        self.ptr, self.nbr = ptr, nbr
        self.ordering: Ordering | None = None  # it and the rank space are filled in by orient()
        self._rank = self.w = self.pred_ptr = self.pred_idx = self.succ_ptr = self.succ_idx = None
        self.derived: list = []  # identity-keyed cache of per-constraint indexes

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return len(self.nbr) // 2

    def neighbors(self, u: str) -> list[str]:
        i, ids = self.index[u], self.ids
        return [ids[j] for j in self.nbr[self.ptr[i] : self.ptr[i + 1]]]

    def order(self) -> list[str]:
        if self.ordering is None:
            raise ValidationError("graph has no orientation; call orient() first")
        return self.ordering.order

    def rank(self) -> dict[str, int]:
        self.order()  # raises on an unoriented graph
        return self._rank

    def successors(self, u: str) -> list[str]:
        r, order = self.rank()[u], self.order()
        return [order[s] for s in self.succ_idx[self.succ_ptr[r] : self.succ_ptr[r + 1]]]

    def predecessors(self, u: str) -> list[str]:
        r, order = self.rank()[u], self.order()
        return [order[s] for s in self.pred_idx[self.pred_ptr[r] : self.pred_ptr[r + 1]]]

    def cached(self, key, build):
        """``build()``, computed once per ``key`` object on this graph."""
        for k, value in self.derived:
            if k is key:
                return value
        value = build()
        self.derived.append((key, value))
        return value

    def induced(self, keep) -> "BidGraph":
        """Node-induced subgraph; restricts the orientation if present."""
        keep = set(keep)
        kept = [i for i, u in enumerate(self.ids) if u in keep]
        new = {i: k for k, i in enumerate(kept)}
        ptr, nbr = self.ptr, self.nbr
        pairs = [(new[i], new[j]) for i in kept for j in nbr[ptr[i] : ptr[i + 1]] if j > i and j in new]
        sub = BidGraph({self.ids[i]: self.weights[self.ids[i]] for i in kept}, *csr(len(kept), pairs))
        if self.ordering is None:
            return sub
        return orient(sub, Ordering([u for u in self.ordering.order if u in keep], self.ordering.provenance, None))


def csr(n: int, cliques) -> tuple[array, array]:
    """Adjacency rows of the graph on nodes 0..n-1 in which the members of
    every clique in ``cliques`` are pairwise adjacent.

    Node i's row lists its neighbours clique by clique, in clique order and
    then member order; a per-node "last seen" mark drops repeated pairs, so
    the cost is the sum of clique sizes times memberships, with no set or
    dict per node.
    """
    cliques_of: list[list] = [[] for _ in range(n)]
    for c in cliques:
        for i in c:
            cliques_of[i].append(c)
    mark = [-1] * n
    ptr, nbr = [0], []
    for i in range(n):
        mark[i] = i
        for c in cliques_of[i]:
            for j in c:
                if mark[j] != i:
                    mark[j] = i
                    nbr.append(j)
        ptr.append(len(nbr))
    return array("q", ptr), array("q", nbr)


def build_bid_graph(bids: list[Bid]) -> BidGraph:
    """Conflict graph: an edge between every two bids sharing an object.

    Each object's holders form a clique, so the cost is the sum of
    intersecting-pair counts rather than a full quadratic scan.
    """
    weights: dict[str, int] = {}
    holders: dict[str, list[int]] = {}
    for i, b in enumerate(bids):
        if b.id in weights:
            raise ValidationError(f"duplicate bid id {b.id!r}")
        weights[b.id] = b.price
        for o in sorted(b.objects):
            h = holders.get(o)
            if h is None:
                holders[o] = [i]
            else:
                h.append(i)
    return BidGraph(weights, *csr(len(bids), holders.values()))


def orient(g: BidGraph, ordering: Ordering) -> BidGraph:
    """Attach an orientation: a graph sharing ``g``'s rows, with every edge
    pointing from the earlier node in ``ordering`` to the later, and the
    rank-space weights and predecessor/successor slices built once."""
    order, rank = ordering.order, ordering.rank()
    if len(order) != g.n or rank.keys() != g.index.keys():
        raise ValidationError("ordering must be a permutation of exactly the graph's nodes")
    out = BidGraph(g.weights, g.ptr, g.nbr)
    ptr, nbr, index = g.ptr, g.nbr, g.index
    rank_of = [rank[u] for u in g.ids]
    # every edge is once a predecessor and once a successor entry: size the
    # arrays up front rather than grow them
    pred_ptr, succ_ptr = array("q", [0]) * (g.n + 1), array("q", [0]) * (g.n + 1)
    pred_idx, succ_idx = array("q", [0]) * g.m, array("q", [0]) * g.m
    p = q = 0
    for r, u in enumerate(order):
        i = index[u]
        for j in nbr[ptr[i] : ptr[i + 1]]:
            s = rank_of[j]
            if s > r:
                succ_idx[q] = s
                q += 1
            else:
                pred_idx[p] = s
                p += 1
        pred_ptr[r + 1], succ_ptr[r + 1] = p, q
    out.ordering, out._rank, out.w = ordering, rank, [g.weights[u] for u in order]
    out.pred_ptr, out.pred_idx, out.succ_ptr, out.succ_idx = pred_ptr, pred_idx, succ_ptr, succ_idx
    return out


def check_independent(ptr, idx, sel, names: list[str]) -> None:
    """Defensive check that no two selected positions (``sel[i]`` true) are
    adjacent in the rows ``idx[ptr[i]:ptr[i + 1]]``: a graph's own rows, or
    its successor slices in rank space, which hold every edge once."""
    for i in compress(range(len(sel)), sel):
        for j in idx[ptr[i] : ptr[i + 1]]:
            if sel[j]:
                raise AssertionError(f"solver produced conflicting bids {names[i]!r} and {names[j]!r}")


def neighbor_masks(g: BidGraph, nodes: list[int]) -> list[int]:
    """Bitmask input of the exact oracles: for the k-th node of ``nodes``
    (node indices), the bit set of positions of its neighbours in ``nodes``."""
    pos = {v: k for k, v in enumerate(nodes)}
    ptr, nbr = g.ptr, g.nbr
    masks = []
    for v in nodes:
        mask = 0
        for j in nbr[ptr[v] : ptr[v + 1]]:
            if j in pos:
                mask |= 1 << pos[j]
        masks.append(mask)
    return masks


def beta_exact(g: BidGraph, cap: int = 25) -> BetaReport:
    """Exact directed local independence number of an oriented graph (an
    oracle for small graphs).

    For every node, computes the maximum independent set size among its
    successors by exhaustive branch-and-bound; refuses nodes with more than
    ``cap`` successors since the search is exponential in out-degree.
    """
    rank, succ_ptr, succ_idx = g.rank(), g.succ_ptr, g.succ_idx
    node_of = [g.index[u] for u in g.order()]
    per_node: dict[str, int] = {}
    for u in g.ids:
        r = rank[u]
        succ = [node_of[s] for s in succ_idx[succ_ptr[r] : succ_ptr[r + 1]]]
        if len(succ) > cap:
            raise CapacityError(
                f"node {u!r} has out-degree {len(succ)} > cap {cap}; "
                "use a frontier or composition bound instead"
            )
        per_node[u] = max(1, _alpha(neighbor_masks(g, succ)))
    beta = max(per_node.values(), default=1)
    return BetaReport(beta_graph=beta, per_node=per_node, method="exact-bruteforce")


def _alpha(masks: list[int]) -> int:
    """Maximum independent set size of the graph given by neighbour bitmasks."""
    k = len(masks)
    if k == 0:
        return 0
    best = 0

    def grow(free: int, size: int) -> None:
        nonlocal best
        if size + free.bit_count() <= best:
            return
        if free == 0:
            best = max(best, size)
            return
        # branch on the free node with most free neighbors
        pick, deg = -1, -1
        m = free
        while m:
            low = m & -m
            i = low.bit_length() - 1
            d = (masks[i] & free).bit_count()
            if d > deg:
                pick, deg = i, d
            m ^= low
        grow(free & ~(masks[pick] | (1 << pick)), size + 1)
        grow(free ^ (1 << pick), size)

    grow((1 << k) - 1, 0)
    return best


def beta_bound_frontier(ordering: Ordering) -> int:
    """Upper bound on beta from frontier sets: the largest frontier size.

    Any independent set of successors of A must hit frontier(A) in distinct
    elements, so beta cannot exceed the bound (never reported below 1).
    """
    if ordering.frontier_sets is None:
        raise UnsupportedOrderingError("ordering carries no frontier sets")
    sizes = [len(s) for s in ordering.frontier_sets.values()]
    return max(1, max(sizes, default=1))


def beta_bound_union(bounds: list[int]) -> int:
    """Compose beta bounds across an edge-union decomposition: the sum."""
    for b in bounds:
        if b < 1:
            raise ValidationError(f"beta bound must be >= 1, got {b}")
    return sum(bounds)


def check_frontier_property(ordering: Ordering, bids: list[Bid]) -> list[tuple[str, str]]:
    """Check the frontier hypothesis on every conflicting pair of bids.

    Returns (A, B) pairs with A before B, objects(A) meets objects(B), but
    B missing frontier(A), ordered by A's then B's position. Empty list
    means the frontier bound is sound. Walks the successor slices of the
    conflict graph oriented by ``ordering``: O(|V| + |E|) set tests.
    """
    if ordering.frontier_sets is None:
        raise UnsupportedOrderingError("ordering carries no frontier sets")
    g = orient(build_bid_graph(bids), ordering)
    objects = [b.objects for b in bids]
    order, index = g.order(), g.index
    bad = []
    for r, a in enumerate(order):
        fa = ordering.frontier_sets[a]
        for s in sorted(g.succ_idx[g.succ_ptr[r] : g.succ_ptr[r + 1]]):
            if not (fa & objects[index[order[s]]]):
                bad.append((a, order[s]))
    return bad
