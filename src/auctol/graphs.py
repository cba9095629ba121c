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

All structures are treated as immutable once built; nothing here mutates a
graph after construction, so instances can be shared freely across threads.
Adjacency is stored as insertion-ordered dicts rather than sets so that every
iteration order is reproducible across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
    """

    def __init__(self, objects, edges=()):
        self.objects = list(objects)
        seen = set()
        for o in self.objects:
            if o in seen:
                raise ValidationError(f"duplicate object id {o!r}")
            seen.add(o)
        self._nodes = seen
        self.adj: dict[str, dict[str, None]] = {o: {} for o in self.objects}
        self.edges: list[tuple[str, str]] = []
        edge_seen = set()
        for a, b in edges:
            if a == b:
                raise ValidationError(f"self-loop on object {a!r}")
            if a not in seen or b not in seen:
                missing = a if a not in seen else b
                raise ValidationError(f"edge endpoint {missing!r} is not a declared object")
            pair = (a, b) if a < b else (b, a)
            if pair in edge_seen:
                raise ValidationError(f"duplicate edge {pair[0]!r}-{pair[1]!r}")
            edge_seen.add(pair)
            self.edges.append(pair)
            self.adj[a][b] = None
            self.adj[b][a] = None

    def __contains__(self, o: str) -> bool:
        return o in self._nodes

    def neighbors(self, o: str):
        return self.adj[o].keys()

    def has_edge(self, a: str, b: str) -> bool:
        return b in self.adj.get(a, ())


def connected_in(og: ObjectGraph, objs: frozenset[str] | set[str]) -> bool:
    """True iff ``objs`` induces a connected subgraph of ``og``.

    Breadth-first traversal restricted to ``objs``; O(|objs| + induced edges).
    """
    if not objs:
        return True
    it = iter(sorted(objs))
    start = next(it)
    seen = {start}
    queue = deque([start])
    while queue:
        o = queue.popleft()
        for nb in og.adj[o]:
            if nb in objs and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(objs)


def validate_germane(og: ObjectGraph, bids: list[Bid]) -> list[str]:
    """Return ids of bids whose object set is not connected in ``og``.

    Raises ValidationError if a bid references an undeclared object.
    """
    violations = []
    for b in bids:
        for o in sorted(b.objects):
            if o not in og:
                raise ValidationError(f"bid {b.id!r} references undeclared object {o!r}")
        if not connected_in(og, b.objects):
            violations.append(b.id)
    return violations


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
    """Conflict graph over bids with integer weights and an optional
    orientation (a node permutation; edges point earlier -> later)."""

    def __init__(self, weights: dict[str, int], edges=()):
        self.ids: list[str] = list(weights)
        self.weights: dict[str, int] = dict(weights)
        self.adj: dict[str, dict[str, None]] = {u: {} for u in self.ids}
        for a, b in edges:
            self._add_edge(a, b)
        self.ordering: Ordering | None = None
        self._rank: dict[str, int] | None = None
        self._compiled = None

    def _add_edge(self, a: str, b: str) -> None:
        if a == b:
            raise ValidationError(f"self-loop on bid {a!r}")
        if a not in self.adj or b not in self.adj:
            missing = a if a not in self.adj else b
            raise ValidationError(f"edge endpoint {missing!r} is not a bid node")
        self.adj[a][b] = None
        self.adj[b][a] = None

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return sum(len(d) for d in self.adj.values()) // 2

    def neighbors(self, u: str):
        return self.adj[u].keys()

    def order(self) -> list[str]:
        if self.ordering is None:
            raise ValidationError("graph has no orientation; call orient() first")
        return self.ordering.order

    def rank(self) -> dict[str, int]:
        if self._rank is None:
            self._rank = {u: i for i, u in enumerate(self.order())}
        return self._rank

    def successors(self, u: str) -> list[str]:
        r = self.rank()
        ru = r[u]
        return [v for v in self.adj[u] if r[v] > ru]

    def predecessors(self, u: str) -> list[str]:
        r = self.rank()
        ru = r[u]
        return [v for v in self.adj[u] if r[v] < ru]

    def induced(self, keep) -> "BidGraph":
        """Node-induced subgraph; restricts the orientation if present."""
        keep = set(keep)
        sub = BidGraph({u: self.weights[u] for u in self.ids if u in keep})
        for u in sub.ids:
            for v in self.adj[u]:
                if v in keep and u < v:
                    sub._add_edge(u, v)
        if self.ordering is not None:
            sub_order = [u for u in self.ordering.order if u in keep]
            sub.ordering = Ordering(sub_order, self.ordering.provenance, None)
        return sub


def build_bid_graph(bids: list[Bid]) -> BidGraph:
    """Conflict graph: an edge between every two bids sharing an object.

    Built through an object -> bids inverted index, so the cost is the sum of
    intersecting-pair counts rather than a full quadratic scan.
    """
    weights: dict[str, int] = {}
    for b in bids:
        if b.id in weights:
            raise ValidationError(f"duplicate bid id {b.id!r}")
        weights[b.id] = b.price
    g = BidGraph(weights)
    holders: dict[str, list[str]] = {}
    for b in bids:
        for o in sorted(b.objects):
            holders.setdefault(o, []).append(b.id)
    for o in holders:
        ids = holders[o]
        for i in range(len(ids)):
            ai = g.adj[ids[i]]
            for j in range(i + 1, len(ids)):
                bj = ids[j]
                if bj not in ai:
                    g._add_edge(ids[i], bj)
    return g


def orient(g: BidGraph, ordering: Ordering) -> BidGraph:
    """Attach an orientation: a copy of ``g`` sharing its adjacency, with
    every edge pointing from the earlier node in ``ordering`` to the later."""
    if len(ordering.order) != g.n or set(ordering.order) != set(g.ids):
        raise ValidationError("ordering must be a permutation of exactly the graph's nodes")
    out = BidGraph.__new__(BidGraph)
    out.ids = g.ids
    out.weights = g.weights
    out.adj = g.adj
    out.ordering = ordering
    out._rank = None
    out._compiled = None
    return out


def beta_exact(g: BidGraph, cap: int = 25) -> BetaReport:
    """Exact directed local independence number of an oriented graph.

    For every node, computes the maximum independent set size among its
    successors by exhaustive branch-and-bound; refuses nodes with more than
    ``cap`` successors since the search is exponential in out-degree.
    """
    order = g.order()
    rank = g.rank()
    per_node: dict[str, int] = {}
    for u in g.ids:
        succ = [v for v in g.adj[u] if rank[v] > rank[u]]
        if len(succ) > cap:
            raise CapacityError(
                f"node {u!r} has out-degree {len(succ)} > cap {cap}; "
                "use a frontier or composition bound instead"
            )
        per_node[u] = max(1, _alpha(succ, g))
    beta = max(per_node.values(), default=1)
    return BetaReport(beta_graph=beta, per_node=per_node, method="exact-bruteforce")


def _alpha(nodes: list[str], g: BidGraph) -> int:
    """Maximum independent set size within ``nodes`` (induced subgraph)."""
    k = len(nodes)
    if k == 0:
        return 0
    pos = {u: i for i, u in enumerate(nodes)}
    masks = [0] * k
    for i, u in enumerate(nodes):
        for v in g.adj[u]:
            j = pos.get(v)
            if j is not None:
                masks[i] |= 1 << j
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
    """Exhaustively check the frontier hypothesis over all ordered bid pairs.

    Returns (A, B) pairs with A before B, objects(A) meets objects(B), but
    B missing frontier(A). Empty list means the frontier bound is sound.
    """
    if ordering.frontier_sets is None:
        raise UnsupportedOrderingError("ordering carries no frontier sets")
    by_id = {b.id: b for b in bids}
    seq = [by_id[u] for u in ordering.order]
    bad = []
    for i in range(len(seq)):
        a = seq[i]
        fa = ordering.frontier_sets[a.id]
        for j in range(i + 1, len(seq)):
            b = seq[j]
            if a.objects & b.objects and not (fa & b.objects):
                bad.append((a.id, b.id))
    return bad

