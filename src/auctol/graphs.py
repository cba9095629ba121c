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
input-determined neighbour order, so every iteration is reproducible. The
object graph is stored the same way, over object ids in ascending name
order, and an instance keeps its bids as rows of those ids
(:class:`BidTable`).

No structure changes once built, except for three attributes written on
first use: the id-to-node map ``BidGraph.index`` and two records naming the
object graph a check passed against (``BidTable._germane_in``,
``TreeDecomposition._valid_for``). The map is the same whichever thread
builds it and a record only names a passed check, so threads that share an
instance risk at most a repeated build or check. A record assumes that what
it sits on is not changed after the check.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, filterfalse
from operator import eq

from .errors import CapacityError, ValidationError


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
    ``objects`` keeps the input order; ``edges`` lists each edge once, in
    input order, endpoints in ascending order.

    The graph is stored in index space. Object id o is ``names[o]``, ids
    ascending by name, so sorting ids sorts names; ``index`` maps a name to
    its id. The neighbours of o are ``nbr[ptr[o]:ptr[o + 1]]`` in edge order.
    ``edges`` is built from the id pairs on each read.
    """

    def __init__(self, objects, edges=()):
        self.objects = list(objects)
        self.names = sorted(self.objects)
        self.index = dict(zip(self.names, range(len(self.names))))
        edges = list(edges)
        if len(self.index) != len(self.objects):
            _reject_edges(self.objects, edges)
        try:
            ends = list(map(self.index.__getitem__, chain.from_iterable(edges)))
        except KeyError:
            _reject_edges(self.objects, edges)
        if len(ends) != 2 * len(edges):  # an edge that is not a pair
            _reject_edges(self.objects, edges)
        # from here on the edges are read as id pairs, and each temporary is
        # dropped once the next is built: the given pairs (freed here when
        # the caller passed an iterator and so holds no other reference),
        # then the endpoint list, once split into its two sides
        del edges
        self._src, self._dst = src, dst = ends[0::2], ends[1::2]
        del ends
        rows: list[list[int]] = [[] for _ in self.names]
        for a, b in zip(src, dst):
            rows[a].append(b)
            rows[b].append(a)
        # an edge given twice, either way round, or a self-loop repeats an
        # entry of a row
        if not all(map(eq, map(len, map(set, rows)), map(len, rows))):
            _reject_edges(self.objects, self.edges)
        self.ptr = [0, *accumulate(map(len, rows))]
        self.nbr = list(chain.from_iterable(rows))

    @property
    def edges(self) -> list[tuple[str, str]]:
        names = self.names
        return [(names[a], names[b]) if a < b else (names[b], names[a]) for a, b in zip(self._src, self._dst)]

    def edge_keys(self) -> set[tuple[int, int]]:
        """Every edge as both id pairs (a, b) and (b, a), built on each call."""
        src, dst = self._src, self._dst
        return set(zip(src + dst, dst + src))

    def __contains__(self, o: str) -> bool:
        return o in self.index


def _reject_edges(objects: list[str], edges) -> None:
    """Raise the error for the first object or edge :class:`ObjectGraph`
    cannot add, walking them in input order."""
    declared = set()
    for o in objects:
        if o in declared:
            raise ValidationError(f"duplicate object id {o!r}")
        declared.add(o)
    seen = set()
    for a, b in edges:
        if a == b:
            raise ValidationError(f"self-loop on object {a!r}")
        if a not in declared or b not in declared:
            missing = a if a not in declared else b
            raise ValidationError(f"edge endpoint {missing!r} is not a declared object")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise ValidationError(f"duplicate edge {key[0]!r}-{key[1]!r}")
        seen.add(key)


def _intern(index: dict[str, int], object_sets) -> list[list[int]]:
    """Each object set as a row of distinct object ids, ascending. Raises
    KeyError on a name ``index`` does not hold."""
    get = index.__getitem__
    return [sorted({*map(get, objs)}) for objs in object_sets]


def _disconnected(og: ObjectGraph, rows):
    """Positions, in order, of the rows (distinct object ids of ``og``) that
    do not induce a connected subgraph of ``og``.

    One search per row of two or more objects, restricted to the row and
    stopped once every member is reached. Row i stamps its members i + 1 and
    resets a member's stamp to 0 once reached, so no set is built per row. A
    member with more neighbours than the row has members tests the row's
    members against ``og``'s edge-key set (built once, at the first such
    member) instead of scanning its neighbours, so a row of k objects costs
    O(k * min(k, largest degree)).
    """
    ptr, nbr = og.ptr, og.nbr
    stamp = [0] * len(og.names)
    keys = None
    for i, row in enumerate(rows):
        if (k := len(row)) > 1:
            tag = i + 1
            for o in row:
                stamp[o] = tag
            reached = [row[0]]  # the result does not depend on the start
            stamp[row[0]] = 0
            for v in reached:  # grows as the search goes
                lo, hi = ptr[v], ptr[v + 1]
                if hi - lo <= k:
                    near = nbr[lo:hi]
                else:  # a hub: test the row's members, not its neighbours
                    keys = keys or og.edge_keys()
                    near = [w for w in row if (v, w) in keys]
                for w in near:
                    if stamp[w] == tag:
                        stamp[w] = 0
                        reached.append(w)
                if len(reached) == k:
                    break
            if len(reached) < k:
                yield i


@dataclass
class Ordering:
    """A permutation of bid-graph nodes, treated as the processing order.

    ``frontier_sets``, when present, certify a beta bound: for every pair of
    bids A before B with intersecting object sets, B must intersect
    frontier(A). The largest frontier size then bounds beta from above.

    An ordering holds no certificate: its provenance or frontier sets bound
    beta only where a check passed, and the stage that ran it returns the bound.
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
    one packed index array); ``index`` maps an id to its node, built the
    first time it is read. :func:`orient` attaches an ordering and renames
    nodes to their rank in it: ``w[r]`` is the weight at rank r, and its
    earlier and later neighbours are the rank slices
    ``pred_idx[pred_ptr[r]:pred_ptr[r + 1]]`` and
    ``succ_idx[succ_ptr[r]:succ_ptr[r + 1]]``.
    """

    def __init__(self, weights: dict[str, int], ptr: array, nbr: array):
        self.ids: list[str] = list(weights)
        self.weights: dict[str, int] = weights
        self.ptr, self.nbr = ptr, nbr
        self.ordering: Ordering | None = None  # it and the rank space are filled in by orient()
        self.w = self.pred_ptr = self.pred_idx = self.succ_ptr = self.succ_idx = None

    @cached_property
    def index(self) -> dict[str, int]:
        """Node index by bid id, built on first read."""
        return dict(zip(self.ids, range(len(self.ids))))

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
        return self.ordering.rank()


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


class BidTable:
    """Bids in index space: bid i has id ``ids[i]``, price ``prices[i]``,
    group ``groups[i]`` and the object ids ``rows[i]`` (distinct,
    ascending); object id o is ``names[o]``, ids ascending by name.

    An instance keeps its bids in this form, interned against its object
    graph's ids.
    """

    def __init__(self, ids: list[str], prices: list[int], groups: list, rows: list[list[int]], names: list[str]):
        self.ids, self.prices, self.groups, self.rows, self.names = ids, prices, groups, rows, names
        self._germane_in: ObjectGraph | None = None

    @classmethod
    def from_columns(cls, ids, prices, groups, object_sets, og: ObjectGraph | None = None) -> "BidTable":
        """Bid columns interned against ``og``'s object ids or, without an
        object graph, against the sorted names the bids use. Raises KeyError
        on an object ``og`` does not declare."""
        if og is None:
            names = sorted(set().union(*object_sets))
            index = dict(zip(names, range(len(names))))
        else:
            names, index = og.names, og.index
        return cls(ids, prices, groups, _intern(index, object_sets), names)

    @classmethod
    def from_bids(cls, bids: list[Bid], og: ObjectGraph | None = None) -> "BidTable":
        """:meth:`from_columns` of ``bids``, raising ValidationError on the
        first repeated bid id or, failing that, on the first bid that
        references an object ``og`` does not declare."""
        columns = [b.id for b in bids], [b.price for b in bids], [b.group for b in bids], [b.objects for b in bids]
        check_unique_ids(columns[0])
        try:
            return cls.from_columns(*columns, og)
        except KeyError:
            for b in bids:
                undeclared = [o for o in b.objects if o not in og]
                if undeclared:
                    raise ValidationError(f"bid {b.id!r} references undeclared object {min(undeclared)!r}") from None
            raise

    def object_sets(self) -> list[frozenset[str]]:
        """Each bid's object names, as a set."""
        names = self.names
        return [frozenset(map(names.__getitem__, row)) for row in self.rows]

    def disconnected(self, og: ObjectGraph) -> list[str]:
        """Ids of the bids whose objects are not connected in ``og``, which
        must be the graph the rows were interned against. An empty answer is
        recorded on the table, and a later call with the same ``og`` object
        returns [] without searching again; the record assumes the rows are
        not changed after the search."""
        if og is not None and self._germane_in is og:
            return []
        bad = [self.ids[i] for i in _disconnected(og, self.rows)]
        if not bad:
            self._germane_in = og
        return bad

    def graph(self) -> BidGraph:
        """The conflict graph. Each object's holders form a clique, in the
        order objects first appear when the bids are read in order and each
        bid's objects in ascending order, so the rows do not depend on how
        the objects were interned."""
        holders: list = [None] * len(self.names)
        cliques = []  # the holder lists, made in first-appearance order
        for i, row in enumerate(self.rows):
            for o in row:
                h = holders[o]
                if h is None:
                    holders[o] = h = []
                    cliques.append(h)
                h.append(i)
        return BidGraph(dict(zip(self.ids, self.prices)), *csr(len(self.ids), cliques))


def build_bid_graph(bids: list[Bid]) -> BidGraph:
    """Conflict graph: an edge between every two bids sharing an object.

    Each object's holders form a clique, so the cost is the sum of
    intersecting-pair counts rather than a full quadratic scan.
    """
    return BidTable.from_bids(bids).graph()


def check_unique_ids(ids: list[str]) -> set[str]:
    """The set of ``ids``; raises ValidationError naming the first that repeats an earlier one."""
    id_set = set(ids)
    if len(id_set) != len(ids):
        seen = set()
        for u in ids:
            if u in seen:
                raise ValidationError(f"duplicate bid id {u!r}")
            seen.add(u)
    return id_set


def orient(g: BidGraph, ordering: Ordering) -> BidGraph:
    """``g`` oriented by ``ordering``: ``g`` itself when ``ordering`` oriented it, else
    :func:`orient_by_index` of ``ordering``, which must be a permutation of exactly ``g``'s nodes."""
    if g.ordering is ordering:
        return g
    if len(ordering.order) != g.n or ordering.rank().keys() != g.index.keys():
        raise ValidationError("ordering must be a permutation of exactly the graph's nodes")
    return orient_by_index(g, list(map(g.index.__getitem__, ordering.order)), ordering)


def orient_by_index(g: BidGraph, order: list[int], ordering: Ordering) -> BidGraph:
    """A copy of ``g`` sharing its ids and rows, every edge pointing from the
    earlier node in ``ordering`` (node indices ``order``) to the later, and
    the rank-space weights and predecessor/successor slices built once, each
    row entry ranked once."""
    n, ptr, nbr = g.n, g.ptr, g.nbr
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    # every edge is once a predecessor and once a successor entry: size the
    # arrays up front rather than grow them
    pred_ptr, succ_ptr = array("q", [0]) * (n + 1), array("q", [0]) * (n + 1)
    pred_idx, succ_idx = array("q", [0]) * g.m, array("q", [0]) * g.m
    p = q = 0
    for r, i in enumerate(order):
        for j in nbr[ptr[i] : ptr[i + 1]]:
            s = rank[j]
            if s > r:
                succ_idx[q] = s
                q += 1
            else:
                pred_idx[p] = s
                p += 1
        pred_ptr[r + 1], succ_ptr[r + 1] = p, q
    out = copy.copy(g)
    out.ordering, out.w = ordering, list(map(g.weights.__getitem__, ordering.order))
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
    """Bitmask input of :func:`exact_search`: for the k-th node of ``nodes``
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


def exact_search(masks: list[int], w: list[int], groups=None) -> tuple[int, int]:
    """The exhaustive search behind every exact oracle (``exact_mwis``,
    ``exact_feasible``, :func:`beta_exact`): a maximum-weight independent
    set of the graph whose position i has neighbours ``masks[i]`` (a bit
    set) and weight ``w[i] >= 0``.

    ``groups``, when given, is ``(groups_of, room, cost)``: position i
    belongs to the groups ``groups_of[i]`` and uses ``cost[i]`` of each
    one's ``room[gi]``; it fits only while all of them have that much left.
    The search updates ``room`` in place and restores it before returning.

    Branches over positions in ascending order, include before exclude.
    Taking a position drops from the free positions its neighbours and the
    members of its groups that no longer fit, and a branch is cut once the
    weight still free cannot beat the best found. A free position in no
    group that weighs at least as much as its free neighbours together is
    taken without trying to leave it out: a set without it does no worse
    with it in place of them.

    Returns the best weight and, as a bit set, the first set of that weight
    the search reaches. A set is reached when its largest member is taken,
    so that set's sorted positions are the lexicographically smallest among
    the optima, and none of its members follows its last one of positive
    weight.
    """
    n = len(masks)
    groups_of, room, cost = groups if groups is not None else ([()] * n, (), ())
    members = [0] * len(room)
    free, bound = (1 << n) - 1, sum(w)
    for i, mine in enumerate(groups_of):
        for gi in mine:
            members[gi] |= 1 << i
            if cost[i] > room[gi] and free >> i & 1:  # i never fits
                free ^= 1 << i
                bound -= w[i]
    best_w = best = 0

    def grow(free: int, taken: int, cur: int, bound: int) -> None:
        nonlocal best_w, best
        while free and cur + bound > best_w:
            bit = free & -free
            i = bit.bit_length() - 1
            free ^= bit
            bound -= w[i]
            if cur + w[i] > best_w:
                best_w, best = cur + w[i], taken | bit
            out = masks[i] & free
            for gi in groups_of[i]:
                room[gi] -= cost[i]
                m = members[gi] & free
                while m:
                    low = m & -m
                    if cost[low.bit_length() - 1] > room[gi]:
                        out |= low
                    m ^= low
            dropped, m = 0, out
            while m:
                low = m & -m
                dropped += w[low.bit_length() - 1]
                m ^= low
            if not groups_of[i] and w[i] >= dropped:  # leaving i out cannot do better
                free, taken, cur, bound = free ^ out, taken | bit, cur + w[i], bound - dropped
                continue
            grow(free ^ out, taken | bit, cur + w[i], bound - dropped)
            for gi in groups_of[i]:
                room[gi] += cost[i]

    grow(free, 0, 0, bound)
    return best_w, best


def beta_exact(g: BidGraph, cap: int = 25) -> BetaReport:
    """Exact directed local independence number of an oriented graph (an
    oracle for small graphs).

    For every node, computes the maximum independent set size among its
    successors with :func:`exact_search`; refuses nodes with more than
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
        # fewer than two successors: the value is 1, no search needed
        per_node[u] = max(1, exact_search(neighbor_masks(g, succ), [1] * len(succ))[0]) if len(succ) > 1 else 1
    beta = max(per_node.values(), default=1)
    return BetaReport(beta_graph=beta, per_node=per_node, method="exact-bruteforce")


def beta_bound_frontier(ordering: Ordering) -> int:
    """Upper bound on beta from frontier sets: the largest frontier size.

    Any independent set of successors of A must hit frontier(A) in distinct
    elements, so beta cannot exceed the bound (never reported below 1).
    """
    if ordering.frontier_sets is None:
        raise ValidationError("ordering carries no frontier sets")
    sizes = [len(s) for s in ordering.frontier_sets.values()]
    return max(1, max(sizes, default=1))


def beta_bound_union(bounds: list[int]) -> int:
    """Compose beta bounds (one or more, each >= 1) across an edge-union decomposition: the sum."""
    if not bounds:
        raise ValidationError("no beta bounds to compose")
    for b in bounds:
        if b < 1:
            raise ValidationError(f"beta bound must be >= 1, got {b}")
    return sum(bounds)


def frontier_violations(g: BidGraph, ordering: Ordering, objects: list) -> list[tuple[str, str]]:
    """Check the frontier hypothesis on every edge of ``g``, the conflict
    graph of bids whose object sets are ``objects`` (by node).

    Returns (A, B) pairs with A before B, objects(A) meets objects(B), but
    B missing frontier(A), ordered by A's then B's position. Empty list
    means the frontier bound is sound. Walks the successor slices of ``g``
    oriented by ``ordering`` (oriented here if it is not): O(|V| + |E|) set
    tests. Raises ValidationError when the ordering has no frontier sets or
    its sets leave a bid out, naming the first such bid in the ordering.
    """
    if ordering.frontier_sets is None:
        raise ValidationError("ordering carries no frontier sets")
    g = orient(g, ordering)
    order, index, frontier = g.order(), g.index, ordering.frontier_sets
    missing = next(filterfalse(frontier.__contains__, order), None)
    if missing is not None:
        raise ValidationError(f"frontier sets leave out bid {missing!r}")
    bad = []
    for r, a in enumerate(order):
        fa = frontier[a]
        for s in sorted(g.succ_idx[g.succ_ptr[r] : g.succ_ptr[r + 1]]):
            if not (fa & objects[index[order[s]]]):
                bad.append((a, order[s]))
    return bad
