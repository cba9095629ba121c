"""Constructors of node orderings that certify small beta.

Chordal conflict graphs admit a perfect elimination ordering (every node's
later neighbors form a clique), which makes beta exactly 1 and the core
solver optimal. More general graphs are handled through frontier arguments:
a tree decomposition of the object graph yields an ordering whose frontier
sets are bags, bounding beta by width + 1; subgraphs of k-dimensional grids
are ordered by coordinate sum for beta <= k. Two further orderings exist for
analysis: decreasing weight (degrades the solver to the greedy baseline) and
an ordering seeded with a known independent set (makes the solver optimal).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import NotChordalError, ValidationError
from .graphs import Bid, BidGraph, BidTable, ObjectGraph, Ordering, orient, orient_by_index


class NotChordal(NamedTuple):
    """The witness a NotChordalError carries: ``a`` and ``b`` are later
    neighbors of ``node`` under the candidate ordering but share no edge."""

    node: str
    a: str
    b: str


@dataclass
class TreeDecomposition:
    """A tree whose nodes carry object bags.

    Validity (checked by :func:`validate_tree_decomposition`): bags cover all
    objects, every object-graph edge lies inside some bag, and each object's
    occurrence set forms a connected subtree. Width is max bag size - 1.
    ``_valid_for`` is the object graph the decomposition last passed that
    check against, if any.
    """

    tree_nodes: list[str]
    tree_edges: list[tuple[str, str]]
    bags: dict[str, frozenset[str]]
    root: str | None = None
    _valid_for: ObjectGraph | None = field(default=None, init=False, repr=False, compare=False)

    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1

    def tree_adj(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {t: [] for t in self.tree_nodes}
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


def _pre_order(td: TreeDecomposition, root: str) -> list[str]:
    """The tree nodes reachable from ``root`` in depth-first pre-order,
    children in ascending id order."""
    adj = td.tree_adj()
    pre_order: list[str] = []
    stack = [root]
    seen = {root}
    while stack:
        t = stack.pop()
        pre_order.append(t)
        # reversed ascending so the lowest-id child is visited first
        for u in sorted(adj[t], reverse=True):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return pre_order


def validate_tree_decomposition(og: ObjectGraph | None, td: TreeDecomposition) -> list[str]:
    """Check tree shape plus, given an object graph, the three
    decomposition properties.

    Returns human-readable violations, each naming a concrete witness. A
    check against ``og`` that finds none is recorded on ``td``, and a later
    call with the same ``og`` object returns [] without checking again; the
    record assumes ``td`` is not changed after the check.
    """
    if og is not None and td._valid_for is og:
        return []
    violations = _decomposition_violations(og, td)
    if not violations:
        td._valid_for = og
    return violations


def _decomposition_violations(og: ObjectGraph | None, td: TreeDecomposition) -> list[str]:
    violations: list[str] = []
    nodes = set(td.tree_nodes)
    if len(nodes) != len(td.tree_nodes):
        violations.append("tree: duplicate tree-node ids")
        return violations
    if set(td.bags) != nodes:
        violations.append("tree: bags must be keyed by exactly the tree nodes")
        return violations
    for a, b in td.tree_edges:
        if a not in nodes or b not in nodes or a == b:
            violations.append(f"tree: bad edge {a!r}-{b!r}")
            return violations
    if td.tree_nodes:
        if len(td.tree_edges) != len(td.tree_nodes) - 1:
            violations.append("tree: edge count is not |nodes|-1 (not a tree)")
            return violations
        if len(_pre_order(td, td.tree_nodes[0])) != len(nodes):
            violations.append("tree: not connected")
            return violations
    if td.root is not None and td.root not in nodes:
        violations.append(f"tree: root {td.root!r} is not a tree node")
    if og is None:
        return violations

    # one pass over the bags: property 1 and each object's occurrence list
    occ: dict[str, list[str]] = {o: [] for o in og.objects}
    stray: list[tuple[int, str]] = []
    for p, t in enumerate(td.tree_nodes):
        for o in td.bags[t]:
            if o in occ:
                occ[o].append(t)
            else:
                stray.append((p, o))
    # by tree node, then in id order within a bag, not in its hash order
    for p, o in sorted(stray):
        violations.append(f"property 1: bag {td.tree_nodes[p]!r} contains undeclared object {o!r}")
    for o in og.objects:
        if not occ[o]:
            violations.append(f"property 1: object {o!r} is in no bag")
    for a, b in og.edges:
        near, far = (a, b) if len(occ[a]) <= len(occ[b]) else (b, a)
        if not any(far in td.bags[t] for t in occ[near]):
            violations.append(f"property 2: edge {a!r}-{b!r} is inside no bag")
    # property 3: in a tree, k nodes induce a connected subtree exactly when
    # k - 1 tree edges join them; count the tree edges inside each occurrence set
    joined = dict.fromkeys(og.objects, 0)
    for s, t in td.tree_edges:
        bs, bt = td.bags[s], td.bags[t]
        if len(bt) < len(bs):
            bs, bt = bt, bs
        for o in bs:
            if o in bt and o in joined:
                joined[o] += 1
    for o in og.objects:
        if occ[o] and joined[o] != len(occ[o]) - 1:
            violations.append(f"property 3: occurrences of object {o!r} are disconnected in the tree")
    return violations


def tree_decomposition_ordering(
    td: TreeDecomposition,
    bids: list[Bid] | BidTable,
    object_graph: ObjectGraph | None = None,
) -> Ordering:
    """Order bids through a tree decomposition of the object graph.

    The tree is rooted (given root, else lowest tree-node id) and its nodes
    are linearized descendants-first: the reverse of a depth-first pre-order
    that visits children in ascending id order. Each bid A is anchored at the
    first tree node in that pre-order whose bag meets A, which is the
    greatest such node in the descendants-first order; bids sort by anchor
    rank, ties by bid id. The anchor bag becomes A's frontier set, so the
    resulting bound is width + 1.

    ``bids`` is a list of :class:`Bid`, interned here, or a
    :class:`BidTable` interned against ``object_graph`` (an instance's
    ``table``), taken as it is. The tree shape is validated first; when
    ``object_graph`` is given, so are the decomposition properties and bid
    germaneness, and these checks make the anchor bags frontier sets, so
    the caller may certify beta <= width + 1 from the result without a
    frontier check. Bag coverage of bid objects is always checked.
    """
    violations = validate_tree_decomposition(object_graph, td)
    if violations:
        raise ValidationError("invalid tree decomposition: " + "; ".join(violations))
    table = bids if isinstance(bids, BidTable) else BidTable.from_bids(bids, object_graph)
    if object_graph is not None:
        bad = table.disconnected(object_graph)
        if bad:
            raise ValidationError(f"bid {bad[0]!r} is not germane (object set disconnected)")
    if not td.tree_nodes:
        raise ValidationError("tree decomposition has no nodes")

    pre_order = _pre_order(td, td.root if td.root is not None else min(td.tree_nodes))

    # first pre-order occurrence per object == greatest tree node in the
    # ancestors-are-greater linear order
    obj_anchor: dict[str, int] = {}
    for p, t in enumerate(pre_order):
        for o in td.bags[t]:
            obj_anchor.setdefault(o, p)

    names = table.names
    keyed = []
    frontier: dict[str, frozenset[str]] = {}
    for bid_id, row in zip(table.ids, table.rows):
        objs = list(map(names.__getitem__, row))  # ascending, as the rows are
        missing = [o for o in objs if o not in obj_anchor]
        if missing:
            raise ValidationError(f"bid {bid_id!r} object {missing[0]!r} appears in no bag")
        t_a = min(map(obj_anchor.__getitem__, objs))
        frontier[bid_id] = td.bags[pre_order[t_a]]
        # descendants-first: larger pre-order index sorts earlier
        keyed.append((-t_a, bid_id))
    keyed.sort()
    return Ordering([bid_id for _, bid_id in keyed], "tree-decomposition", frontier)


def min_degree_heuristic_decomposition(og: ObjectGraph) -> TreeDecomposition:
    """Heuristic tree decomposition by minimum-degree elimination.

    Repeatedly eliminates a minimum-degree object (ties by id), forming a bag
    from its closed neighborhood and filling the neighborhood into a clique.
    Bags are wired into a tree by linking each bag to the bag of its earliest
    subsequently-eliminated member; bags left parentless (component ends) are
    chained together. The result is validated before being returned; the
    width is heuristic, not optimal.
    """
    if not og.objects:
        raise ValidationError("object graph is empty")
    # work on object ids, which ascend by name, so (degree, id) ties break by name
    ptr, nbr = og.ptr, og.nbr
    work = {v: set(nbr[ptr[v] : ptr[v + 1]]) for v in range(len(og.names))}
    elim_pos: dict[int, int] = {}
    later: dict[int, list[int]] = {}  # each bag without its own object
    order: list[int] = []
    # (degree, id) entries, deleted lazily: an object gets a fresh entry
    # whenever its degree changes, and a popped entry counts only while the
    # object is uneliminated and its degree still matches
    heap = [(len(nb), v) for v, nb in work.items()]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if v not in work or len(work[v]) != d:
            continue
        later[v] = nbrs = sorted(work.pop(v))
        elim_pos[v] = len(order)
        order.append(v)
        for i in range(len(nbrs)):
            work[nbrs[i]].discard(v)
            for j in range(i + 1, len(nbrs)):
                work[nbrs[i]].add(nbrs[j])
                work[nbrs[j]].add(nbrs[i])
        for u in nbrs:
            heapq.heappush(heap, (len(work[u]), u))

    names = og.names
    edges: list[tuple[str, str]] = []
    orphans: list[str] = []
    for v in order:
        if later[v]:
            edges.append((names[v], names[min(later[v], key=elim_pos.__getitem__)]))
        else:
            orphans.append(names[v])
    for i in range(1, len(orphans)):
        edges.append((orphans[i - 1], orphans[i]))

    bags = {names[v]: frozenset(map(names.__getitem__, [v, *later[v]])) for v in order}
    td = TreeDecomposition(tree_nodes=list(bags), tree_edges=edges, bags=bags, root=names[order[-1]])
    problems = validate_tree_decomposition(og, td)
    if problems:
        raise RuntimeError("internal error: heuristic produced an invalid decomposition: " + problems[0])
    return td


def grid_ordering(coords: dict[str, tuple[int, ...]]) -> Ordering:
    """Order nodes by ascending coordinate sum, then lexicographic coordinates.

    For conflict graphs that are subgraphs of the k-dimensional rectangular
    grid this certifies beta <= k: every edge leaves the endpoint with the
    smaller coordinate sum, so a node's successors sit among its at most k
    "increasing" grid neighbors.
    """
    if not coords:
        raise ValidationError("no coordinates given")
    dims = {len(v) for v in coords.values()}
    if len(dims) != 1:
        raise ValidationError("all coordinate vectors must have the same dimension")
    seen: dict[tuple[int, ...], str] = {}
    for u in sorted(coords):
        v = tuple(coords[u])
        if v in seen:
            raise ValidationError(f"duplicate coordinates {v} for {seen[v]!r} and {u!r}")
        seen[v] = u
    order = sorted(coords, key=lambda u: (sum(coords[u]), tuple(coords[u])))
    return Ordering(order, "grid")


def decreasing_weight_ordering(g: BidGraph) -> Ordering:
    """Strictly decreasing weight, ties broken by ascending bid id."""
    order = sorted(g.ids, key=lambda u: (-g.weights[u], u))
    return Ordering(order, "decreasing-weight")


def planted_optimal_ordering(g: BidGraph, independent_set) -> Ordering:
    """Members of a known independent set first (by id), the rest after.

    With an exact maximum-weight independent set planted, the opportunity
    cost solver recovers the optimal total weight.
    """
    chosen = set(independent_set)
    for u in sorted(chosen):
        if u not in g.index:
            raise ValidationError(f"planted set member {u!r} is not a bid node")
        clash = sorted(v for v in g.neighbors(u) if v in chosen)
        if clash:
            raise ValidationError(f"planted set is not independent: {u!r} conflicts with {clash[0]!r}")
    order = sorted(chosen) + sorted(u for u in g.ids if u not in chosen)
    return Ordering(order, "planted-optimal")


class _Block:
    """One class of the lex-BFS partition. ``members`` only grows: a node
    that leaves the block stays in the list and is skipped, since its
    ``block_of`` entry no longer names this block, and ``first`` marks where
    the next live member may start, so no entry is passed over twice.
    ``stamp`` is the last visit that split the block, ``front`` its new block."""

    __slots__ = ("members", "first", "size", "prev", "next", "stamp", "front")

    def __init__(self, members: list[int]):
        self.members = members
        self.first = 0
        self.size = len(members)
        self.prev: _Block | None = None
        self.next: _Block | None = None
        self.stamp = self.front = None


def _zero_fill_in(pred_ptr, pred_idx) -> tuple[int, list[int]]:
    """The zero fill-in test (Tarjan and Yannakakis) of an orientation as an
    elimination ordering, read from its predecessor slices
    ``pred_idx[pred_ptr[r]:pred_ptr[r + 1]]``: walking the ranks upwards, the
    first later neighbor to reach a node is its parent, and every later
    neighbor of a node must be its parent or adjacent to it. Returns the
    lowest rank whose later neighbors fail the test (the number of ranks
    when none does) and the parent of each rank. O(|V| + |E|)."""
    n = len(pred_ptr) - 1
    parent = list(range(n))
    seen = [-1] * n
    bad = n
    lo = 0
    for r, hi in enumerate(pred_ptr[1:]):
        if lo == hi:  # no earlier neighbors
            continue
        row, lo = pred_idx[lo:hi], hi
        seen[r] = r
        for s in row:
            seen[s] = r
            if parent[s] == s:
                parent[s] = r
        for s in row:
            if seen[parent[s]] != r and s < bad:
                bad = s
    return bad, parent


def is_perfect_elimination(g: BidGraph, ordering: Ordering) -> bool:
    """Whether ``ordering``, a permutation of ``g``'s nodes, is a perfect
    elimination ordering of ``g``: the zero fill-in test on ``g`` so oriented."""
    h = orient(g, ordering)
    return _zero_fill_in(h.pred_ptr, h.pred_idx)[0] == g.n


def lexbfs_orientation(g: BidGraph) -> BidGraph:
    """Chordality recognition with a certified perfect elimination ordering.

    Runs lexicographic breadth-first search by partition refinement, reverses
    the visit order into a candidate elimination ordering and orients ``g``
    by it, then verifies it on the predecessor slices: for every node, the
    later neighbors must form a clique, which the standard parent check
    certifies in linear time. Returns ``g`` oriented by the ordering, a
    perfect elimination ordering, so the caller may certify beta <= 1 from
    it. On failure raises NotChordalError carrying a :class:`NotChordal`.

    Ties are broken by bid id. The search refines on ``g``'s own rows, in
    node indices: the first block lists every node in ascending id order,
    and each block a visit creates is sorted by id once that visit's row is
    done, so every block lists its members in id order.
    Orientation on ``g`` is ignored; only the undirected structure matters.
    """
    n = g.n
    if n == 0:
        return orient_by_index(g, [], Ordering([], "chordal"))
    ptr, nbr, id_of = g.ptr, g.nbr, g.ids.__getitem__

    head = _Block(sorted(range(n), key=id_of))
    block_of: list[_Block | None] = [head] * n
    visit_order: list[int] = []

    while head is not None:
        members, i = head.members, head.first
        while block_of[members[i]] is not head:
            i += 1
        u = members[i]
        head.first = i + 1
        head.size -= 1
        block_of[u] = None
        visit_order.append(u)
        if not head.size:
            head = head.next
            if head is not None:
                head.prev = None
        # pull unvisited neighbors to a fresh block just ahead of their own
        made = []
        for v in nbr[ptr[u] : ptr[u + 1]]:
            blk = block_of[v]
            if blk is None:
                continue
            if blk.stamp == u:
                front = blk.front
            else:
                blk.stamp = u
                blk.front = front = _Block([])
                made.append(front)
                front.prev = blk.prev
                front.next = blk
                if blk.prev is not None:
                    blk.prev.next = front
                else:
                    head = front
                blk.prev = front
            front.members.append(v)
            front.size += 1
            block_of[v] = front
            blk.size -= 1
            if not blk.size:  # emptied: unlink it from behind its front block
                front.next = blk.next
                if blk.next is not None:
                    blk.next.prev = front
        for front in made:  # rows are in edge order; blocks are in id order
            if front.size > 1:
                front.members.sort(key=id_of)

    candidate = visit_order[::-1]
    h = orient_by_index(g, candidate, Ordering(list(map(id_of, candidate)), "chordal"))
    bad, parent = _zero_fill_in(h.pred_ptr, h.pred_idx)
    if bad == n:
        return h
    # witness: the failing node's first later neighbor, in row order, that
    # misses its parent; the parent is its lowest later neighbor, so the
    # parent's successor slice holds every other one it meets
    p, order = parent[bad], h.ordering.order
    near = set(h.succ_idx[h.succ_ptr[p] : h.succ_ptr[p + 1]])
    v = next(s for s in h.succ_idx[h.succ_ptr[bad] : h.succ_ptr[bad + 1]] if s != p and s not in near)
    raise NotChordalError(NotChordal(order[bad], order[p], order[v]))


def lexbfs_peo(g: BidGraph) -> Ordering:
    """The ordering of :func:`lexbfs_orientation`, which raises NotChordalError."""
    return lexbfs_orientation(g).ordering
