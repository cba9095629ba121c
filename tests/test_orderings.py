"""Ordering constructors: lex-BFS recognition, tree decompositions, grids."""

import itertools

import pytest

from auctol import (
    Bid,
    ObjectGraph,
    Ordering,
    beta_bound_frontier,
    beta_exact,
    build_bid_graph,
    decreasing_weight_ordering,
    frontier_violations,
    gen_grid,
    gen_interval,
    gen_subtrees,
    grid_ordering,
    lexbfs_peo,
    min_degree_heuristic_decomposition,
    orient,
    planted_optimal_ordering,
    tree_decomposition_ordering,
    validate_tree_decomposition,
)
from auctol.errors import NotChordalError, ValidationError
from auctol.instances import bid_graph
from auctol.orderings import NotChordal, TreeDecomposition
from auctol.rng import SplitMix64


def is_peo(g, ordering):
    rank = ordering.rank()
    for u in ordering.order:
        later = [v for v in g.neighbors(u) if rank[v] > rank[u]]
        for a, b in itertools.combinations(later, 2):
            if b not in g.neighbors(a):
                return False
    return True


def c4_graph():
    bids = [
        Bid("a", {"x41", "x12"}, 1),
        Bid("b", {"x12", "x23"}, 1),
        Bid("c", {"x23", "x34"}, 1),
        Bid("d", {"x34", "x41"}, 1),
    ]
    return build_bid_graph(bids)


def recognized(g):
    """lex-BFS's ordering of ``g``, or the witness its NotChordalError carries."""
    try:
        return lexbfs_peo(g)
    except NotChordalError as exc:
        return exc.witness


def test_lexbfs_rejects_c4_with_witness():
    g = c4_graph()
    with pytest.raises(NotChordalError) as caught:
        lexbfs_peo(g)
    result = caught.value.witness
    assert isinstance(result, NotChordal)
    assert result.a in g.neighbors(result.node) and result.b in g.neighbors(result.node)
    assert result.b not in g.neighbors(result.a)


def test_lexbfs_accepts_trees():
    for seed in range(8):
        inst = gen_subtrees(tree_size=12, n_bids=1, seed=seed)
        # the object graph is a tree; bids on single nodes give a tree-ish
        # conflict graph, but test the tree itself via single-node bids
        bids = [Bid(f"n_{o}", {o}, 1) for o in inst.object_graph.objects]
        for a, b in inst.object_graph.edges:
            bids.append(Bid(f"e_{a}_{b}", {a, b}, 1))
        g = build_bid_graph(bids)
        result = lexbfs_peo(g)
        assert isinstance(result, Ordering)
        assert is_peo(g, result)


def test_lexbfs_interval_graph_gives_peo():
    inst = gen_interval(50, seed=42)
    g = bid_graph(inst)
    result = lexbfs_peo(g)
    assert isinstance(result, Ordering)
    assert is_peo(g, result)


def test_lexbfs_interval_beta_one():
    inst = gen_interval(18, seed=7)
    g = bid_graph(inst)
    result = lexbfs_peo(g)
    assert isinstance(result, Ordering)
    assert beta_exact(orient(g, result)).beta_graph == 1


def test_lexbfs_rejects_planted_long_cycles():
    for cycle_len in (4, 5, 6, 7):
        # a fresh induced cycle component alongside an interval component
        bids = list(gen_interval(8, seed=1).bids)
        for i in range(cycle_len):
            j = (i + 1) % cycle_len
            bids.append(Bid(f"cyc{i}", {f"edge{min(i, j)}_{max(i, j)}", f"edge{min(i, (i - 1) % cycle_len)}_{max(i, (i - 1) % cycle_len)}"}, 1))
        g = build_bid_graph(bids)
        assert isinstance(recognized(g), NotChordal)


def naive_td_check(og, td):
    """Three-property enumeration oracle, independent of the library walk."""
    problems = []
    union = set()
    for bag in td.bags.values():
        union |= set(bag)
    if union != set(og.objects):
        problems.append("p1")
    for a, b in og.edges:
        if not any(a in td.bags[t] and b in td.bags[t] for t in td.tree_nodes):
            problems.append("p2")
    adj = {t: set() for t in td.tree_nodes}
    for a, b in td.tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    for o in og.objects:
        occ = sorted(t for t in td.tree_nodes if o in td.bags[t])
        if not occ:
            continue
        seen, stack = {occ[0]}, [occ[0]]
        while stack:
            t = stack.pop()
            for u in adj[t]:
                if u in occ and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(occ):
            problems.append("p3")
    return problems


def path_og():
    return ObjectGraph(["o1", "o2", "o3"], [("o1", "o2"), ("o2", "o3")])


def test_validate_td_textbook_path():
    td = TreeDecomposition(
        ["B1", "B2"], [("B1", "B2")],
        {"B1": frozenset({"o1", "o2"}), "B2": frozenset({"o2", "o3"})},
    )
    assert validate_tree_decomposition(path_og(), td) == []


def test_validate_td_uncovered_chord():
    og = ObjectGraph(["o1", "o2", "o3"], [("o1", "o2"), ("o2", "o3"), ("o1", "o3")])
    td = TreeDecomposition(
        ["B1", "B2"], [("B1", "B2")],
        {"B1": frozenset({"o1", "o2"}), "B2": frozenset({"o2", "o3"})},
    )
    problems = validate_tree_decomposition(og, td)
    assert any("property 2" in p for p in problems)


def test_validate_td_matches_naive_oracle():
    for seed in range(12):
        rng = SplitMix64(seed)
        n = 4 + rng.randrange(5)
        names = [f"t{i}" for i in range(n)]
        og_edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
        og = ObjectGraph(names, og_edges)
        # random bags over a random tree skeleton; often invalid, that is the point
        tnodes = [f"B{i}" for i in range(3)]
        tedges = [("B0", "B1"), ("B1", "B2")]
        bags = {}
        for t in tnodes:
            size = 1 + rng.randrange(n)
            bags[t] = frozenset(names[j] for j in rng.sample_indices(n, size))
        td = TreeDecomposition(tnodes, tedges, bags)
        got = validate_tree_decomposition(og, td)
        expected = naive_td_check(og, td)
        got_tags = {p.split(":")[0].replace("property ", "p") for p in got}
        assert got_tags == set(expected)


def quadratic_validate_td(og, td):
    """Reference copy of the all-tree-nodes-per-object validator: property 2
    scans every tree node per object edge, property 3 runs one DFS per
    object. The library's validator must return the identical list."""
    violations: list[str] = []
    nodes = set(td.tree_nodes)
    if len(nodes) != len(td.tree_nodes):
        violations.append("tree: duplicate tree-node ids")
        return violations
    if set(td.bags) != nodes:
        violations.append("tree: bags must be keyed by exactly the tree nodes")
        return violations
    adj = {t: set() for t in td.tree_nodes}
    for a, b in td.tree_edges:
        if a not in nodes or b not in nodes or a == b:
            violations.append(f"tree: bad edge {a!r}-{b!r}")
            return violations
        adj[a].add(b)
        adj[b].add(a)
    if td.tree_nodes:
        if len(td.tree_edges) != len(td.tree_nodes) - 1:
            violations.append("tree: edge count is not |nodes|-1 (not a tree)")
            return violations
        seen = {td.tree_nodes[0]}
        stack = [td.tree_nodes[0]]
        while stack:
            t = stack.pop()
            for u in adj[t]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(nodes):
            violations.append("tree: not connected")
            return violations
    if td.root is not None and td.root not in nodes:
        violations.append(f"tree: root {td.root!r} is not a tree node")
    if og is None:
        return violations

    covered = set()
    for t in td.tree_nodes:
        for o in td.bags[t]:
            if o not in og:
                violations.append(f"property 1: bag {t!r} contains undeclared object {o!r}")
            covered.add(o)
    for o in og.objects:
        if o not in covered:
            violations.append(f"property 1: object {o!r} is in no bag")
    for a, b in og.edges:
        if not any(a in td.bags[t] and b in td.bags[t] for t in td.tree_nodes):
            violations.append(f"property 2: edge {a!r}-{b!r} is inside no bag")
    # property 3: occurrence set of each object must induce a connected subtree
    for o in og.objects:
        occ = {t for t in td.tree_nodes if o in td.bags[t]}
        if not occ:
            continue
        start = sorted(occ)[0]
        seen = {start}
        stack = [start]
        while stack:
            t = stack.pop()
            for u in adj[t]:
                if u in occ and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(occ):
            violations.append(f"property 3: occurrences of object {o!r} are disconnected in the tree")
    return violations


def random_td_case(seed):
    """A random object graph and a random, often invalid, decomposition.

    Bags are either random subsets or unions of connected occurrence
    subtrees (then valid unless perturbed); perturbations add undeclared
    objects, uncovered edges, split occurrences, broken tree shapes and
    bad roots. Tree nodes are listed in shuffled order.
    """
    rng = SplitMix64(seed)
    n = 1 + rng.randrange(8)
    objs = [f"o{i}" for i in range(n)]
    k = 1 + rng.randrange(6)
    tnodes = [f"B{i}" for i in range(k)]
    tadj = {t: [] for t in tnodes}
    tedges = []
    for i in range(1, k):
        a, b = tnodes[rng.randrange(i)], tnodes[i]
        tedges.append((a, b) if rng.randrange(2) else (b, a))
        tadj[a].append(b)
        tadj[b].append(a)
    members = {t: set() for t in tnodes}
    if rng.randrange(3) == 0:
        for t in tnodes:
            members[t] = {objs[j] for j in rng.sample_indices(n, rng.randrange(n + 1))}
    else:
        # each object occupies a connected subtree grown from a random node
        for o in objs:
            if rng.randrange(12) == 0:
                continue  # left out of every bag
            start = tnodes[rng.randrange(k)]
            occ, frontier = {start}, list(tadj[start])
            for _ in range(rng.randrange(k)):
                if not frontier:
                    break
                t = frontier.pop(rng.randrange(len(frontier)))
                if t not in occ:
                    occ.add(t)
                    frontier.extend(tadj[t])
            for t in occ:
                members[t].add(o)
        if rng.randrange(4) == 0 and k >= 3:
            # drop an inner occurrence, which may split the subtree
            t = tnodes[rng.randrange(k)]
            if members[t]:
                members[t].discard(sorted(members[t])[rng.randrange(len(members[t]))])
    # object edges: mostly pairs that share a bag, plus random pairs
    pairs = {(a, b) if a < b else (b, a) for t in tnodes for a in members[t] for b in members[t] if a != b}
    edges = [p for p in sorted(pairs) if rng.randrange(3)]
    for _ in range(rng.randrange(3)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.append((objs[i], objs[j]))
    og_edges, seen_pairs = [], set()
    for a, b in edges:
        key = (a, b) if a < b else (b, a)
        if key not in seen_pairs:
            seen_pairs.add(key)
            og_edges.append((a, b) if rng.randrange(2) else (b, a))
    rng.shuffle(og_edges)
    order = list(objs)
    rng.shuffle(order)
    og = ObjectGraph(order, og_edges)
    if rng.randrange(6) == 0:
        t = tnodes[rng.randrange(k)]
        members[t].add(f"zz{rng.randrange(3)}")  # undeclared object
    bags = {t: frozenset(members[t]) for t in tnodes}

    shape = rng.randrange(10)
    if shape == 0:
        tnodes.append(tnodes[rng.randrange(k)])  # duplicate tree node
    elif shape == 1:
        bags[f"X{rng.randrange(2)}"] = frozenset()  # bag without a tree node
    elif shape == 2 and k >= 2:
        del bags[tnodes[rng.randrange(k)]]  # tree node without a bag
    elif shape == 3:
        a = tnodes[rng.randrange(k)]
        tedges.insert(rng.randrange(len(tedges) + 1), (a, a if rng.randrange(2) else "nowhere"))
    elif shape == 4 and k >= 3:
        a, b = rng.sample_indices(k, 2)
        tedges.append((tnodes[a], tnodes[b]))  # one edge too many
    elif shape == 5 and k >= 2:
        tedges.pop(rng.randrange(len(tedges)))  # one edge too few
    elif shape == 6 and k >= 4:
        # right edge count, but a cycle in one part and another part cut off
        cut = tedges.pop(rng.randrange(len(tedges)))
        comp, stack = {cut[0]}, [cut[0]]
        rest_adj = {t: [] for t in tnodes}
        for a, b in tedges:
            rest_adj[a].append(b)
            rest_adj[b].append(a)
        while stack:
            for u in rest_adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        inside = sorted(comp) if len(comp) >= 3 else sorted(set(tnodes) - comp)
        if len(inside) >= 3:
            pairs = [(a, b) for a, b in itertools.combinations(inside, 2) if (a, b) not in tedges and (b, a) not in tedges]
            if pairs:
                tedges.append(pairs[rng.randrange(len(pairs))])
            else:
                tedges.append(cut)
        else:
            tedges.append(cut)
    rng.shuffle(tnodes)
    root_kind = rng.randrange(4)
    root = None if root_kind == 0 else ("nowhere" if root_kind == 1 else tnodes[rng.randrange(len(tnodes))])
    td = TreeDecomposition(tnodes, tedges, bags, root=root)
    return og, td


def test_validate_td_equals_quadratic_oracle():
    markers = [
        "duplicate tree-node", "keyed by exactly", "bad edge", "edge count", "not connected", "root",
        "undeclared object", "in no bag", "property 2", "property 3",
    ]
    hits = dict.fromkeys(markers + ["valid", "several"], 0)
    for seed in range(2400):
        og, td = random_td_case(seed)
        expected = quadratic_validate_td(og, td)
        assert validate_tree_decomposition(og, td) == expected, seed
        assert validate_tree_decomposition(None, td) == quadratic_validate_td(None, td), seed
        for m in markers:
            hits[m] += any(m in p for p in expected)
        hits["valid"] += not expected
        hits["several"] += len(expected) > 1
    assert all(hits.values()), hits


def test_td_ordering_hand_trace():
    og = path_og()
    td = TreeDecomposition(
        ["B1", "B2"], [("B1", "B2")],
        {"B1": frozenset({"o1", "o2"}), "B2": frozenset({"o2", "o3"})},
        root="B2",
    )
    bids = [
        Bid("A1", {"o1"}, 1),
        Bid("A2", {"o1", "o2"}, 1),
        Bid("A3", {"o2", "o3"}, 1),
    ]
    ordering = tree_decomposition_ordering(td, bids, og)
    assert ordering.order[0] == "A1"
    assert set(ordering.order[1:]) == {"A2", "A3"}
    assert ordering.frontier_sets["A1"] == frozenset({"o1", "o2"})
    assert ordering.frontier_sets["A2"] == frozenset({"o2", "o3"})
    assert beta_bound_frontier(ordering) == 2
    assert frontier_violations(build_bid_graph(bids), ordering, [b.objects for b in bids]) == []


def test_td_ordering_width1_bound_two():
    inst = gen_subtrees(tree_size=8, n_bids=10, seed=3)
    td = min_degree_heuristic_decomposition(inst.object_graph)
    assert td.width() == 1
    ordering = tree_decomposition_ordering(td, inst.bids, inst.object_graph)
    assert beta_bound_frontier(ordering) == 2
    assert frontier_violations(bid_graph(inst), ordering, inst.table.object_sets()) == []


def test_td_ordering_single_bag_ties_by_id():
    og = ObjectGraph(["o1", "o2"], [("o1", "o2")])
    td = TreeDecomposition(["B"], [], {"B": frozenset({"o1", "o2"})})
    bids = [Bid("z", {"o1"}, 1), Bid("a", {"o2"}, 1), Bid("m", {"o1", "o2"}, 1)]
    ordering = tree_decomposition_ordering(td, bids, og)
    assert ordering.order == ["a", "m", "z"]
    assert beta_bound_frontier(ordering) == 2


def test_td_ordering_rejects_non_germane():
    og = path_og()
    td = TreeDecomposition(
        ["B1", "B2"], [("B1", "B2")],
        {"B1": frozenset({"o1", "o2"}), "B2": frozenset({"o2", "o3"})},
    )
    with pytest.raises(ValidationError, match="germane"):
        tree_decomposition_ordering(td, [Bid("bad", {"o1", "o3"}, 1)], og)


def test_min_degree_tree_width_one():
    inst = gen_subtrees(tree_size=15, n_bids=1, seed=0)
    td = min_degree_heuristic_decomposition(inst.object_graph)
    assert td.width() == 1
    assert validate_tree_decomposition(inst.object_graph, td) == []


def test_min_degree_clique():
    m = 5
    names = [f"o{i}" for i in range(m)]
    og = ObjectGraph(names, [(a, b) for a, b in itertools.combinations(names, 2)])
    td = min_degree_heuristic_decomposition(og)
    assert td.width() == m - 1
    assert validate_tree_decomposition(og, td) == []


def test_min_degree_grid_5x5():
    names = [f"p{x}_{y}" for x in range(5) for y in range(5)]
    edges = []
    for x in range(5):
        for y in range(5):
            if x < 4:
                edges.append((f"p{x}_{y}", f"p{x + 1}_{y}"))
            if y < 4:
                edges.append((f"p{x}_{y}", f"p{x}_{y + 1}"))
    og = ObjectGraph(names, edges)
    td = min_degree_heuristic_decomposition(og)
    assert validate_tree_decomposition(og, td) == []
    assert td.width() <= 8


def test_min_degree_disconnected_og():
    og = ObjectGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    td = min_degree_heuristic_decomposition(og)
    assert validate_tree_decomposition(og, td) == []


def quadratic_min_degree(og):
    """Reference copy of the min-degree heuristic that scans every remaining
    object per step; the library's heap-driven version must build the
    identical decomposition."""
    names, ptr, nbr, index = og.names, og.ptr, og.nbr, og.index
    work = {o: {names[j] for j in nbr[ptr[index[o]] : ptr[index[o] + 1]]} for o in og.objects}
    elim_pos: dict[str, int] = {}
    bags: dict[str, frozenset[str]] = {}
    order: list[str] = []
    remaining = set(og.objects)
    while remaining:
        v = min(remaining, key=lambda o: (len(work[o]), o))
        nbrs = sorted(work[v])
        bags[v] = frozenset([v] + nbrs)
        elim_pos[v] = len(order)
        order.append(v)
        for i in range(len(nbrs)):
            work[nbrs[i]].discard(v)
            for j in range(i + 1, len(nbrs)):
                work[nbrs[i]].add(nbrs[j])
                work[nbrs[j]].add(nbrs[i])
        remaining.discard(v)
        del work[v]

    edges: list[tuple[str, str]] = []
    orphans: list[str] = []
    for v in order:
        later = [u for u in bags[v] if u != v]
        if later:
            parent = min(later, key=lambda u: elim_pos[u])
            edges.append((v, parent))
        else:
            orphans.append(v)
    for i in range(1, len(orphans)):
        edges.append((orphans[i - 1], orphans[i]))
    return TreeDecomposition(tree_nodes=order, tree_edges=edges, bags=bags, root=order[-1])


def grid_og(w, h):
    names = [f"p{x}_{y}" for x in range(w) for y in range(h)]
    edges = []
    for x in range(w):
        for y in range(h):
            if x < w - 1:
                edges.append((f"p{x}_{y}", f"p{x + 1}_{y}"))
            if y < h - 1:
                edges.append((f"p{x}_{y}", f"p{x}_{y + 1}"))
    return ObjectGraph(names, edges)


def test_min_degree_equals_quadratic_oracle():
    graphs = [grid_og(5, 5), grid_og(3, 7)]
    names = [f"o{i}" for i in range(6)]
    graphs.append(ObjectGraph(names, list(itertools.combinations(names, 2))))
    graphs.append(ObjectGraph(["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d")]))
    for seed in range(300):
        rng = SplitMix64(seed)
        n = 1 + rng.randrange(24)
        objs = [f"v{rng.randrange(1000):03d}" for _ in range(n)]
        objs = list(dict.fromkeys(objs))
        n = len(objs)
        # few distinct degrees, so many ties; sparse ones fall apart into components
        pairs = list(itertools.combinations(range(n), 2))
        keep = 1 + rng.randrange(4)
        edges = [(objs[i], objs[j]) for i, j in pairs if rng.randrange(max(1, n // keep)) == 0]
        graphs.append(ObjectGraph(objs, edges))
    for og in graphs:
        got, want = min_degree_heuristic_decomposition(og), quadratic_min_degree(og)
        assert got.tree_nodes == want.tree_nodes
        assert got.tree_edges == want.tree_edges
        assert got.bags == want.bags
        assert got.root == want.root


def test_grid_ordering_2d_beta_two():
    inst = gen_grid((3, 3), seed=0)
    g = oriented = orient(bid_graph(inst), grid_ordering(inst.ordering_spec.coords))
    assert beta_exact(oriented).beta_graph <= 2


def test_grid_ordering_path_beta_one():
    inst = gen_grid((1, 6), seed=0)
    g = orient(bid_graph(inst), grid_ordering(inst.ordering_spec.coords))
    assert beta_exact(g).beta_graph == 1


def test_grid_ordering_random_3d():
    for seed in range(5):
        inst = gen_grid((3, 3, 3), density_milli=740, seed=seed)
        g = orient(bid_graph(inst), grid_ordering(inst.ordering_spec.coords))
        assert beta_exact(g).beta_graph <= 3


def test_grid_ordering_duplicate_coords():
    with pytest.raises(ValidationError, match="duplicate"):
        grid_ordering({"a": (0, 0), "b": (0, 0)})


def test_decreasing_weight_examples():
    g = build_bid_graph([Bid("x", {"1"}, 5), Bid("y", {"2"}, 3), Bid("z", {"3"}, 1)])
    assert decreasing_weight_ordering(g).order == ["x", "y", "z"]
    g = build_bid_graph([Bid("c", {"1"}, 7), Bid("a", {"2"}, 7), Bid("b", {"3"}, 7)])
    assert decreasing_weight_ordering(g).order == ["a", "b", "c"]


def test_decreasing_weight_matches_sort_oracle():
    rng = SplitMix64(11)
    bids = [Bid(f"b{i:02d}", {f"o{i}"}, 1 + rng.randrange(50)) for i in range(25)]
    g = build_bid_graph(bids)
    expected = [b.id for b in sorted(bids, key=lambda b: (-b.price, b.id))]
    assert decreasing_weight_ordering(g).order == expected


def test_planted_ordering():
    bids = [Bid("iso", {"lonely"}, 1), Bid("p", {"s"}, 1), Bid("q", {"s"}, 1)]
    g = build_bid_graph(bids)
    ordering = planted_optimal_ordering(g, {"iso"})
    assert ordering.order[0] == "iso"
    assert planted_optimal_ordering(g, set()).order == ["iso", "p", "q"]
    with pytest.raises(ValidationError, match="independent"):
        planted_optimal_ordering(g, {"p", "q"})


class _RefBlock:
    __slots__ = ("members", "prev", "next")

    def __init__(self):
        self.members = {}
        self.prev = None
        self.next = None


def reference_lexbfs_peo(g):
    """Reference lex-BFS over dict blocks: a node leaving a block is deleted
    from its dict, and the head block's first member is taken with
    ``next(iter(...))``."""
    n = g.n
    if n == 0:
        return Ordering([], "chordal")
    by_id = sorted(range(n), key=g.ids.__getitem__)
    name = [0] * n
    for p, i in enumerate(by_id):
        name[i] = p
    ptr, nbr = g.ptr, g.nbr
    named = [name[j] for j in nbr]
    rows = [sorted(named[ptr[i] : ptr[i + 1]]) for i in by_id]
    head = _RefBlock()
    head.members = dict.fromkeys(range(n))
    block_of = [head] * n
    visit_order = []
    while head is not None:
        u = next(iter(head.members))
        del head.members[u]
        block_of[u] = None
        visit_order.append(u)
        if not head.members:
            head = head.next
            if head is not None:
                head.prev = None
        moved = {}
        for v in rows[u]:
            blk = block_of[v]
            if blk is None:
                continue
            key = id(blk)
            if key not in moved:
                front = _RefBlock()
                front.prev = blk.prev
                front.next = blk
                if blk.prev is not None:
                    blk.prev.next = front
                else:
                    head = front
                blk.prev = front
                moved[key] = (blk, front)
            front = moved[key][1]
            del blk.members[v]
            front.members[v] = None
            block_of[v] = front
        for blk, _front in moved.values():
            if not blk.members:
                if blk.prev is not None:
                    blk.prev.next = blk.next
                else:
                    head = blk.next
                if blk.next is not None:
                    blk.next.prev = blk.prev
    candidate = [by_id[p] for p in reversed(visit_order)]
    rank = [0] * n
    for r, i in enumerate(candidate):
        rank[i] = r
    ranked = [rank[j] for j in nbr]
    parent = list(range(n))
    seen = [-1] * n
    bad = n
    for r, i in enumerate(candidate):
        row = ranked[ptr[i] : ptr[i + 1]]
        seen[r] = r
        for s in row:
            if s < r:
                seen[s] = r
                if parent[s] == s:
                    parent[s] = r
        for s in row:
            if s < r and seen[parent[s]] != r and s < bad:
                bad = s
    if bad == n:
        return Ordering([g.ids[i] for i in candidate], "chordal")
    u, p = candidate[bad], parent[bad]
    near = set(ranked[ptr[candidate[p]] : ptr[candidate[p] + 1]])
    v = next(s for s in ranked[ptr[u] : ptr[u + 1]] if s > bad and s != p and s not in near)
    return NotChordal(node=g.ids[u], a=g.ids[candidate[p]], b=g.ids[candidate[v]])


def random_lexbfs_bids(seed):
    """Random bid sets: conflict-free, many small components, intervals
    (chordal) and random object sets (often not chordal), ids shuffled."""
    r = SplitMix64(seed)
    shape = seed % 4
    n = 1 + r.randrange(60)
    objects = [f"o{i}" for i in range(max(1, {0: n, 1: n // 2, 2: 2 * n, 3: n // 3 + 1}[shape]))]
    bids = []
    for i in range(n):
        if shape == 0:
            objs = {objects[i % len(objects)] + f"_{i}"}
        elif shape == 1:
            c = r.randrange(max(1, n // 4))
            objs = {f"c{c}_{r.randrange(3)}" for _ in range(1 + r.randrange(2))}
        elif shape == 2:
            a = r.randrange(len(objects))
            objs = set(objects[a : a + 1 + r.randrange(4)])
        else:
            objs = {objects[r.randrange(len(objects))] for _ in range(1 + r.randrange(3))}
        bids.append(Bid(f"b{r.randrange(10**6):06d}_{i}", objs, 1 + r.randrange(9)))
    r.shuffle(bids)
    return bids


def test_lexbfs_equals_reference_loop():
    outcomes = set()
    for seed in range(800):
        g = build_bid_graph(random_lexbfs_bids(seed))
        got = recognized(g)
        assert got == reference_lexbfs_peo(g), f"seed {seed}"
        outcomes.add(type(got).__name__)
    for bids in (
        [Bid(f"b{i:05d}", {f"o{i}"}, 1) for i in range(3000)],
        gen_interval(500, seed=2).bids,
        gen_subtrees(200, 400, seed=3).bids,
    ):
        g = build_bid_graph(bids)
        assert recognized(g) == reference_lexbfs_peo(g)
    assert outcomes == {"Ordering", "NotChordal"}
