"""Graph core: construction, germaneness, orientation, beta."""

import itertools

import pytest

from auctol import (
    Bid,
    BidGraph,
    ObjectGraph,
    Ordering,
    beta_bound_frontier,
    beta_bound_union,
    beta_exact,
    build_bid_graph,
    frontier_violations,
    orient,
)
from auctol.graphs import BidTable
from auctol.errors import CapacityError, UnsupportedOrderingError, ValidationError
from auctol.orderings import min_degree_heuristic_decomposition
from auctol.rng import SplitMix64


def random_bids(n, n_objects, rng, wmax=100):
    objects = [f"o{i}" for i in range(n_objects)]
    bids = []
    for i in range(n):
        size = 1 + rng.randrange(min(3, n_objects))
        objs = [objects[j] for j in rng.sample_indices(n_objects, size)]
        bids.append(Bid(f"b{i:02d}", frozenset(objs), 1 + rng.randrange(wmax)))
    return bids


def naive_conflict_edges(bids):
    """Independent oracle: quadratic pairwise intersection test."""
    edges = set()
    for a, b in itertools.combinations(bids, 2):
        if a.objects & b.objects:
            edges.add((min(a.id, b.id), max(a.id, b.id)))
    return edges


def graph_edges(g):
    return {(u, v) for u in g.ids for v in g.neighbors(u) if u < v}


def successors(g, u):
    """The ids of ``u``'s later neighbours, read from the rank slices of
    the oriented graph ``g``."""
    r, order = g.rank()[u], g.order()
    return [order[s] for s in g.succ_idx[g.succ_ptr[r] : g.succ_ptr[r + 1]]]


def predecessors(g, u):
    r, order = g.rank()[u], g.order()
    return [order[s] for s in g.pred_idx[g.pred_ptr[r] : g.pred_ptr[r + 1]]]


def disconnected(og, bids):
    """Ids of the bids whose objects are not connected in ``og``."""
    return BidTable.from_bids(bids, og).disconnected(og)


def test_build_bid_graph_shared_object_pairs():
    bids = [Bid("b1", {"o1", "o2"}, 1), Bid("b2", {"o2", "o3"}, 1), Bid("b3", {"o4"}, 1)]
    g = build_bid_graph(bids)
    assert graph_edges(g) == {("b1", "b2")}
    assert g.n == 3


def test_build_bid_graph_single_bid():
    g = build_bid_graph([Bid("only", {"o1"}, 7)])
    assert g.n == 1 and g.m == 0


def test_build_bid_graph_matches_naive_oracle():
    for seed in range(20):
        rng = SplitMix64(seed)
        bids = random_bids(10, 5, rng)
        g = build_bid_graph(bids)
        assert graph_edges(g) == naive_conflict_edges(bids)


def test_build_bid_graph_duplicate_id():
    with pytest.raises(ValidationError, match="dup"):
        build_bid_graph([Bid("b", {"o1"}, 1), Bid("b", {"o2"}, 1)])


def test_object_graph_rows_in_edge_order():
    """Object ids ascend by name; each object's neighbours keep the order of
    the edges that name it, as min_degree_heuristic_decomposition reads them."""
    og = ObjectGraph(["c", "a", "b", "d"], [("a", "b"), ("c", "b"), ("b", "d")])
    assert og.names == ["a", "b", "c", "d"]
    assert (og.ptr, og.nbr) == ([0, 1, 4, 5, 6], [1, 0, 2, 3, 1, 1])
    td = min_degree_heuristic_decomposition(og)
    assert (td.tree_nodes, td.tree_edges, td.root) == (["a", "c", "b", "d"], [("a", "b"), ("c", "b"), ("b", "d")], "d")
    assert td.bags == {"a": {"a", "b"}, "c": {"b", "c"}, "b": {"b", "d"}, "d": {"d"}}


PATH = [f"o{i:02d}" for i in range(60)]  # a path of 59 valid edges, then a bad one


@pytest.mark.parametrize(
    "objects, edges, message",
    [
        ("ab", [("a", "b"), ("b", "a")], "duplicate edge 'a'-'b'"),
        ("abc", [("b", "c"), ("a", "b"), ("c", "b")], "duplicate edge 'b'-'c'"),
        ("abc", [("a", "b"), ("c", "c")], "self-loop on object 'c'"),
        ("ab", [("a", "x")], "edge endpoint 'x' is not a declared object"),
        ("aab", [("a", "b")], "duplicate object id 'a'"),
        (PATH, [*zip(PATH, PATH[1:]), ("o31", "o30")], "duplicate edge 'o30'-'o31'"),
        (PATH, [*zip(PATH, PATH[1:]), ("o40", "o40")], "self-loop on object 'o40'"),
    ],
)
def test_object_graph_names_the_first_bad_edge(objects, edges, message):
    """Edges are checked as id pairs once read; the error still names the
    first bad edge, in input order, whether given as a list or an iterator."""
    for given in (edges, iter(edges)):
        with pytest.raises(ValidationError) as exc:
            ObjectGraph(list(objects), given)
        assert str(exc.value) == message


def path_graph(names):
    return ObjectGraph(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])


def test_germane_gap_in_path():
    og = path_graph(["o1", "o2", "o3"])
    assert disconnected(og, [Bid("b", {"o1", "o3"}, 1)]) == ["b"]


def test_germane_whole_path():
    og = path_graph(["o1", "o2", "o3"])
    assert disconnected(og, [Bid("b", {"o1", "o2", "o3"}, 1)]) == []


def test_germane_undeclared_object():
    og = path_graph(["o1", "o2"])
    with pytest.raises(ValidationError, match="undeclared"):
        disconnected(og, [Bid("b", {"o9"}, 1)])


def test_germane_random_trees_bfs_crosscheck():
    # independent BFS oracle over explicit adjacency
    for seed in range(10):
        rng = SplitMix64(seed)
        n = 3 + rng.randrange(10)
        names = [f"t{i}" for i in range(n)]
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
        og = ObjectGraph(names, edges)
        adj = {t: set() for t in names}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        for trial in range(10):
            size = 1 + rng.randrange(n)
            subset = {names[j] for j in rng.sample_indices(n, size)}
            start = sorted(subset)[0]
            seen, stack = {start}, [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y in subset and y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert (disconnected(og, [Bid("s", subset, 1)]) == []) == (seen == subset)


def test_orient_triangle():
    bids = [Bid(x, {"shared", f"own_{x}"}, 1) for x in ("a", "b", "c")]
    g = orient(build_bid_graph(bids), Ordering(["a", "b", "c"]))
    assert successors(g, "a") == ["b", "c"] or set(successors(g, "a")) == {"b", "c"}
    assert set(successors(g, "b")) == {"c"}
    assert successors(g, "c") == []


def test_orient_no_edges():
    bids = [Bid("a", {"o1"}, 1), Bid("b", {"o2"}, 1)]
    g = orient(build_bid_graph(bids), Ordering(["b", "a"]))
    assert successors(g, "a") == [] and successors(g, "b") == []


def test_orient_c4_rule():
    bids = [
        Bid("a", {"x41", "x12"}, 1),
        Bid("b", {"x12", "x23"}, 1),
        Bid("c", {"x23", "x34"}, 1),
        Bid("d", {"x34", "x41"}, 1),
    ]
    g = orient(build_bid_graph(bids), Ordering(["a", "b", "c", "d"]))
    directed = {(u, v) for u in g.ids for v in successors(g, u)}
    assert directed == {("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")}


def test_orient_permutation_mismatch():
    g = build_bid_graph([Bid("a", {"o"}, 1)])
    with pytest.raises(ValidationError):
        orient(g, Ordering(["a", "ghost"]))


def test_neighborhood_partition():
    for seed in range(5):
        rng = SplitMix64(seed)
        bids = random_bids(12, 6, rng)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        for u in g.ids:
            succ, pred = set(successors(g, u)), set(predecessors(g, u))
            assert succ | pred == set(g.neighbors(u))
            assert not (succ & pred)


def test_beta_exact_star():
    bids = [
        Bid("v", {"s1", "s2", "s3"}, 1),
        Bid("a", {"s1"}, 1),
        Bid("b", {"s2"}, 1),
        Bid("c", {"s3"}, 1),
    ]
    g = orient(build_bid_graph(bids), Ordering(["v", "a", "b", "c"]))
    report = beta_exact(g)
    assert report.per_node["v"] == 3
    assert report.beta_graph == 3


def exhaustive_local_alpha(g, u):
    """2^k enumeration oracle over {u} union successors."""
    succ = successors(g, u)
    best = 1  # {u} alone is always independent
    for r in range(1, len(succ) + 1):
        for combo in itertools.combinations(succ, r):
            ok = all(y not in g.neighbors(x) for x, y in itertools.combinations(combo, 2))
            if ok:
                best = max(best, r)  # u conflicts with every successor
    return best


def test_beta_exact_matches_enumeration():
    for seed in range(15):
        rng = SplitMix64(seed)
        bids = random_bids(10, 6, rng)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        report = beta_exact(g)
        for u in g.ids:
            assert report.per_node[u] == exhaustive_local_alpha(g, u)
        assert report.beta_graph == max(report.per_node.values())


def test_beta_exact_cap_refusal():
    bids = [Bid("hub", {f"o{i}" for i in range(30)}, 1)]
    bids += [Bid(f"n{i:02d}", {f"o{i}"}, 1) for i in range(30)]
    g = orient(build_bid_graph(bids), Ordering(sorted(b.id for b in bids)))
    with pytest.raises(CapacityError, match="hub"):
        beta_exact(g, cap=25)


def test_beta_subgraph_monotone():
    for seed in range(10):
        rng = SplitMix64(seed)
        bids = random_bids(11, 6, rng)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        whole = beta_exact(g).beta_graph
        size = 1 + rng.randrange(g.n)
        keep = {g.ids[j] for j in rng.sample_indices(g.n, size)}
        sub = build_bid_graph([b for b in bids if b.id in keep])
        sub = orient(sub, Ordering([u for u in order if u in keep]))
        assert beta_exact(sub).beta_graph <= whole


def test_beta_bound_frontier_examples():
    ord1 = Ordering(["a", "b"], "explicit", {"a": frozenset({"x", "y", "z"}), "b": frozenset({"x"})})
    assert beta_bound_frontier(ord1) == 3
    ord2 = Ordering(["a", "b"], "explicit", {"a": frozenset({"x"}), "b": frozenset({"y"})})
    assert beta_bound_frontier(ord2) == 1
    with pytest.raises(UnsupportedOrderingError):
        beta_bound_frontier(Ordering(["a"]))


def test_beta_bound_union():
    assert beta_bound_union([1, 1]) == 2
    assert beta_bound_union([1, 1, 1]) == 3
    assert beta_bound_union([5]) == 5
    with pytest.raises(ValidationError):
        beta_bound_union([1, 0])


def test_frontier_violations_matches_all_pairs():
    # oracle: every ordered pair, as the frontier hypothesis is stated
    for seed in range(20):
        rng = SplitMix64(seed)
        bids = random_bids(10, 5, rng)
        order = [b.id for b in bids]
        rng.shuffle(order)
        frontier = {b.id: frozenset(o for o in sorted(b.objects) if rng.randrange(2)) for b in bids}
        ordering = Ordering(order, "explicit", frontier)
        by_id = {b.id: b for b in bids}
        expected = [
            (a, b)
            for i, a in enumerate(order)
            for b in order[i + 1 :]
            if by_id[a].objects & by_id[b].objects and not frontier[a] & by_id[b].objects
        ]
        assert frontier_violations(build_bid_graph(bids), ordering, [b.objects for b in bids]) == expected
    with pytest.raises(UnsupportedOrderingError):
        frontier_violations(build_bid_graph(bids), Ordering(order), [b.objects for b in bids])
