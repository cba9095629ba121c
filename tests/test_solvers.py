"""Core solvers: opportunity cost, local ratio, greedy, exact oracle."""

import itertools

import pytest

from auctol import (
    Bid,
    Ordering,
    ValueTable,
    build_bid_graph,
    decreasing_weight_ordering,
    exact_mwis,
    greedy,
    lropcost,
    opcost,
    orient,
    planted_optimal_ordering,
    verify_value_table,
)
from auctol.errors import CapacityError, ValidationError
from auctol.rng import SplitMix64

from test_graphs import random_bids, successors


def chain_graph():
    bids = [Bid("a", {"ab"}, 3), Bid("b", {"ab", "bc"}, 4), Bid("c", {"bc"}, 2)]
    return orient(build_bid_graph(bids), Ordering(["a", "b", "c"]))


def test_opcost_chain_trace():
    g = chain_graph()
    sol, table = opcost(g)
    assert table.val == {"a": 3, "b": 1, "c": 1}
    assert sol.selected == frozenset({"a", "c"})
    assert sol.revenue == 5
    assert exact_mwis(g).revenue == 5


def test_opcost_single_node():
    g = orient(build_bid_graph([Bid("x", {"o"}, 5)]), Ordering(["x"]))
    sol, _ = opcost(g)
    assert sol.selected == frozenset({"x"}) and sol.revenue == 5


def test_opcost_tight_star():
    bids = [Bid("v", {"s1", "s2", "s3"}, 1000)]
    bids += [Bid(f"u{i}", {f"s{i}"}, 900) for i in (1, 2, 3)]
    g = orient(build_bid_graph(bids), Ordering(["v", "u1", "u2", "u3"]))
    sol, table = opcost(g)
    assert table.val["v"] == 1000
    assert all(table.val[f"u{i}"] == -100 for i in (1, 2, 3))
    assert sol.selected == frozenset({"v"}) and sol.revenue == 1000
    assert exact_mwis(g).revenue == 2700


def test_opcost_zero_value_flag():
    bids = [Bid("a", {"s"}, 5), Bid("b", {"s"}, 5)]
    g = orient(build_bid_graph(bids), Ordering(["a", "b"]))
    strict, table = opcost(g)
    assert table.val["b"] == 0
    assert strict.selected == frozenset({"a"})
    loose, _ = opcost(g, include_zero_value=True)
    assert loose.selected == frozenset({"b"})
    assert strict.revenue == loose.revenue == 5


def test_value_table_recomputes():
    for seed in range(10):
        rng = SplitMix64(seed)
        bids = random_bids(15, 7, rng)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        _, table = opcost(g)
        assert verify_value_table(g, table)
        vals = [table.val[u] for u in order]
        vals[0] += 1
        broken = ValueTable(order, vals)
        assert not verify_value_table(g, broken)


def test_lropcost_chain():
    g = chain_graph()
    sol = lropcost(g)
    assert sol.selected == frozenset({"a", "c"}) and sol.revenue == 5


def test_lropcost_all_nonpositive():
    bids = [Bid("a", {"o1"}, 0), Bid("b", {"o2"}, 0)]
    g = orient(build_bid_graph(bids), Ordering(["a", "b"]))
    sol = lropcost(g)
    assert sol.selected == frozenset() and sol.revenue == 0


def test_equivalence_random_instances():
    for seed in range(200):
        rng = SplitMix64(seed)
        bids = random_bids(5 + rng.randrange(20), 8, rng)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        a, _ = opcost(g)
        b = lropcost(g)
        assert a.selected == b.selected
        assert a.revenue == b.revenue


def test_opcost_maximality():
    # every unselected node has non-positive value or a selected successor
    for seed in range(30):
        rng = SplitMix64(seed)
        bids = random_bids(14, 7, rng)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        sol, table = opcost(g)
        for u in g.ids:
            if u in sol.selected:
                continue
            has_selected_succ = any(v in sol.selected for v in successors(g, u))
            assert table.val[u] <= 0 or has_selected_succ


def test_greedy_chain():
    bids = [Bid("a", {"ab"}, 3), Bid("b", {"ab", "bc"}, 4), Bid("c", {"bc"}, 2)]
    g = build_bid_graph(bids)
    sol = greedy(g, decreasing_weight_ordering(g))
    assert sol.selected == frozenset({"b"}) and sol.revenue == 4


def test_greedy_independent_nodes():
    bids = [Bid(f"b{i}", {f"o{i}"}, i + 1) for i in range(5)]
    g = build_bid_graph(bids)
    sol = greedy(g, decreasing_weight_ordering(g))
    assert sol.selected == frozenset(b.id for b in bids)


def test_greedy_equals_opcost_on_decreasing_distinct_weights():
    for seed in range(40):
        rng = SplitMix64(seed)
        n = 5 + rng.randrange(12)
        weights = list(range(1, 200))
        rng.shuffle(weights)
        bids = []
        objects = [f"o{i}" for i in range(8)]
        for i in range(n):
            size = 1 + rng.randrange(3)
            objs = [objects[j] for j in rng.sample_indices(len(objects), size)]
            bids.append(Bid(f"b{i:02d}", frozenset(objs), weights[i]))
        g = build_bid_graph(bids)
        ordering = decreasing_weight_ordering(g)
        og = orient(g, ordering)
        sol_op, _ = opcost(og)
        sol_gr = greedy(g, ordering)
        assert sol_op.selected == sol_gr.selected


def test_planted_optimal_recovers_optimum():
    for seed in range(30):
        rng = SplitMix64(seed)
        bids = random_bids(12, 6, rng)
        g = build_bid_graph(bids)
        best = exact_mwis(g)
        ordering = planted_optimal_ordering(g, best.selected)
        sol, _ = opcost(orient(g, ordering))
        assert sol.revenue == best.revenue


def brute_force_mwis(g):
    """2^n enumeration oracle."""
    ids = sorted(g.ids)
    best_w, best_set = 0, frozenset()
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            ok = all(y not in g.neighbors(x) for x, y in itertools.combinations(combo, 2))
            if not ok:
                continue
            w = sum(g.weights[u] for u in combo)
            if w > best_w or (w == best_w and sorted(combo) < sorted(best_set)):
                best_w, best_set = w, frozenset(combo)
    return best_w, best_set


def test_exact_mwis_examples():
    g = chain_graph()
    sol = exact_mwis(g)
    assert sol.selected == frozenset({"a", "c"}) and sol.revenue == 5

    clique = [Bid("a", {"s"}, 2), Bid("b", {"s"}, 7), Bid("c", {"s"}, 5)]
    sol = exact_mwis(build_bid_graph(clique))
    assert sol.selected == frozenset({"b"}) and sol.revenue == 7

    empty = build_bid_graph([])
    sol = exact_mwis(empty)
    assert sol.selected == frozenset() and sol.revenue == 0


def test_exact_mwis_matches_enumeration():
    for seed in range(25):
        rng = SplitMix64(seed)
        bids = random_bids(11, 6, rng)
        g = build_bid_graph(bids)
        opt_w, opt_set = brute_force_mwis(g)
        sol = exact_mwis(g)
        assert sol.revenue == opt_w
        assert sol.selected == opt_set  # lexicographically smallest optimum


def test_exact_mwis_lex_tiebreak():
    # diamond with two equal optima {a, d} and {b, c}: lexicographic pick is {a, d}
    bids = [
        Bid("a", {"ab", "ac"}, 5),
        Bid("b", {"ab", "bd"}, 5),
        Bid("c", {"ac", "cd"}, 5),
        Bid("d", {"bd", "cd"}, 5),
    ]
    sol = exact_mwis(build_bid_graph(bids))
    assert sol.revenue == 10
    assert sol.selected == frozenset({"a", "d"})


def test_exact_mwis_cap():
    bids = [Bid(f"b{i:02d}", {f"o{i}"}, 1) for i in range(35)]
    with pytest.raises(CapacityError, match="35"):
        exact_mwis(build_bid_graph(bids))


def test_solvers_require_orientation():
    g = build_bid_graph([Bid("a", {"o"}, 1)])
    with pytest.raises(ValidationError, match="orientation"):
        opcost(g)
    with pytest.raises(ValidationError, match="orientation"):
        lropcost(g)


def test_solution_json_shape():
    g = chain_graph()
    sol, _ = opcost(g)
    obj = sol.to_json_obj()
    assert list(obj) == ["algorithm", "selected", "revenue", "certificate"]
    assert obj["selected"] == ["a", "c"]
    assert obj["algorithm"] == "opcost"
