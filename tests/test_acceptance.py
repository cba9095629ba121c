"""Acceptance suite: every advertised guarantee, one test per criterion.

Each test prints a single PASS line with its instance count and wall time;
tolerances are exact (integer or rational arithmetic) except where a
criterion states a numeric epsilon.
"""

import time
from fractions import Fraction

from auctol import (
    Bid,
    ConstraintSet,
    Group,
    Ordering,
    beta_bound_frontier,
    beta_exact,
    bid_graph,
    build_bid_graph,
    check_feasible,
    decreasing_weight_ordering,
    exact_feasible,
    exact_mwis,
    frontier_violations,
    gen_budget,
    gen_grid,
    gen_interval,
    gen_interval_selection,
    gen_subtrees,
    gen_tight,
    greedy,
    lexbfs_peo,
    lropcost,
    min_degree_heuristic_decomposition,
    opcost,
    ordering_from_spec,
    orient,
    oriented_graph,
    planted_optimal_ordering,
    solve_light,
    solve_overlapping,
    solve_overlapping_lr,
    solve_unweighted,
    solve_unweighted_lr,
    solve_weighted,
    tree_decomposition_ordering,
)
from auctol.cli import run_bench
from auctol.graphs import ObjectGraph
from auctol.orderings import NotChordal
from auctol.rng import SplitMix64


def _report(name: str, detail: str, t0: float) -> None:
    print(f"PASS {name}: {detail} ({time.perf_counter() - t0:.1f}s)")


def _assert_feasible(sol, g, cs=None):
    ok, violations = check_feasible(sol, g, cs)
    assert ok, violations


def mixed_instance(kind: int, seed: int, max_n: int):
    """One instance from the generator families, sized below ``max_n``."""
    if kind == 0:
        return gen_interval(4 + seed % (max_n - 3), seed=seed)
    if kind == 1:
        return gen_subtrees(4 + seed % 8, 4 + (seed * 7) % (max_n - 3), seed=seed)
    if kind == 2:
        if max_n >= 25:
            return gen_grid((3, 3), density_milli=700 + (seed % 4) * 100, seed=seed)
        return gen_grid((2, 2 + seed % 3), density_milli=1000, seed=seed)
    return gen_tight(2 + seed % min(6, max_n - 1), 1 + (seed * 37) % 999, seed=seed)


def oriented_mixed(kind: int, seed: int, max_n: int):
    """Build and orient a mixed-family instance; odd seeds get a shuffled
    explicit orientation instead of the declared one."""
    inst = mixed_instance(kind, seed, max_n)
    g = bid_graph(inst)
    if seed % 2 == 1:
        order = sorted(g.ids)
        SplitMix64(seed).shuffle(order)
        return inst, orient(g, Ordering(order))
    return inst, orient(g, ordering_from_spec(inst, g))


def test_criterion_1_equivalence():
    t0 = time.perf_counter()
    count = 0
    for seed in range(250):
        for kind in range(4):
            inst, g = oriented_mixed(kind, seed, max_n=50)
            a, _ = opcost(g)
            b = lropcost(g)
            assert a.selected == b.selected, (kind, seed)
            assert a.revenue == b.revenue
            _assert_feasible(a, g)
            count += 1
    elapsed = time.perf_counter() - t0
    assert count == 1000
    assert elapsed < 10.0, f"equivalence took {elapsed:.1f}s, budget 10s"
    _report("criterion-1 equivalence", f"{count} instances, identical selections", t0)


def test_criterion_2_beta_ratio():
    t0 = time.perf_counter()
    count = 0
    for seed in range(125):
        for kind in range(4):
            inst, g = oriented_mixed(kind, seed, max_n=20)
            if g.n > 20:
                continue
            sol, _ = opcost(g)
            beta = beta_exact(g).beta_graph
            opt = exact_mwis(g).revenue
            assert sol.revenue * beta >= opt, (kind, seed)
            _assert_feasible(sol, g)
            count += 1
    elapsed = time.perf_counter() - t0
    assert count >= 500
    assert elapsed < 60.0, f"beta-ratio took {elapsed:.1f}s, budget 60s"
    _report("criterion-2 beta-ratio", f"{count} instances, revenue*beta >= optimum", t0)


def test_criterion_3_tightness():
    t0 = time.perf_counter()
    checked = 0
    for beta in (2, 3, 5):
        for eps in (1, 100):
            inst = gen_tight(beta, eps, seed=beta * 1000 + eps)
            g = oriented_graph(inst)[0]
            sol, _ = opcost(g)
            opt = exact_mwis(g).revenue
            assert sol.revenue == 1000
            assert Fraction(opt, sol.revenue) == Fraction(beta * (1000 - eps), 1000)
            assert beta_exact(g).beta_graph == beta
            checked += 1
    _report("criterion-3 tightness", f"{checked} (beta, eps) pairs exact", t0)


def test_criterion_4_chordal_optimality():
    t0 = time.perf_counter()
    count = 0
    for seed in range(100):
        for inst in (
            gen_interval(4 + seed % 17, seed=seed),
            gen_subtrees(4 + seed % 8, 4 + (seed * 3) % 17, seed=seed),
        ):
            g = bid_graph(inst)
            ordering = lexbfs_peo(g)
            assert not isinstance(ordering, NotChordal)
            og = orient(g, ordering)
            sol, _ = opcost(og)
            assert sol.revenue == exact_mwis(og).revenue, seed
            _assert_feasible(sol, og)
            count += 1
    assert count == 200
    _report("criterion-4 chordal-optimality", f"{count} PEO instances solved exactly", t0)


def _distinct_weight_graph(seed: int, n: int):
    rng = SplitMix64(seed)
    weights = rng.sample_indices(10_000, n)
    objects = [f"o{i}" for i in range(8)]
    bids = []
    for i in range(n):
        size = 1 + rng.randrange(3)
        objs = [objects[j] for j in rng.sample_indices(len(objects), size)]
        bids.append(Bid(f"b{i:02d}", frozenset(objs), 1 + weights[i]))
    return build_bid_graph(bids)


def test_criterion_5_ordering_guarantees():
    t0 = time.perf_counter()
    for seed in range(200):
        g = _distinct_weight_graph(seed, 5 + seed % 16)
        best = exact_mwis(g)
        planted = orient(g, planted_optimal_ordering(g, best.selected))
        sol, _ = opcost(planted)
        assert sol.revenue == best.revenue, seed
    for seed in range(200):
        g = _distinct_weight_graph(10_000 + seed, 5 + seed % 16)
        ordering = decreasing_weight_ordering(g)
        sol_op, _ = opcost(orient(g, ordering))
        sol_gr = greedy(g, ordering)
        assert sol_op.selected == sol_gr.selected, seed
    _report("criterion-5 ordering-guarantees", "200 planted-optimal + 200 greedy-order instances", t0)


def test_criterion_6_budget_ratios():
    t0 = time.perf_counter()
    for seed in range(200):
        inst = gen_budget(
            "interval", "unweighted",
            {"n": 6 + seed % 9, "group_size": 2 + seed % 3, "k_max": 3}, seed=seed,
        )
        g = oriented_graph(inst)[0]
        cs = inst.constraints
        sol, _ = solve_unweighted(g, cs)
        assert sol.selected == solve_unweighted_lr(g, cs).selected
        _assert_feasible(sol, g, cs)
        beta = beta_exact(g).beta_graph
        opt, _ = exact_feasible(g, cs)
        assert sol.revenue * (beta + 1) >= opt, seed

    for seed in range(200):
        inst = gen_budget(
            "interval", "overlapping",
            {"n": 6 + seed % 9, "group_size": 2 + seed % 3, "k_max": 3, "t": 1 + seed % 3},
            seed=seed,
        )
        g = oriented_graph(inst)[0]
        cs = inst.constraints
        t = cs.overlap()
        assert t <= 3
        sol = solve_overlapping(g, cs)
        assert sol.selected == solve_overlapping_lr(g, cs).selected
        _assert_feasible(sol, g, cs)
        beta = beta_exact(g).beta_graph
        opt, _ = exact_feasible(g, cs)
        assert sol.revenue * (beta + t) >= opt, seed

    for seed in range(200):
        inst = gen_budget(
            "interval", "weighted",
            {"n": 6 + seed % 9, "group_size": 2 + seed % 3}, seed=seed,
        )
        g = oriented_graph(inst)[0]
        cs = inst.constraints
        sol = solve_weighted(g, cs)
        _assert_feasible(sol, g, cs)
        beta = beta_exact(g).beta_graph
        opt, _ = exact_feasible(g, cs)
        assert sol.revenue * (2 * beta + 3) >= opt, seed
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"budget ratios took {elapsed:.1f}s, budget 2min"
    _report("criterion-6 budget-ratios", "3 x 200 instances within beta+1 / beta+t / 2beta+3", t0)


def test_criterion_7_feasibility_sweep():
    t0 = time.perf_counter()
    count = 0
    for seed in range(40):
        inst, g = oriented_mixed(seed % 4, seed, max_n=30)
        for sol in (opcost(g)[0], lropcost(g), greedy(g, g.ordering)):
            _assert_feasible(sol, g)
            count += 1
        if g.n <= 20:
            _assert_feasible(exact_mwis(g), g)
            count += 1
    for kind in ("unweighted", "overlapping", "weighted"):
        for seed in range(20):
            inst = gen_budget("interval", kind, {"n": 10}, seed=seed)
            g = oriented_graph(inst)[0]
            cs = inst.constraints
            if kind == "unweighted":
                sols = [solve_unweighted(g, cs)[0], solve_unweighted_lr(g, cs)]
            elif kind == "overlapping":
                sols = [solve_overlapping(g, cs), solve_overlapping_lr(g, cs)]
            else:
                sols = [solve_weighted(g, cs, light_mode=m) for m in ("lazy", "direct")]
            for sol in sols:
                _assert_feasible(sol, g, cs)
                count += 1
    _report("criterion-7 feasibility", f"{count} solver outputs all feasible", t0)


def test_criterion_8_linear_time():
    t0 = time.perf_counter()
    sizes = [10_000, 100_000, 1_000_000]
    ratios = {}
    for family in ("interval", "budget-unweighted", "budget-overlapping"):
        report = run_bench(family, sizes, seed=0, repeats=3)
        for name, chk in report["checks"].items():
            ratios[name] = chk["cost_ratio"]
            assert chk["ok"], f"{name}: per-element cost ratio {chk['cost_ratio']} > 3"
    elapsed = time.perf_counter() - t0
    assert set(ratios) == {"opcost", "lropcost", "unweighted", "overlapping"}
    assert elapsed < 120.0, f"bench took {elapsed:.1f}s, budget 2min"
    _report("criterion-8 linear-time", f"per-element cost ratios {ratios} all <= 3", t0)


def _random_sparse_og(seed: int, n: int) -> ObjectGraph:
    rng = SplitMix64(seed)
    names = [f"x{i}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    have = set(edges)
    for _ in range(rng.randrange(3)):
        a, b = rng.sample_indices(n, 2)
        e = (names[min(a, b)], names[max(a, b)])
        if e not in have:
            have.add(e)
            edges.append(e)
    return ObjectGraph(names, edges)


def _neighbours(og: ObjectGraph, o: str) -> list[str]:
    i = og.index[o]
    return [og.names[j] for j in og.nbr[og.ptr[i] : og.ptr[i + 1]]]


def _random_connected_bids(og: ObjectGraph, rng: SplitMix64, count: int):
    names = og.objects
    bids = []
    for i in range(count):
        start = names[rng.randrange(len(names))]
        target = 1 + rng.randrange(3)
        inside = {start}
        chosen = [start]
        frontier = sorted(_neighbours(og, start))
        while len(chosen) < target and frontier:
            nxt = frontier.pop(rng.randrange(len(frontier)))
            if nxt in inside:
                continue
            inside.add(nxt)
            chosen.append(nxt)
            for nb in sorted(_neighbours(og, nxt)):
                if nb not in inside and nb not in frontier:
                    frontier.append(nb)
        bids.append(Bid(f"b{i:02d}", frozenset(chosen), 1 + rng.randrange(1000)))
    return bids


def test_criterion_9_frontier_soundness():
    t0 = time.perf_counter()
    count = 0
    for seed in range(100):
        rng = SplitMix64(seed)
        og = _random_sparse_og(seed, 5 + seed % 6)
        bids = _random_connected_bids(og, rng, 5 + seed % 8)
        if len({b.id for b in bids}) > 12:
            bids = bids[:12]
        td = min_degree_heuristic_decomposition(og)
        ordering = tree_decomposition_ordering(td, bids, og)
        g = orient(build_bid_graph(bids), ordering)
        max_bag = max(len(bag) for bag in td.bags.values())
        assert beta_exact(g).beta_graph <= max_bag, seed
        assert beta_exact(g).beta_graph <= beta_bound_frontier(ordering), seed
        assert frontier_violations(g, ordering, [b.objects for b in bids]) == [], seed
        count += 1
    assert count == 100
    _report("criterion-9 frontier-soundness", f"{count} decomposition-ordered instances", t0)


def test_criterion_10_light_pass_consistency():
    t0 = time.perf_counter()
    count = 0
    for seed in range(200):
        rng = SplitMix64(seed)
        n = 4 + seed % 11
        objects = [f"o{i}" for i in range(6)]
        bids = []
        for i in range(n):
            size = 1 + rng.randrange(3)
            objs = [objects[j] for j in rng.sample_indices(len(objects), size)]
            bids.append(Bid(f"b{i:02d}", frozenset(objs), 1 + rng.randrange(400)))
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        ids = list(order)
        rng.shuffle(ids)
        groups = []
        gsize = 2 + seed % 3
        for j in range(0, n, gsize):
            chunk = ids[j : j + gsize]
            limit = 2 * max(g.weights[u] for u in chunk) + rng.randrange(500)
            groups.append(Group(f"g{j}", frozenset(chunk), limit))
        cs = ConstraintSet("weighted", groups)
        lazy, tl = solve_light(g, cs, mode="lazy")
        direct, td = solve_light(g, cs, mode="direct")
        assert lazy.selected == direct.selected, seed
        assert lazy.revenue == direct.revenue
        for u in g.ids:
            a, b = tl.val[u], td.val[u]
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)), (seed, u)
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 200
    assert elapsed < 10.0, f"light-pass consistency took {elapsed:.1f}s, budget 10s"
    _report("criterion-10 light-pass", f"{count} instances, lazy == direct", t0)
