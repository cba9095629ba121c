"""Budget-constrained solvers: unweighted, overlapping, weighted heavy/light."""

import itertools
from fractions import Fraction

import pytest

from auctol import (
    Bid,
    ConstraintSet,
    Group,
    Ordering,
    beta_exact,
    build_bid_graph,
    check_feasible,
    exact_feasible,
    group_clique_graph,
    opcost,
    orient,
    solve_light,
    solve_overlapping,
    solve_overlapping_lr,
    solve_unweighted,
    solve_unweighted_lr,
    solve_weighted,
)
from auctol.errors import ValidationError
from auctol.rng import SplitMix64

from test_graphs import random_bids


def oriented(bids, order=None):
    g = build_bid_graph(bids)
    if order is None:
        order = sorted(g.ids)
    return orient(g, Ordering(list(order)))


def random_groups(ids, rng, kind, group_size=3, k_max=3, weights=None):
    shuffled = list(ids)
    rng.shuffle(shuffled)
    chunks = [shuffled[i : i + group_size] for i in range(0, len(shuffled), group_size)]
    groups = []
    for j, chunk in enumerate(chunks):
        if kind == "weighted":
            w_max = max(weights[u] for u in chunk)
            limit = rng.randint(w_max, w_max + sum(weights[u] for u in chunk) // 2)
        else:
            limit = 1 + rng.randrange(min(k_max, len(chunk)))
        groups.append(Group(f"g{j}", frozenset(chunk), limit))
    return ConstraintSet(kind, groups)


def test_unweighted_trace_two_bids_one_slot():
    bids = [Bid("a", {"o1"}, 5, "g"), Bid("b", {"o2"}, 3, "g")]
    g = oriented(bids, ["a", "b"])
    cs = ConstraintSet("unweighted", [Group("g", {"a", "b"}, 1)])
    sol, table = solve_unweighted(g, cs)
    assert table.val == {"a": 5, "b": -2}
    assert sol.selected == frozenset({"a"}) and sol.revenue == 5
    opt, _ = exact_feasible(g, cs)
    assert opt == 5


def test_unweighted_one_of_n_takes_max():
    for seed in range(10):
        rng = SplitMix64(seed)
        n = 3 + rng.randrange(8)
        bids = [Bid(f"b{i}", {f"o{i}"}, 1 + rng.randrange(100), "g") for i in range(n)]
        g = oriented(bids)
        cs = ConstraintSet("unweighted", [Group("g", frozenset(b.id for b in bids), 1)])
        sol, _ = solve_unweighted(g, cs)
        opt, _ = exact_feasible(g, cs)
        assert opt == max(b.price for b in bids)
        assert sol.revenue == opt


def test_unweighted_lr_agrees_with_one_pass():
    for seed in range(60):
        rng = SplitMix64(seed)
        bids = random_bids(4 + rng.randrange(11), 6, rng)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        cs = random_groups(g.ids, rng, "unweighted")
        a, _ = solve_unweighted(g, cs)
        b = solve_unweighted_lr(g, cs)
        assert a.selected == b.selected and a.revenue == b.revenue


def test_unweighted_ratio_and_feasibility():
    for seed in range(40):
        rng = SplitMix64(1000 + seed)
        bids = random_bids(6 + rng.randrange(8), 6, rng)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        cs = random_groups(g.ids, rng, "unweighted")
        sol, _ = solve_unweighted(g, cs)
        ok, violations = check_feasible(sol, g, cs)
        assert ok, violations
        beta = beta_exact(g).beta_graph
        opt, _ = exact_feasible(g, cs)
        assert sol.revenue * (beta + 1) >= opt


def test_overlapping_trace_double_charge():
    bids = [Bid("x", {"p"}, 4), Bid("y", {"q"}, 4), Bid("z", {"r"}, 10)]
    g = oriented(bids, ["x", "y", "z"])
    cs = ConstraintSet("overlapping", [Group("g1", {"x", "z"}, 1), Group("g2", {"y", "z"}, 1)])
    sol = solve_overlapping(g, cs)
    # val(z) = 10 - 4 - 4 = 2 > 0, so z wins and blocks both groups
    assert "z" in sol.selected


def test_overlapping_t1_equals_unweighted():
    for seed in range(30):
        rng = SplitMix64(seed)
        bids = random_bids(5 + rng.randrange(9), 6, rng)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        cs_u = random_groups(g.ids, rng, "unweighted")
        cs_o = ConstraintSet("overlapping", cs_u.groups)
        assert cs_o.overlap() == 1
        a, ta = solve_unweighted(g, cs_u)
        b = solve_overlapping(g, cs_o)
        assert a.selected == b.selected and a.revenue == b.revenue


def test_overlapping_lr_agrees_and_ratio():
    for seed in range(40):
        rng = SplitMix64(seed)
        n = 5 + rng.randrange(9)
        bids = random_bids(n, 6, rng)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        n_groups = max(1, n // 3)
        member_lists = [[] for _ in range(n_groups)]
        for u in order:
            cnt = 1 + rng.randrange(3)
            for gi in rng.sample_indices(n_groups, min(cnt, n_groups)):
                member_lists[gi].append(u)
        groups = [
            Group(f"g{j}", frozenset(m), 1 + rng.randrange(3))
            for j, m in enumerate(member_lists)
            if m
        ]
        cs = ConstraintSet("overlapping", groups)
        t = cs.overlap()
        assert t <= 3
        a = solve_overlapping(g, cs)
        b = solve_overlapping_lr(g, cs)
        assert a.selected == b.selected
        ok, violations = check_feasible(a, g, cs)
        assert ok, violations
        beta = beta_exact(g).beta_graph
        opt, _ = exact_feasible(g, cs)
        assert a.revenue * (beta + t) >= opt


def test_weighted_heavy_pair():
    bids = [Bid("a", {"o1"}, 700, "g"), Bid("b", {"o2"}, 800, "g")]
    g = oriented(bids, ["a", "b"])
    cs = ConstraintSet("weighted", [Group("g", {"a", "b"}, 1000)])
    sol = solve_weighted(g, cs)
    assert sol.selected == frozenset({"b"}) and sol.revenue == 800
    opt, _ = exact_feasible(g, cs)
    assert opt == 800


def test_weighted_three_light_bids():
    bids = [Bid("a", {"o1"}, 500, "g"), Bid("b", {"o2"}, 500, "g"), Bid("c", {"o3"}, 500, "g")]
    g = oriented(bids, ["a", "b", "c"])
    cs = ConstraintSet("weighted", [Group("g", {"a", "b", "c"}, 1000)])
    sol = solve_weighted(g, cs)
    # the first bid zeroes its group mates (factor 1 - 2*500/1000 = 0)
    assert sol.selected == frozenset({"a"}) and sol.revenue == 500
    opt, _ = exact_feasible(g, cs)
    assert opt == 1000
    beta = beta_exact(g).beta_graph
    assert sol.revenue * (2 * beta + 3) >= opt


def test_weighted_light_side_alone():
    bids = [Bid("a", {"o1"}, 400, "g"), Bid("b", {"o2"}, 100, "g")]
    g = oriented(bids, ["a", "b"])
    cs = ConstraintSet("weighted", [Group("g", {"a", "b"}, 1000)])
    sol = solve_weighted(g, cs)
    light_sol, _ = solve_light(g, cs)
    assert sol.selected == light_sol.selected


def test_light_single_bid():
    bids = [Bid("a", {"o1"}, 400, "g")]
    g = oriented(bids)
    cs = ConstraintSet("weighted", [Group("g", {"a"}, 1000)])
    sol, _ = solve_light(g, cs)
    assert sol.selected == frozenset({"a"}) and sol.revenue == 400


def test_light_rejects_heavy_bid():
    bids = [Bid("a", {"o1"}, 900, "g")]
    g = oriented(bids)
    cs = ConstraintSet("weighted", [Group("g", {"a"}, 1000)])
    with pytest.raises(ValidationError, match="heavy"):
        solve_light(g, cs)


def test_light_lazy_matches_direct():
    for seed in range(60):
        rng = SplitMix64(seed)
        n = 4 + rng.randrange(10)
        bids = random_bids(n, 6, rng, wmax=400)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        groups = random_groups(g.ids, rng, "weighted", weights=g.weights)
        # force everything light: b >= 2 * max weight
        fixed = [
            Group(grp.label, grp.members, max(grp.limit, 2 * max(g.weights[u] for u in grp.members)))
            for grp in groups.groups
        ]
        cs = ConstraintSet("weighted", fixed)
        lazy, tl = solve_light(g, cs, mode="lazy")
        direct, td = solve_light(g, cs, mode="direct")
        assert lazy.selected == direct.selected
        for u in g.ids:
            a, b = tl.val[u], td.val[u]
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_weighted_ratio_and_heavy_exclusivity():
    for seed in range(40):
        rng = SplitMix64(77 + seed)
        n = 5 + rng.randrange(9)
        bids = random_bids(n, 6, rng, wmax=900)
        g = build_bid_graph(bids)
        order = sorted(g.ids)
        rng.shuffle(order)
        g = orient(g, Ordering(order))
        cs = random_groups(g.ids, rng, "weighted", weights=g.weights)
        sol = solve_weighted(g, cs)
        ok, violations = check_feasible(sol, g, cs)
        assert ok, violations
        # heavy winners are exclusive within a group
        for grp in cs.groups:
            heavy_in = [u for u in sol.selected & grp.members if 2 * g.weights[u] > grp.limit]
            assert len(heavy_in) <= 1
        beta = beta_exact(g).beta_graph
        opt, _ = exact_feasible(g, cs)
        assert sol.revenue * (2 * beta + 3) >= opt


def test_weighted_drops_unselectable_bids():
    bids = [Bid("big", {"o1"}, 5000, "g"), Bid("ok", {"o2"}, 300, "g")]
    g = oriented(bids, ["big", "ok"])
    cs = ConstraintSet("weighted", [Group("g", {"big", "ok"}, 1000)])
    sol = solve_weighted(g, cs)
    assert "big" not in sol.selected
    ok, violations = check_feasible(sol, g, cs)
    assert ok, violations


def test_weighted_checks_light_pass_inputs_without_light_bids():
    # the light side runs over every group, light bids or not: a budget
    # beyond the double range, or an unknown light mode, is refused even
    # when every bid is heavy
    huge = 2**1100
    g = oriented([Bid("a", {"o1"}, huge, "g"), Bid("b", {"o2"}, 800, "h")])
    cs = ConstraintSet("weighted", [Group("g", {"a"}, huge), Group("h", {"b"}, 1000)])
    with pytest.raises(ValidationError, match=r"^group 'g': budget exceeds the double precision"):
        solve_weighted(g, cs)
    g = oriented([Bid("b", {"o2"}, 800, "h")])
    cs = ConstraintSet("weighted", [Group("h", {"b"}, 1000)])
    assert solve_weighted(g, cs).selected == {"b"}
    with pytest.raises(ValidationError, match=r"^unknown light mode 'bogus'$"):
        solve_weighted(g, cs, light_mode="bogus")


@pytest.mark.parametrize(
    "kind, before, after, price",
    [("unweighted", 4, 1, 1), ("weighted", 40, 10, 10)],
)
def test_solve_reads_constraints_edited_in_place(kind, before, after, price):
    # one oriented graph, one constraint set edited between two solves: the
    # second solve must read the new limit, not an index of the old one
    ids = ["a", "b", "c", "d"]
    g = oriented([Bid(u, {f"o{u}"}, price, "g1") for u in ids])
    cs = ConstraintSet(kind, [Group("g1", set(ids), before)])
    solve = solve_weighted if kind == "weighted" else (lambda g, cs: solve_unweighted(g, cs)[0])
    first = solve(g, cs)
    assert first.selected == frozenset(ids)
    assert check_feasible(first, g, cs) == (True, [])
    cs.groups[0] = Group("g1", set(ids), after)
    second = solve(g, cs)
    assert check_feasible(second, g, cs) == (True, [])
    assert len(second.selected) == 1 and second.revenue == price


def test_check_feasible_cases():
    bids = [Bid("a", {"s"}, 5, "g"), Bid("b", {"s"}, 3, "g")]
    g = oriented(bids)
    cs = ConstraintSet("weighted", [Group("g", {"a", "b"}, 7)])
    from auctol.solvers import Certificate, Solution

    empty = Solution(frozenset(), 0, Certificate("manual"))
    assert check_feasible(empty, g, cs) == (True, [])

    clash = Solution(frozenset({"a", "b"}), 8, Certificate("manual"))
    ok, violations = check_feasible(clash, g, cs)
    assert not ok
    assert any("conflict" in v for v in violations)
    assert any("exceeds budget" in v and "by 1" in v for v in violations)


def test_group_clique_graph():
    bids = [Bid("a", {"o1"}, 5, "g"), Bid("b", {"o2"}, 3, "g"), Bid("c", {"o3"}, 2, "h")]
    g = build_bid_graph(bids)
    cs = ConstraintSet("unweighted", [Group("g", {"a", "b"}, 1), Group("h", {"c"}, 1)])
    gc = group_clique_graph(g, cs)
    assert "b" in gc.neighbors("a") and "c" not in gc.neighbors("a")
    with pytest.raises(ValidationError, match="k=2"):
        group_clique_graph(g, ConstraintSet("unweighted", [Group("g", {"a", "b"}, 2), Group("h", {"c"}, 1)]))


def brute_feasible(g, cs):
    """2^n feasibility enumeration oracle."""
    ids = sorted(g.ids)
    best = 0
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            chosen = set(combo)
            if any(y in g.neighbors(x) for x, y in itertools.combinations(combo, 2)):
                continue
            ok = True
            for grp in cs.groups:
                inside = chosen & grp.members
                if cs.kind == "weighted":
                    if sum(g.weights[u] for u in inside) > grp.limit:
                        ok = False
                        break
                elif len(inside) > grp.limit:
                    ok = False
                    break
            if ok:
                best = max(best, sum(g.weights[u] for u in combo))
    return best


def test_exact_feasible_matches_enumeration():
    for kind in ("unweighted", "weighted"):
        for seed in range(12):
            rng = SplitMix64(seed)
            bids = random_bids(9, 5, rng, wmax=200)
            g = build_bid_graph(bids)
            cs = random_groups(sorted(g.ids), rng, kind, weights=g.weights)
            opt, chosen = exact_feasible(g, cs)
            assert opt == brute_feasible(g, cs)
            sol_ok, violations = check_feasible(
                __import__("auctol").solvers.Solution(
                    chosen, opt, __import__("auctol").solvers.Certificate("oracle")
                ),
                g,
                cs,
            )
            assert sol_ok, violations


def test_constraint_partition_validation():
    bids = [Bid("a", {"o1"}, 1, "g"), Bid("b", {"o2"}, 1, "g")]
    g = oriented(bids)
    cs = ConstraintSet("unweighted", [Group("g", {"a"}, 1)])
    with pytest.raises(ValidationError, match="partition"):
        solve_unweighted(g, cs)
