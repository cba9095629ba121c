"""Oracle for the money-budget solver's heavy/light split.

The reference below is a copy of a ``solve_weighted`` that builds each side
as its own instance: the heavy bids (w <= b < 2w) as an induced subgraph
with 1-of-group limits, solved by ``solve_unweighted``, and the light bids
(2w <= b) as another induced subgraph, solved by ``solve_light``; the winner
is then re-checked as a selection on the whole graph. The library's
``solve_weighted`` must return the same selection, revenue and certificate
algorithm in both light modes, on weighted ``gen_budget`` instances over the
interval, subtree and grid bases, and on random oriented bid sets with zero
prices, bids above their whole budget and shuffled orders.
"""

import random

import pytest

from auctol import (
    Bid,
    BidGraph,
    ConstraintSet,
    Group,
    Ordering,
    build_bid_graph,
    gen_budget,
    orient,
    oriented_graph,
    solve_light,
    solve_unweighted,
    solve_weighted,
)
from auctol.budgets import group_index
from auctol.graphs import csr
from auctol.solvers import selection_solution


def induced(g, keep):
    """The subgraph of the oriented graph ``g`` on the ids in ``keep``,
    oriented by ``g``'s order restricted to them."""
    kept = [i for i, u in enumerate(g.ids) if u in keep]
    new = {i: k for k, i in enumerate(kept)}
    pairs = [(new[i], new[j]) for i in kept for j in g.nbr[g.ptr[i] : g.ptr[i + 1]] if j > i and j in new]
    sub = BidGraph({g.ids[i]: g.weights[g.ids[i]] for i in kept}, *csr(len(kept), pairs))
    return orient(sub, Ordering([u for u in g.order() if u in keep], g.ordering.provenance))


def ref_weighted(g, cs, light_mode="lazy"):
    gx = group_index(g, cs)
    budget = [gx.limits[gi] for gi in gx.gidx]
    heavy = [u for u, w, b in zip(g.order(), g.w, budget) if w <= b < 2 * w]
    light = [u for u, w, b in zip(g.order(), g.w, budget) if 2 * w <= b]

    heavy_sol = light_sol = None
    if heavy:
        keep = set(heavy)
        hgroups = [Group(grp.label, inside, 1) for grp in cs.groups if (inside := grp.members & keep)]
        heavy_sol, _ = solve_unweighted(induced(g, keep), ConstraintSet("unweighted", hgroups))
    if light:
        keep = set(light)
        lgroups = [Group(grp.label, inside, grp.limit) for grp in cs.groups if (inside := grp.members & keep)]
        light_sol, _ = solve_light(induced(g, keep), ConstraintSet("weighted", lgroups), mode=light_mode)

    h_rev = heavy_sol.revenue if heavy_sol else 0
    l_rev = light_sol.revenue if light_sol else 0
    if h_rev >= l_rev:
        chosen = heavy_sol.selected if heavy_sol else frozenset()
    else:
        chosen = light_sol.selected
    return selection_solution(g, [u in chosen for u in g.order()], "weighted")


def random_case(rng):
    """A random bid set, oriented by a shuffled order, with a random
    partition into groups. Prices include 0; each group's budget is drawn
    around its largest price, so bids above their whole budget, heavy bids
    and light bids all occur."""
    n = rng.randint(1, 18)
    n_objects = rng.randint(2, 8)
    wmax = rng.choice((3, 100, 10**6))
    bids = []
    for i in range(n):
        objects = rng.sample(range(n_objects), rng.randint(1, min(3, n_objects)))
        price = 0 if rng.random() < 0.15 else rng.randint(1, wmax)
        bids.append(Bid(f"b{i:02d}", frozenset(f"o{j}" for j in objects), price))
    g = build_bid_graph(bids)
    order = list(g.ids)
    rng.shuffle(order)
    g = orient(g, Ordering(order))

    shuffled = list(g.ids)
    rng.shuffle(shuffled)
    size = rng.randint(1, 5)
    groups = []
    for j in range(0, n, size):
        chunk = shuffled[j : j + size]
        top = max(g.weights[u] for u in chunk)
        budget = max(1, rng.randint(top // 3, 3 * top + 2))
        groups.append(Group(f"g{j}", frozenset(chunk), budget))
    return g, ConstraintSet("weighted", groups)


def same_solution(got, want):
    assert got.selected == want.selected
    assert got.revenue == want.revenue
    assert got.certificate.algorithm == want.certificate.algorithm


@pytest.mark.parametrize("light_mode", ["lazy", "direct"])
def test_random_bid_sets_match_reference(light_mode):
    rng = random.Random(4100 + (light_mode == "direct"))
    for _ in range(400):
        g, cs = random_case(rng)
        same_solution(solve_weighted(g, cs, light_mode=light_mode), ref_weighted(g, cs, light_mode))


@pytest.mark.parametrize("light_mode", ["lazy", "direct"])
@pytest.mark.parametrize(
    "base, params",
    [
        ("interval", {"n": 60, "group_size": 4}),
        ("interval", {"n": 40, "group_size": 2, "weight_range": (0, 5)}),
        ("subtrees", {"tree_size": 12, "n_bids": 30, "group_size": 3}),
        ("grid", {"dims": (5, 5), "density_milli": 800, "group_size": 5}),
    ],
)
def test_generated_instances_match_reference(base, params, light_mode):
    for seed in range(12):
        inst = gen_budget(base, "weighted", params, seed)
        g = oriented_graph(inst)[0]
        same_solution(
            solve_weighted(g, inst.constraints, light_mode=light_mode),
            ref_weighted(g, inst.constraints, light_mode),
        )
