"""Instance files, canonical JSON, and the generators."""

from fractions import Fraction

import pytest

from auctol import (
    beta_bound_union,
    beta_exact,
    bid_graph,
    dumps_instance,
    exact_mwis,
    gen_budget,
    gen_grid,
    gen_interval,
    gen_interval_selection,
    gen_subtrees,
    gen_tight,
    lexbfs_peo,
    load_instance,
    loads_instance,
    opcost,
    ordering_from_spec,
    orient,
    oriented_graph,
    save_instance,
    validate_instance,
)
from auctol.errors import SchemaError
from auctol.graphs import Ordering
from auctol.orderings import NotChordal
from auctol.rng import SplitMix64

MINIMAL = """
{
  "format": "auctol/1",
  "bids": [{"id": "b0", "objects": ["o0"], "price": 10}]
}
"""


def test_minimal_instance_roundtrip():
    inst = loads_instance(MINIMAL)
    assert len(inst.bids) == 1 and inst.bids[0].price == 10
    text = dumps_instance(inst)
    again = loads_instance(text)
    assert dumps_instance(again) == text


def test_dangling_object_id_reports_pointer():
    bad = """
    {
      "format": "auctol/1",
      "objects": ["o0"],
      "object_edges": [],
      "bids": [{"id": "b0", "objects": ["ghost"], "price": 1}]
    }
    """
    with pytest.raises(SchemaError) as err:
        loads_instance(bad)
    assert "/bids/0" in str(err.value)
    assert "ghost" in str(err.value)


def test_schema_rejects_bad_format_tag():
    with pytest.raises(SchemaError, match="/format"):
        loads_instance('{"format": "other/9", "bids": []}')


def test_schema_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="/surprise"):
        loads_instance('{"format": "auctol/1", "bids": [], "surprise": 1}')


def test_non_germane_bid_rejected_on_load():
    bad = """
    {
      "format": "auctol/1",
      "objects": ["o0", "o1", "o2"],
      "object_edges": [["o0", "o1"], ["o1", "o2"]],
      "bids": [{"id": "b0", "objects": ["o0", "o2"], "price": 1}]
    }
    """
    with pytest.raises(SchemaError, match="germane"):
        loads_instance(bad)


ALL_FAMILIES = [
    lambda seed: gen_interval(14, seed=seed),
    lambda seed: gen_interval_selection(4, 3, seed=seed),
    lambda seed: gen_subtrees(9, 12, seed=seed),
    lambda seed: gen_grid((3, 4), density_milli=850, seed=seed),
    lambda seed: gen_tight(3, 100, seed=seed),
    lambda seed: gen_budget("interval", "unweighted", {"n": 12}, seed=seed),
    lambda seed: gen_budget("interval", "overlapping", {"n": 12, "t": 2}, seed=seed),
    lambda seed: gen_budget("subtrees", "weighted", {"tree_size": 8, "n_bids": 12}, seed=seed),
]


def test_generators_deterministic():
    for gen in ALL_FAMILIES:
        assert dumps_instance(gen(5)) == dumps_instance(gen(5))
        assert dumps_instance(gen(5)) != dumps_instance(gen(6))


def test_generators_roundtrip_fixpoint(tmp_path):
    for i, gen in enumerate(ALL_FAMILIES):
        inst = gen(2)
        path = tmp_path / f"inst{i}.json"
        save_instance(inst, path)
        text = path.read_text()
        again = load_instance(path)
        assert dumps_instance(again) == text


def test_generated_instances_validate_and_order():
    for gen in ALL_FAMILIES:
        inst = gen(3)
        validate_instance(inst)
        g = oriented_graph(inst)  # raises if the declared ordering fails
        assert g.n == len(inst.bids)


def test_gen_interval_single():
    inst = gen_interval(1, seed=0)
    assert len(inst.bids) == 1


def test_nested_intervals_form_clique():
    # hand-built nesting: each interval contains the next
    from auctol import Bid, build_bid_graph

    bids = []
    for i in range(4):
        pts = frozenset(f"p{j}" for j in range(i, 8 - i))
        bids.append(Bid(f"b{i}", pts, 1))
    g = build_bid_graph(bids)
    assert g.m == 6  # complete graph on 4
    assert isinstance(lexbfs_peo(g), Ordering)


def test_gen_interval_selection_composition_bound():
    inst = gen_interval_selection(4, 3, seed=1)
    assert inst.constraints is not None and inst.constraints.kind == "unweighted"
    assert all(grp.limit == 1 for grp in inst.constraints.groups)
    # interval part is chordal (beta 1), groups are disjoint cliques (beta 1)
    assert beta_bound_union([1, 1]) == 2


def test_gen_subtrees_chordal():
    inst = gen_subtrees(12, 40, seed=9)
    g = bid_graph(inst)
    assert isinstance(lexbfs_peo(g), Ordering)


def test_gen_subtrees_disjoint_edgeless():
    inst = gen_subtrees(30, 6, seed=4)
    g = bid_graph(inst)
    by_id = {b.id: b for b in inst.bids}
    for u in g.ids:
        for v in g.neighbors(u):
            assert by_id[u].objects & by_id[v].objects


def test_gen_grid_shapes():
    path = gen_grid((1, 6), seed=0)
    g = oriented_graph(path)
    assert beta_exact(g).beta_graph == 1

    full = gen_grid((4, 4), seed=0)
    g = oriented_graph(full)
    assert beta_exact(g).beta_graph == 2

    cube = gen_grid((2, 2, 2), seed=0)
    g = oriented_graph(cube)
    assert beta_exact(g).beta_graph <= 3


def test_gen_tight_ratios():
    # for beta >= 2 the all-successors set beats the hub, so the observed
    # opt/alg ratio is exactly beta * (1000 - eps) / 1000
    for beta, eps in [(3, 100), (5, 1), (2, 1)]:
        inst = gen_tight(beta, eps, seed=0)
        g = oriented_graph(inst)
        sol, _ = opcost(g)
        assert sol.revenue == 1000
        opt = exact_mwis(g).revenue
        assert Fraction(opt, sol.revenue) == Fraction(beta * (1000 - eps), 1000)
    # beta = 1: two nodes; the lone successor is worth 1000 - eps, but the
    # hub itself is optimal, so the algorithm is exact here
    inst = gen_tight(1, 100, seed=0)
    assert len(inst.bids) == 2
    g = oriented_graph(inst)
    sol, _ = opcost(g)
    succ_weight = sum(b.price for b in inst.bids if b.id != "a_hub")
    assert Fraction(succ_weight, sol.revenue) == Fraction(900, 1000)
    assert exact_mwis(g).revenue == sol.revenue == 1000


def test_gen_budget_group_shapes():
    inst = gen_budget("interval", "unweighted", {"n": 15, "group_size": 4, "k_max": 3}, seed=2)
    assert inst.constraints.kind == "unweighted"
    members = sorted(u for grp in inst.constraints.groups for u in grp.members)
    assert members == sorted(b.id for b in inst.bids)

    inst = gen_budget("interval", "overlapping", {"n": 15, "t": 3}, seed=2)
    assert inst.constraints.kind == "overlapping"
    assert inst.constraints.overlap() <= 3

    inst = gen_budget("interval", "weighted", {"n": 15}, seed=2)
    weights = {b.id: b.price for b in inst.bids}
    for grp in inst.constraints.groups:
        assert grp.limit >= max(weights[u] for u in grp.members)


def test_gen_budget_weighted_exercises_heavy_split():
    hit_heavy = hit_light = False
    for seed in range(12):
        inst = gen_budget("interval", "weighted", {"n": 14}, seed=seed)
        weights = {b.id: b.price for b in inst.bids}
        for grp in inst.constraints.groups:
            for u in grp.members:
                if 2 * weights[u] > grp.limit:
                    hit_heavy = True
                else:
                    hit_light = True
    assert hit_heavy and hit_light


def test_explicit_ordering_with_frontier_sets():
    text = """
    {
      "format": "auctol/1",
      "bids": [
        {"id": "b0", "objects": ["x", "y"], "price": 4},
        {"id": "b1", "objects": ["y", "z"], "price": 3}
      ],
      "ordering_spec": {
        "method": "explicit",
        "permutation": ["b0", "b1"],
        "frontier_sets": {"b0": ["y"], "b1": ["z"]},
        "beta_bound": 1
      }
    }
    """
    inst = loads_instance(text)
    g = bid_graph(inst)
    ordering = ordering_from_spec(inst, g)
    assert ordering.frontier_sets["b0"] == frozenset({"y"})
    assert dumps_instance(loads_instance(dumps_instance(inst))) == dumps_instance(inst)


def test_splitmix64_reference_stream():
    # frozen reference values pin the generator across platforms
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    r = SplitMix64(1234567)
    assert r.next_u64() == 6457827717110365317
