"""Instance files, canonical JSON, and the generators."""

import copy
import gc
import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from auctol import (
    Bid,
    beta_bound_union,
    beta_exact,
    bid_graph,
    dumps_instance,
    dumps_solution,
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
from auctol import budgets, graphs
from auctol.budgets import KINDS, ConstraintSet, Group
from auctol.errors import SchemaError, ValidationError
from auctol.graphs import ObjectGraph, Ordering
from auctol.instances import (
    BASE_GENERATORS,
    FORMAT_TAG,
    ORDERING_METHODS,
    Instance,
    OrderingSpec,
    beta_bound_info,
    certify,
    instance_to_obj,
    load_solution,
    obj_to_instance,
)
from auctol.orderings import (
    NotChordal,
    TreeDecomposition,
    grid_ordering,
    min_degree_heuristic_decomposition,
    tree_decomposition_ordering,
    validate_tree_decomposition,
)
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


def _with(name: str, change) -> str:
    """The text of golden file ``name`` after ``change`` edits its parsed tree."""
    obj = json.loads((GOLDEN / f"{name}.json").read_text())
    change(obj)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "name, change, pointer",
    [
        ("interval-1", lambda o: o["ordering_spec"].update(permutaton=[]), "/ordering_spec/permutaton"),
        ("budget-overlapping-1", lambda o: o["constraints"].update(extra=1), "/constraints/extra"),
        ("budget-overlapping-1", lambda o: o["constraints"]["groups"][0].update(extra=1), "/constraints/groups/0/extra"),
        ("budget-overlapping-1", lambda o: o["constraints"]["groups"][1].update(b=1), "/constraints/groups/1/b"),
        ("budget-weighted-1", lambda o: o["constraints"]["groups"][0].update(k=1), "/constraints/groups/0/k"),
        (
            "interval-1",
            lambda o: o["ordering_spec"].update(
                method="tree-decomposition",
                tree_decomposition={"tree_nodes": ["t"], "tree_edges": [], "bags": {"t": []}, "width": 0},
            ),
            "/ordering_spec/tree_decomposition/width",
        ),
    ],
)
def test_schema_rejects_unknown_keys_in_every_section(name, change, pointer):
    """An unknown key under the constraints, a group (a limit key of the
    other kind included), the ordering spec or its tree decomposition is
    refused with its pointer, like one at the top level or in a bid."""
    with pytest.raises(SchemaError) as exc:
        loads_instance(_with(name, change))
    assert str(exc.value) == f"{pointer}: unknown key"


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_metadata_rejected_on_load(value):
    """``json`` reads these as floats, but no JSON reader accepts them back."""
    with pytest.raises(SchemaError) as err:
        loads_instance('{"format": "auctol/1", "metadata": {"x": %s}, "bids": []}' % value)
    assert str(err.value) == "/metadata/x: metadata values must be finite scalars"


@pytest.mark.parametrize("value", [[1], {"a": 1}, True, None, float("nan"), float("inf")], ids=repr)
def test_writer_refuses_metadata_the_loader_refuses(value):
    inst = Instance([Bid("a", {"x"}, 1)], metadata={"k": value})
    with pytest.raises(ValidationError, match="metadata 'k': metadata values must be finite scalars"):
        dumps_instance(inst)
    with pytest.raises(SchemaError, match="/metadata/k: metadata values must be finite scalars"):
        loads_instance(json.dumps(instance_to_obj(inst)))


def test_metadata_scalars_roundtrip():
    inst = Instance([Bid("a", {"x"}, 1)], metadata={"s": "x", "i": -(10**30), "f": 1.5, "z": 0.0})
    text = dumps_instance(inst)
    assert loads_instance(text).metadata == inst.metadata
    assert dumps_instance(loads_instance(text)) == text


def test_price_of_4000_digits_refused_naming_the_bid():
    """A price of 4000 digits or more is refused where a file is read or
    written, so a revenue always fits the 4300 digits Python writes as text."""
    top = 10**3999 - 1  # the greatest price of 3999 digits
    fine = Instance([Bid("a", {"x"}, top), Bid("b", {"y"}, top)])
    assert loads_instance(dumps_instance(fine)).table.prices == [top, top]
    long = Instance([Bid("a", {"x"}, top), Bid("b", {"y"}, top + 1)])
    with pytest.raises(ValidationError, match="^bid 'b': price must have fewer than 4000 digits$"):
        dumps_instance(long)
    with pytest.raises(SchemaError, match="^: bid 'b': price must have fewer than 4000 digits$"):
        loads_instance(json.dumps(instance_to_obj(long)))


ONE_BID = [Bid("a", {"x"}, 1)]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda v: Instance(ONE_BID, metadata={"k": v}), "metadata 'k': integers must have at most 4300 digits"),
        (lambda v: Instance(ONE_BID, metadata={"k": -v}), "metadata 'k': integers must have at most 4300 digits"),
        (
            lambda v: Instance(ONE_BID, None, None, OrderingSpec("grid", coords={"a": (0, v)})),
            "bid 'a': grid coordinates must have at most 4300 digits",
        ),
        (
            lambda v: Instance(ONE_BID, None, ConstraintSet("weighted", [Group("g", {"a"}, v)])),
            "group 'g': limit must have at most 4300 digits",
        ),
        (
            lambda v: Instance(ONE_BID, None, None, OrderingSpec("decreasing-weight", beta_bound=v)),
            "beta bound must have at most 4300 digits",
        ),
    ],
    ids=["metadata", "negative-metadata", "coordinate", "group-limit", "beta-bound"],
)
def test_integers_past_4300_digits_refused_naming_the_field(make, message):
    """A file holds integers of up to 4300 digits, Python's int text limit;
    the writer refuses one digit more with a message, not an encoder error."""
    top = 10**4300 - 1  # the greatest integer of 4300 digits
    text = dumps_instance(make(top))
    assert dumps_instance(loads_instance(text)) == text
    with pytest.raises(ValidationError, match=f"^{message}$"):
        dumps_instance(make(top + 1))


GRAPH_A = orient(graphs.build_bid_graph(ONE_BID), Ordering(["a"]))
STRAY_MEMBER = ConstraintSet("unweighted", [Group("g", {"a", "z"}, 1)])
THREE_BIDS = [Bid(u, {u}, 1) for u in "abc"]
# g2 repeats a and b of g1 and adds c: the message names a, the first in id order
OVERLAPPING_PARTITION = ConstraintSet("unweighted", [Group("g1", {"b", "a"}, 1), Group("g2", {"c", "b", "a"}, 1)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: validate_instance(Instance(ONE_BID, None, STRAY_MEMBER)), "group 'g' member 'z' is not a bid"),
        (lambda: validate_instance(Instance(ONE_BID, None, None, OrderingSpec("bogus"))), "unknown ordering method 'bogus'"),
        (
            lambda: validate_instance(Instance(ONE_BID, None, None, OrderingSpec("planted-optimal", independent_set={"z"}))),
            "planted set member 'z' is not a bid",
        ),
        (lambda: Group("g", {"a"}, 0), "group 'g': limit must be an integer >= 1"),
        (lambda: ConstraintSet("bogus", []), "unknown constraint kind 'bogus'"),
        (lambda: budgets.solve_unweighted(GRAPH_A, STRAY_MEMBER), "group 'g' member 'z' is not a bid node"),
        (lambda: budgets.group_clique_graph(GRAPH_A, STRAY_MEMBER), "group 'g' member 'z' is not a bid node"),
        (
            lambda: budgets.exact_feasible(
                graphs.build_bid_graph([Bid("a", {"x"}, 5), Bid("b", {"y"}, 5)]),
                ConstraintSet("weighted", [Group("g", {"a", "zz"}, 5)]),
            ),
            "group 'g' member 'zz' is not a bid node",
        ),
        (
            lambda: tree_decomposition_ordering(
                TreeDecomposition(["t0"], [], {"t0": frozenset({"x"})}), [Bid("a", {"x", "z"}, 1)], None
            ),
            "bid 'a' object 'z' appears in no bag",
        ),
        (lambda: grid_ordering({}), "no coordinates given"),
        (lambda: grid_ordering({"a": (0,), "b": (0, 1)}), "all coordinate vectors must have the same dimension"),
        (
            lambda: validate_instance(Instance(THREE_BIDS, None, OVERLAPPING_PARTITION)),
            "bid 'a' is in groups 'g1' and 'g2'; unweighted constraints must partition the bids",
        ),
        (lambda: tree_decomposition_ordering(TreeDecomposition([], [], {}), [], None), "tree decomposition has no nodes"),
        (lambda: min_degree_heuristic_decomposition(ObjectGraph([])), "object graph is empty"),
    ],
    ids=[
        "group-member",
        "ordering-method",
        "planted-member",
        "group-limit",
        "constraint-kind",
        "group-index-member",
        "clique-member",
        "feasible-member",
        "bag-coverage",
        "no-coordinates",
        "coordinate-dimension",
        "groups-overlap",
        "empty-decomposition",
        "empty-object-graph",
    ],
)
def test_library_checks_raise_validation_errors(call, message):
    """Checks that only a library caller reaches: each raises exactly a
    ValidationError with its message."""
    with pytest.raises(Exception) as err:
        call()
    assert (type(err.value), str(err.value)) == (ValidationError, message)


@pytest.mark.parametrize(
    "bids, og, message",
    [
        ([Bid("a", {"x"}, 1), Bid("a", {"y"}, 2)], None, "duplicate bid id 'a'"),
        ([Bid("a", {"x"}, 1), Bid("b", {"y"}, 2)], ObjectGraph(["x"]), "bid 'b' references undeclared object 'y'"),
    ],
    ids=["duplicate-id", "undeclared-object"],
)
def test_a_bid_list_is_interned_when_the_instance_is_made(bids, og, message):
    with pytest.raises(ValidationError, match=message):
        Instance(bids, og)


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


def test_empty_bid_id_reports_pointer():
    bad = """
    {
      "format": "auctol/1",
      "bids": [
        {"id": "b0", "objects": ["o0"], "price": 1},
        {"id": "", "objects": ["o1"], "price": 1}
      ]
    }
    """
    with pytest.raises(SchemaError) as err:
        loads_instance(bad)
    assert err.value.pointer == "/bids/1/id"
    assert str(err.value) == "/bids/1/id: bid id must be a non-empty string"


def test_group_without_members_reports_pointer():
    bad = """
    {
      "format": "auctol/1",
      "bids": [{"id": "b0", "objects": ["o0"], "price": 1}],
      "constraints": {
        "kind": "overlapping",
        "groups": [{"label": "g0", "members": ["b0"], "k": 1}, {"label": "g", "members": [], "k": 1}]
      }
    }
    """
    with pytest.raises(SchemaError) as err:
        loads_instance(bad)
    assert err.value.pointer == "/constraints/groups/1/members"
    assert str(err.value) == "/constraints/groups/1/members: group 'g' has no members"


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


# parameters for every base family and for gen_budget: the defaults, one
# bid, a larger mixed case with zero prices, and one with no object graph
# (interval only), equal prices and singleton groups
SWEEP_PARAMS = [
    {},
    {"n": 1, "n_bids": 1, "tree_size": 1, "dims": (1,)},
    {
        "n": 40, "n_bids": 40, "tree_size": 15, "dims": (3, 3, 2), "density_milli": 600,
        "weight_range": (0, 3), "group_size": 4, "k_max": 3, "t": 3,
    },
    {"include_object_graph": False, "weight_range": (5, 5), "group_size": 1, "k_max": 1, "t": 1},
]


@pytest.mark.parametrize("kind", [None, *KINDS])
@pytest.mark.parametrize("base", sorted(BASE_GENERATORS))
def test_generator_output_passes_validation(base, kind):
    """Generators do not check their own output, which is valid by
    construction; this sweep over seeds and parameters is the evidence."""
    for params in SWEEP_PARAMS:
        for seed in range(5):
            inst = BASE_GENERATORS[base](params, seed) if kind is None else gen_budget(base, kind, params, seed)
            validate_instance(inst)


def test_selection_and_tight_output_passes_validation():
    for seed in range(5):
        validate_instance(gen_interval_selection(1 + seed, 3 - seed % 3, seed))
        validate_instance(gen_interval_selection(3, 4, seed, (0, 2)))
        validate_instance(gen_tight(1 + seed, 1 + 200 * seed, seed))


def test_generated_instances_validate_and_order():
    for gen in ALL_FAMILIES:
        inst = gen(3)
        validate_instance(inst)
        g = oriented_graph(inst)[0]  # raises if the declared ordering fails
        assert g.n == len(inst.bids)


def test_gen_budget_weighted_with_zero_prices():
    # a group whose prices are all 0 gets budget 1, the smallest valid one;
    # any other group's budget is drawn from [max price, max + sum // 2]
    zero_groups = 0
    for seed in range(50):
        inst = gen_budget("interval", "weighted", {"n": 30, "weight_range": (0, 2)}, seed=seed)
        price = {b.id: b.price for b in inst.bids}
        for grp in inst.constraints.groups:
            top = max(price[u] for u in grp.members)
            if top == 0:
                zero_groups += 1
                assert grp.limit == 1
            else:
                assert top <= grp.limit <= top + sum(price[u] for u in grp.members) // 2
    assert zero_groups > 0


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
    g = oriented_graph(path)[0]
    assert beta_exact(g).beta_graph == 1

    full = gen_grid((4, 4), seed=0)
    g = oriented_graph(full)[0]
    assert beta_exact(g).beta_graph == 2

    cube = gen_grid((2, 2, 2), seed=0)
    g = oriented_graph(cube)[0]
    assert beta_exact(g).beta_graph <= 3


def test_grid_bound_needs_rising_coordinate_sums():
    """The grid bound holds only for orderings along which every edge rises
    by one in the coordinate sum: a 4x4 grid whose first degree-4 point (in
    id order) is moved to the front has beta 4, and gets no grid bound."""
    inst = gen_grid((4, 4), 1000, (1, 1000), 3)
    g = bid_graph(inst)
    ordering = ordering_from_spec(inst, g)
    assert beta_bound_info(inst, ordering, orient(g, ordering)) == (2, "grid-dimension")
    hub = next(u for u in sorted(g.ids) if len(g.neighbors(u)) == 4)
    moved = Ordering([hub] + [u for u in ordering.order if u != hub], "grid")
    og = orient(g, moved)
    assert beta_exact(og).beta_graph == 4
    assert beta_bound_info(inst, moved, og) == (None, None)


@pytest.mark.parametrize(
    "bids, coords",
    [
        ({"a": "xy", "b": "x", "c": "y"}, {"a": (0,), "b": (1,), "c": (1,)}),
        ({"a": "w", "b": "xy", "c": "x", "d": "y"}, {"a": (5,), "b": (0, 0), "c": (1, 0), "d": (0, 1)}),
    ],
    ids=["repeated-point", "mixed-dimensions"],
)
def test_grid_bound_needs_distinct_points_of_one_dimension(bids, coords):
    """Hand-made coordinates along which every edge rises by one get no grid
    bound when two bids share a point or the vectors differ in length: in
    both cases a bid has two independent successors, beta 2, while the
    first vector has length 1."""
    spec = OrderingSpec("grid", coords=coords)
    inst = Instance([Bid(u, frozenset(objs), 1) for u, objs in bids.items()], ordering_spec=spec)
    ordering = Ordering(list(bids), "grid")
    g = bid_graph(inst)
    assert beta_exact(orient(g, ordering)).beta_graph == 2
    assert beta_bound_info(inst, ordering, g) == (None, None)
    assert beta_bound_info(inst, ordering, orient(g, ordering)) == (None, None)


@pytest.mark.parametrize("point", [list, tuple])
def test_grid_bound_reads_coordinates_given_as_lists(point):
    """A hand-built grid spec may hold its coordinates as lists, which the
    grid ordering reads as tuples; the grid check reads them the same way."""
    spec = OrderingSpec("grid", coords={"a": point([0, 0]), "b": point([0, 1])})
    inst = Instance([Bid("a", frozenset({"x"}), 1), Bid("b", frozenset({"x"}), 2)], ordering_spec=spec)
    g = bid_graph(inst)
    ordering = ordering_from_spec(inst, g)
    assert ordering.order == ["a", "b"]
    assert beta_bound_info(inst, ordering, g) == (2, "grid-dimension")
    assert beta_bound_info(inst, ordering, orient(g, ordering)) == (2, "grid-dimension")


def _four_cycle() -> Instance:
    """The bids a{w,x} b{x,y} c{y,z} d{z,w}: a 4-cycle, beta 2 in any order."""
    objects = {"a": {"w", "x"}, "b": {"x", "y"}, "c": {"y", "z"}, "d": {"z", "w"}}
    return Instance([Bid(u, frozenset(objs), 1) for u, objs in objects.items()])


def test_chordal_bound_needs_a_perfect_elimination_ordering():
    """An ordering built by hand with provenance ``chordal`` gets beta <= 1
    only if it passes the zero fill-in test: not on the 4-cycle, where beta
    is 2, but on a path."""
    inst = _four_cycle()
    g = bid_graph(inst)
    cycle = orient(g, Ordering(["a", "b", "c", "d"], "chordal"))
    assert beta_exact(cycle).beta_graph == 2
    assert beta_bound_info(inst, cycle.ordering, cycle) == (None, None)
    sol = certify(opcost(cycle)[0], inst, beta_bound_info(inst, cycle.ordering, cycle)[0])
    assert (sol.certificate.beta_bound, sol.certificate.claimed_ratio) == (None, None)

    path = Instance([Bid(u, frozenset(objs), 1) for u, objs in [("a", {"x"}), ("b", {"x", "y"}), ("c", {"y"})]])
    ordering = Ordering(["a", "c", "b"], "chordal")
    assert beta_bound_info(path, ordering, bid_graph(path)) == (1, "perfect-elimination")


def test_frontier_bound_needs_the_frontier_property():
    """Frontier sets built by hand are checked: every frontier {x} on the
    4-cycle fails (c follows and meets b but misses {x}), so no bound, while
    sets that hold certify their largest size."""
    inst = _four_cycle()
    g = bid_graph(inst)
    ordering = Ordering(["a", "b", "c", "d"], "explicit", dict.fromkeys("abcd", frozenset({"x"})))
    og = orient(g, ordering)
    assert beta_exact(og).beta_graph == 2
    assert beta_bound_info(inst, ordering, og) == (None, None)
    sol = certify(opcost(og)[0], inst, beta_bound_info(inst, ordering, og)[0])
    assert (sol.certificate.beta_bound, sol.certificate.claimed_ratio) == (None, None)

    sound = {"a": frozenset({"w", "x"}), "b": frozenset({"y"}), "c": frozenset({"z"}), "d": frozenset({"z"})}
    ordering = Ordering(["a", "b", "c", "d"], "explicit", sound)
    assert beta_bound_info(inst, ordering, orient(g, ordering)) == (2, "frontier-bound")


def _two_bids_on_x(spec=None) -> Instance:
    return Instance([Bid("a", frozenset({"x"}), 1), Bid("b", frozenset({"x"}), 1)], ordering_spec=spec)


def test_frontier_sets_that_leave_a_bid_out_certify_no_bound():
    """Frontier sets built by hand that leave out bid b: the frontier check
    names b, and no bound is certified (both once raised KeyError)."""
    inst = _two_bids_on_x()
    ordering = Ordering(["a", "b"], "explicit", {"a": frozenset({"x"})})
    g = bid_graph(inst)
    with pytest.raises(ValidationError, match="leave out bid 'b'"):
        graphs.frontier_violations(g, ordering, inst.table.object_sets())
    assert beta_bound_info(inst, ordering, g) == (None, None)


def test_oriented_graph_refuses_frontier_sets_that_leave_a_bid_out():
    """An explicit spec built by hand whose frontier sets leave out bid b
    fails like any other hand-built part, with a ValidationError naming b."""
    inst = _two_bids_on_x(OrderingSpec("explicit", ["a", "b"], frontier_sets={"a": frozenset({"x"})}))
    with pytest.raises(ValidationError) as exc:
        oriented_graph(inst)
    assert type(exc.value) is ValidationError and str(exc.value) == "frontier sets leave out bid 'b'"


def test_grid_coordinates_that_leave_a_bid_out_certify_no_bound():
    """A grid spec built by hand with coordinates for a only certifies no
    bound (it once raised KeyError)."""
    inst = _two_bids_on_x(OrderingSpec("grid", coords={"a": (0,)}))
    ordering = Ordering(["a", "b"], "grid")
    assert beta_bound_info(inst, ordering, bid_graph(inst)) == (None, None)


BID_ORDERS = {"leaves-out": ["a"], "repeats": ["a", "a"], "unknown-id": ["a", "c"], "extra-id": ["a", "b", "c"]}


@pytest.mark.parametrize("order", BID_ORDERS.values(), ids=BID_ORDERS)
@pytest.mark.parametrize(
    "provenance, sets",
    [("chordal", None), ("explicit", dict.fromkeys("ab", frozenset("x"))), ("grid", None)],
    ids=["chordal", "frontier", "grid"],
)
def test_an_ordering_of_other_bids_certifies_no_bound(provenance, sets, order):
    """An ordering that does not order exactly the bids a{x} and b{x}
    certifies no bound in the chordal, frontier and grid checks. Each case
    once raised, except two that certified beta 1: the chordal order a, a
    and the grid order a, b, c."""
    inst = _two_bids_on_x(OrderingSpec("grid", coords={"a": (0,), "b": (1,)}))
    ordering = Ordering(order, provenance, sets)
    assert beta_bound_info(inst, ordering, bid_graph(inst)) == (None, None)


def test_gen_tight_ratios():
    # for beta >= 2 the all-successors set beats the hub, so the observed
    # opt/alg ratio is exactly beta * (1000 - eps) / 1000
    for beta, eps in [(3, 100), (5, 1), (2, 1)]:
        inst = gen_tight(beta, eps, seed=0)
        g = oriented_graph(inst)[0]
        sol, _ = opcost(g)
        assert sol.revenue == 1000
        opt = exact_mwis(g).revenue
        assert Fraction(opt, sol.revenue) == Fraction(beta * (1000 - eps), 1000)
    # beta = 1: two nodes; the lone successor is worth 1000 - eps, but the
    # hub itself is optimal, so the algorithm is exact here
    inst = gen_tight(1, 100, seed=0)
    assert len(inst.bids) == 2
    g = oriented_graph(inst)[0]
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


def test_explicit_frontier_ordering_builds_the_bid_graph_once(monkeypatch):
    """Checking an explicit ordering's frontier sets reuses the bid graph
    ``oriented_graph`` has built, loaded or hand-built alike."""
    base = gen_tight(4, 100, seed=1)
    spec = OrderingSpec("explicit", [b.id for b in base.bids], frontier_sets={b.id: b.objects for b in base.bids})
    built = Instance(base.bids, base.object_graph, None, spec, base.metadata)
    builds = []
    csr = graphs.csr
    monkeypatch.setattr(graphs, "csr", lambda n, cliques: builds.append(n) or csr(n, cliques))
    for inst in (built, loads_instance(dumps_instance(built))):
        builds.clear()
        g = oriented_graph(inst)[0]
        assert g.ordering.frontier_sets == spec.frontier_sets
        assert builds == [g.n]


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


# ---------------------------------------------------------------------------
# loader oracle: a reference loader that checks every element on its own,
# compared with obj_to_instance on single-field mutations of the golden corpus

GOLDEN = Path(__file__).parent / "golden"


def _ref_expect(cond, pointer, message):
    if not cond:
        raise SchemaError(pointer, message)


def _ref_int(value, pointer):
    _ref_expect(isinstance(value, int) and not isinstance(value, bool), pointer, "expected an integer")
    return value


def _ref_str(value, pointer):
    _ref_expect(isinstance(value, str), pointer, "expected a string")
    return value


def _ref_list(value, pointer):
    _ref_expect(isinstance(value, list), pointer, "expected an array")
    return value


def _ref_obj(value, pointer):
    _ref_expect(isinstance(value, dict), pointer, "expected an object")
    return value


def _ref_object_graph_adj(objects, edges):
    """The object-graph checks, in their original order; returns adjacency."""
    seen = set()
    for o in objects:
        if o in seen:
            raise ValidationError(f"duplicate object id {o!r}")
        seen.add(o)
    adj = {o: set() for o in objects}
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
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _ref_connected(adj, objs):
    start = min(objs)
    seen = {start}
    stack = [start]
    while stack:
        for nb in adj[stack.pop()]:
            if nb in objs and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(objs)


def _ref_validate_instance(inst, adj):
    ids = set()
    for b in inst.bids:
        if b.id in ids:
            raise ValidationError(f"duplicate bid id {b.id!r}")
        ids.add(b.id)
    for b in inst.bids:
        if len(str(b.price)) >= 4000:
            raise ValidationError(f"bid {b.id!r}: price must have fewer than 4000 digits")
    if adj is not None:
        bad = [b.id for b in inst.bids if not _ref_connected(adj, b.objects)]
        if bad:
            raise ValidationError(f"bid {bad[0]!r} is not germane (object set disconnected)")
    if inst.constraints is not None:
        cs = inst.constraints
        for grp in cs.groups:
            for u in sorted(grp.members):
                if u not in ids:
                    raise ValidationError(f"group {grp.label!r} member {u!r} is not a bid")
        if cs.kind in ("unweighted", "weighted"):
            owner = {}
            for grp in cs.groups:
                for u in sorted(grp.members):
                    if u in owner:
                        raise ValidationError(
                            f"bid {u!r} is in groups {owner[u]!r} and {grp.label!r}; "
                            f"{cs.kind} constraints must partition the bids"
                        )
                    owner[u] = grp.label
            for b in inst.bids:
                if b.id not in owner:
                    raise ValidationError(f"bid {b.id!r} belongs to no constraint group")
                if b.group is not None and b.group != owner[b.id]:
                    raise ValidationError(
                        f"bid {b.id!r} declares group {b.group!r} but is a member of {owner[b.id]!r}"
                    )
    spec = inst.ordering_spec
    if spec is None:
        return
    if spec.method == "explicit":
        if spec.permutation is None:
            raise ValidationError("explicit ordering requires a permutation")
        if sorted(spec.permutation) != sorted(ids):
            raise ValidationError("explicit permutation must be a bijection over the bid ids")
    if spec.method == "grid":
        if spec.coords is None:
            raise ValidationError("grid ordering requires coordinates")
        if set(spec.coords) != ids:
            raise ValidationError("grid coordinates must cover exactly the bid ids")
    if spec.method == "planted-optimal":
        if spec.independent_set is None:
            raise ValidationError("planted-optimal ordering requires an independent set")
        for u in sorted(spec.independent_set):
            if u not in ids:
                raise ValidationError(f"planted set member {u!r} is not a bid")
    if spec.method == "tree-decomposition":
        if spec.tree_decomposition is None:
            raise ValidationError("tree-decomposition ordering requires an embedded decomposition")
        problems = validate_tree_decomposition(inst.object_graph, spec.tree_decomposition)
        if problems:
            raise ValidationError("invalid tree decomposition: " + "; ".join(problems))
    if spec.frontier_sets is not None and set(spec.frontier_sets) != ids:
        raise ValidationError("frontier sets must cover exactly the bid ids")
    if spec.beta_bound is not None and spec.beta_bound < 1:
        raise ValidationError("beta bound must be >= 1")


def reference_obj_to_instance(obj):
    """Reference loader: each element is checked on its own, in document
    order, with its pointer built before the check."""
    _ref_obj(obj, "")
    _ref_expect(obj.get("format") == FORMAT_TAG, "/format", f"expected {FORMAT_TAG!r}")
    known = {"format", "metadata", "objects", "object_edges", "bids", "constraints", "ordering_spec"}
    for key in obj:
        _ref_expect(key in known, f"/{key}", "unknown key")

    metadata = {}
    if "metadata" in obj:
        metadata = _ref_obj(obj["metadata"], "/metadata")
        for k, v in metadata.items():
            _ref_expect(
                type(v) in (str, int) or (type(v) is float and v - v == 0),  # inf - inf and nan - nan are nan
                f"/metadata/{k}",
                "metadata values must be finite scalars",
            )

    og = adj = None
    _ref_expect(("objects" in obj) == ("object_edges" in obj), "/objects", "objects and object_edges must appear together")
    if "objects" in obj:
        objects = [_ref_str(o, f"/objects/{i}") for i, o in enumerate(_ref_list(obj["objects"], "/objects"))]
        edges = []
        for i, e in enumerate(_ref_list(obj["object_edges"], "/object_edges")):
            pair = _ref_list(e, f"/object_edges/{i}")
            _ref_expect(len(pair) == 2, f"/object_edges/{i}", "edge must have two endpoints")
            edges.append((_ref_str(pair[0], f"/object_edges/{i}/0"), _ref_str(pair[1], f"/object_edges/{i}/1")))
        try:
            adj = _ref_object_graph_adj(objects, edges)
        except ValidationError as exc:
            raise SchemaError("/object_edges", str(exc)) from exc
        og = ObjectGraph(objects, edges)

    bids = []
    ids = set()
    for i, entry in enumerate(_ref_list(obj.get("bids"), "/bids")):
        _ref_obj(entry, f"/bids/{i}")
        for key in entry:
            _ref_expect(key in {"id", "objects", "price", "group"}, f"/bids/{i}/{key}", "unknown key")
        bid_id = _ref_str(entry.get("id"), f"/bids/{i}/id")
        _ref_expect(bid_id not in ids, f"/bids/{i}/id", f"duplicate bid id {bid_id!r}")
        ids.add(bid_id)
        objs = [
            _ref_str(o, f"/bids/{i}/objects/{j}")
            for j, o in enumerate(_ref_list(entry.get("objects"), f"/bids/{i}/objects"))
        ]
        _ref_expect(objs, f"/bids/{i}/objects", "object set must be non-empty")
        price = _ref_int(entry.get("price"), f"/bids/{i}/price")
        _ref_expect(price >= 0, f"/bids/{i}/price", "price must be >= 0")
        group = entry.get("group")
        if group is not None:
            group = _ref_str(group, f"/bids/{i}/group")
        if adj is not None:
            for o in objs:
                _ref_expect(o in adj, f"/bids/{i}/objects", f"undeclared object {o!r}")
        bids.append(Bid(bid_id, frozenset(objs), price, group))

    constraints = None
    if "constraints" in obj:
        cobj = _ref_obj(obj["constraints"], "/constraints")
        for key in cobj:
            _ref_expect(key in {"kind", "groups"}, f"/constraints/{key}", "unknown key")
        kind = _ref_str(cobj.get("kind"), "/constraints/kind")
        _ref_expect(kind in ("unweighted", "overlapping", "weighted"), "/constraints/kind", f"unknown kind {kind!r}")
        limit_key = "b" if kind == "weighted" else "k"
        groups = []
        for i, gobj in enumerate(_ref_list(cobj.get("groups"), "/constraints/groups")):
            _ref_obj(gobj, f"/constraints/groups/{i}")
            for key in gobj:
                _ref_expect(key in {"label", "members", limit_key}, f"/constraints/groups/{i}/{key}", "unknown key")
            label = _ref_str(gobj.get("label"), f"/constraints/groups/{i}/label")
            members = [
                _ref_str(m, f"/constraints/groups/{i}/members/{j}")
                for j, m in enumerate(_ref_list(gobj.get("members"), f"/constraints/groups/{i}/members"))
            ]
            for j, m in enumerate(members):
                _ref_expect(m in ids, f"/constraints/groups/{i}/members/{j}", f"unknown bid {m!r}")
            _ref_expect(limit_key in gobj, f"/constraints/groups/{i}", f"missing {limit_key!r} limit")
            limit = _ref_int(gobj[limit_key], f"/constraints/groups/{i}/{limit_key}")
            _ref_expect(limit >= 1, f"/constraints/groups/{i}/{limit_key}", "limit must be >= 1")
            groups.append(Group(label, frozenset(members), limit))
        try:
            constraints = ConstraintSet(kind, groups)
        except ValidationError as exc:
            raise SchemaError("/constraints", str(exc)) from exc

    spec = None
    if "ordering_spec" in obj:
        sobj = _ref_obj(obj["ordering_spec"], "/ordering_spec")
        spec_keys = {"method", "permutation", "coords", "tree_decomposition", "independent_set", "frontier_sets", "beta_bound"}
        for key in sobj:
            _ref_expect(key in spec_keys, f"/ordering_spec/{key}", "unknown key")
        method = _ref_str(sobj.get("method"), "/ordering_spec/method")
        _ref_expect(method in ORDERING_METHODS, "/ordering_spec/method", f"unknown method {method!r}")
        permutation = None
        if "permutation" in sobj:
            permutation = [
                _ref_str(u, f"/ordering_spec/permutation/{i}")
                for i, u in enumerate(_ref_list(sobj["permutation"], "/ordering_spec/permutation"))
            ]
        coords = None
        if "coords" in sobj:
            cmap = _ref_obj(sobj["coords"], "/ordering_spec/coords")
            coords = {}
            for u, vec in cmap.items():
                _ref_expect(u in ids, f"/ordering_spec/coords/{u}", f"unknown bid {u!r}")
                lst = _ref_list(vec, f"/ordering_spec/coords/{u}")
                coords[u] = tuple(_ref_int(x, f"/ordering_spec/coords/{u}/{i}") for i, x in enumerate(lst))
        td = None
        if "tree_decomposition" in sobj:
            tp = "/ordering_spec/tree_decomposition"
            tobj = _ref_obj(sobj["tree_decomposition"], tp)
            for key in tobj:
                _ref_expect(key in {"tree_nodes", "tree_edges", "bags", "root"}, f"{tp}/{key}", "unknown key")
            tnodes = [
                _ref_str(t, f"{tp}/tree_nodes/{i}")
                for i, t in enumerate(_ref_list(tobj.get("tree_nodes"), f"{tp}/tree_nodes"))
            ]
            tedges = []
            for i, e in enumerate(_ref_list(tobj.get("tree_edges"), f"{tp}/tree_edges")):
                ptr = f"{tp}/tree_edges/{i}"
                pair = _ref_list(e, ptr)
                _ref_expect(len(pair) == 2, ptr, "edge must have two endpoints")
                tedges.append((_ref_str(pair[0], f"{ptr}/0"), _ref_str(pair[1], f"{ptr}/1")))
            bags_obj = _ref_obj(tobj.get("bags"), f"{tp}/bags")
            bags = {
                t: frozenset(
                    _ref_str(o, f"{tp}/bags/{t}/{i}") for i, o in enumerate(_ref_list(bag, f"{tp}/bags/{t}"))
                )
                for t, bag in bags_obj.items()
            }
            root = tobj.get("root")
            if root is not None:
                root = _ref_str(root, f"{tp}/root")
            td = TreeDecomposition(tnodes, tedges, bags, root)
        independent_set = None
        if "independent_set" in sobj:
            independent_set = frozenset(
                _ref_str(u, f"/ordering_spec/independent_set/{i}")
                for i, u in enumerate(_ref_list(sobj["independent_set"], "/ordering_spec/independent_set"))
            )
        frontier_sets = None
        if "frontier_sets" in sobj:
            fobj = _ref_obj(sobj["frontier_sets"], "/ordering_spec/frontier_sets")
            frontier_sets = {
                u: frozenset(
                    _ref_str(o, f"/ordering_spec/frontier_sets/{u}/{i}")
                    for i, o in enumerate(_ref_list(s, f"/ordering_spec/frontier_sets/{u}"))
                )
                for u, s in fobj.items()
            }
        beta_bound = None
        if "beta_bound" in sobj:
            beta_bound = _ref_int(sobj["beta_bound"], "/ordering_spec/beta_bound")
        spec = OrderingSpec(method, permutation, coords, td, independent_set, frontier_sets, beta_bound)

    inst = Instance(bids, og, constraints, spec, metadata)
    try:
        _ref_validate_instance(inst, adj)
    except SchemaError:
        raise
    except ValidationError as exc:
        raise SchemaError("", str(exc)) from exc
    return inst


def _oracle_bases() -> list[dict]:
    """The golden files, plus derived documents for the spec sections the
    corpus lacks: an embedded tree decomposition with frontier sets and a
    beta bound, a planted independent set, and explicit frontier sets."""
    bases = [json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.json"))]
    for name in ("subtrees-1", "subtrees-2", "budget-weighted-1"):
        inst = loads_instance((GOLDEN / f"{name}.json").read_text())
        td = min_degree_heuristic_decomposition(inst.object_graph)
        ordering = tree_decomposition_ordering(td, inst.bids, inst.object_graph)
        spec = OrderingSpec("tree-decomposition", tree_decomposition=td, frontier_sets=ordering.frontier_sets, beta_bound=td.width() + 1)
        bases.append(instance_to_obj(Instance(inst.bids, inst.object_graph, inst.constraints, spec, inst.metadata)))
    inst = loads_instance((GOLDEN / "interval-1.json").read_text())
    planted = OrderingSpec("planted-optimal", independent_set=frozenset(b.id for b in inst.bids[:1]))
    bases.append(instance_to_obj(Instance(inst.bids, inst.object_graph, None, planted, inst.metadata)))
    inst = loads_instance((GOLDEN / "tight-1.json").read_text())
    frontier = {b.id: b.objects for b in inst.bids}
    explicit = OrderingSpec("explicit", [b.id for b in inst.bids], frontier_sets=frontier, beta_bound=2)
    bases.append(instance_to_obj(Instance(inst.bids, inst.object_graph, None, explicit, inst.metadata)))
    return bases


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for k, v in node.items():
            yield k
            yield from _strings(v)
    elif isinstance(node, list):
        for v in node:
            yield from _strings(v)


WRONG = [None, True, False, 0, -1, 1.5, "", "x", [], {}, ["x"], [1], {"x": 1}, 10**30]


def _mutate(doc: dict, rng: random.Random) -> dict:
    """One seeded single-field mutation of ``doc``: a wrong type, a deleted
    key or element, an emptied array, a duplicated element, a string swapped
    for another string of the document, a renamed or an unknown key."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    if not path:
        return rng.choice([[], "x", {**doc, "zz": 1}])
    *head, key = path
    parent = doc
    for k in head:
        parent = parent[k]
    value = parent[key]
    kind = rng.choice(["wrong", "delete", "empty", "duplicate", "swap", "rename", "unknown", "number"])
    if kind == "wrong":
        parent[key] = rng.choice([w for w in WRONG if type(w) is not type(value)])
    elif kind == "delete":
        del parent[key]
    elif kind == "empty":
        parent[key] = {list: [], dict: {}, str: ""}.get(type(value), None)
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key + 1, copy.deepcopy(value))
    elif kind == "duplicate" and isinstance(parent, dict) and len(parent) > 1:
        parent[key] = copy.deepcopy(parent[rng.choice([k for k in parent if k != key])])
    elif kind == "swap":
        parent[key] = rng.choice(list(_strings(doc)))
    elif kind == "rename" and isinstance(parent, dict):
        parent[rng.choice(list(_strings(doc)) + ["zz"])] = parent.pop(key)
    elif kind == "unknown" and isinstance(value, dict):
        value["zz"] = rng.choice(WRONG)
    elif kind == "number":
        parent[key] = rng.choice([-1, 0, 1, 2, 10**400])
    else:
        parent[key] = rng.choice(WRONG)
    return doc


def _outcome(load, doc):
    try:
        inst = load(copy.deepcopy(doc))
        return ("ok", dumps_instance(inst))
    except Exception as exc:  # the oracle compares whatever either side raises
        return (type(exc).__name__, str(exc))


# the two loader errors that once had no JSON pointer (each has its own test)
UNPOINTED = ("bid id must be a non-empty string", "has no members")


def test_loader_matches_reference_on_mutated_corpus():
    bases = _oracle_bases()
    compared = skipped = accepted = 0
    messages = set()
    for seed in range(2400):
        rng = random.Random(seed)
        doc = _mutate(rng.choice(bases), rng)
        want = _outcome(reference_obj_to_instance, doc)
        if want[0] == "ValidationError":
            assert any(s in want[1] for s in UNPOINTED), want
            skipped += 1
            continue
        got = _outcome(obj_to_instance, doc)
        assert got == want, f"seed {seed}"
        compared += 1
        accepted += want[0] == "ok"
        messages.add(want[1] if want[0] != "ok" else "ok")
    assert compared >= 2000 and accepted >= 100 and len(messages) >= 150, (compared, accepted, len(messages))


def _traced_peak(load) -> int:
    """The tracemalloc peak, in bytes, of calling ``load``, collector paused."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        load()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_load_instance_frees_the_text_once_parsed(tmp_path):
    """load_instance holds the file text only until the parse returns: its
    traced peak is at least half the file size below that of a caller that
    keeps the text while obj_to_instance builds the instance."""
    path = tmp_path / "interval.json"
    save_instance(gen_interval(4000), path)
    size = path.stat().st_size

    def held():
        text = path.read_text(encoding="utf-8")
        obj_to_instance(json.loads(text))

    gap = _traced_peak(held) - _traced_peak(lambda: load_instance(path))
    assert gap >= size / 2, (gap, size)


@pytest.mark.parametrize("broken", [False, True], ids=["valid", "schema-error-after-edges"])
def test_obj_to_instance_leaves_its_argument_unchanged(broken):
    """obj_to_instance drops sections from its own shallow copy only: the
    caller's document is the same afterwards, also when a bid fails the
    schema after the object edges were taken."""
    doc = json.loads((GOLDEN / "budget-overlapping-1.json").read_text())
    if broken:
        doc["bids"][-1]["price"] = -1
    before = json.dumps(doc)
    if broken:
        with pytest.raises(SchemaError, match=f"/bids/{len(doc['bids']) - 1}/price"):
            obj_to_instance(doc)
    else:
        obj_to_instance(doc)
    assert json.dumps(doc) == before


def test_load_solution_reads_what_dumps_solution_writes(tmp_path):
    """The reader takes back the selection, revenue and algorithm; the
    certificate's bound and ratio rest on checks it does not run."""
    inst = gen_interval(12, seed=1)
    g, bound, _method = oriented_graph(inst)
    sol = certify(opcost(g)[0], inst, bound)
    assert sol.certificate.beta_bound == 1
    path = tmp_path / "sol.json"
    path.write_text(dumps_solution(sol), encoding="utf-8")
    back, listed = load_solution(path)
    assert (back.selected, back.revenue, back.certificate.algorithm) == (sol.selected, sol.revenue, "opcost")
    assert (back.certificate.beta_bound, back.certificate.claimed_ratio) == (None, None)
    assert listed == sorted(sol.selected)


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


def test_subclassed_values_pass_the_walk_and_load_as_plain_ones():
    """json.loads makes only exact types. A hand-built document of str, int,
    list and dict subclasses fails the bulk checks, passes the walk that
    looks for the first error, and is then built as the plain one is."""
    plain = instance_to_obj(gen_budget("interval", "unweighted", {"n": 12}, seed=1))
    sub = copy.deepcopy(plain)
    sub["bids"] = [
        _Dict({key: _List(map(_Str, v)) if key == "objects" else _Int(v) if key == "price" else _Str(v) for key, v in b.items()})
        for b in plain["bids"]
    ]
    sub["constraints"]["groups"] = [
        _Dict(label=_Str(g["label"]), members=_List(map(_Str, g["members"])), k=_Int(g["k"])) for g in plain["constraints"]["groups"]
    ]
    assert dumps_instance(obj_to_instance(sub)) == dumps_instance(obj_to_instance(plain))
