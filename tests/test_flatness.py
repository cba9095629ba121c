"""The flatness gates: each linear-time stage costs about the same per
element at the larger of two sizes as at the smaller (within 3x).

A row of :data:`STAGES` names a stage, a fixture builder and the two sizes.
``build(size)`` does the untimed set-up and returns ``(call, elements)``;
``call()`` must cost the same on every call. The calls are timed by
:func:`auctol.cli.interleaved_samples`, the sampler of ``auctol bench``.
"""

import json
from pathlib import Path

import pytest

from auctol import Bid, ObjectGraph, SchemaError, budgets, instances, orderings, solvers
from auctol.cli import MAX_RATIO, interleaved_samples, verify_instance
from auctol.graphs import build_bid_graph, frontier_violations, orient
from test_graphs import disconnected


def tree_decomposition(tree_size):
    # min-degree heuristic, validation and the frontier ordering, the
    # decomposition built inside the call so that no recorded check is
    # reused; elements are objects + object edges + total bag size
    inst = instances.gen_subtrees(tree_size, 2 * tree_size, seed=5)
    og = inst.object_graph

    def call():
        td = orderings.min_degree_heuristic_decomposition(og)
        assert orderings.validate_tree_decomposition(og, td) == []
        orderings.tree_decomposition_ordering(td, inst.bids, og)

    td = orderings.min_degree_heuristic_decomposition(og)
    return call, len(og.objects) + len(og.edges) + sum(len(b) for b in td.bags.values())


def lexbfs(n):
    # every bid leaves the head block from its front, which must not make
    # finding the next live member walk the deleted ones
    g = build_bid_graph([Bid(f"b{i:05d}", {f"o{i}"}, 1) for i in range(n)])
    return lambda: orderings.lexbfs_peo(g), g.n + g.m


def germane_hub(n):
    # a hub object adjacent to n leaves, and n bids {hub, leaf}: every
    # search can reach the hub's n neighbours; elements are bids
    leaves = [f"l{i}" for i in range(n)]
    og = ObjectGraph(["hub"] + leaves, [("hub", leaf) for leaf in leaves])
    bids = [Bid(f"b{i}", {"hub", leaf}, 1) for i, leaf in enumerate(leaves)]
    assert disconnected(og, bids) == []
    return lambda: disconnected(og, bids), n


def count_pass(kind, params):
    # the k-of-group pass with limits up to 3, where values are numerators
    # over a common denominator that the pass refines; the group index is
    # built here, so the row times the pass alone
    def build(n):
        inst = instances.gen_budget("interval", kind, {"n": n, "include_object_graph": False, **params}, seed=12)
        assert any(grp.limit > 1 for grp in inst.constraints.groups)
        g = instances.oriented_graph(inst)[0]
        gx = budgets.group_index(g, inst.constraints)
        return lambda: solvers.forward_pass(g, gx, kind), g.n + g.m

    return build


def group_index(n):
    # the group index a budget solve builds on every call, timed apart from
    # the count-pass rows above
    inst = instances.gen_budget("interval", "unweighted", {"n": n, "k_max": 3, "group_size": 4, "include_object_graph": False}, seed=12)
    g = instances.oriented_graph(inst)[0]
    return lambda: budgets.group_index(g, inst.constraints), g.n + g.m


def object_graph(n):  # a path of n objects; elements are objects + edges
    names = [f"o{i:05d}" for i in range(n)]
    edges = list(zip(names, names[1:]))
    return lambda: ObjectGraph(names, edges), 2 * n - 1


def load(n):  # elements are input bytes
    text = instances.dumps_instance(instances.gen_interval(n, seed=4))
    return lambda: instances.loads_instance(text), len(text.encode("utf-8"))


def load_malformed(n):  # elements are input bytes
    # the last bid's price is negative, so the bulk checks fail and the
    # walk over every bid rejects the file at its last one
    obj = json.loads(instances.dumps_instance(instances.gen_interval(n, seed=4)))
    obj["bids"][-1]["price"] = -1
    text = json.dumps(obj)

    def call():
        with pytest.raises(SchemaError, match=f"^/bids/{n - 1}/price: price must be >= 0$"):
            instances.loads_instance(text)

    return call, len(text.encode("utf-8"))


def dump(n):  # elements are output bytes
    inst = instances.gen_interval(n, seed=4)
    return lambda: instances.dumps_instance(inst), len(instances.dumps_instance(inst).encode("utf-8"))


def load_and_bid_graph(n):
    text = instances.dumps_instance(instances.gen_interval(n, seed=4))
    g = instances.bid_graph(instances.loads_instance(text))
    return lambda: instances.bid_graph(instances.loads_instance(text)), g.n + g.m


def generator(gen):  # object graph included; elements are bids
    return lambda n: (lambda: gen(n), n)


def interval_graph(n):
    g = instances.bid_graph(instances.gen_interval(n, seed=4, include_object_graph=False))
    return g, orderings.lexbfs_peo(g)


def orientation(n):
    g, ordering = interval_graph(n)
    return lambda: orient(g, ordering), g.n + g.m


def chordal_orientation(n):
    # the bid graph, lex-BFS, the slices of its ordering and the zero
    # fill-in test on them, as a chordal solve runs them
    inst = instances.gen_interval(n, seed=4, include_object_graph=False)
    g = instances.oriented_graph(inst)[0]
    return lambda: instances.oriented_graph(inst), g.n + g.m


def perfect_elimination(n):
    g, ordering = interval_graph(n)
    return lambda: orderings.is_perfect_elimination(g, ordering), g.n + g.m


def weighted(n):
    # money budgets with heavy and light bids, so that both the heavy side
    # and the lazy light pass have bids to weigh
    inst = instances.gen_budget("interval", "weighted", {"n": n, "include_object_graph": False}, seed=12)
    g, cs = instances.oriented_graph(inst)[0], inst.constraints
    budget = {u: grp.limit for grp in cs.groups for u in grp.members}
    assert any(budget[u] < 2 * w <= 2 * budget[u] for u, w in g.weights.items())
    assert any(2 * w <= budget[u] for u, w in g.weights.items())
    return lambda: budgets.solve_weighted(g, cs), g.n + g.m


def frontier(n):
    # the frontier check of a tree-decomposition ordering, as
    # beta_bound_info runs it on sets it did not build
    inst = instances.gen_subtrees(n // 2, n, seed=5)
    og, g = inst.object_graph, instances.bid_graph(inst)
    ordering = orderings.tree_decomposition_ordering(orderings.min_degree_heuristic_decomposition(og), inst.table, og)
    assert frontier_violations(g, ordering, inst.table.object_sets()) == []
    return lambda: frontier_violations(g, ordering, inst.table.object_sets()), g.n + g.m


def grid_check(n):
    # beta_bound_info's check that every edge rises by one in the coordinate sum
    inst = instances.gen_grid((n // 40, 40), seed=4)
    g, ordering = instances.bid_graph(inst), orderings.grid_ordering(inst.ordering_spec.coords)
    assert instances.beta_bound_info(inst, ordering, g) == (2, "grid-dimension")
    return lambda: instances.beta_bound_info(inst, ordering, g), g.n + g.m


def verify_above_oracle_cap(n):
    # verify's checks without the exact oracles; the file goes to the
    # test's working directory, a fresh temporary one
    path = Path(f"verify-{n}.json")
    params = {"n": n, "include_object_graph": False}
    instances.save_instance(instances.gen_budget("interval", "unweighted", params, seed=12), path)
    report = verify_instance(path, oracle_cap=20)
    assert report["ok"] and "oracle_revenue" not in report
    return lambda: verify_instance(path, oracle_cap=20), report["n"] + report["m"]


SIZES = (2000, 16000)
STAGES = {
    "tree-decomposition": (tree_decomposition, (1000, 8000)),
    "lexbfs": (lexbfs, SIZES),
    "germane-hub": (germane_hub, SIZES),
    "count-pass-unweighted": (count_pass("unweighted", {"k_max": 3, "group_size": 4}), SIZES),
    "count-pass-overlapping": (count_pass("overlapping", {"k_max": 3, "t": 2}), SIZES),
    "group-index": (group_index, SIZES),
    "object-graph": (object_graph, SIZES),
    "load": (load, SIZES),
    "load-malformed": (load_malformed, SIZES),
    "dump": (dump, SIZES),
    "load-and-bid-graph": (load_and_bid_graph, SIZES),
    "generator-interval": (generator(lambda n: instances.gen_interval(n, seed=4)), SIZES),
    "generator-budget-unweighted": (
        generator(lambda n: instances.gen_budget("interval", "unweighted", {"n": n, "k_max": 3, "group_size": 4}, 4)),
        SIZES,
    ),
    "generator-budget-overlapping": (
        generator(lambda n: instances.gen_budget("interval", "overlapping", {"n": n, "k_max": 3, "t": 2}, 4)),
        SIZES,
    ),
    "orient": (orientation, SIZES),
    "chordal-orientation": (chordal_orientation, SIZES),
    "is-perfect-elimination": (perfect_elimination, SIZES),
    "solve-weighted": (weighted, SIZES),
    "frontier-violations": (frontier, SIZES),
    "grid-check": (grid_check, SIZES),
    "verify-above-oracle-cap": (verify_above_oracle_cap, SIZES),
}


@pytest.mark.parametrize("stage", list(STAGES))
def test_stage_linear_time(stage, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    build, sizes = STAGES[stage]
    fixtures = [build(size) for size in sizes]
    # five rounds, not bench's three: three rounds of a row last about a
    # second, so one pause of the machine can reach every large sample
    (_, small), (_, large) = interleaved_samples([call for call, _ in fixtures], repeats=5)
    ratio = (large / fixtures[1][1]) / (small / fixtures[0][1])
    assert ratio <= MAX_RATIO, f"per-element {stage} cost at {sizes[1]} is {ratio:.2f}x the cost at {sizes[0]}"
