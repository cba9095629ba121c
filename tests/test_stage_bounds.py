"""The bound each ordering stage returns agrees with the from-scratch check.

:func:`auctol.instances.oriented_graph` takes its beta bound from the stage
that built the ordering: lex-BFS's zero fill-in test, the decomposition and
germaneness checks of a tree decomposition, or one frontier check of
explicit frontier sets. :func:`auctol.instances.beta_bound_info` certifies
an ordering from scratch by its own checks. The two are separate paths to
one answer, so on every golden file and every generator family, with tree
decomposition and explicit frontier orderings besides, they must give the
same bound by the same check, and ``auctol order`` must state that bound.
"""

from pathlib import Path

import pytest

from auctol import (
    Instance,
    OrderingSpec,
    gen_budget,
    gen_grid,
    gen_interval,
    gen_interval_selection,
    gen_subtrees,
    gen_tight,
    instances,
    load_instance,
)
from auctol.orderings import min_degree_heuristic_decomposition

GOLDEN = Path(__file__).resolve().parent / "golden"


def _with_spec(inst: Instance, spec: OrderingSpec) -> Instance:
    return Instance(inst.table, inst.object_graph, inst.constraints, spec, inst.metadata)


def _tree_decomposition(inst: Instance) -> Instance:
    td = min_degree_heuristic_decomposition(inst.object_graph)
    return _with_spec(inst, OrderingSpec("tree-decomposition", tree_decomposition=td))


def _frontier(inst: Instance) -> Instance:
    """Explicit frontier sets that hold: each bid's own objects."""
    table = inst.table
    spec = OrderingSpec("explicit", sorted(table.ids), frontier_sets=dict(zip(table.ids, table.object_sets())))
    return _with_spec(inst, spec)


FAMILIES = {
    "interval": lambda seed: gen_interval(14, seed=seed),
    "interval-no-objects": lambda seed: gen_interval(14, seed=seed, include_object_graph=False),
    "interval-selection": lambda seed: gen_interval_selection(4, 3, seed=seed),
    "subtrees": lambda seed: gen_subtrees(9, 12, seed=seed),
    "grid": lambda seed: gen_grid((3, 4), density_milli=850, seed=seed),
    "tight": lambda seed: gen_tight(3, 100, seed=seed),
    "budget-unweighted": lambda seed: gen_budget("interval", "unweighted", {"n": 12}, seed=seed),
    "budget-overlapping": lambda seed: gen_budget("interval", "overlapping", {"n": 12, "t": 2}, seed=seed),
    "budget-weighted": lambda seed: gen_budget("subtrees", "weighted", {"tree_size": 8, "n_bids": 12}, seed=seed),
    "tree-decomposition": lambda seed: _tree_decomposition(gen_subtrees(12, 20, seed=seed)),
    "tree-decomposition-grid": lambda seed: _tree_decomposition(gen_grid((3, 3), seed=seed)),
    "frontier": lambda seed: _frontier(gen_subtrees(9, 12, seed=seed)),
    "decreasing-weight": lambda seed: _with_spec(gen_interval(14, seed=seed), OrderingSpec("decreasing-weight")),
}

CASES = [(f"{name}-{seed}", gen, seed) for name, gen in FAMILIES.items() for seed in range(4)]
CASES += [(path.stem, lambda _seed, path=path: load_instance(path), 0) for path in sorted(GOLDEN.glob("*.json"))]


@pytest.mark.parametrize("name, make, seed", CASES, ids=[case[0] for case in CASES])
def test_the_stage_bound_is_the_from_scratch_bound(name, make, seed):
    inst = make(seed)
    g, bound, method = instances.oriented_graph(inst)
    assert (bound, method) == instances.beta_bound_info(inst, g.ordering, g)
    assert (bound, method) == instances.beta_bound_info(inst, g.ordering, instances.bid_graph(inst))
    spec = inst.ordering_spec
    if spec is not None and spec.method in ("chordal", "tree-decomposition", "grid"):
        assert instances.ordering_bound(inst) == (bound, method)


def test_every_certifying_family_is_certified():
    """The agreement above is not vacuous: each family whose ordering
    certifies a bound gets one from its stage, by the check named here."""
    methods = {name: instances.oriented_graph(gen(1))[2] for name, gen in FAMILIES.items()}
    assert methods == {
        **dict.fromkeys(("interval", "interval-no-objects", "interval-selection", "subtrees"), "perfect-elimination"),
        **dict.fromkeys(("budget-unweighted", "budget-overlapping", "budget-weighted"), "perfect-elimination"),
        "grid": "grid-dimension",
        "tight": None,
        "tree-decomposition": "frontier-bound",
        "tree-decomposition-grid": "frontier-bound",
        "frontier": "frontier-bound",
        "decreasing-weight": None,
    }
