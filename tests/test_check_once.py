"""A request checks each tree decomposition and each bid table's
germaneness once; anything else is still checked wherever it is used.

A passed check is recorded on the decomposition or the table and keyed by
the object graph it ran against, so only the same objects with the same
graph skip it. Hand-built instances that fail a check are refused by every
entry point, however often they are tried."""

import pytest

from auctol import Bid, ObjectGraph, dumps_instance, gen_subtrees, graphs, orderings, save_instance
from auctol.cli import run
from auctol.errors import ValidationError
from auctol.instances import Instance, OrderingSpec, bid_graph, ordering_from_spec
from auctol.orderings import TreeDecomposition, tree_decomposition_ordering, validate_tree_decomposition


def _count(monkeypatch, module, name: str, counts: dict) -> None:
    real = getattr(module, name)

    def counted(*args):
        counts[name] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_order_then_solve_checks_each_part_once_per_process(tmp_path, monkeypatch):
    path, ordered = tmp_path / "in.json", tmp_path / "ordered.json"
    save_instance(gen_subtrees(40, 80, seed=3), path)
    counts = {"_decomposition_violations": 0, "_disconnected": 0}
    _count(monkeypatch, orderings, "_decomposition_violations", counts)
    _count(monkeypatch, graphs, "_disconnected", counts)
    assert run(["order", "--input", str(path), "--method", "tree-decomposition", "--output", str(ordered)]) == 0
    assert counts == {"_decomposition_violations": 1, "_disconnected": 1}
    assert run(["solve", "--input", str(ordered), "--output", str(tmp_path / "sol.json")]) == 0
    assert counts == {"_decomposition_violations": 2, "_disconnected": 2}


PATH_XYZ = (["x", "y", "z"], [("x", "y"), ("y", "z")])
GOOD_BAGS = {"t0": frozenset({"x", "y"}), "t1": frozenset({"y", "z"})}


def _td(bags) -> TreeDecomposition:
    return TreeDecomposition(["t0", "t1"], [("t0", "t1")], dict(bags), "t0")


def _instance(bid_objects, td, og=None) -> Instance:
    og = ObjectGraph(*PATH_XYZ) if og is None else og
    bids = [Bid(f"b{i}", objs, 1 + i) for i, objs in enumerate(bid_objects)]
    return Instance(bids, og, None, OrderingSpec("tree-decomposition", tree_decomposition=td))


def _refused_everywhere(inst: Instance, message: str) -> None:
    td, og = inst.ordering_spec.tree_decomposition, inst.object_graph
    for attempt in range(2):  # a failed check leaves nothing behind
        with pytest.raises(ValidationError, match=message):
            dumps_instance(inst)
        with pytest.raises(ValidationError, match=message):
            ordering_from_spec(inst, bid_graph(inst))
        with pytest.raises(ValidationError, match=message):
            tree_decomposition_ordering(td, inst.table, og)
        with pytest.raises(ValidationError, match=message):
            tree_decomposition_ordering(td, inst.bids, og)


def test_hand_built_invalid_decomposition_is_refused():
    # edge y-z lies in no bag
    inst = _instance([{"x", "y"}, {"y"}], _td({"t0": {"x", "y"}, "t1": {"z"}}))
    _refused_everywhere(inst, "property 2")


def test_hand_built_disconnected_bid_is_refused():
    inst = _instance([{"x", "y"}, {"x", "z"}], _td(GOOD_BAGS))
    _refused_everywhere(inst, "'b1' is not germane")


def test_a_decomposition_checked_against_one_graph_is_checked_again_against_another():
    td = _td(GOOD_BAGS)
    assert validate_tree_decomposition(ObjectGraph(*PATH_XYZ), td) == []
    triangle = ObjectGraph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    assert validate_tree_decomposition(triangle, td) == ["property 2: edge 'x'-'z' is inside no bag"]
    _refused_everywhere(_instance([{"x", "y"}], td, triangle), "property 2")


def test_a_table_found_germane_in_one_graph_is_searched_again_in_another():
    inst = _instance([{"x", "y"}, {"y", "z"}], _td(GOOD_BAGS))
    assert inst.table.disconnected(inst.object_graph) == []
    cut = ObjectGraph(["x", "y", "z"], [("x", "y")])  # same names, so the table's rows still apply
    assert inst.table.disconnected(cut) == ["b1"]
    spec = OrderingSpec("tree-decomposition", tree_decomposition=_td({"t0": {"x", "y"}, "t1": {"z"}}))
    _refused_everywhere(Instance(inst.table, cut, None, spec), "'b1' is not germane")
