"""A request checks each tree decomposition, each bid table's germaneness
and each ordering's certificate once; anything else is still checked
wherever it is used.

A passed decomposition or germaneness check is recorded on the
decomposition or the table and keyed by the object graph it ran against, so
only the same objects with the same graph skip it. A certificate check is
not recorded: the stage that ran it returns the bound, so certifying the
solution reads that value. Hand-built instances that fail a check are
refused by every entry point, however often they are tried."""

import pytest

from auctol import Bid, ObjectGraph, cli, dumps_instance, gen_grid, gen_interval, gen_subtrees, graphs, instances, orderings, save_instance, solvers
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


def _certificate_checks(monkeypatch) -> dict:
    counts = {"_zero_fill_in": 0, "frontier_violations": 0}
    _count(monkeypatch, orderings, "_zero_fill_in", counts)
    _count(monkeypatch, instances, "frontier_violations", counts)
    return counts


def test_each_certificate_check_runs_once_per_request(tmp_path, monkeypatch):
    """lex-BFS's zero fill-in test and the frontier check of an explicit
    ordering run in the stage that orients the graph, which returns the
    bound, so certifying the solution runs neither again; a
    tree-decomposition ordering's frontier sets need no check."""
    chordal, frontier, subtrees = tmp_path / "chordal.json", tmp_path / "frontier.json", tmp_path / "subtrees.json"
    save_instance(gen_interval(30, seed=2), chordal)
    bids = [Bid(u, frozenset(objs), 2) for u, objs in [("a", {"w", "x"}), ("b", {"x", "y"}), ("c", {"y", "z"}), ("d", {"z", "w"})]]
    sets = {"a": frozenset({"w", "x"}), "b": frozenset({"y"}), "c": frozenset({"z"}), "d": frozenset({"z"})}
    save_instance(Instance(bids, None, None, OrderingSpec("explicit", list("abcd"), frontier_sets=sets)), frontier)
    save_instance(gen_subtrees(40, 80, seed=3), subtrees)
    expected = {
        ("solve", chordal): {"_zero_fill_in": 1, "frontier_violations": 0},
        ("order", chordal): {"_zero_fill_in": 1, "frontier_violations": 0},
        ("solve", frontier): {"_zero_fill_in": 0, "frontier_violations": 1},
        ("verify", frontier): {"_zero_fill_in": 0, "frontier_violations": 1},
        ("order", subtrees): {"_zero_fill_in": 0, "frontier_violations": 0},
    }
    for (command, path), counts in expected.items():
        seen = _certificate_checks(monkeypatch)
        args = {"order": ["--method", "tree-decomposition" if path is subtrees else "chordal"]}.get(command, [])
        out = ["--output", str(tmp_path / "out.json")] if command != "verify" else []
        assert run([command, "--input", str(path), *args, *out]) == 0
        assert seen == counts, (command, path.name)
    seen = _certificate_checks(monkeypatch)
    assert run(["solve", "--input", str(tmp_path / "out.json"), "--output", str(tmp_path / "sol.json")]) == 0
    assert seen == {"_zero_fill_in": 0, "frontier_violations": 0}


def test_a_chordal_request_reads_the_graph_recognition_oriented(tmp_path, monkeypatch):
    """lex-BFS orients the bid graph by its candidate ordering to run the
    zero fill-in test on it, and solve and verify read that graph: neither
    calls orient, and the test runs once."""
    path = tmp_path / "chordal.json"
    save_instance(gen_interval(30, seed=2), path)
    for command in ("solve", "verify"):
        counts = {"orient": 0, "_zero_fill_in": 0}
        for module in (graphs, instances, orderings, solvers, cli):
            _count(monkeypatch, module, "orient", counts)
        _count(monkeypatch, orderings, "_zero_fill_in", counts)
        out = ["--output", str(tmp_path / "out.json")] if command == "solve" else []
        assert run([command, "--input", str(path), *out]) == 0
        assert counts == {"orient": 0, "_zero_fill_in": 1}, command
        monkeypatch.undo()


def test_certifying_orients_only_a_graph_the_ordering_has_not_oriented(monkeypatch):
    """The frontier and grid checks read the bid graph as the ordering
    oriented it: a graph oriented by that ordering is read as it is, any
    other has its rank-space slices built once, not once more inside
    frontier_violations."""
    bids = [Bid(u, frozenset(objs), 2) for u, objs in [("a", {"w", "x"}), ("b", {"x", "y"}), ("c", {"y", "z"}), ("d", {"z", "w"})]]
    sets = {"a": frozenset({"w", "x"}), "b": frozenset({"y"}), "c": frozenset({"z"}), "d": frozenset({"z"})}
    frontier = Instance(bids, None, None, OrderingSpec("explicit", list("abcd"), frontier_sets=sets))
    cases = []
    for name, inst, bound in (("frontier", frontier, (2, "frontier-bound")), ("grid", gen_grid((3, 4), seed=1), (2, "grid-dimension"))):
        g = bid_graph(inst)
        ordering = ordering_from_spec(inst, g)
        cases += [(name, inst, ordering, graphs.orient(g, ordering), bound, 0), (name, inst, ordering, g, bound, 1)]
    counts = {"orient_by_index": 0}
    _count(monkeypatch, graphs, "orient_by_index", counts)
    for name, inst, ordering, g, bound, builds in cases:
        counts["orient_by_index"] = 0
        assert instances.beta_bound_info(inst, ordering, g) == bound
        assert counts["orient_by_index"] == builds, name


def test_a_frontier_request_orients_once_and_a_tree_decomposition_order_builds_no_bid_graph(tmp_path, monkeypatch):
    """``solve`` on an explicit ordering with frontier sets builds the
    rank-space slices once and checks the sets on them; ``order --method
    tree-decomposition`` checks the decomposition against the object graph
    and builds no bid graph."""
    bids = [Bid(u, frozenset(objs), 2) for u, objs in [("a", {"w", "x"}), ("b", {"x", "y"}), ("c", {"y", "z"}), ("d", {"z", "w"})]]
    sets = {"a": frozenset({"w", "x"}), "b": frozenset({"y"}), "c": frozenset({"z"}), "d": frozenset({"z"})}
    frontier, subtrees = tmp_path / "frontier.json", tmp_path / "subtrees.json"
    save_instance(Instance(bids, None, None, OrderingSpec("explicit", list("abcd"), frontier_sets=sets)), frontier)
    save_instance(gen_subtrees(40, 80, seed=3), subtrees)
    counts = {"orient_by_index": 0, "graph": 0}
    _count(monkeypatch, graphs, "orient_by_index", counts)
    _count(monkeypatch, graphs.BidTable, "graph", counts)
    assert run(["solve", "--input", str(frontier), "--output", str(tmp_path / "sol.json")]) == 0
    assert counts == {"orient_by_index": 1, "graph": 1}
    counts.update(orient_by_index=0, graph=0)
    assert run(["order", "--input", str(subtrees), "--method", "tree-decomposition", "--output", str(tmp_path / "out.json")]) == 0
    assert counts == {"orient_by_index": 0, "graph": 0}


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
