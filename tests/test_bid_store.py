"""One bid store: the pipeline reads only an instance's interned ``table``.

With every way to make :class:`Bid` objects from a table, or a table from
:class:`Bid` objects, made to raise, the CLI still orders, solves and
checks frontier sets on loaded files. Reading ``inst.bids`` leaves the
table the instance was loaded with in place, and lists the bids of the
table the instance holds at the time of the read.
"""

import json

from auctol import dumps_instance, gen_interval, gen_subtrees, load_instance
from auctol.cli import run
from auctol.graphs import BidTable
from auctol.instances import Instance, OrderingSpec, bid_graph


def _refuse(*_args, **_kwargs):
    raise AssertionError("the pipeline re-interned or expanded the bid table")


def test_order_and_solve_never_convert_bids(tmp_path, monkeypatch):
    base = gen_subtrees(12, 20, seed=4)
    plain = tmp_path / "plain.json"
    plain.write_text(dumps_instance(base), encoding="utf-8")
    frontier = {b.id: b.objects for b in base.bids}
    spec = OrderingSpec("explicit", sorted(frontier), frontier_sets=frontier)
    explicit = tmp_path / "explicit.json"
    explicit.write_text(dumps_instance(Instance(base.bids, base.object_graph, None, spec, base.metadata)), encoding="utf-8")
    monkeypatch.setattr(BidTable, "from_bids", classmethod(_refuse))
    monkeypatch.setattr(Instance, "bids", property(_refuse))

    ordered = tmp_path / "ordered.json"
    assert run(["order", "--input", str(plain), "--method", "tree-decomposition", "--output", str(ordered)]) == 0
    assert json.loads(ordered.read_text())["ordering_spec"]["method"] == "tree-decomposition"
    for path in (ordered, explicit):
        out = tmp_path / f"sol-{path.stem}.json"
        assert run(["solve", "--input", str(path), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["certificate"]["beta_bound"] is not None


def test_reading_bids_keeps_the_loaded_table(tmp_path, monkeypatch):
    path = tmp_path / "inst.json"
    path.write_text(dumps_instance(gen_subtrees(10, 15, seed=2)), encoding="utf-8")
    inst = load_instance(path)
    want = bid_graph(inst)
    assert len(inst.bids) == want.n
    monkeypatch.setattr(BidTable, "from_bids", classmethod(_refuse))
    g = bid_graph(inst)
    assert (g.ids, list(g.ptr), list(g.nbr)) == (want.ids, list(want.ptr), list(want.nbr))


def test_bids_follow_a_replaced_table():
    inst = gen_interval(5, seed=1)
    assert len(inst.bids) == 5
    inst.table = gen_interval(7, seed=2).table
    assert [b.id for b in inst.bids] == inst.table.ids and len(inst.bids) == 7
