"""What ``verify`` reports when a check fails, and the input errors that exit 2.

Each violation message ``verify --input`` can write is reached once: by
replacing one solver (or the bound certifier, or the claimed ratio) with one
that breaks exactly the inequality under test, or from real input where
there is some. The report then lists that message alone and the command
exits 5. ``verify --solution`` reports each feasibility failure of a
solution file the same way. Malformed requests, including integers too long
to write back as text, exit 2 with a message and no traceback.
"""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from auctol import budgets, instances, solvers
from auctol.cli import run

GOLDEN = Path(__file__).parent / "golden"
INTERVAL = GOLDEN / "interval-1.json"
UNWEIGHTED = GOLDEN / "budget-unweighted-1.json"

C4 = {
    "format": "auctol/1",
    "bids": [
        {"id": "a", "objects": ["x41", "x12"], "price": 1},
        {"id": "b", "objects": ["x12", "x23"], "price": 1},
        {"id": "c", "objects": ["x23", "x34"], "price": 1},
        {"id": "d", "objects": ["x34", "x41"], "price": 1},
    ],
    "ordering_spec": {"method": "decreasing-weight"},
}


def _empty(algorithm):
    return solvers.Solution(frozenset(), 0, solvers.Certificate(algorithm))


def _overstated(sol):
    """``sol`` claiming one unit more revenue than its bids are worth."""
    return replace(sol, revenue=sol.revenue + 1)


def _patch_kind(monkeypatch, kind, one_pass=None, cross_check=None):
    real_one, real_cross = budgets.SOLVERS_BY_KIND[kind]
    monkeypatch.setitem(
        budgets.SOLVERS_BY_KIND,
        kind,
        (one_pass or real_one, cross_check or real_cross),
    )
    return real_one, real_cross


def lropcost_disagrees(mp):
    mp.setattr(solvers, "lropcost", lambda g: _empty("lropcost"))
    return INTERVAL


def value_table_fails(mp):
    mp.setattr(solvers, "verify_value_table", lambda g, table: False)
    return INTERVAL


def lropcost_infeasible(mp):
    real = solvers.lropcost
    mp.setattr(solvers, "lropcost", lambda g: _overstated(real(g)))
    return INTERVAL


def budget_modes_disagree(mp):
    _patch_kind(mp, "unweighted", cross_check=lambda g, cs: _empty("unweighted"))
    return UNWEIGHTED


def budget_infeasible(mp):
    real_one, real_cross = budgets.SOLVERS_BY_KIND["unweighted"]
    _patch_kind(
        mp,
        "unweighted",
        lambda g, cs: _overstated(real_one(g, cs)),
        lambda g, cs: _overstated(real_cross(g, cs)),
    )
    return UNWEIGHTED


def bound_below_beta(mp, tmp_path):
    mp.setattr(instances, "beta_bound_info", lambda inst, ordering, g: (1, "frontier-bound"))
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(C4))
    return path


def zero_revenue(mp):
    real = solvers.opcost
    mp.setattr(solvers, "opcost", lambda g: (_empty("opcost"), real(g)[1]))
    mp.setattr(solvers, "lropcost", lambda g: _empty("lropcost"))
    return INTERVAL


def ratio_exceeds_claim(mp):
    mp.setattr(instances, "claimed_ratio", lambda algorithm, beta, cs: Fraction(1, 2))
    return INTERVAL


def huge_weighted_budget(mp, tmp_path):
    huge = 10**400
    doc = {
        "format": "auctol/1",
        "bids": [
            {"id": "a", "objects": ["x"], "price": huge, "group": "g"},
            {"id": "b", "objects": ["y"], "price": 1, "group": "g"},
        ],
        "constraints": {"kind": "weighted", "groups": [{"label": "g", "members": ["a", "b"], "b": huge}]},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "setup, violation",
    [
        (lropcost_disagrees, "opcost and lropcost selected different sets"),
        (value_table_fails, "value table fails recomputation"),
        (lropcost_infeasible, "lropcost: revenue 3383 != sum of selected weights 3382"),
        (budget_modes_disagree, "unweighted: one-pass and local-ratio modes disagree"),
        (budget_infeasible, "unweighted: revenue 2192 != sum of selected weights 2191"),
        (bound_below_beta, "certified bound 1 below exact beta 2"),
        (zero_revenue, "approximation returned zero revenue against positive optimum"),
        (ratio_exceeds_claim, "observed ratio 1 exceeds claimed 1/2"),
        (huge_weighted_budget, "run failed: group 'g': budget exceeds the double precision of the light pass"),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_verify_reports_each_failed_check(monkeypatch, tmp_path, capsys, setup, violation):
    args = (monkeypatch, tmp_path) if setup in (bound_below_beta, huge_weighted_budget) else (monkeypatch,)
    path = setup(*args)
    assert run(["verify", "--input", str(path)]) == 5
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["ok"] is False
    assert report["violations"] == [violation]
    assert err == f"{path.name}: {violation}\n"


@pytest.mark.parametrize(
    "solution, violation",
    [
        ({"selected": ["zz"], "revenue": 0}, "selected bid 'zz' is not a graph node"),
        ({"selected": ["b00"], "revenue": 5}, "revenue 5 != sum of selected weights 455"),
    ],
    ids=["unknown-bid", "revenue"],
)
def test_verify_solution_reports_each_feasibility_failure(tmp_path, capsys, solution, violation):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(solution))
    assert run(["verify", "--input", str(INTERVAL), "--solution", str(sol)]) == 5
    assert capsys.readouterr().err == f"violation: {violation}\n"


def test_verify_solution_reports_a_group_over_its_limit(tmp_path, capsys):
    doc = {
        "format": "auctol/1",
        "bids": [{"id": "a", "objects": ["x"], "price": 1}, {"id": "b", "objects": ["y"], "price": 2}],
        "constraints": {"kind": "unweighted", "groups": [{"label": "g", "members": ["a", "b"], "k": 1}]},
    }
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst.write_text(json.dumps(doc))
    sol.write_text(json.dumps({"selected": ["a", "b"], "revenue": 3}))
    assert run(["verify", "--input", str(inst), "--solution", str(sol)]) == 5
    assert capsys.readouterr().err == "violation: group 'g': 2 winners exceed k=1\n"


TWO_BIDS = {
    "format": "auctol/1",
    "bids": [{"id": "a", "objects": ["x"], "price": 1}, {"id": "b", "objects": ["x"], "price": 2}],
}


@pytest.mark.parametrize(
    "spec, command, message",
    [
        (None, ["order", "--method", "tree-decomposition"],
         "tree-decomposition ordering needs an object graph or an embedded decomposition"),
        ({"method": "decreasing-weight", "beta_bound": 0}, ["solve"], ": beta bound must be >= 1"),
        ({"method": "planted-optimal"}, ["solve"], ": planted-optimal ordering requires an independent set"),
        ({"method": "tree-decomposition"}, ["solve"],
         ": tree-decomposition ordering requires an embedded decomposition"),
        (None, ["verify"], "no instance files under "),
    ],
    ids=["order-td-without-graph", "beta-bound-0", "planted-without-set", "td-spec-without-decomposition",
         "verify-empty-directory"],
)
def test_malformed_requests_exit2(tmp_path, capsys, spec, command, message):
    if command == ["verify"]:
        target = tmp_path / "empty"
        target.mkdir()
    else:
        target = tmp_path / "inst.json"
        target.write_text(json.dumps(TWO_BIDS if spec is None else dict(TWO_BIDS, ordering_spec=spec)))
    assert run([command[0], "--input", str(target), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


NINES = int("9" * 4300)  # the longest integer Python reads from text by default


def _write_long_numbers(tmp_path):
    """An instance whose one price has 5001 digits, one with two prices of
    4300 digits (their revenue has 4301), and a plain instance with a
    solution claiming a revenue of 5001 digits."""
    long_price, two_long = tmp_path / "long-price.json", tmp_path / "two-long.json"
    plain, long_revenue = tmp_path / "plain.json", tmp_path / "long-revenue.json"
    long_price.write_text('{"format": "auctol/1", "bids": [{"id": "a", "objects": ["x"], "price": %s}]}' % ("7" * 5001))
    bids = [{"id": "a", "objects": ["x"], "price": NINES}, {"id": "b", "objects": ["y"], "price": NINES}]
    two_long.write_text(json.dumps({"format": "auctol/1", "bids": bids}))
    plain.write_text(json.dumps(TWO_BIDS))
    long_revenue.write_text('{"selected": ["b"], "revenue": %s}' % ("7" * 5001))
    return long_price, two_long, plain, long_revenue


@pytest.mark.parametrize("command", ["solve", "order", "verify-solution-of", "verify-solution"])
def test_integers_too_long_to_write_back_exit2(tmp_path, capsys, command):
    """A price of 5001 digits cannot be parsed, and a price of 4000 digits or
    more is refused at load so no revenue outgrows what can be written:
    each exits 2 with a schema error, not a traceback."""
    long_price, two_long, plain, long_revenue = _write_long_numbers(tmp_path)
    cases = {
        "solve": [(["solve", "--input", str(p)], p) for p in (long_price, two_long)],
        "order": [(["order", "--input", str(p), "--method", "decreasing-weight"], p) for p in (long_price, two_long)],
        "verify-solution-of": [(["verify", "--input", str(p), "--solution", str(p)], p) for p in (long_price, two_long)],
        "verify-solution": [(["verify", "--input", str(plain), "--solution", str(long_revenue)], long_revenue)],
    }[command]
    for argv, path in cases:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        want = "bid 'a': price must have fewer than 4000 digits" if path == two_long else "Exceeds the limit (4300 digits)"
        assert captured.err.startswith("schema error: : ") and want in captured.err, captured.err


def test_verify_refuses_a_long_price_exit2(tmp_path, capsys):
    """``verify --input`` names a file that fails to load and exits 2 with the
    schema error ``solve`` writes for it, rather than ending in a traceback."""
    long_price, two_long, _plain, _sol = _write_long_numbers(tmp_path)
    for path, want in ((long_price, "Exceeds the limit (4300 digits)"), (two_long, "price must have fewer than 4000 digits")):
        assert run(["verify", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        named, last = captured.err.splitlines()
        assert named.startswith(f"{path.name}: : ") and want in named
        assert last.startswith("schema error: : ") and want in last
