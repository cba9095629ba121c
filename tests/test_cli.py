"""Command-line surface: exit codes, dispatch, golden corpus."""

import gc
import json
import os
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from auctol import Bid, Instance, OrderingSpec, budgets, cli, decreasing_weight_ordering, exact_mwis, instances, opcost, orient
from auctol import dumps_instance, gen_budget, gen_grid, gen_interval, gen_interval_selection, gen_subtrees, gen_tight, save_instance
from auctol.cli import run
from auctol.errors import ValidationError
from auctol.rng import SplitMix64

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).resolve().parent.parent / "src")
# child processes import this checkout's package, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

GOLDEN_SPECS = {
    "interval": lambda s: gen_interval(12, seed=s),
    "interval-selection": lambda s: gen_interval_selection(4, 3, seed=s),
    "subtrees": lambda s: gen_subtrees(8, 12, seed=s),
    "grid": lambda s: gen_grid((3, 3), density_milli=900, seed=s),
    "tight": lambda s: gen_tight(2 + s % 3, 100, seed=s),
    "budget-unweighted": lambda s: gen_budget("interval", "unweighted", {"n": 12}, seed=s),
    "budget-overlapping": lambda s: gen_budget("interval", "overlapping", {"n": 12, "t": 2}, seed=s),
    "budget-weighted": lambda s: gen_budget("subtrees", "weighted", {"tree_size": 7, "n_bids": 12}, seed=s),
}


# family -> (beta bound its ordering certifies, ratio opcost/lropcost claim
# under --constraints auto): beta for the plain solvers, beta + 1 for the
# unweighted groups, beta + t (t = 2 here) for overlapping, 2 beta + 3 for
# weighted budgets. tight orders explicitly with no frontier sets: no bound.
CERTIFIED = {
    "interval": (1, 1),
    "subtrees": (1, 1),
    "grid": (2, 2),
    "tight": (None, None),
    "interval-selection": (1, 2),
    "budget-unweighted": (1, 2),
    "budget-overlapping": (1, 3),
    "budget-weighted": (1, 5),
}
CONSTRAINED = ("interval-selection", "budget-unweighted", "budget-overlapping", "budget-weighted")


def _certificate_cases():
    for path in sorted(GOLDEN.glob("*.json")):
        family = path.stem.rsplit("-", 1)[0]
        for algo in ("opcost", "lropcost", "greedy", "exact"):
            for constraints in ("auto", "ignore"):
                if algo == "greedy" and constraints == "auto" and family in CONSTRAINED:
                    continue  # greedy has no budget-aware mode: exit 2 by design
                yield pytest.param(path, family, algo, constraints, id=f"{path.stem}-{algo}-{constraints}")


@pytest.mark.parametrize("path,family,algo,constraints", list(_certificate_cases()))
def test_solve_certificate(path, family, algo, constraints, tmp_path):
    out = tmp_path / "sol.json"
    assert run(["solve", "--input", str(path), "--algo", algo, "--constraints", constraints, "--output", str(out)]) == 0
    bound, auto_ratio = CERTIFIED[family]
    if algo == "exact":
        claimed = 1
    elif algo == "greedy":
        claimed = None
    else:
        claimed = auto_ratio if constraints == "auto" else bound
    assert json.loads(out.read_text())["certificate"] == {"beta_bound": bound, "claimed_ratio": claimed}


def test_golden_corpus_matches_generators():
    files = sorted(GOLDEN.glob("*.json"))
    assert len(files) == len(GOLDEN_SPECS) * 3
    for name, gen in GOLDEN_SPECS.items():
        for seed in (1, 2, 3):
            expected = dumps_instance(gen(seed))
            assert (GOLDEN / f"{name}-{seed}.json").read_text() == expected


def test_solve_tight_instance(tmp_path, capsys):
    path = tmp_path / "tight.json"
    save_instance(gen_tight(3, 100, seed=1), path)
    out = tmp_path / "sol.json"
    assert run(["solve", "--input", str(path), "--algo", "opcost", "--output", str(out)]) == 0
    sol = json.loads(out.read_text())
    assert sol["revenue"] == 1000
    assert sol["algorithm"] == "opcost"


def test_solve_exact_cap_refusal(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_instance(gen_interval(35, seed=0), path)
    assert run(["solve", "--input", str(path), "--algo", "exact"]) == 3
    assert "capacity" in capsys.readouterr().err


def test_solve_opcost_lropcost_identical_json(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(gen_interval(20, seed=9), path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["solve", "--input", str(path), "--algo", "opcost", "--output", str(a)]) == 0
    assert run(["solve", "--input", str(path), "--algo", "lropcost", "--output", str(b)]) == 0
    ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ja["selected"] == jb["selected"]
    assert ja["revenue"] == jb["revenue"]
    assert ja["certificate"] == jb["certificate"]


def test_solve_validation_error_exit(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "auctol/1"}')
    assert run(["solve", "--input", str(path)]) == 2


@pytest.mark.parametrize(
    "doc, pointer",
    [
        ({"bids": [{"id": "", "objects": ["o0"], "price": 1}]}, "/bids/0/id"),
        (
            {
                "bids": [{"id": "b0", "objects": ["o0"], "price": 1}],
                "constraints": {"kind": "overlapping", "groups": [{"label": "g", "members": [], "k": 1}]},
            },
            "/constraints/groups/0/members",
        ),
        (
            {"bids": [{"id": "b0", "objects": ["o0"], "price": 1}], "ordering_spec": {"method": "chordal", "permutaton": ["b0"]}},
            "/ordering_spec/permutaton",
        ),
    ],
)
def test_load_errors_name_a_pointer(tmp_path, capsys, doc, pointer):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"format": "auctol/1", **doc}))
    assert run(["solve", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"schema error: {pointer}: ")


def test_order_chordal_embeds_bound(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(gen_interval(15, seed=3), path)
    out = tmp_path / "ordered.json"
    assert run(["order", "--input", str(path), "--method", "chordal", "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["ordering_spec"] == {"method": "chordal", "beta_bound": 1}


def test_order_c4_not_chordal_exit4(tmp_path, capsys):
    c4 = {
        "format": "auctol/1",
        "bids": [
            {"id": "a", "objects": ["x41", "x12"], "price": 1},
            {"id": "b", "objects": ["x12", "x23"], "price": 1},
            {"id": "c", "objects": ["x23", "x34"], "price": 1},
            {"id": "d", "objects": ["x34", "x41"], "price": 1},
        ],
    }
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(c4))
    assert run(["order", "--input", str(path), "--method", "chordal"]) == 4
    err = capsys.readouterr().err
    assert "witness" in err


def test_order_tree_decomposition_bound(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(gen_subtrees(8, 10, seed=2), path)
    out = tmp_path / "ordered.json"
    assert run(["order", "--input", str(path), "--method", "tree-decomposition", "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    spec = obj["ordering_spec"]
    assert spec["method"] == "tree-decomposition"
    bags = spec["tree_decomposition"]["bags"]
    assert spec["beta_bound"] <= max(len(b) for b in bags.values())


def test_order_grid_with_partial_coords_exit2(tmp_path, capsys):
    # coords kept under another method are never checked at load; they
    # miss c, so grid ordering must refuse them rather than crash
    inst = {
        "format": "auctol/1",
        "bids": [
            {"id": "a", "objects": ["x"], "price": 3},
            {"id": "b", "objects": ["x", "y"], "price": 5},
            {"id": "c", "objects": ["y"], "price": 2},
        ],
        "ordering_spec": {"method": "chordal", "coords": {"a": [0, 0], "b": [0, 1]}},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    assert run(["order", "--input", str(path), "--method", "grid"]) == 2
    assert capsys.readouterr().err == "validation error: grid coordinates must cover exactly the bid ids\n"
    inst["ordering_spec"]["coords"]["c"] = [1, 1]
    path.write_text(json.dumps(inst))
    out = tmp_path / "ordered.json"
    assert run(["order", "--input", str(path), "--method", "grid", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["ordering_spec"]["beta_bound"] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "grid", "--dims", "4xfoo"], "--dims must be sizes joined by 'x', like 4x4; got '4xfoo'"),
        (["--family", "interval", "--wmin", "10", "--wmax", "1"], "weight range is empty: wmin 10 > wmax 1"),
        (["--family", "subtrees", "--wmin", "10", "--wmax", "1"], "weight range is empty: wmin 10 > wmax 1"),
        (["--family", "grid", "--wmin", "10", "--wmax", "1"], "weight range is empty: wmin 10 > wmax 1"),
        (["--family", "budget", "--wmin", "10", "--wmax", "1"], "weight range is empty: wmin 10 > wmax 1"),
        (
            ["--family", "budget", "--base-family", "grid", "--dims", "4xfoo"],
            "--dims must be sizes joined by 'x', like 4x4; got '4xfoo'",
        ),
    ],
    ids=[
        "dims-not-int",
        "interval-wmin-above-wmax",
        "subtrees-wmin-above-wmax",
        "grid-wmin-above-wmax",
        "budget-wmin-above-wmax",
        "budget-grid-dims-not-int",
    ],
)
def test_gen_bad_arguments_exit2(capsys, argv, message):
    assert run(["gen", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "interval", "--n", "3", "--wmin", "0", "--wmax", str(10**23)],
        ["--family", "budget", "--kind", "weighted", "--n", "40", "--group-size", "8", "--wmin", "0", "--wmax", str(2**63)],
    ],
    ids=["interval-wmax-above-2-64", "budget-weighted-group-sums-above-2-65"],
)
def test_gen_bounds_above_2_64(tmp_path, monkeypatch, argv):
    """A price bound, or a money budget drawn up to half a group's weight
    sum, above 2**64 takes several outputs per draw rather than redrawing
    forever; the counted outputs fail the test at once if a draw redraws."""
    outputs, next_u64 = [], SplitMix64.next_u64

    def counted(self):
        outputs.append(None)
        assert len(outputs) < 10_000, "a draw keeps redrawing"
        return next_u64(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counted)
    out = tmp_path / "inst.json"
    assert run(["gen", *argv, "--output", str(out)]) == 0
    monkeypatch.undo()
    inst = instances.load_instance(out)
    assert all(0 <= p <= int(argv[-1]) for p in inst.table.prices)
    limits = [grp.limit for grp in inst.constraints.groups] if inst.constraints else []
    assert max(inst.table.prices + limits) >= 2**64
    assert run(["verify", "--input", str(out)]) == 0


def test_generators_reject_an_empty_weight_range():
    for make in (
        lambda: gen_interval(4, (5, 4)),
        lambda: gen_interval_selection(2, 2, weight_range=(5, 4)),
        lambda: gen_subtrees(4, 4, weight_range=(5, 4)),
        lambda: gen_grid((2, 2), weight_range=(5, 4)),
    ):
        with pytest.raises(ValidationError, match=r"^weight range is empty: wmin 5 > wmax 4$"):
            make()
    assert {b.price for b in gen_interval(6, (7, 7)).bids} == {7}


@pytest.mark.parametrize(
    "flags, base, params",
    [
        (["--base-family", "interval", "--n", "50"], "interval", {"n": 50}),
        (["--base-family", "subtrees", "--n", "50"], "subtrees", {"n_bids": 50}),
        (["--base-family", "subtrees", "--tree-size", "30"], "subtrees", {"tree_size": 30}),
        (["--base-family", "grid", "--dims", "8x8"], "grid", {"dims": (8, 8)}),
        (["--base-family", "grid", "--dims", "5x6", "--density-milli", "600"], "grid", {"dims": (5, 6), "density_milli": 600}),
    ],
    ids=["interval-n", "subtrees-n", "subtrees-tree-size", "grid-dims", "grid-density"],
)
def test_gen_budget_base_reads_the_size_flags(tmp_path, flags, base, params):
    out = tmp_path / "gen.json"
    assert run(["gen", "--family", "budget", "--kind", "weighted", *flags, "--seed", "3", "--output", str(out)]) == 0
    assert out.read_text() == dumps_instance(gen_budget(base, "weighted", params, seed=3))


def test_gen_golden_regeneration(tmp_path):
    out = tmp_path / "gen.json"
    assert run(["gen", "--family", "interval", "--n", "12", "--seed", "1", "--output", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "interval-1.json").read_text()


def test_gen_every_family(tmp_path):
    cases = [
        ["gen", "--family", "interval", "--n", "8"],
        ["gen", "--family", "interval-selection", "--groups", "3", "--per-group", "2"],
        ["gen", "--family", "subtrees", "--tree-size", "6", "--n", "8"],
        ["gen", "--family", "grid", "--dims", "3x3"],
        ["gen", "--family", "tight", "--beta", "4", "--epsilon-milli", "50"],
        ["gen", "--family", "budget", "--base-family", "interval", "--kind", "weighted", "--n", "10"],
    ]
    for i, argv in enumerate(cases):
        out = tmp_path / f"g{i}.json"
        assert run(argv + ["--seed", "7", "--output", str(out)]) == 0
        assert out.read_text().startswith("{")


def test_verify_golden_corpus(capsys):
    assert run(["verify", "--input", str(GOLDEN)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(lines) == len(GOLDEN_SPECS) * 3
    assert all(r["ok"] for r in lines)
    # chordal families are solved exactly
    for r in lines:
        if r["family"] in ("interval", "subtrees"):
            assert r["observed_ratio"] == "1"


def test_verify_deterministic_output(tmp_path, capsys):
    src = GOLDEN / "interval-1.json"
    assert run(["verify", "--input", str(src)]) == 0
    first = capsys.readouterr().out
    assert run(["verify", "--input", str(src)]) == 0
    assert capsys.readouterr().out == first


def test_verify_corrupted_solution(tmp_path, capsys):
    inst = GOLDEN / "interval-1.json"
    sol = tmp_path / "sol.json"
    assert run(["solve", "--input", str(inst), "--output", str(sol)]) == 0
    obj = json.loads(sol.read_text())
    good = json.loads(json.dumps(obj))
    assert run(["verify", "--input", str(inst), "--solution", str(sol)]) == 0
    # corrupt: claim two conflicting bids
    data = json.loads(inst.read_text())
    all_ids = [b["id"] for b in data["bids"]]
    obj["selected"] = all_ids
    obj["revenue"] = sum(b["price"] for b in data["bids"])
    sol.write_text(json.dumps(obj))
    assert run(["verify", "--input", str(inst), "--solution", str(sol)]) == 5
    assert "violation" in capsys.readouterr().err


def test_bench_smoke(capsys):
    assert run(["bench", "--family", "interval", "--sizes", "4000,4000", "--repeats", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert set(report["checks"]) == {"opcost", "lropcost"}


def test_bench_budget_rows_time_the_count_pass_alone(monkeypatch):
    # the group index is built once per size, outside the timed calls
    built = []
    groups_csr = budgets._groups_csr
    monkeypatch.setattr(budgets, "_groups_csr", lambda cs, pos: built.append(len(pos)) or groups_csr(cs, pos))
    report = cli.run_bench("budget-unweighted", [2000, 4000], repeats=1)
    assert built == [row["n"] for row in report["rows"]]
    assert [set(row["solvers"]) for row in report["rows"]] == [{"unweighted"}] * 2


def test_bench_sizes_not_integers_exit2(capsys):
    assert run(["bench", "--sizes", "100,foo"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: --sizes must be integers joined by ',', like 10000,100000; got '100,foo'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--algo", "exact", "--cap", "-1"], "--cap must be >= 0; got -1"),
        (["verify", "--oracle-cap", "-5"], "--oracle-cap must be >= 0; got -5"),
        (["bench", "--repeats", "0"], "--repeats must be >= 1; got 0"),
        (["bench", "--sizes=-5,0"], "--sizes must be >= 1; got -5"),
        (["bench", "--sizes", "100,0"], "--sizes must be >= 1; got 0"),
        (["gen", "--family", "budget", "--group-size", "0"], "--group-size must be >= 1; got 0"),
        (["gen", "--family", "budget", "--k-max", "0"], "--k-max must be >= 1; got 0"),
        (["gen", "--family", "budget", "--kind", "overlapping", "--t", "0"], "--t must be >= 1; got 0"),
        (["gen", "--family", "interval", "--wmin", "-5"], "--wmin must be >= 0; got -5"),
        (["gen", "--family", "budget", "--base-family", "subtrees", "--wmin", "-1"], "--wmin must be >= 0; got -1"),
    ],
    ids=[
        "solve-cap", "verify-oracle-cap", "bench-repeats", "bench-sizes-negative", "bench-sizes-zero",
        "gen-group-size", "gen-k-max", "gen-t", "gen-wmin", "gen-budget-wmin",
    ],
)
def test_flags_below_their_least_value_exit2(tmp_path, capsys, argv, message):
    path = tmp_path / "inst.json"
    save_instance(gen_tight(2, 100), path)
    command = argv[:1] + (["--input", str(path)] if argv[0] not in ("gen", "bench") else []) + argv[1:]
    assert run(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {message}\n"


def test_console_script_end_to_end(tmp_path):
    out = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "auctol.cli", "gen", "--family", "tight", "--beta", "2",
         "--epsilon-milli", "100", "--seed", "0", "--output", str(out)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "auctol.cli", "solve", "--input", str(out)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["revenue"] == 1000


@pytest.mark.parametrize(
    "text,pointer",
    [
        ('{"selected": [["a"]]}', "/selected/0"),
        ('{"selected": ["b00", 7]}', "/selected/1"),
        ('{"selected": [], "revenue": "0"}', "/revenue"),
        ('{"selected": [], "revenue": 1.5}', "/revenue"),
        ('{"selected": ["b00"], "revenue": 455, "algorithm": [1]}', "/algorithm"),
        ('{"selected": ["b00"], "algorithm": null}', "/algorithm"),
        ('{"selected": ', ""),
    ],
)
def test_verify_malformed_solution_exit2(tmp_path, capsys, text, pointer):
    sol = tmp_path / "sol.json"
    sol.write_text(text)
    assert run(["verify", "--input", str(GOLDEN / "interval-1.json"), "--solution", str(sol)]) == 2
    assert f"schema error: {pointer}:" in capsys.readouterr().err


def _subtree_instance_with_td(td: dict) -> dict:
    return {
        "format": "auctol/1",
        "bids": [{"id": "a", "objects": ["x"], "price": 2}, {"id": "b", "objects": ["x", "y"], "price": 3}],
        "ordering_spec": {"method": "tree-decomposition", "tree_decomposition": td},
    }


@pytest.mark.parametrize(
    "td,message",
    [
        ({"tree_nodes": ["t0", "t1"], "tree_edges": [], "bags": {"t0": ["x"], "t1": ["y"]}}, "not a tree"),
        ({"tree_nodes": ["t0", "t1"], "tree_edges": [["t0", "t9"]], "bags": {"t0": ["x"], "t1": ["y"]}}, "bad edge"),
        ({"tree_nodes": ["t0"], "tree_edges": [], "bags": {"t0": ["x", "y"]}, "root": "t9"}, "not a tree node"),
        ({"tree_nodes": ["t0"], "tree_edges": [], "bags": {"t0": ["x", "y"]}, "root": ["t0"]}, "/root: expected a string"),
        ({"tree_nodes": ["t0", "t1"], "tree_edges": [["t0", ["t1"]]], "bags": {"t0": ["x"], "t1": ["y"]}}, "/tree_edges/0/1:"),
    ],
    ids=["disconnected", "undeclared-edge-end", "unknown-root", "non-string-root", "non-string-edge-end"],
)
def test_tree_decomposition_without_object_graph_checks_tree_shape(tmp_path, capsys, td, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_subtree_instance_with_td(td)))
    assert run(["solve", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_weighted_budget_beyond_double_range_exit2(tmp_path, capsys):
    huge = 10**400
    inst = {
        "format": "auctol/1",
        "bids": [
            {"id": "a", "objects": ["x"], "price": huge, "group": "g0"},
            {"id": "b", "objects": ["y"], "price": 1, "group": "g0"},
        ],
        "constraints": {"kind": "weighted", "groups": [{"label": "g0", "members": ["a", "b"], "b": 2 * huge}]},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    for argv, code in ((["solve", "--input", str(path)], 2), (["verify", "--input", str(path)], 5)):
        assert run(argv) == code  # verify records the refusal as a violation of the file
        assert "group 'g0'" in capsys.readouterr().err
    out = tmp_path / "sol.json"
    assert run(["solve", "--input", str(path), "--constraints", "ignore", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["revenue"] == huge + 1


def test_explicit_frontier_sets_are_checked_not_trusted(tmp_path, capsys):
    # a meets c on y, but c misses frontier(a) = {x}: the claimed bound 1 is
    # unsound (beta of this ordering is 2), so set-up must refuse it
    inst = {
        "format": "auctol/1",
        "bids": [
            {"id": "a", "objects": ["x", "y"], "price": 10},
            {"id": "b", "objects": ["x"], "price": 9},
            {"id": "c", "objects": ["y"], "price": 9},
        ],
        "ordering_spec": {
            "method": "explicit",
            "permutation": ["a", "b", "c"],
            "frontier_sets": {"a": ["x"], "b": ["x"], "c": ["y"]},
        },
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    message = "frontier sets fail: 'a' precedes and meets 'c', which misses frontier('a')"
    assert run(["solve", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert run(["verify", "--input", str(path)]) == 5
    assert json.loads(capsys.readouterr().out)["violations"] == [f"setup failed: {message}"]
    inst["ordering_spec"]["frontier_sets"]["a"] = ["x", "y"]
    path.write_text(json.dumps(inst))
    out = tmp_path / "sol.json"
    assert run(["solve", "--input", str(path), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["certificate"] == {"beta_bound": 2, "claimed_ratio": 2}


def test_verify_directory_continues_past_a_failing_instance(tmp_path, capsys):
    huge = 10**400
    bad = {
        "format": "auctol/1",
        "bids": [
            {"id": "a", "objects": ["x"], "price": huge, "group": "g0"},
            {"id": "b", "objects": ["y"], "price": 1, "group": "g0"},
        ],
        "constraints": {"kind": "weighted", "groups": [{"label": "g0", "members": ["a", "b"], "b": 2 * huge}]},
    }
    (tmp_path / "1-interval.json").write_text((GOLDEN / "interval-1.json").read_text())
    (tmp_path / "2-huge-budget.json").write_text(json.dumps(bad))
    (tmp_path / "3-tight.json").write_text((GOLDEN / "tight-1.json").read_text())
    assert run(["verify", "--input", str(tmp_path)]) == 5
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["instance"] for r in reports] == ["1-interval.json", "2-huge-budget.json", "3-tight.json"]
    assert [r["ok"] for r in reports] == [True, False, True]
    assert "group 'g0'" in reports[1]["violations"][0]


C4_CHORDAL = {
    "format": "auctol/1",
    "bids": [
        {"id": "a", "objects": ["x41", "x12"], "price": 1},
        {"id": "b", "objects": ["x12", "x23"], "price": 1},
        {"id": "c", "objects": ["x23", "x34"], "price": 1},
        {"id": "d", "objects": ["x34", "x41"], "price": 1},
    ],
    "ordering_spec": {"method": "chordal"},
}


def test_verify_solution_needs_no_ordering(tmp_path, capsys):
    """A solution's feasibility does not depend on the ordering the instance
    asks for: a 4-cycle that asks for a chordal ordering still has its
    feasible solution checked, and an infeasible one flagged."""
    inst, sol = tmp_path / "c4.json", tmp_path / "sol.json"
    inst.write_text(json.dumps(C4_CHORDAL))
    sol.write_text(json.dumps({"selected": ["a", "c"], "revenue": 2}))
    assert run(["verify", "--input", str(inst), "--solution", str(sol)]) == 0
    assert capsys.readouterr().err == ""
    sol.write_text(json.dumps({"selected": ["a", "b"], "revenue": 2}))
    assert run(["verify", "--input", str(inst), "--solution", str(sol)]) == 5
    assert capsys.readouterr().err == "violation: conflict: 'a' and 'b' share an object\n"


@pytest.mark.parametrize("which", ["solve", "verify-input", "verify-solution"])
def test_json_nested_too_deep_exit2(tmp_path, capsys, which):
    """Instance and solution files nested too deep to parse exit 2 with a
    schema error at the root, not a RecursionError traceback."""
    deep, inst = tmp_path / "deep.json", tmp_path / "c4.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    inst.write_text(json.dumps(C4_CHORDAL))
    argv = {
        "solve": ["solve", "--input", str(deep)],
        "verify-input": ["verify", "--input", str(deep), "--solution", str(deep)],
        "verify-solution": ["verify", "--input", str(inst), "--solution", str(deep)],
    }[which]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error: : not valid JSON: maximum recursion depth exceeded")


NOT_UTF8 = b'\xff\xfe{"format": 1}'


@pytest.mark.parametrize("which", ["solve", "verify-input", "verify-solution"])
def test_not_utf8_exit2(tmp_path, capsys, which):
    """Instance and solution files that are not UTF-8 exit 2 with a schema
    error at the root, not a UnicodeDecodeError traceback."""
    bad, inst = tmp_path / "bad.json", tmp_path / "c4.json"
    bad.write_bytes(NOT_UTF8)
    inst.write_text(json.dumps(C4_CHORDAL))
    argv = {
        "solve": ["solve", "--input", str(bad)],
        "verify-input": ["verify", "--input", str(bad)],
        "verify-solution": ["verify", "--input", str(inst), "--solution", str(bad)],
    }[which]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error: : not valid UTF-8: ")


def test_verify_dir_reports_every_utf8_file_before_exit2(tmp_path, capsys):
    """A file of ``verify --input DIR`` that is not UTF-8 exits 2 only after
    the files sorted before and after it got their RunReports."""
    text = (GOLDEN / "interval-1.json").read_text()
    (tmp_path / "a.json").write_text(text)
    (tmp_path / "m.json").write_bytes(NOT_UTF8)
    (tmp_path / "y.json").write_text(text)
    assert run(["verify", "--input", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["instance"] for r in reports] == ["a.json", "y.json"]
    assert all(r["ok"] for r in reports)
    assert err.startswith("schema error: : not valid UTF-8: ")


def test_verify_timings_time_every_entry(capsys):
    """``--timings`` adds ``wall_ms`` to every algorithm entry, the budget
    solver's included, and changes nothing else in the report."""
    path = str(GOLDEN / "budget-unweighted-1.json")
    assert run(["verify", "--input", path, "--timings"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert sorted(timed["algorithms"]) == ["greedy", "lropcost", "opcost", "unweighted"]
    assert all(isinstance(entry.pop("wall_ms"), float) for entry in timed["algorithms"].values())
    assert run(["verify", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out) == timed


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled):
    """solve, order and verify pause the collector only while they run, on
    success (exit 0), on a schema error (2) and on a non-chordal graph (4)."""
    ok, bad, c4 = tmp_path / "ok.json", tmp_path / "bad.json", tmp_path / "c4.json"
    ok.write_text((GOLDEN / "interval-1.json").read_text())
    bad.write_text('{"format": "auctol/1", "bids": 7}')
    c4.write_text(json.dumps(C4_CHORDAL))
    inside = []
    load = instances.load_instance
    monkeypatch.setattr(instances, "load_instance", lambda path: inside.append(gc.isenabled()) or load(path))
    cases = [
        (["solve", "--input", str(ok), "--output", str(tmp_path / "sol.json")], 0),
        (["order", "--input", str(ok), "--method", "chordal", "--output", str(tmp_path / "ord.json")], 0),
        (["verify", "--input", str(ok)], 0),
        (["solve", "--input", str(bad)], 2),
        (["order", "--input", str(bad), "--method", "chordal"], 2),
        (["solve", "--input", str(c4)], 4),
        (["order", "--input", str(c4), "--method", "chordal"], 4),
    ]
    try:
        for argv, code in cases:
            (gc.enable if enabled else gc.disable)()
            assert run(argv) == code, argv
            assert gc.isenabled() is enabled, argv
    finally:
        gc.enable()
    assert inside == [False] * len(cases)


def test_verify_directory_turns_the_collector_back_on_between_files(tmp_path, monkeypatch, capsys):
    for name in ("interval-1.json", "grid-1.json", "tight-1.json"):
        (tmp_path / name).write_text((GOLDEN / name).read_text())
    states = []
    verify, load = cli.verify_instance, instances.load_instance
    monkeypatch.setattr(cli, "verify_instance", lambda *a, **k: states.append(("between", gc.isenabled())) or verify(*a, **k))
    monkeypatch.setattr(instances, "load_instance", lambda path: states.append(("inside", gc.isenabled())) or load(path))
    assert gc.isenabled()
    assert run(["verify", "--input", str(tmp_path)]) == 0
    assert states == [("between", True), ("inside", False)] * 3
    assert gc.isenabled()


def test_pause_frees_earlier_cyclic_garbage_first(tmp_path, monkeypatch):
    """Cyclic garbage made before a run is freed before the pipeline starts,
    not kept alive through it while the collector is paused."""

    class Node:
        pass

    node = Node()
    node.loop = node
    ref = weakref.ref(node)
    del node
    freed = []
    load = instances.load_instance
    monkeypatch.setattr(instances, "load_instance", lambda path: freed.append(ref() is None) or load(path))
    assert gc.isenabled()
    assert run(["solve", "--input", str(GOLDEN / "interval-1.json"), "--output", str(tmp_path / "sol.json")]) == 0
    assert freed == [True]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_import_does_not_touch_the_collector(enabled):
    code = (
        "import gc\n"
        f"{'gc.enable()' if enabled else 'gc.disable()'}\n"
        "before = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())\n"
        "import auctol, auctol.cli\n"
        "assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == before, before\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=CHILD_ENV)


def test_import_does_not_pin_the_mmap_threshold():
    """The mmap threshold is pinned by ``cli.run``, not on import: importing
    the package loads no ``ctypes``."""
    code = "import sys\nimport auctol, auctol.cli\nassert 'ctypes' not in sys.modules\n"
    subprocess.run([sys.executable, "-c", code], check=True, env=CHILD_ENV)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
def test_a_later_request_peaks_no_higher_than_the_first(tmp_path):
    """With glibc's dynamic mmap threshold, the blocks a first request frees
    move the large blocks of later requests onto the heap, which is not
    given back; each later ``solve`` then peaked about 6 MB higher on this
    5 MB file."""
    path = tmp_path / "inst.json"
    save_instance(gen_interval(20000, seed=1), path)
    code = (
        "import sys\n"
        "from auctol import cli\n"
        "def hwm_kb():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM'))\n"
        "peaks = []\n"
        "for _ in range(3):\n"
        "    assert cli.run(['solve', '--input', sys.argv[1], '--output', sys.argv[2]]) == 0\n"
        "    peaks.append(hwm_kb())\n"
        "print(peaks[0], peaks[2])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path), str(tmp_path / "sol.json")],
        capture_output=True, text=True, check=True, env=CHILD_ENV,
    )
    first, third = map(int, proc.stdout.split())
    assert third - first <= 2 * 1024, (first, third)


FRONTIER_BOUND_2 = {
    "format": "auctol/1",
    "bids": [
        {"id": "a", "objects": ["x", "y"], "price": 10},
        {"id": "b", "objects": ["x"], "price": 9},
        {"id": "c", "objects": ["y"], "price": 9},
    ],
    "ordering_spec": {
        "method": "explicit",
        "permutation": ["a", "b", "c"],
        "frontier_sets": {"a": ["x", "y"], "b": ["x"], "c": ["y"]},
    },
}

C4_DECREASING_WEIGHT = dict(C4_CHORDAL, ordering_spec={"method": "decreasing-weight"})


@pytest.mark.parametrize(
    "inst,stated,violations",
    [
        (C4_DECREASING_WEIGHT, 1, [
            "stated beta bound 1 is not certified: the ordering certifies no bound",
            "stated beta bound 1 below exact beta 2",
        ]),
        (C4_DECREASING_WEIGHT, 2, ["stated beta bound 2 is not certified: the ordering certifies no bound"]),
        (FRONTIER_BOUND_2, 1, [
            "stated beta bound 1 is not certified: the ordering certifies bound 2",
            "stated beta bound 1 below exact beta 2",
        ]),
        (FRONTIER_BOUND_2, 2, []),
        (FRONTIER_BOUND_2, 3, []),
    ],
)
def test_verify_checks_the_stated_beta_bound(tmp_path, capsys, inst, stated, violations):
    """A beta bound written into the file passes verify only when the
    ordering certifies it, that is certifies the same bound or a tighter one."""
    doc = dict(inst, ordering_spec=dict(inst["ordering_spec"], beta_bound=stated))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", "--input", str(path)]) == (5 if violations else 0)
    report = json.loads(capsys.readouterr().out)
    assert report["beta_exact"] == 2
    assert report["violations"] == violations


def test_unreadable_paths_exit2(tmp_path, capsys):
    """A path that exists but cannot be read or written as a file exits 2
    with a message, not a traceback; a missing file keeps its message."""
    golden = str(GOLDEN / "interval-1.json")
    corpus = tmp_path / "corpus"
    (corpus / "x.json").mkdir(parents=True)
    cases = [
        (["solve", "--input", str(GOLDEN)], "file error: "),
        (["verify", "--input", str(corpus)], "file error: "),
        (["solve", "--input", golden, "--output", str(tmp_path)], "file error: "),
        (["verify", "--input", golden, "--solution", str(tmp_path)], "file error: "),
        (["solve", "--input", str(tmp_path / "absent.json")], "missing file: "),
    ]
    for argv, prefix in cases:
        assert run(argv) == 2, argv
        assert capsys.readouterr().err.startswith(prefix), argv


def test_verify_dir_reports_every_readable_file_before_an_unreadable_entry(tmp_path, capsys):
    """An entry of ``verify --input DIR`` that cannot be read (here a
    directory named ``x.json``) exits 2 with ``file error:`` only after the
    files sorted before and after it got their RunReports."""
    corpus = tmp_path / "corpus"
    (corpus / "x.json").mkdir(parents=True)
    text = (GOLDEN / "interval-1.json").read_text()
    (corpus / "a.json").write_text(text)
    (corpus / "y.json").write_text(text)
    assert run(["verify", "--input", str(corpus)]) == 2
    out, err = capsys.readouterr()
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["instance"] for r in reports] == ["a.json", "y.json"]
    assert all(r["ok"] for r in reports)
    assert err.startswith("file error: ") and "x.json" in err


def test_verify_solution_with_a_repeated_winner_exit5(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text('{"selected": ["b00", "b00"], "revenue": 455}')
    assert run(["verify", "--input", str(GOLDEN / "interval-1.json"), "--solution", str(sol)]) == 5
    assert capsys.readouterr().err == "violation: selected bid 'b00' is listed more than once\n"
    sol.write_text('{"selected": ["b00"], "revenue": 455}')
    assert run(["verify", "--input", str(GOLDEN / "interval-1.json"), "--solution", str(sol)]) == 0


def test_cached_parser_shares_no_state_between_calls(capsys):
    """The parser is built once per process; the flags of one call do not
    reach the next, whether that call succeeded or failed in argparse."""
    golden = str(GOLDEN / "interval-1.json")
    assert cli.build_parser() is cli.build_parser()

    assert run(["verify", "--input", golden, "--timings"]) == 0
    timed = json.loads(capsys.readouterr().out)["algorithms"]
    assert all("wall_ms" in entry for entry in timed.values())
    assert run(["verify", "--input", golden]) == 0
    plain = json.loads(capsys.readouterr().out)["algorithms"]
    assert plain and not any("wall_ms" in entry for entry in plain.values())

    assert run(["solve", "--input", golden, "--algo", "lropcost"]) == 0
    assert json.loads(capsys.readouterr().out)["algorithm"] == "lropcost"
    assert run(["solve", "--input", golden]) == 0
    assert json.loads(capsys.readouterr().out)["algorithm"] == "opcost"

    for bad in (["solve", "--input", golden, "--algo", "bogus"], ["solve", "--algo", "greedy"]):
        with pytest.raises(SystemExit) as exc:
            run(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(["solve", "--input", golden]) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == "opcost"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--input", str(GOLDEN / "budget-unweighted-1.json")],
            "validation error: --include-zero-value applies only to opcost without budget constraints;"
            " pass --constraints ignore\n",
        ),
        (
            ["--input", str(GOLDEN / "interval-1.json"), "--algo", "lropcost"],
            "validation error: --include-zero-value applies only to opcost without budget constraints\n",
        ),
    ],
    ids=["budget", "lropcost"],
)
def test_include_zero_value_where_it_would_be_ignored_exit2(capsys, argv, message):
    assert run(["solve", *argv, "--include-zero-value"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_include_zero_value_with_plain_opcost(tmp_path, capsys):
    """Plain opcost reads the flag; on a budget instance it applies once the
    constraints are ignored."""
    bids = [Bid("a", {"s"}, 5), Bid("b", {"s"}, 5)]
    path = tmp_path / "tie.json"
    save_instance(Instance(bids, ordering_spec=OrderingSpec("explicit", permutation=["a", "b"])), path)
    assert run(["solve", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["selected"] == ["a"]
    assert run(["solve", "--input", str(path), "--include-zero-value"]) == 0
    assert json.loads(capsys.readouterr().out)["selected"] == ["b"]
    budget = str(GOLDEN / "budget-unweighted-1.json")
    assert run(["solve", "--input", budget, "--constraints", "ignore", "--include-zero-value"]) == 0
    assert json.loads(capsys.readouterr().out)["algorithm"] == "opcost"


def test_planted_optimum_comes_back_as_the_revenue(tmp_path, capsys):
    """A planted-optimal spec that names an exact optimum puts it first, so
    solve and verify return its revenue, which decreasing weight misses on
    this grid."""
    base = gen_grid((3, 4), seed=2)
    g = instances.bid_graph(base)
    best = exact_mwis(g)
    assert opcost(orient(g, decreasing_weight_ordering(g)))[0].revenue < best.revenue
    path = tmp_path / "planted.json"
    save_instance(Instance(base.table, base.object_graph, None, OrderingSpec("planted-optimal", independent_set=best.selected)), path)
    assert run(["solve", "--input", str(path)]) == 0
    sol = json.loads(capsys.readouterr().out)
    assert (sol["revenue"], set(sol["selected"])) == (best.revenue, best.selected)
    assert run(["verify", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["oracle_revenue"] == report["algorithms"]["opcost"]["revenue"] == best.revenue


def test_verify_keeps_the_oracle_where_beta_exact_refuses(tmp_path, capsys):
    """A star of 27 bids, the hub heaviest and first: its 26 successors pass
    beta_exact's cap of 25, so the report has the oracle's revenue but no
    exact beta and no claimed or observed ratio."""
    path = tmp_path / "star.json"
    save_instance(gen_tight(26, 100), path)
    assert run(["verify", "--input", str(path), "--oracle-cap", "30"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and (report["n"], report["oracle_revenue"]) == (27, 26 * 900)
    assert not {"beta_exact", "claimed_ratio", "observed_ratio"} & report.keys()
