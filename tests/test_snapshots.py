"""Byte-level snapshots of the command line and the demos.

Pins the exit code and the stdout of ``solve`` (every golden file x every
algorithm x both constraint modes), ``order`` (every golden file x every
method), ``verify --input tests/golden`` and demos 01-03, so a change that
moves one selected bid or one printed byte fails here. ``order`` prints a
whole instance file, so its stdout is pinned by SHA-256; every other stdout
is stored as text. Demo 04 prints a temporary path and timings, so only its
exit code is pinned.

The data lives in ``tests/snapshots/`` (not under ``tests/golden/``, which
holds exactly the generator corpus). After an intended output change,
regenerate it with ``PYTHONPATH=src python tests/test_snapshots.py`` and
review the diff.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from auctol.cli import run

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
DEMOS = HERE.parent / "demos"
DATA = HERE / "snapshots" / "outputs.json"

ALGOS = ("opcost", "lropcost", "greedy", "exact")
METHODS = ("chordal", "tree-decomposition", "grid", "decreasing-weight")
PINNED_DEMOS = ("01_two_solvers_one_answer", "02_orderings_control_quality", "03_budget_constraints")
EXIT_ONLY_DEMOS = ("04_files_generators_verification",)


def cli_cases() -> dict[str, list[str]]:
    cases = {}
    for path in sorted(GOLDEN.glob("*.json")):
        for algo in ALGOS:
            for constraints in ("auto", "ignore"):
                argv = ["solve", "--input", str(path), "--algo", algo, "--constraints", constraints]
                cases[f"solve {path.stem} {algo} {constraints}"] = argv
        for method in METHODS:
            cases[f"order {path.stem} {method}"] = ["order", "--input", str(path), "--method", method]
    cases["verify golden"] = ["verify", "--input", str(GOLDEN)]
    return cases


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    if argv[0] == "order":
        return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}
    return {"exit": code, "stdout": out.getvalue()}


def run_demo(name: str) -> dict:
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")], capture_output=True, text=True, env=env, timeout=300
    )
    return {"exit": proc.returncode, "stdout": proc.stdout}


def _snapshots() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_snapshot_covers_every_case():
    snap = _snapshots()
    assert sorted(snap["cli"]) == sorted(cli_cases())
    assert sorted(snap["demos"]) == sorted(PINNED_DEMOS)


@pytest.mark.parametrize("case", sorted(cli_cases()))
def test_cli_output_unchanged(case):
    expected = _snapshots()["cli"][case]
    assert run_cli(cli_cases()[case]) == expected


@pytest.mark.parametrize("name", PINNED_DEMOS)
def test_demo_output_unchanged(name):
    expected = _snapshots()["demos"][name]
    assert run_demo(name) == {"exit": 0, "stdout": expected}


@pytest.mark.parametrize("name", EXIT_ONLY_DEMOS)
def test_demo_exits_zero(name):
    assert run_demo(name)["exit"] == 0


if __name__ == "__main__":
    snap = {
        "cli": {case: run_cli(argv) for case, argv in cli_cases().items()},
        "demos": {name: run_demo(name)["stdout"] for name in PINNED_DEMOS},
    }
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DATA}")
