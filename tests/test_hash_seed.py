"""Output does not depend on the interpreter's string hash seed.

A message that names members of a set (a constraint group, a decomposition
bag) names them in id order, not in the set's iteration order, which
``PYTHONHASHSEED`` decides. Each case runs in fresh interpreters under
several seeds, since one process sees only one seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GOLDEN = sorted((TESTS / "golden").glob("*.json"))
SEEDS = ("1", "2", "3", "4")

REPROS = {
    # a and b are in both groups
    "partition.json": {
        "format": "auctol/1",
        "bids": [{"id": u, "objects": ["x"], "price": 1} for u in "abc"],
        "constraints": {
            "kind": "unweighted",
            "groups": [{"label": "g", "members": ["a", "b", "c"], "k": 1}, {"label": "h", "members": ["a", "b"], "k": 1}],
        },
    },
    # p, q and r are not declared objects
    "bag.json": {
        "format": "auctol/1",
        "objects": ["x", "y"],
        "object_edges": [["x", "y"]],
        "bids": [{"id": "a", "objects": ["x", "y"], "price": 1}],
        "ordering_spec": {
            "method": "tree-decomposition",
            "tree_decomposition": {"tree_nodes": ["t0"], "tree_edges": [], "bags": {"t0": ["x", "y", "p", "q", "r"]}},
        },
    },
}

GROUP_INDEX = """
from auctol import budgets
from auctol.budgets import ConstraintSet, Group
from auctol.errors import ValidationError
from auctol.graphs import Bid, Ordering, build_bid_graph, orient

g = orient(build_bid_graph([Bid("a", {"x"}, 1)]), Ordering(["a"]))
try:
    budgets.solve_overlapping(g, ConstraintSet("overlapping", [Group("g", {"a", "p", "q", "r"}, 1)]))
except ValidationError as exc:
    print(exc)
"""

# solve and verify on every file given, in one process; exit codes go to stdout
GUARD = """
import sys
from auctol.cli import run

for path in sys.argv[1:]:
    for command in ("solve", "verify"):
        print(f"== {command} {path}")
        print(f"== {command} {path}", file=sys.stderr)
        print(f"exit {run([command, '--input', path])}")
"""


def _python(seed: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=300)


def _write_repros(tmp_path) -> list[Path]:
    paths = []
    for name, doc in REPROS.items():
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    return paths


@pytest.mark.parametrize(
    "name, message",
    [
        ("partition.json", "bid 'a' is in groups 'g' and 'h'; unweighted constraints must partition the bids"),
        (
            "bag.json",
            "invalid tree decomposition: "
            + "; ".join(f"property 1: bag 't0' contains undeclared object {o!r}" for o in "pqr"),
        ),
    ],
)
def test_cli_messages_name_set_members_in_id_order(tmp_path, name, message):
    _write_repros(tmp_path)
    for seed in SEEDS:
        proc = _python(seed, "-m", "auctol.cli", "solve", "--input", str(tmp_path / name))
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", f"schema error: : {message}\n"), seed


def test_group_index_names_an_unknown_member_in_id_order():
    for seed in SEEDS:
        proc = _python(seed, "-c", GROUP_INDEX)
        assert (proc.stdout.decode(), proc.stderr) == ("group 'g' member 'p' is not a bid node\n", b""), seed


def test_solve_and_verify_write_the_same_bytes_under_two_hash_seeds(tmp_path):
    files = [str(p) for p in GOLDEN + _write_repros(tmp_path)]
    first, second = (_python(seed, "-c", GUARD, *files) for seed in ("1", "2"))
    assert first.returncode == second.returncode == 0, first.stderr.decode()[-2000:]
    assert first.stdout.count(b"exit 0") == 2 * len(GOLDEN)
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
