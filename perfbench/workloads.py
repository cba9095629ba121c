"""Workload inputs, reference answers and output checks.

Every workload is a function of ``--seed``: set-up generates the instance
files with the package's generators, then computes reference answers. Where
the benchmark can, it computes them with its own code from the file bytes
(an interval DP, a conflict counter, a feasibility checker), so the checks do
not trust the program. Two references come from the program on purpose: the
``--algo lropcost`` cross-check of the budget solvers, and the chordal
``solve`` revenue that bounds the tree-decomposition ratio.

Checks run after the timed phase. A request fails on a non-zero exit code or
on any mismatch.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "auctol" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no auctol package under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

from auctol import cli, instances  # noqa: E402

WEIGHTS = (1, 1000)

# Instance sizes. "full" is what the benchmark measures; "tiny" is for the
# self-test, which must finish in seconds.
SIZES = {
    "full": {
        "interval_bids": 40_000,
        "budget_bids": 20_000,
        "weighted_bids": 5_000,
        "tree_size": 1_500,
        "subtree_bids": 3_000,
        "corpus_per_family": 250,
    },
    "tiny": {
        "interval_bids": 300,
        "budget_bids": 300,
        "weighted_bids": 120,
        "tree_size": 40,
        "subtree_bids": 80,
        "corpus_per_family": 2,
    },
}


@dataclass
class Request:
    """One closed-loop request. ``kind`` is ``solve``, ``pair`` (``order
    --method tree-decomposition`` then ``solve`` on its output) or
    ``verify``; ``elements`` is |V|+|E| of the instance's bid graph."""

    kind: str
    input: str
    elements: int
    ref: dict = field(default_factory=dict)


@dataclass
class Workload:
    setup: Callable[[int, Path, dict], list[Request]]
    check: Callable[[Request, list[str]], str | None]
    # requests served per balanced round; a run stops only at a round's end
    round: int
    # requests the traced run replays: a fixed number of whole rounds, which
    # the timed loop always serves, so that layer sums do not follow throughput
    replay_requests: int


def request_argvs(req: Request, k: int, outdir: Path) -> tuple[list[list[str]], list[Path]]:
    """The ``cli.run`` argument lists of the k-th request and the files they write."""
    if req.kind == "solve":
        out = outdir / f"r{k:05d}-0.json"
        return [["solve", "--input", req.input, "--output", str(out)]], [out]
    if req.kind == "pair":
        ordered, sol = outdir / f"r{k:05d}-0.json", outdir / f"r{k:05d}-1.json"
        return [
            ["order", "--input", req.input, "--method", "tree-decomposition", "--output", str(ordered)],
            ["solve", "--input", str(ordered), "--output", str(sol)],
        ], [ordered, sol]
    return [["verify", "--input", req.input]], [outdir / f"r{k:05d}-0.json"]  # its stdout


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _sub_seed(seed: int, label: str) -> int:
    return random.Random(f"{label}:{seed}").getrandbits(32)


# ---------------------------------------------------------------------------
# the benchmark's own view of an instance file


def _plain_bids(obj: dict) -> dict[str, tuple[frozenset, int]]:
    return {b["id"]: (frozenset(b["objects"]), b["price"]) for b in obj["bids"]}


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _conflicts(bids: dict[str, tuple[frozenset, int]]) -> int:
    """Number of bid pairs sharing an object."""
    holders: dict[str, list[int]] = {}
    for i, (objs, _) in enumerate(bids.values()):
        for o in objs:
            holders.setdefault(o, []).append(i)
    pairs = set()
    for hs in holders.values():
        for x in range(len(hs)):
            for y in range(x + 1, len(hs)):
                pairs.add((hs[x], hs[y]))
    return len(pairs)


def _intervals(bids: dict[str, tuple[frozenset, int]]) -> list[tuple[int, int, int]]:
    """(start, end, price) per bid; interval bids own the points p<start>..p<end>."""
    out = []
    for u, (objs, price) in bids.items():
        pts = sorted(int(o[1:]) for o in objs)
        if pts[-1] - pts[0] + 1 != len(pts):
            raise ValueError(f"bid {u!r} is not an interval")
        out.append((pts[0], pts[-1], price))
    return out


def _interval_conflicts(ivs: list[tuple[int, int, int]]) -> int:
    """Overlapping closed-interval pairs, by a sweep over start points."""
    ivs = sorted(ivs)
    starts = [a for a, _, _ in ivs]
    return sum(bisect.bisect_right(starts, e) - i - 1 for i, (_, e, _) in enumerate(ivs))


def _interval_optimum(ivs: list[tuple[int, int, int]]) -> int:
    """Weighted interval scheduling DP: the exact maximum revenue."""
    ivs = sorted(ivs, key=lambda iv: iv[1])
    ends = [e for _, e, _ in ivs]
    best = [0] * (len(ivs) + 1)
    for i, (a, _, w) in enumerate(ivs):
        best[i + 1] = max(best[i], w + best[bisect.bisect_left(ends, a)])
    return best[-1]


def _ratio(value) -> Fraction:
    return Fraction(value) if not isinstance(value, str) else Fraction(*map(int, value.split("/")))


def _feasibility(sol: dict, bids: dict[str, tuple[frozenset, int]]) -> str | None:
    """No unknown or repeated winner, no object sold twice, revenue = sum of prices."""
    selected = sol["selected"]
    if len(set(selected)) != len(selected):
        return "a winner is listed twice"
    owner: dict[str, str] = {}
    for u in selected:
        if u not in bids:
            return f"winner {u!r} is not a bid"
        for o in bids[u][0]:
            if o in owner:
                return f"winners {owner[o]!r} and {u!r} share object {o!r}"
            owner[o] = u
    total = sum(bids[u][1] for u in selected)
    if sol["revenue"] != total:
        return f"revenue {sol['revenue']} != sum of winning prices {total}"
    return None


def _guarded(check):
    """Turn malformed output (bad JSON, missing keys) into a failure message."""

    def wrapped(req: Request, texts: list[str]) -> str | None:
        try:
            return check(req, texts)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            return f"malformed output: {exc!r}"

    return wrapped


# ---------------------------------------------------------------------------
# interval-solve: one large chordal auction; beta = 1, so solve must be exact


def setup_interval(seed: int, work: Path, sizes: dict) -> list[Request]:
    path = work / "interval.json"
    inst = instances.gen_interval(sizes["interval_bids"], WEIGHTS, _sub_seed(seed, "interval"))
    instances.save_instance(inst, path)
    bids = _plain_bids(_read(path))
    ivs = _intervals(bids)
    ref = {"bids": bids, "optimum": _interval_optimum(ivs)}
    return [Request("solve", str(path), len(bids) + _interval_conflicts(ivs), ref)]


@_guarded
def check_interval(req: Request, texts: list[str]) -> str | None:
    sol = json.loads(texts[0])
    problem = _feasibility(sol, req.ref["bids"])
    if problem:
        return problem
    if sol["revenue"] != req.ref["optimum"]:
        return f"revenue {sol['revenue']} != DP optimum {req.ref['optimum']}"
    if sol["certificate"] != {"beta_bound": 1, "claimed_ratio": 1}:
        return f"chordal certificate expected, got {sol['certificate']}"
    return None


# ---------------------------------------------------------------------------
# budget-solve: the three budget solvers on interval bids without an object graph


def _budget_specs(sizes: dict) -> list[tuple[str, dict]]:
    return [
        ("unweighted", {"n": sizes["budget_bids"], "k_max": 3, "group_size": 4}),
        ("overlapping", {"n": sizes["budget_bids"], "k_max": 3, "t": 2}),
        ("weighted", {"n": sizes["weighted_bids"]}),
    ]


def setup_budget(seed: int, work: Path, sizes: dict) -> list[Request]:
    out = []
    for kind, params in _budget_specs(sizes):
        path = work / f"budget-{kind}.json"
        params = dict(params, weight_range=WEIGHTS, include_object_graph=False)
        instances.save_instance(instances.gen_budget("interval", kind, params, _sub_seed(seed, kind)), path)
        obj = _read(path)
        bids = _plain_bids(obj)
        groups = [(frozenset(g["members"]), g["b" if kind == "weighted" else "k"]) for g in obj["constraints"]["groups"]]
        per_bid: dict[str, int] = {}
        for members, _ in groups:
            for u in members:
                per_bid[u] = per_bid.get(u, 0) + 1
        claimed = {"unweighted": 2, "overlapping": 1 + max(per_bid.values()), "weighted": 5}[kind]
        lr_path = work / f"budget-{kind}.lropcost.json"
        if cli.run(["solve", "--algo", "lropcost", "--input", str(path), "--output", str(lr_path)]) != 0:
            raise RuntimeError(f"lropcost cross-check failed on {path.name}")
        cross = _read(lr_path)["selected"]
        lr_path.unlink()
        ref = {"kind": kind, "bids": bids, "groups": groups, "claimed": claimed, "cross": cross}
        out.append(Request("solve", str(path), len(bids) + _interval_conflicts(_intervals(bids)), ref))
    return out


@_guarded
def check_budget(req: Request, texts: list[str]) -> str | None:
    sol = json.loads(texts[0])
    ref = req.ref
    problem = _feasibility(sol, ref["bids"])
    if problem:
        return problem
    chosen = set(sol["selected"])
    for members, limit in ref["groups"]:
        inside = chosen & members
        used = sum(ref["bids"][u][1] for u in inside) if ref["kind"] == "weighted" else len(inside)
        if used > limit:
            return f"a group uses {used} over its limit {limit}"
    if sorted(chosen) != ref["cross"]:
        return "selection differs from the --algo lropcost cross-check"
    if sol["algorithm"] != ref["kind"] or _ratio(sol["certificate"]["claimed_ratio"]) != ref["claimed"]:
        return f"expected {ref['kind']} with claimed ratio {ref['claimed']}, got {sol['algorithm']} {sol['certificate']}"
    return None


# ---------------------------------------------------------------------------
# treedec-order-solve: min-degree decomposition, frontier ordering, instance writer


TREEDEC_INSTANCES = 3  # the cost per element varies by tree; a run averages several


def setup_treedec(seed: int, work: Path, sizes: dict) -> list[Request]:
    out = []
    for i in range(TREEDEC_INSTANCES):
        path = work / f"subtrees-{i}.json"
        inst = instances.gen_subtrees(sizes["tree_size"], sizes["subtree_bids"], _sub_seed(seed, f"subtrees-{i}"), WEIGHTS)
        instances.save_instance(inst, path)
        obj = _read(path)
        bids = _plain_bids(obj)
        chordal = work / f"subtrees-{i}.chordal.json"
        if cli.run(["solve", "--input", str(path), "--output", str(chordal)]) != 0:
            raise RuntimeError(f"chordal reference solve failed on {path.name}")
        ref = {"bids": bids, "bid_entries": obj["bids"], "chordal_revenue": _read(chordal)["revenue"]}
        chordal.unlink()
        out.append(Request("pair", str(path), len(bids) + _conflicts(bids), ref))
    return out


@_guarded
def check_treedec(req: Request, texts: list[str]) -> str | None:
    ordered, sol = json.loads(texts[0]), json.loads(texts[1])
    if ordered["bids"] != req.ref["bid_entries"]:
        return "order rewrote the bids"
    spec = ordered["ordering_spec"]
    if spec["method"] != "tree-decomposition":
        return f"order wrote method {spec['method']!r}"
    width_plus_one = max(len(bag) for bag in spec["tree_decomposition"]["bags"].values())
    problem = _feasibility(sol, req.ref["bids"])
    if problem:
        return problem
    ratio = _ratio(sol["certificate"]["claimed_ratio"])
    if ratio != width_plus_one:
        return f"claimed ratio {ratio} != decomposition width + 1 = {width_plus_one}"
    if sol["revenue"] * ratio < req.ref["chordal_revenue"]:
        return f"revenue {sol['revenue']} x {ratio} is below the chordal optimum {req.ref['chordal_revenue']}"
    return None


# ---------------------------------------------------------------------------
# verify-corpus: many tiny instances, dominated by the exact oracles


def _corpus_families() -> dict[str, Callable[[int], object]]:
    """Every generator family at <= 20 bids, so every oracle runs."""
    return {
        "interval": lambda s: instances.gen_interval(18, WEIGHTS, s),
        "interval-selection": lambda s: instances.gen_interval_selection(5, 4, s, WEIGHTS),
        "subtrees": lambda s: instances.gen_subtrees(10, 18, s, WEIGHTS),
        "grid": lambda s: instances.gen_grid((4, 5), 900, WEIGHTS, s),
        "tight": lambda s: instances.gen_tight(2 + s % 10, 1 + s % 999, s),
        "budget-unweighted": lambda s: instances.gen_budget("interval", "unweighted", {"n": 18}, s),
        "budget-overlapping": lambda s: instances.gen_budget("interval", "overlapping", {"n": 18, "t": 2}, s),
        "budget-weighted": lambda s: instances.gen_budget(
            "subtrees", "weighted", {"tree_size": 10, "n_bids": 18}, s
        ),
    }


def setup_corpus(seed: int, work: Path, sizes: dict) -> list[Request]:
    rng = random.Random(f"corpus:{seed}")
    out = []
    # interleaved by family, so every prefix of a run has the same mix
    for i in range(sizes["corpus_per_family"]):
        for family, gen in _corpus_families().items():
            path = work / f"{i:04d}-{family}.json"
            instances.save_instance(gen(rng.getrandbits(32)), path)
            bids = _plain_bids(_read(path))
            out.append(Request("verify", str(path), len(bids) + _conflicts(bids), {"name": path.name}))
    return out


@_guarded
def check_corpus(req: Request, texts: list[str]) -> str | None:
    lines = texts[0].splitlines()
    if len(lines) != 1:
        return f"expected one RunReport line, got {len(lines)}"
    report = json.loads(lines[0])
    if report["instance"] != req.ref["name"]:
        return f"report names {report['instance']!r}"
    if report["ok"] is not True:
        return f"RunReport not ok: {report.get('violations')}"
    return None


WORKLOADS = {
    "interval-solve": Workload(setup_interval, check_interval, round=1, replay_requests=2),
    "budget-solve": Workload(setup_budget, check_budget, round=3, replay_requests=3),
    "treedec-order-solve": Workload(setup_treedec, check_treedec, round=TREEDEC_INSTANCES, replay_requests=TREEDEC_INSTANCES),
    "verify-corpus": Workload(setup_corpus, check_corpus, round=len(_corpus_families()), replay_requests=50 * len(_corpus_families())),
}
