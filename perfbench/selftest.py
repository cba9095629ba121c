"""Self-test of the benchmark at tiny sizes (about 20 s).

    python3 perfbench/selftest.py

Checks that every workload runs correctly and prints each metric named in
BENCHMARK.json with its unit, that another seed changes the instance bytes
but not the metric names, and that corrupted outputs (a dropped winner, an
added conflicting winner, a wrong claimed ratio, a failing RunReport) are
counted as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
TINY = wl.SIZES["tiny"]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=wl.ROOT, timeout=120,
    )
    expect(proc.returncode == 0, f"{workload} seed {seed} trace {trace} exits 0")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for name, metric in result["metrics"].items():
        expect(any(line.split()[:1] == [name] and metric["unit"] in line.split() for line in lines[:-1]),
               f"{workload}: {name} printed with its unit")
    return result


def outputs(req: wl.Request, outdir: Path) -> list[str]:
    argvs, files = wl.request_argvs(req, 0, outdir)
    if req.kind == "verify":
        with open(files[0], "w", encoding="utf-8") as fh, redirect_stdout(fh):
            rc = wl.cli.run(argvs[0])
        expect(rc == 0, "verify exits 0")
    else:
        for argv in argvs:
            expect(wl.cli.run(argv) == 0, f"{argv[0]} exits 0")
    return [f.read_text(encoding="utf-8") for f in files]


def corruptions(req: wl.Request, texts: list[str]) -> dict[str, list[str]]:
    """Broken variants of a correct output, keyed by what was broken."""
    if req.kind == "verify":
        report = json.loads(texts[0])
        return {"RunReport with ok false": [json.dumps(dict(report, ok=False)) + "\n"], "missing RunReport": [""]}
    sol = json.loads(texts[-1])
    bids = req.ref["bids"]
    winners = set(sol["selected"])
    owner = {o: u for u in winners for o in bids[u][0]}
    rival = next(u for u, (objs, _) in sorted(bids.items()) if u not in winners and any(o in owner for o in objs))
    variants = {
        "dropped winner": dict(sol, selected=sol["selected"][1:]),
        "added conflicting winner": dict(sol, selected=sorted(winners | {rival}), revenue=sol["revenue"] + bids[rival][1]),
        "wrong claimed_ratio": dict(sol, certificate=dict(sol["certificate"], claimed_ratio=sol["certificate"]["claimed_ratio"] + 1)),
    }
    return {what: texts[:-1] + [json.dumps(v)] for what, v in variants.items()}


def main() -> None:
    declared = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    expect(sorted(w["name"] for w in declared["workloads"]) == sorted(wl.WORKLOADS), "BENCHMARK.json lists every workload")
    for name, spec in wl.WORKLOADS.items():
        for trace in (0, 1):
            result = bench(name, 1, trace)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{name} trace {trace} correct")
            expect({k: v["unit"] for k, v in result["metrics"].items()} == units[trace],
                   f"{name} trace {trace} metrics match BENCHMARK.json")
        other = bench(name, 2, 0)
        expect(sorted(other["metrics"]) == sorted(units[0]), f"{name}: seed 2 prints the same metric names")

        work = wl.ROOT / ".perfbench-work" / "selftest"
        shutil.rmtree(work, ignore_errors=True)
        a, b, out = work / "a", work / "b", work / "out"
        for d in (a, b, out):
            d.mkdir(parents=True)
        reqs = spec.setup(1, a, TINY)
        spec.setup(2, b, TINY)
        expect(wl.digest(a) != wl.digest(b), f"{name}: seed 2 changes the instance bytes")
        texts = outputs(reqs[0], out)
        expect(spec.check(reqs[0], texts) is None, f"{name}: correct output passes the check")
        for what, broken in corruptions(reqs[0], texts).items():
            expect(spec.check(reqs[0], broken) is not None, f"{name}: {what} fails the check")
    print("selftest passed")


if __name__ == "__main__":
    main()
