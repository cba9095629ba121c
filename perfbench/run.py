"""End-to-end benchmark of the auctol command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up generates the workload's instance
files from ``--seed`` and computes reference answers, three times, and
reports the median as ``setup_s``. A child process then serves requests
through ``auctol.cli.run`` in a closed loop with one client, for ``--seconds``
seconds. Every output is checked afterwards. With ``--trace 1`` a second child
replays a fixed number of the same requests stage by stage with spans, and
the per-layer metrics are printed instead of the end-to-end ones. Every time
is corrected for the machine's speed at the moment it was taken
(``speed.py``); the figures without that correction are printed too.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it print every metric with its
unit, the sample counts and ``failed_share``. Workloads, metrics and the
layer-to-end-to-end predictions are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import workloads as wl
from speed import Speedometer

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "elements_per_s": "elements/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "instances.load_s": "s",
    "instances.load_ns_per_byte": "ns/B",
    "instances.bytes_in": "B",
    "instances.dump_s": "s",
    "instances.bytes_out": "B",
    "instances.certify_s": "s",
    "graphs.build_s": "s",
    "graphs.build_ns_per_element": "ns/element",
    "graphs.elements": "elements",
    "graphs.beta_exact_s": "s",
    "orderings.order_s": "s",
    "orderings.order_ns_per_element": "ns/element",
    "orderings.lexbfs_s": "s",
    "orderings.td_heuristic_s": "s",
    "orderings.td_ordering_s": "s",
    "orderings.td_validate_s": "s",
    "solvers.compile_s": "s",
    "solvers.opcost_s": "s",
    "solvers.lropcost_s": "s",
    "solvers.exact_mwis_s": "s",
    "solvers.positive_value_nodes": "count",
    "solvers.selected": "count",
    "solvers.selected_per_positive": "ratio",
    "budgets.unweighted_s": "s",
    "budgets.overlapping_s": "s",
    "budgets.weighted_s": "s",
    "budgets.crosscheck_s": "s",
    "budgets.exact_feasible_s": "s",
    "budgets.check_feasible_s": "s",
    "budgets.fraction_path_requests": "count",
    "budgets.heavy_bids": "count",
    "budgets.light_bids": "count",
    "cli.self_s": "s",
    "gc.pause_s": "s",
    "gc.collections_gen2": "count",
    "trace.overhead_ratio": "ratio",
}


def _child(mode: str, plan: dict, plan_path: Path) -> dict:
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, str(plan_path)], stdout=sys.stderr, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {mode} child exited with code {proc.returncode}")
    return json.loads(Path(plan["result"]).read_text(encoding="utf-8"))


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def pin_to_last_cpu() -> None:
    """Run this process and its children on the highest-numbered CPU they may
    use. On a shared virtual machine the CPUs' speeds differ and change
    independently; a process that migrated mid-request would mix them, and
    the speed samples (``speed.py``) would no longer match the request."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {max(cpus)})


def latency_percentiles(ms: list[float], round_size: int) -> dict[str, float]:
    """p50 and p90 over rounds: one sample is the mean ms of a request over
    one whole round of the workload's instances, so that a mix of request
    kinds does not decide which kind the percentile lands on."""
    rounds = [statistics.fmean(ms[i : i + round_size]) for i in range(0, len(ms), round_size)]
    p90 = statistics.quantiles(rounds, n=10, method="inclusive")[8] if len(rounds) > 1 else rounds[0]
    return {"request_ms_p50": statistics.median(rounds), "request_ms_p90": p90}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    spec = wl.WORKLOADS[workload]
    work = _fresh(wl.ROOT / ".perfbench-work" / workload)
    inputs = work / "inputs"

    setup_spans, digests = [], set()
    with Speedometer() as speed:
        for _ in range(SETUP_REPEATS):
            _fresh(inputs)
            t0 = speed.clock()
            reqs = spec.setup(seed, inputs, wl.SIZES[scale])
            setup_spans.append((t0, speed.clock()))
            digests.add(wl.digest(inputs))
    setup_times = [(t1 - t0, speed.factor(t0, t1)) for t0, t1 in setup_spans]

    outdir = _fresh(work / "out")
    plan = {
        "requests": [asdict(r) | {"ref": {}} for r in reqs],
        "round": spec.round,
        "min_requests": spec.replay_requests,
        "seconds": seconds,
        "outdir": str(outdir),
    }
    serve_result = work / "serve.json"
    served = _child("serve", plan | {"result": str(serve_result)}, work / "serve-plan.json")

    failures: dict[int, str] = {}
    for k, rcs in enumerate(served["rc"]):
        req = reqs[k % len(reqs)]
        _argvs, files = wl.request_argvs(req, k, outdir)
        if any(rc != 0 for rc in rcs):
            failures[k] = f"exit codes {rcs}"
            continue
        problem = spec.check(req, [f.read_text(encoding="utf-8") for f in files])
        if problem:
            failures[k] = problem

    raw_ms, factors = served["ms"], served["factor"]
    elements = sum(reqs[k % len(reqs)].elements for k in range(len(raw_ms)))
    e2e = {
        "elements_per_s": elements / sum(ms / 1000.0 / f for ms, f in zip(raw_ms, factors)),
        **latency_percentiles([ms / f for ms, f in zip(raw_ms, factors)], spec.round),
        "peak_rss_mb": served["peak_rss_mb"],
        "setup_s": statistics.median(t / f for t, f in setup_times),
    }
    raw = {
        "elements_per_s": elements / sum(raw_ms) * 1000.0,
        **latency_percentiles(raw_ms, spec.round),
        "setup_s": statistics.median(t for t, _ in setup_times),
        "speed_factor_p50": statistics.median(factors),
    }
    layers = None
    if trace:
        traced = _child(
            "replay",
            plan
            | {
                "serve_result": str(serve_result),
                "replay_outdir": str(_fresh(work / "replay")),
                "spans": str(work / "spans.jsonl"),
                "result": str(work / "replay.json"),
            },
            work / "replay-plan.json",
        )
        for k in traced["mismatched"]:
            failures.setdefault(k, "traced replay output differs from cli.run output")
        layers = traced["metrics"]

    return {
        "workload": workload,
        "seed": seed,
        "deterministic": len(digests) == 1,
        "attempted": len(raw_ms),
        "failures": failures,
        "end_to_end": e2e,
        "raw": raw,
        "per_layer": layers,
    }


def report(res: dict) -> dict:
    """Print every metric with its unit; return the result object."""
    attempted, failed = res["attempted"], len(res["failures"])
    print(f"{res['workload']} seed={res['seed']}: {attempted} requests, {failed} failed, failed_share {failed / attempted}")
    for k, problem in sorted(res["failures"].items())[:5]:
        print(f"  request {k} failed: {problem}", file=sys.stderr)
    if not res["deterministic"]:
        print("  set-up is not deterministic: repeated set-ups wrote different inputs", file=sys.stderr)
    rounds = attempted // wl.WORKLOADS[res["workload"]].round
    for name, value in res["end_to_end"].items():
        samples = f" (n={rounds} rounds)" if name.startswith("request_ms") else ""
        print(f"  {name} {value} {END_TO_END_UNITS[name]}{samples}")
    print("  without speed correction: " + ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
    if res["per_layer"] is not None:
        for name, value in res["per_layer"].items():
            print(f"  {name} {value} {PER_LAYER_UNITS[name]}")
    chosen, units = (
        (res["per_layer"], PER_LAYER_UNITS) if res["per_layer"] is not None else (res["end_to_end"], END_TO_END_UNITS)
    )
    return {
        "correct": res["deterministic"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(wl.SIZES), default="full", help="instance sizes; tiny is for the self-test")
    args = p.parse_args(argv)
    pin_to_last_cpu()
    res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(report(res)))


if __name__ == "__main__":
    main()
