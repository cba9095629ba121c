"""Child process of the benchmark: the timed loop, or the traced replay.

    python3 perfbench/child.py serve <plan.json>
    python3 perfbench/child.py replay <plan.json>

``serve`` is a closed loop with one client: it calls ``auctol.cli.run`` for
one request at a time until the plan's seconds have passed, at least
``min_requests`` were served and a balanced round of requests is complete,
sampling the machine's speed meanwhile (see ``speed.py``). It writes each
request's time, its speed factor and exit codes, and the peak resident
memory of this process. ``verify`` prints its report, so its stdout
goes to the request's output file. The loop runs in its own process, started
after set-up, and reads the peak from ``VmHWM``, which belongs to the memory
of this program alone: instance generation does not set it.

``replay`` replays the first ``min_requests`` requests ``serve`` answered,
stage by stage with spans, checks that each replay writes the bytes
``serve`` wrote, and writes the per-layer metrics and the spans.
"""

from __future__ import annotations

import json
import sys
import traceback
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

from workloads import Request, cli, request_argvs

import replay as rp
from spans import Tracer
from speed import Speedometer


def _requests(plan: dict) -> list[Request]:
    return [Request(**r) for r in plan["requests"]]


def _call(argv: list[str]) -> int:
    try:
        return cli.run(argv)
    except Exception:  # a crash fails the request; the loop goes on
        traceback.print_exc()
        return -1


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space. Unlike
    ``ru_maxrss``, ``VmHWM`` starts afresh at exec, so the parent's set-up
    does not count."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def serve(plan: dict) -> dict:
    reqs = _requests(plan)
    outdir = Path(plan["outdir"])
    spans: list[tuple[float, float]] = []
    exit_codes: list[list[int]] = []
    with Speedometer() as speed:
        start = speed.clock()
        while speed.clock() - start < plan["seconds"] or len(spans) < plan["min_requests"] or len(spans) % plan["round"]:
            k = len(spans)
            req = reqs[k % len(reqs)]
            argvs, files = request_argvs(req, k, outdir)
            t0 = speed.clock()
            if req.kind == "verify":
                with open(files[0], "w", encoding="utf-8") as fh, redirect_stdout(fh):
                    rcs = [_call(argvs[0])]
            else:
                rcs = [_call(argv) for argv in argvs]
            spans.append((t0, speed.clock()))
            exit_codes.append(rcs)
    return {
        "ms": [(t1 - t0) * 1000.0 for t0, t1 in spans],
        "factor": [speed.factor(t0, t1) for t0, t1 in spans],
        "rc": exit_codes,
        "peak_rss_mb": peak_rss_mb(),
    }


def _replay_one(tr: Tracer, counts: Counter, req: Request, argvs: list[list[str]], files: list[Path]) -> list[str]:
    if req.kind == "solve":
        return [rp.replay_solve(tr, counts, argvs[0])]
    if req.kind == "pair":
        return [rp.replay_order_td(tr, counts, argvs[0]), rp.replay_solve(tr, counts, argvs[1])]
    return [rp.replay_verify(tr, counts, argvs[0], files[0])]


def layer_metrics(tr: Tracer, counts: Counter, factor: dict, traced_elements: int, untraced_eps: float) -> dict[str, float]:
    s = tr.self_seconds(factor)
    elements = counts["graphs.elements"]
    ordering_s = sum(s[n] for n in ("orderings.order", "orderings.lexbfs", "orderings.td_heuristic", "orderings.td_ordering"))
    per = lambda num, den: num / den * 1e9 if den else 0.0  # noqa: E731
    return {
        "instances.load_s": s["instances.load"],
        "instances.load_ns_per_byte": per(s["instances.load"], counts["instances.bytes_in"]),
        "instances.bytes_in": counts["instances.bytes_in"],
        "instances.dump_s": s["instances.dump"],
        "instances.bytes_out": counts["instances.bytes_out"],
        "instances.certify_s": s["instances.certify"],
        "graphs.build_s": s["graphs.build"],
        "graphs.build_ns_per_element": per(s["graphs.build"], elements),
        "graphs.elements": elements,
        "graphs.beta_exact_s": s["graphs.beta_exact"],
        "orderings.order_s": s["orderings.order"],
        "orderings.order_ns_per_element": per(ordering_s, elements),
        "orderings.lexbfs_s": s["orderings.lexbfs"],
        "orderings.td_heuristic_s": s["orderings.td_heuristic"],
        "orderings.td_ordering_s": s["orderings.td_ordering"],
        "orderings.td_validate_s": s["orderings.td_validate"],
        "solvers.compile_s": s["solvers.compile"],
        "solvers.opcost_s": s["solvers.opcost"],
        "solvers.lropcost_s": s["solvers.lropcost"],
        "solvers.exact_mwis_s": s["solvers.exact_mwis"],
        "solvers.positive_value_nodes": counts["solvers.positive_value_nodes"],
        "solvers.selected": counts["solvers.selected"],
        "solvers.selected_per_positive": (
            counts["solvers.selected"] / counts["solvers.positive_value_nodes"] if counts["solvers.positive_value_nodes"] else 0.0
        ),
        "budgets.unweighted_s": s["budgets.unweighted"],
        "budgets.overlapping_s": s["budgets.overlapping"],
        "budgets.weighted_s": s["budgets.weighted"],
        "budgets.crosscheck_s": s["budgets.crosscheck"],
        "budgets.exact_feasible_s": s["budgets.exact_feasible"],
        "budgets.check_feasible_s": s["budgets.check_feasible"],
        "budgets.fraction_path_requests": counts["budgets.fraction_path_requests"],
        "budgets.heavy_bids": counts["budgets.heavy_bids"],
        "budgets.light_bids": counts["budgets.light_bids"],
        "cli.self_s": s["cli"],
        "gc.pause_s": tr.gc_pause_seconds(factor),
        "gc.collections_gen2": tr.gc_gen2,
        "trace.overhead_ratio": traced_elements / tr.unprobed_root_seconds(factor) / untraced_eps,
    }


def replay(plan: dict) -> dict:
    reqs = _requests(plan)
    untraced = json.loads(Path(plan["serve_result"]).read_text(encoding="utf-8"))
    outdir, replay_dir = Path(plan["outdir"]), Path(plan["replay_outdir"])
    n = plan["min_requests"]
    counts: Counter = Counter()
    mismatched = []
    with Speedometer() as speed, Tracer(speed.clock) as tr:
        for k in range(n):
            req = reqs[k % len(reqs)]
            argvs, files = request_argvs(req, k, replay_dir)
            tr.request = k
            try:
                texts = _replay_one(tr, counts, req, argvs, files)
            except Exception:  # a replay that cannot run is a mismatch
                traceback.print_exc()
                mismatched.append(k)
                continue
            if texts != [(outdir / f.name).read_text(encoding="utf-8") for f in files]:
                mismatched.append(k)
    tr.dump(plan["spans"])
    factor = {k: speed.factor(t0, t1) for k, (t0, t1) in tr.request_intervals().items()}
    elements = sum(reqs[k % len(reqs)].elements for k in range(n))
    untraced_eps = elements / sum(untraced["ms"][k] / 1000.0 / untraced["factor"][k] for k in range(n))
    return {"mismatched": mismatched, "metrics": layer_metrics(tr, counts, factor, elements, untraced_eps)}


def main() -> None:
    mode, plan_path = sys.argv[1], sys.argv[2]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    result = serve(plan) if mode == "serve" else replay(plan)
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
