"""Batch command-line surface.

Subcommands: ``solve`` (run one algorithm on one instance), ``order``
(compute and embed an ordering plus any certifiable beta bound), ``gen``
(write generator output), ``verify`` (run solvers, oracle and exact beta on
a corpus and assert every claimed inequality), ``bench`` (assert the
per-element cost of the linear-time solvers stays flat across sizes).

Exit codes: 0 success, 2 validation failure (in every command, an input
file that cannot be read or that the loader refuses), 3 capacity refusal,
4 chordality recognition failure (witness on stderr), 5 verification
violation.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import budgets, instances, solvers
from .errors import CapacityError, NotChordalError, SchemaError, ValidationError
from .graphs import beta_exact, orient
from .orderings import decreasing_weight_ordering, min_degree_heuristic_decomposition

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_NOT_CHORDAL = 4
EXIT_VIOLATION = 5


def _write_output(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while one instance goes through
    the pipeline, and restore its previous state on the way out. A run
    allocates hundreds of thousands of objects that reference counting
    frees; collector passes over them find almost nothing to collect. An
    enabled collector first collects its youngest generation, so that the
    cyclic garbage made so far (argument parsing leaves some) is not kept
    alive through the run."""
    enabled = gc.isenabled()
    if enabled:
        gc.collect(0)
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@cache
def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its starting value of 128 KiB, once per
    process. By default glibc raises the threshold to the size of each
    mapped block it frees (up to 32 MiB, mallopt(3) M_MMAP_THRESHOLD), so
    after the first request the file text and every large list of later
    requests come from the brk heap, which is not given back to the OS, and
    on a 40k-bid interval file each later request peaked about 10 MB
    higher. Setting the threshold turns that rule off: every block of
    128 KiB or more gets its own mapping and is returned when freed. Does
    nothing where the C library has no ``mallopt``."""
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):  # no C library to load, or no mallopt in it
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 128 * 1024)  # -3 is M_MMAP_THRESHOLD


def _solve_dispatch(inst, g, algo: str, use_constraints: bool, oracle_cap: int, include_zero_value: bool = False):
    cs = inst.constraints if use_constraints else None
    if include_zero_value and (algo != "opcost" or cs is not None):
        hint = "" if algo != "opcost" else "; pass --constraints ignore"
        raise ValidationError(f"--include-zero-value applies only to opcost without budget constraints{hint}")
    if cs is None:
        if algo == "opcost":
            return solvers.opcost(g, include_zero_value=include_zero_value)[0]
        if algo == "lropcost":
            return solvers.lropcost(g)
        if algo == "greedy":
            return solvers.greedy(g)
        return solvers.exact_mwis(g, node_cap=oracle_cap if oracle_cap else 30)
    if algo == "greedy":
        raise ValidationError("greedy has no budget-aware mode; pass --constraints ignore")
    if algo == "exact":
        revenue, chosen = budgets.exact_feasible(g, cs, node_cap=oracle_cap if oracle_cap else 20)
        return solvers.Solution(chosen, revenue, solvers.Certificate("exact"))
    one_pass, cross_check = budgets.SOLVERS_BY_KIND[cs.kind]
    return one_pass(g, cs) if algo == "opcost" else cross_check(g, cs)


def _at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise ValidationError(f"{flag} must be >= {low}; got {value}")


@_collector_paused()
def cmd_solve(args) -> int:
    _at_least(args.cap, 0, "--cap")
    inst = instances.load_instance(args.input)
    g, bound, _method = instances.oriented_graph(inst)
    sol = _solve_dispatch(inst, g, args.algo, args.constraints == "auto", args.cap, args.include_zero_value)
    _write_output(instances.dumps_solution(instances.certify(sol, inst, bound)), args.output)
    return EXIT_OK


@_collector_paused()
def cmd_order(args) -> int:
    inst = instances.load_instance(args.input)
    spec = instances.OrderingSpec(args.method)
    if args.method == "tree-decomposition":
        td = inst.ordering_spec.tree_decomposition if inst.ordering_spec else None
        if td is None:
            if inst.object_graph is None:
                raise ValidationError("tree-decomposition ordering needs an object graph or an embedded decomposition")
            td = min_degree_heuristic_decomposition(inst.object_graph)
        spec.tree_decomposition = td
    elif args.method == "grid":
        if inst.ordering_spec is None or inst.ordering_spec.coords is None:
            raise ValidationError("grid ordering needs coordinates in the instance")
        spec.coords = inst.ordering_spec.coords
    out = instances.Instance(inst.table, inst.object_graph, inst.constraints, spec, inst.metadata)
    if args.method != "decreasing-weight":  # which certifies no bound
        spec.beta_bound, _method = instances.ordering_bound(out)
    _write_output(instances.dumps_instance(out), args.output)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.family != "tight":  # the one family with fixed prices
        _at_least(args.wmin, 0, "--wmin")
    if args.family == "budget":  # gen_budget would clamp these to 1
        for value, flag in ((args.group_size, "--group-size"), (args.k_max, "--k-max"), (args.t, "--t")):
            _at_least(value, 1, flag)
    # one params dict for the base generators, whether run directly or under budget
    params = dict(
        n=args.n, n_bids=args.n, tree_size=args.tree_size, density_milli=args.density_milli,
        weight_range=(args.wmin, args.wmax), group_size=args.group_size, k_max=args.k_max, t=args.t,
    )
    base = args.base_family if args.family == "budget" else args.family
    if base == "grid":
        try:
            params["dims"] = tuple(int(d) for d in args.dims.split("x"))
        except ValueError:
            raise ValidationError(f"--dims must be sizes joined by 'x', like 4x4; got {args.dims!r}") from None
    if args.family in instances.BASE_GENERATORS:
        inst = instances.BASE_GENERATORS[args.family](params, args.seed)
    elif args.family == "interval-selection":
        inst = instances.gen_interval_selection(args.groups, args.per_group, args.seed, (args.wmin, args.wmax))
    elif args.family == "tight":
        inst = instances.gen_tight(args.beta, args.epsilon_milli, args.seed)
    else:
        inst = instances.gen_budget(args.base_family, args.kind, params, args.seed)
    _write_output(instances.dumps_instance(inst), args.output)
    return EXIT_OK


def _check_solution_file(args) -> int:
    inst = instances.load_instance(args.input)
    g = instances.bid_graph(inst)  # feasibility needs no ordering
    sol, selected = instances.load_solution(args.solution)
    # the solution's set hides a winner listed twice
    repeated = sorted(u for u, count in Counter(selected).items() if count > 1)
    _ok, violations = budgets.check_feasible(sol, g, inst.constraints)
    violations = [f"selected bid {u!r} is listed more than once" for u in repeated] + violations
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    return EXIT_VIOLATION if violations else EXIT_OK


@_collector_paused()
def verify_instance(path: Path, oracle_cap: int, timings: bool = False) -> dict:
    """Run every applicable solver plus the oracles on one instance and
    check each claimed inequality. Returns a RunReport dict, or raises
    OSError when the file cannot be read and SchemaError when the loader
    refuses it: such a file is not an instance."""
    report: dict = {"instance": path.name, "ok": True, "violations": []}

    def violate(msg: str) -> None:
        report["ok"] = False
        report["violations"].append(msg)

    inst = instances.load_instance(path)
    try:
        g, bound, method = instances.oriented_graph(inst)
    except (ValidationError, NotChordalError, CapacityError) as exc:
        violate(f"setup failed: {exc}")
        return report
    try:
        _run_checks(report, violate, inst, g, bound, method, oracle_cap, timings)
    except (ValidationError, CapacityError) as exc:
        violate(f"run failed: {exc}")
    return report


def _run_checks(report: dict, violate, inst, g, bound, method, oracle_cap: int, timings: bool) -> None:
    """The solver and oracle part of :func:`verify_instance` on ``g`` and the
    bound ``instances.oriented_graph`` certified for it: fills ``report`` and
    calls ``violate`` on every failed inequality."""
    report["family"] = str(inst.metadata.get("family", "unknown"))
    report["n"] = g.n
    report["m"] = g.m
    algos: dict[str, dict] = {}
    report["algorithms"] = algos

    def run(name, fn, *args):
        """``fn(*args)``, with its solution's entry in the report."""
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        sol = result[0] if isinstance(result, tuple) else result
        entry = {"revenue": sol.revenue, "selected": len(sol.selected)}
        if timings:
            entry["wall_ms"] = round(dt * 1000.0, 3)
        algos[name] = entry
        return result

    op, table = run("opcost", solvers.opcost, g)
    lr = run("lropcost", solvers.lropcost, g)
    if op.selected != lr.selected:
        violate("opcost and lropcost selected different sets")
    if not solvers.verify_value_table(g, table):
        violate("value table fails recomputation")
    run("greedy", solvers.greedy, g)
    for name, sol in (("opcost", op), ("lropcost", lr)):
        ok, violations = budgets.check_feasible(sol, g, None)
        for v in violations:
            violate(f"{name}: {v}")

    cs = inst.constraints
    primary = op
    if cs is not None:
        one_pass, cross_check = budgets.SOLVERS_BY_KIND[cs.kind]
        bsol = run(cs.kind, one_pass, g, cs)
        cross = cross_check(g, cs)
        if bsol.selected != cross.selected:
            violate(f"{cs.kind}: one-pass and local-ratio modes disagree")
        ok, violations = budgets.check_feasible(bsol, g, cs)
        for v in violations:
            violate(f"{cs.kind}: {v}")
        primary = bsol

    if bound is not None:
        report["beta_bound"] = bound
        report["beta_bound_method"] = method
    # the file's own beta bound stands only if the ordering certifies it
    stated = inst.ordering_spec.beta_bound if inst.ordering_spec is not None else None
    if stated is not None and (bound is None or stated < bound):
        certified = "no bound" if bound is None else f"bound {bound}"
        violate(f"stated beta bound {stated} is not certified: the ordering certifies {certified}")

    if g.n <= oracle_cap:
        try:
            beta = beta_exact(g).beta_graph
        except CapacityError:
            beta = None
        opt, _ = budgets.exact_feasible(g, cs, node_cap=oracle_cap)
        report["oracle_revenue"] = opt
        if beta is not None:
            report["beta_exact"] = beta
            if bound is not None and beta > bound:
                violate(f"certified bound {bound} below exact beta {beta}")
            if stated is not None and beta > stated:
                violate(f"stated beta bound {stated} below exact beta {beta}")
            claimed = instances.claimed_ratio(primary.certificate.algorithm, beta, cs)
            report["claimed_ratio"] = str(claimed)
            if primary.revenue == 0:
                if opt > 0:
                    violate("approximation returned zero revenue against positive optimum")
                report["observed_ratio"] = "1"
            else:
                observed = Fraction(opt, primary.revenue)
                report["observed_ratio"] = str(observed)
                if observed > claimed:
                    violate(f"observed ratio {observed} exceeds claimed {claimed}")


def cmd_verify(args) -> int:
    _at_least(args.oracle_cap, 0, "--oracle-cap")
    if args.solution is not None:
        return _check_solution_file(args)
    root = Path(args.input)
    paths = sorted(root.glob("*.json")) if root.is_dir() else [root]
    if not paths:
        raise ValidationError(f"no instance files under {root}")
    any_bad = False
    refused = None  # the first entry that is not an instance, raised once the rest are verified
    for p in paths:
        try:
            report = verify_instance(p, args.oracle_cap, timings=args.timings)
        except (OSError, SchemaError) as exc:  # unreadable, or refused by the loader
            print(f"{p.name}: {exc}", file=sys.stderr)
            refused = refused or exc
            continue
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        if not report["ok"]:
            any_bad = True
            for v in report["violations"]:
                print(f"{p.name}: {v}", file=sys.stderr)
    if refused is not None:
        raise refused
    return EXIT_VIOLATION if any_bad else EXIT_OK


BENCH_FAMILIES = ("interval", "budget-unweighted", "budget-overlapping")


@_collector_paused()
def _bench_instance(family: str, target: int, seed: int):
    # interval bids average ~1.5 conflicts each, so |V|+|E| lands near 2.5n
    n = max(10, int(target / 2.5))
    if family == "interval":
        inst = instances.gen_interval(n, (1, 1000), seed, include_object_graph=False)
    else:
        kind = "unweighted" if family == "budget-unweighted" else "overlapping"
        params = {"n": n, "group_size": 3, "k_max": 1, "t": 1, "include_object_graph": False}
        inst = instances.gen_budget("interval", kind, params, seed)
    g = instances.bid_graph(inst)
    g = orient(g, decreasing_weight_ordering(g))
    return inst, g


def _bench_solvers(family: str, inst, g) -> dict:
    """The timed passes on one fixture, as zero-argument calls. A budget
    family builds its group index here, so that its row times the count
    pass alone."""
    if family == "interval":
        return {"opcost": lambda: solvers.opcost(g), "lropcost": lambda: solvers.lropcost(g)}
    cs = inst.constraints
    gx = budgets.group_index(g, cs)
    return {cs.kind: lambda: solvers.forward_pass(g, gx, cs.kind)}


# A sample times back-to-back calls for at least this long, so that a pass
# of a millisecond is not at the mercy of timer and scheduler noise.
MIN_SAMPLE_S = 0.02
MAX_RATIO = 3.0  # the most the per-element cost may grow from the smallest size to the largest


def interleaved_samples(calls, repeats: int = 3) -> list[tuple[int, float]]:
    """The flatness sampler: time zero-argument ``calls``, each costing the
    same on every call. A warmup call, or a second one when the first is
    shorter than :data:`MIN_SAMPLE_S`, sets the calls per sample. The callables
    then take turns, one sample each, ``repeats`` times, so that a change in
    the machine's speed reaches all alike. Returns each one's calls per
    sample and its fastest sample's time per call."""
    counts = []
    for call in calls:
        for _ in range(2):  # a short first call is timed again without the one-off costs
            t0 = time.perf_counter()
            call()
            dt = time.perf_counter() - t0
            if dt >= MIN_SAMPLE_S:
                break
        counts.append(max(1, math.ceil(MIN_SAMPLE_S / max(dt, 1e-9))))
    best = [float("inf")] * len(counts)
    for _ in range(max(1, repeats)):
        for k, (call, count) in enumerate(zip(calls, counts)):
            t0 = time.perf_counter()
            for _ in range(count):
                call()
            best[k] = min(best[k], (time.perf_counter() - t0) / count)
    return list(zip(counts, best))


def run_bench(family: str, sizes, seed: int = 0, repeats: int = 3) -> dict:
    """Time the linear-time solvers at each target |V|+|E| with
    :func:`interleaved_samples` and assert the per-element cost at the
    largest size is within :data:`MAX_RATIO` of the smallest. Returns the
    full measurement report."""
    if family not in BENCH_FAMILIES:
        raise ValidationError(f"unknown bench family {family!r}")
    rows, timed = [], []
    for target in sizes:
        inst, g = _bench_instance(family, target, seed)
        calls = _bench_solvers(family, inst, g)
        del inst
        gc.collect()
        row = {"target": target, "n": g.n, "m": g.m, "elements": g.n + g.m, "solvers": {}}
        rows.append(row)
        timed += [(row, name, call) for name, call in calls.items()]
    samples = interleaved_samples([call for _row, _name, call in timed], repeats)
    for (row, name, _call), (calls, dt) in zip(timed, samples):
        row["solvers"][name] = {
            "calls": calls,
            "seconds": round(dt, 6),
            "per_element_ns": round(dt / row["elements"] * 1e9, 3),
        }
    smallest = min(rows, key=lambda r: r["elements"])
    largest = max(rows, key=lambda r: r["elements"])
    checks = {}
    for name in rows[0]["solvers"]:
        lo = smallest["solvers"][name]["per_element_ns"]
        hi = largest["solvers"][name]["per_element_ns"]
        ratio = hi / lo if lo > 0 else float("inf")
        checks[name] = {"cost_ratio": round(ratio, 3), "ok": ratio <= MAX_RATIO or largest is smallest}
    ok = all(check["ok"] for check in checks.values())
    return {"family": family, "rows": rows, "checks": checks, "max_ratio": MAX_RATIO, "ok": ok}


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ValidationError(f"--sizes must be integers joined by ',', like 10000,100000; got {args.sizes!r}") from None
    for size in sizes:
        _at_least(size, 1, "--sizes")
    _at_least(args.repeats, 1, "--repeats")
    report = run_bench(args.family, sizes, args.seed, args.repeats)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report["ok"] else EXIT_VIOLATION


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``auctol`` parser, built on the first call and returned as it is
    after that. Each ``parse_args`` call makes a fresh namespace, so calls
    share no state."""
    parser = argparse.ArgumentParser(prog="auctol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one algorithm on one instance")
    p.add_argument("--input", required=True)
    p.add_argument("--algo", choices=("opcost", "lropcost", "greedy", "exact"), default="opcost")
    p.add_argument("--constraints", choices=("auto", "ignore"), default="auto")
    p.add_argument("--cap", type=int, default=0, help="node cap for the exact solver")
    p.add_argument("--include-zero-value", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("order", help="embed an ordering and its beta bound")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("chordal", "tree-decomposition", "grid", "decreasing-weight"), required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument(
        "--family",
        choices=("interval", "interval-selection", "subtrees", "grid", "tight", "budget"),
        required=True,
    )
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--groups", type=int, default=4)
    p.add_argument("--per-group", dest="per_group", type=int, default=3)
    p.add_argument("--tree-size", dest="tree_size", type=int, default=10)
    p.add_argument("--dims", default="4x4")
    p.add_argument("--density-milli", dest="density_milli", type=int, default=1000)
    p.add_argument("--beta", type=int, default=3)
    p.add_argument("--epsilon-milli", dest="epsilon_milli", type=int, default=100)
    p.add_argument("--base-family", dest="base_family", default="interval")
    p.add_argument("--kind", choices=budgets.KINDS, default="unweighted")
    p.add_argument("--group-size", dest="group_size", type=int, default=3)
    p.add_argument("--k-max", dest="k_max", type=int, default=2)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--wmin", type=int, default=1)
    p.add_argument("--wmax", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="check solver guarantees over instances")
    p.add_argument("--input", required=True, help="instance file or directory")
    p.add_argument("--oracle-cap", dest="oracle_cap", type=int, default=20)
    p.add_argument("--solution", default=None, help="check one solution file instead")
    p.add_argument("--timings", action="store_true", help="include wall times in reports")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="per-element cost flatness check")
    p.add_argument("--family", choices=BENCH_FAMILIES, default="interval")
    p.add_argument("--sizes", default="10000,100000,1000000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=2)
    p.set_defaults(fn=cmd_bench)
    return parser


def run(argv=None) -> int:
    _pin_mmap_threshold()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NotChordalError as exc:
        v, a, b = exc.witness
        print(f"not chordal: witness node {v} with non-adjacent later neighbors {a}, {b}", file=sys.stderr)
        return EXIT_NOT_CHORDAL
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # a directory, a path without permission
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
