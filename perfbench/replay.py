"""Stage-by-stage replay of the CLI requests the benchmark sends.

Each replay calls the same public functions ``auctol.cli`` calls, in the
same order, with a span around every layer, and returns the bytes the CLI
would write. The caller compares them with the untraced ``cli.run`` output
for the same input, so a replay that drifts from the CLI fails the run.
Only the paths the workloads use are mirrored: ``solve --algo opcost``,
``order --method tree-decomposition`` and ``verify --input <file>``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from auctol import budgets, cli, instances, solvers
from auctol.errors import CapacityError, NotChordalError
from auctol.graphs import beta_bound_frontier, beta_exact, orient
from auctol.orderings import (
    NotChordal,
    lexbfs_peo,
    min_degree_heuristic_decomposition,
    tree_decomposition_ordering,
    validate_tree_decomposition,
)

from spans import Tracer


class ReplayError(RuntimeError):
    pass


def _load(tr: Tracer, counts: Counter, path) -> instances.Instance:
    counts["instances.bytes_in"] += Path(path).stat().st_size
    with tr.span("instances.load"):
        return instances.load_instance(path)


def _graph(tr: Tracer, counts: Counter, inst):
    with tr.span("graphs.build"):
        g = instances.bid_graph(inst)
    with tr.span("probe.count", probe=True):
        counts["graphs.elements"] += g.n + g.m
    return g


def _order(tr: Tracer, inst, g):
    """``instances.oriented_graph`` with the two costly orderings in spans of their own."""
    with tr.span("orderings.order"):
        spec = inst.ordering_spec
        if spec is not None and spec.method == "chordal":
            with tr.span("orderings.lexbfs"):
                result = lexbfs_peo(g)
            if isinstance(result, NotChordal):
                raise NotChordalError((result.node, result.a, result.b))
            ordering = result
        elif spec is not None and spec.method == "tree-decomposition":
            with tr.span("orderings.td_ordering"):
                ordering = tree_decomposition_ordering(spec.tree_decomposition, inst.bids, inst.object_graph)
        else:
            ordering = instances.ordering_from_spec(inst, g)
        return orient(g, ordering)


def _first_and_warm(tr: Tracer, name: str, fn):
    """Time the first call (which compiles the graph) and a warm repeat; the
    difference is charged to ``solvers.compile``."""
    with tr.span(name) as first:
        result = fn()
    with tr.span("probe.warm", probe=True) as warm:
        again = fn()
    solution = lambda r: r[0] if isinstance(r, tuple) else r  # noqa: E731  opcost also returns its value table
    if solution(again) != solution(result):
        raise ReplayError(f"{name}: warm call disagrees with the first")
    first.compile_s = max(0.0, first.seconds - warm.seconds)
    return result


def _count_table(tr: Tracer, counts: Counter, sol, table) -> None:
    with tr.span("probe.count", probe=True):
        counts["solvers.positive_value_nodes"] += sum(1 for v in table.val.values() if v > 0)
        counts["solvers.selected"] += len(sol.selected)


def _budget_solve(tr: Tracer, counts: Counter, g, cs):
    """The opcost-mode budget solver for ``cs.kind``, as ``cli._solve_dispatch`` picks it."""
    with tr.span("probe.count", probe=True):
        if cs.kind != "weighted" and any(grp.limit > 1 for grp in cs.groups):
            counts["budgets.fraction_path_requests"] += 1
        if cs.kind == "weighted":
            budget_of = {u: grp.limit for grp in cs.groups for u in grp.members}
            for u, w in g.weights.items():
                counts["budgets.heavy_bids"] += 2 * w > budget_of[u] >= w
                counts["budgets.light_bids"] += 2 * w <= budget_of[u]
    if cs.kind == "unweighted":
        sol, table = _first_and_warm(tr, "budgets.unweighted", lambda: budgets.solve_unweighted(g, cs))
        _count_table(tr, counts, sol, table)
        return sol
    if cs.kind == "overlapping":
        return _first_and_warm(tr, "budgets.overlapping", lambda: budgets.solve_overlapping(g, cs))
    return _first_and_warm(tr, "budgets.weighted", lambda: budgets.solve_weighted(g, cs, light_mode="lazy"))


def _write(counts: Counter, text: str, path) -> str:
    counts["instances.bytes_out"] += len(text.encode("utf-8"))
    Path(path).write_text(text, encoding="utf-8")
    return text


def replay_solve(tr: Tracer, counts: Counter, argv: list[str]) -> str:
    """``cli.cmd_solve`` for ``--algo opcost --constraints auto``."""
    with tr.span("cli"):
        args = cli.build_parser().parse_args(argv)
        if args.algo != "opcost" or args.constraints != "auto" or args.include_zero_value:
            raise ReplayError(f"replay mirrors only the default solve options: {argv}")
        inst = _load(tr, counts, args.input)
        g = _order(tr, inst, _graph(tr, counts, inst))
        cs = inst.constraints
        if cs is None:
            sol, table = _first_and_warm(tr, "solvers.opcost", lambda: solvers.opcost(g))
            _count_table(tr, counts, sol, table)
        else:
            sol = _budget_solve(tr, counts, g, cs)
        with tr.span("instances.certify"):
            bound, _method = instances.beta_bound_info(inst, g.ordering, g)
        if bound is not None and sol.certificate.beta_bound is None:
            ratio = None
            if cs is not None:
                if cs.kind == "unweighted":
                    ratio = Fraction(bound + 1)
                elif cs.kind == "overlapping":
                    ratio = Fraction(bound + cs.overlap())
                else:
                    ratio = Fraction(2 * bound + 3)
            elif sol.certificate.algorithm in ("opcost", "lropcost"):
                ratio = Fraction(bound)
            sol = replace(sol, certificate=replace(sol.certificate, beta_bound=bound, claimed_ratio=ratio))
        with tr.span("instances.dump"):
            text = instances.dumps_solution(sol)
        return _write(counts, text, args.output)


def replay_order_td(tr: Tracer, counts: Counter, argv: list[str]) -> str:
    """``cli.cmd_order`` for ``--method tree-decomposition``."""
    with tr.span("cli"):
        args = cli.build_parser().parse_args(argv)
        if args.method != "tree-decomposition":
            raise ReplayError(f"replay mirrors only tree-decomposition orders: {argv}")
        inst = _load(tr, counts, args.input)
        _graph(tr, counts, inst)  # cmd_order builds the bid graph for every method
        with tr.span("orderings.order"):
            td = inst.ordering_spec.tree_decomposition if inst.ordering_spec else None
            if td is None:
                with tr.span("orderings.td_heuristic"):
                    td = min_degree_heuristic_decomposition(inst.object_graph)
            with tr.span("orderings.td_ordering"):
                ordering = tree_decomposition_ordering(td, inst.bids, inst.object_graph)
            spec = instances.OrderingSpec("tree-decomposition", tree_decomposition=td, beta_bound=beta_bound_frontier(ordering))
        with tr.span("orderings.td_validate", probe=True):
            validate_tree_decomposition(inst.object_graph, td)
        out = instances.Instance(inst.bids, inst.object_graph, inst.constraints, spec, inst.metadata)
        with tr.span("instances.dump"):
            text = instances.dumps_instance(out)
        return _write(counts, text, args.output)


def _ratio_str(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def replay_verify(tr: Tracer, counts: Counter, argv: list[str], out_path: Path) -> str:
    """``cli.cmd_verify`` on one instance file: ``cli.verify_instance`` plus
    its report line, written to ``out_path`` as the loop sends stdout there."""
    with tr.span("cli"):
        args = cli.build_parser().parse_args(argv)
        path = Path(args.input)
        if args.solution is not None or args.timings or not path.is_file():
            raise ReplayError(f"replay mirrors only verify on one instance file: {argv}")
        report: dict = {"instance": path.name, "ok": True, "violations": []}

        def violate(msg: str) -> None:
            report["ok"] = False
            report["violations"].append(msg)

        inst = _load(tr, counts, path)
        g = _order(tr, inst, _graph(tr, counts, inst))
        report["family"] = str(inst.metadata.get("family", "unknown"))
        report["n"] = g.n
        report["m"] = g.m
        algos: dict[str, dict] = {}
        report["algorithms"] = algos

        def entry(sol) -> dict:
            return {"revenue": sol.revenue, "selected": len(sol.selected)}

        op, table = _first_and_warm(tr, "solvers.opcost", lambda: solvers.opcost(g))
        _count_table(tr, counts, op, table)
        algos["opcost"] = entry(op)
        with tr.span("solvers.lropcost"):
            lr = solvers.lropcost(g)
        algos["lropcost"] = entry(lr)
        if op.selected != lr.selected:
            violate("opcost and lropcost selected different sets")
        with tr.span("solvers.verify_value_table"):
            if not solvers.verify_value_table(g, table):
                violate("value table fails recomputation")
        with tr.span("solvers.greedy"):
            algos["greedy"] = entry(solvers.greedy(g, g.ordering))
        for name, sol in (("opcost", op), ("lropcost", lr)):
            with tr.span("budgets.check_feasible"):
                _ok, violations = budgets.check_feasible(sol, g, None)
            for v in violations:
                violate(f"{name}: {v}")

        cs = inst.constraints
        primary = op
        claimed_of_beta = lambda b: Fraction(b)  # noqa: E731
        if cs is not None:
            bsol = _budget_solve(tr, counts, g, cs)
            with tr.span("budgets.crosscheck"):
                if cs.kind == "unweighted":
                    cross = budgets.solve_unweighted_lr(g, cs)
                elif cs.kind == "overlapping":
                    cross = budgets.solve_overlapping_lr(g, cs)
                else:
                    cross = budgets.solve_weighted(g, cs, light_mode="direct")
            if cs.kind == "unweighted":
                claimed_of_beta = lambda b: Fraction(b + 1)  # noqa: E731
            elif cs.kind == "overlapping":
                t = cs.overlap()
                claimed_of_beta = lambda b: Fraction(b + t)  # noqa: E731
            else:
                claimed_of_beta = lambda b: Fraction(2 * b + 3)  # noqa: E731
            algos[cs.kind] = entry(bsol)
            if bsol.selected != cross.selected:
                violate(f"{cs.kind}: one-pass and local-ratio modes disagree")
            with tr.span("budgets.check_feasible"):
                _ok, violations = budgets.check_feasible(bsol, g, cs)
            for v in violations:
                violate(f"{cs.kind}: {v}")
            primary = bsol

        with tr.span("instances.certify"):
            bound, method = instances.beta_bound_info(inst, g.ordering, g)
        if bound is not None:
            report["beta_bound"] = bound
            report["beta_bound_method"] = method

        if g.n <= args.oracle_cap:
            with tr.span("graphs.beta_exact"):
                try:
                    beta = beta_exact(g).beta_graph
                except CapacityError:
                    beta = None
            if cs is None:
                with tr.span("solvers.exact_mwis"):
                    opt = solvers.exact_mwis(g, node_cap=max(30, args.oracle_cap)).revenue
            else:
                with tr.span("budgets.exact_feasible"):
                    opt, _ = budgets.exact_feasible(g, cs, node_cap=args.oracle_cap)
            report["oracle_revenue"] = opt
            if beta is not None:
                report["beta_exact"] = beta
                if bound is not None and beta > bound:
                    violate(f"certified bound {bound} below exact beta {beta}")
                claimed = claimed_of_beta(beta)
                report["claimed_ratio"] = _ratio_str(claimed)
                if primary.revenue == 0:
                    if opt > 0:
                        violate("approximation returned zero revenue against positive optimum")
                    report["observed_ratio"] = "1"
                else:
                    observed = Fraction(opt, primary.revenue)
                    report["observed_ratio"] = _ratio_str(observed)
                    if observed > claimed:
                        violate(f"observed ratio {observed} exceeds claimed {claimed}")
        return _write(counts, json.dumps(report, sort_keys=True) + "\n", out_path)
