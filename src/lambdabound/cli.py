"""Command-line surface: generate, solve, validate, benchmark, export.

Exit codes are a stable contract: 0 on success, 1 when a solve reports
infeasibility or ends without a result (or a validation/chain check fails),
2 on usage errors, a model too large for memory among them; each failure
prints one line to stderr. All objective values print with fixed six
decimals; benchmark output is CSV with one record per solve.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass

from . import formulations, oracle, simplex, validator
from .benders import CONVERGED, log_to_csv, solve_lp_r3_benders
from .instance import (
    Instance,
    gen_cycle,
    gen_random,
    load_instance,
    save_instance,
)
from .lpmodel import ModelError, export_lp, export_mps

# builders are looked up in `formulations` at call time, so wrapping a
# formulations.build_* function also wraps every solve and export that uses it
_BUILDERS = {
    "lp-rwap": lambda i: formulations.build_lp_rwap_agg(i)[0],
    "lp-rwap-ppp": lambda i: formulations.build_ip_rwap_ppp(i, relax=True)[0],
    "lp-r1": lambda i: formulations.build_ip_r1(i, relax=True)[0],
    "lp-r2": lambda i: formulations.build_ip_r2(i, relax=True)[0],
    "lp-r3": lambda i: formulations.build_lp_r3(i)[0],
    "ip-rwap": lambda i: formulations.build_ip_rwap(i, relax=False)[0],
    "ip-rwap-ppp": lambda i: formulations.build_ip_rwap_ppp(i, relax=False)[0],
    "ip-r1": lambda i: formulations.build_ip_r1(i, relax=False)[0],
    "ip-r2": lambda i: formulations.build_ip_r2(i, relax=False)[0],
}
# the relaxed path models and their formulations tags: their rows are
# counted, and refused over simplex.MAX_ROWS, before they are built
_PATH_LPS = {"lp-rwap-ppp": "rwap-ppp", "lp-r1": "r1", "lp-r2": "r2"}
LP_MODELS = tuple(name for name in _BUILDERS if name.startswith("lp-"))
EXPORT_MODELS = tuple(_BUILDERS)

CSV_HEADER = "name,V,E,D,model,method,objective,iterations,cuts,elapsed_ms,status,im_pct,gap_pct"

# chain-check refuses an instance whose full model needs more linking rows;
# read at call time, so that a test can lower it with monkeypatch
CHAIN_MAX_ROWS = 5000


@dataclass
class RunRecord:
    name: str
    num_nodes: int
    num_edges: int
    num_requests: int
    model: str
    method: str
    objective: float | None
    iterations: int
    cuts: int | None
    elapsed_ms: int
    status: str
    im_pct: float | None = None
    gap_pct: float | None = None
    ok: bool = True
    detail: str | None = None  # why the solve stopped, for stderr

    def csv_row(self) -> list[str]:
        """The record's fields, in CSV_HEADER order."""

        def num(x, fmt="{:.6f}"):
            return "" if x is None else fmt.format(x)

        return [
            self.name,
            str(self.num_nodes),
            str(self.num_edges),
            str(self.num_requests),
            self.model,
            self.method,
            num(self.objective),
            str(self.iterations),
            "" if self.cuts is None else str(self.cuts),
            str(self.elapsed_ms),
            self.status,
            num(self.im_pct, "{:.1f}"),
            num(self.gap_pct, "{:.1f}"),
        ]


class _InputFileError(Exception):
    """An input file whose content cannot be used; main prints it as one line."""


def _read_instance(path: str, parser) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_instance(fh.read())
    except FileNotFoundError:
        parser.error(f"instance file not found: {path}")
    except ValueError as exc:  # malformed or invalid content, or text that is not UTF-8
        raise _InputFileError(f"{path}: {exc}") from exc


def _solve_record(
    instance: Instance, model_name: str, method: str, log_file=None
) -> RunRecord:
    t0 = time.perf_counter()
    if method == "benders":
        res = solve_lp_r3_benders(instance)
        if log_file is not None:
            log_file.write(log_to_csv(res.log))
        status = res.status
        objective = None if res.offending_failure is not None else res.lower_bound
        iters, cuts = res.iterations, res.cuts_added
        ok = res.status == CONVERGED
        detail = res.detail
    else:
        tag = _PATH_LPS.get(model_name)
        if tag is not None:
            rows = formulations.path_model_rows(instance, tag)
            simplex.check_rows(f"{tag}:{instance.name}", rows)
        model = _BUILDERS[model_name](instance)
        blocks = [(0, model.num_rows)]
        if tag == "rwap-ppp":  # LP R1 first, then its linking rows, warm from R1's optimum
            r1 = formulations.path_model_rows(instance, "r1")
            blocks = [(0, r1), (r1, model.num_rows)]
        sols = simplex.solve_in_blocks(model, blocks)
        sol = sols[-1]
        status = sol.status
        objective = sol.objective if sol.status == simplex.OPTIMAL else None
        iters, cuts = sum(s.iterations for s in sols), None
        ok = sol.status == simplex.OPTIMAL
        detail = None
    elapsed = int(1000 * (time.perf_counter() - t0))
    rec = RunRecord(
        name=instance.name,
        num_nodes=instance.num_nodes,
        num_edges=instance.num_edges,
        num_requests=instance.num_requests,
        model=model_name,
        method=method,
        objective=objective,
        iterations=iters,
        cuts=cuts,
        elapsed_ms=elapsed,
        status=status,
        ok=ok,
        detail=detail,
    )
    return rec


def _append_record(fh, record: RunRecord):
    """Append a row to a file opened for appending; an empty file gets the header."""
    if fh.tell() == 0:
        fh.write(CSV_HEADER + "\n")
    csv.writer(fh, lineterminator="\n").writerow(record.csv_row())


def _usage_error(message: str) -> int:
    print(f"lambdabound: error: {message}", file=sys.stderr)
    return 2


def _no_failures_error(path: str) -> int:
    return _usage_error(f"{path}: lp-r3 needs a non-empty failure set")


def cmd_gen(args, parser) -> int:
    try:
        if args.kind == "cycle":
            inst = gen_cycle(args.m, args.n, args.k)
        else:
            inst = gen_random(
                args.nodes, args.extra_edges, args.requests, args.k, args.seed
            )
    except ValueError as exc:
        parser.error(str(exc))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(save_instance(inst))
    print(f"wrote {args.out}")
    return 0


def cmd_solve(args, parser) -> int:
    if args.method == "benders" and args.model != "lp-r3":
        parser.error("--method benders is only valid with --model lp-r3")
    if args.iteration_log and args.method != "benders":
        parser.error("--iteration-log requires --method benders")
    instance = _read_instance(args.instance, parser)
    if args.model == "lp-r3" and not instance.failures:
        return _no_failures_error(args.instance)
    with ExitStack() as files:
        # opened before the solve, so that a path that cannot be written
        # fails at once instead of after the whole run
        log, record = (
            files.enter_context(open(path, mode, encoding="utf-8")) if path else None
            for path, mode in ((args.iteration_log, "w"), (args.record, "a"))
        )
        rec = _solve_record(instance, args.model, args.method, log)
        if record is not None:
            _append_record(record, rec)
    if rec.objective is not None:
        print(f"{rec.objective:.6f}")
    if not rec.ok:
        why = f" ({rec.detail})" if rec.detail else ""
        print(f"status: {rec.status}{why}", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args, parser) -> int:
    if args.lower_bound is not None and not 0 < args.lower_bound < float("inf"):
        return _usage_error("--lower-bound must be positive and finite")
    instance = _read_instance(args.instance, parser)
    try:
        with open(args.solution, "r", encoding="utf-8") as fh:
            solution = validator.load_solution(fh.read(), instance)
        report = validator.validate(instance, solution)
    except FileNotFoundError:
        parser.error(f"solution file not found: {args.solution}")
    except (validator.SolutionFormatError, UnicodeDecodeError) as exc:
        print(f"malformed solution: {exc}", file=sys.stderr)
        return 1
    verdict = "feasible" if report.feasible else "infeasible"
    print(f"{verdict}, objective {report.objective}")
    if args.lower_bound is not None:
        print(f"gap {validator.gap_report(report.objective, args.lower_bound):.1f}%")
    for v in report.violations:
        where = "working" if v.failure is None else f"failure {v.failure}"
        print(f"violation[{v.kind}] {where} request {v.request}: {v.detail}",
              file=sys.stderr)
    return 0 if report.feasible else 1


def cmd_bench(args, parser) -> int:
    names = sorted(
        f
        for f in os.listdir(args.instance_dir)
        if f.endswith(".json") and not f.endswith(".solution.json")
    )
    paths = [os.path.join(args.instance_dir, f) for f in names]
    instances = [_read_instance(path, parser) for path in paths]
    ubs = []  # the optional upper-bound sidecar <name>.ub of each instance
    for path, instance in zip(paths, instances):
        if not instance.failures:
            return _no_failures_error(path)
        ub_path = os.path.splitext(path)[0] + ".ub"
        ub = None
        if os.path.exists(ub_path):
            try:
                with open(ub_path, "r", encoding="utf-8") as fh:
                    ub = float(fh.read())
            except ValueError:  # not a number, or not UTF-8 text
                ub = float("nan")
            if not 0 < ub < float("inf"):
                return _usage_error(
                    f"{ub_path}: upper bound must be a positive finite number"
                )
        ubs.append(ub)

    rows = []
    for instance, ub in zip(instances, ubs):
        base = _solve_record(instance, "lp-rwap", "direct")
        r3 = _solve_record(instance, "lp-r3", "benders")
        if base.objective and r3.objective is not None:
            r3.im_pct = validator.improvement(r3.objective, base.objective)
        if ub is not None:
            if base.objective:
                base.gap_pct = validator.gap_report(ub, base.objective)
            if r3.objective:
                r3.gap_pct = validator.gap_report(ub, r3.objective)
        rows += [base.csv_row(), r3.csv_row()]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)
    print(f"wrote {args.out} ({len(names)} instances)")
    return 0


def cmd_chain_check(args, parser) -> int:
    instance = _read_instance(args.instance, parser)
    if not instance.failures:  # the ladder includes lp-r3
        return _no_failures_error(args.instance)
    # the ladder solves the full model, whose linking rows scale with
    # |Pi||D||K||E|; refuse clearly instead of grinding on a non-tiny instance
    count = formulations.path_model_rows
    linking = count(instance, "rwap-ppp") - count(instance, "r1")
    if linking > CHAIN_MAX_ROWS:
        print(
            f"chain-check: full model needs ~{linking} linking rows "
            f"(limit {CHAIN_MAX_ROWS}); this check is meant for tiny instances",
            file=sys.stderr,
        )
        return 1
    try:
        report = oracle.verify_chain(instance)
    except (oracle.OracleBudgetError, oracle.OracleInfeasibleError) as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return 1
    except oracle.OracleSolveError as exc:
        print(f"chain-check: {exc}", file=sys.stderr)
        return 1
    for line in report.lines():
        print(line)
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_export(args, parser) -> int:
    instance = _read_instance(args.instance, parser)
    if args.model == "lp-r3" and not instance.failures:
        return _no_failures_error(args.instance)
    model = _BUILDERS[args.model](instance)
    text = export_lp(model) if args.format == "lp" else export_mps(model)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


def cmd_oracle(args, parser) -> int:
    instance = _read_instance(args.instance, parser)
    try:
        if args.mode == "rwap":
            value = oracle.exact_rwap(instance)
        else:
            value = oracle.exact_rwap_ppp(instance)
    except (oracle.OracleBudgetError, oracle.OracleInfeasibleError) as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return 1
    print(value)
    return 0


@functools.cache  # built on the first call; main reuses it for every command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdabound",
        description="Lower bounds for wavelength routing under single-link failures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    gensub = p.add_subparsers(dest="kind", required=True)
    pc = gensub.add_parser("cycle", help="ring with parallel requests end to end")
    pc.add_argument("--m", type=int, required=True, help="node count (>= 3)")
    pc.add_argument("--n", type=int, required=True, help="request count")
    pc.add_argument("--k", type=int, required=True, help="wavelength count (>= n)")
    pc.add_argument("--out", required=True)
    pr = gensub.add_parser("random", help="random 2-edge-connected instance")
    pr.add_argument("--nodes", type=int, required=True)
    pr.add_argument("--extra-edges", type=int, default=2)
    pr.add_argument("--requests", type=int, default=4)
    pr.add_argument("--k", type=int, default=0, help="0 = max(1, requests)")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="solve one relaxation of an instance")
    p.add_argument("instance")
    p.add_argument("--model", choices=LP_MODELS, required=True)
    p.add_argument("--method", choices=("direct", "benders"), default="direct")
    p.add_argument("--record", help="append a RunRecord row to this CSV")
    p.add_argument("--iteration-log",
                   help="write the per-iteration decomposition log to this CSV")

    p = sub.add_parser("validate", help="check a solution file against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--lower-bound", type=float)

    p = sub.add_parser("bench", help="solve every instance in a directory to CSV")
    p.add_argument("instance_dir")
    p.add_argument("--out", required=True)

    p = sub.add_parser("chain-check", help="oracle and relaxation-ladder check")
    p.add_argument("instance")

    p = sub.add_parser("export", help="write LP or MPS text for a model")
    p.add_argument("instance")
    p.add_argument("--model", choices=EXPORT_MODELS, required=True)
    p.add_argument("--format", choices=("lp", "mps"), required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="exhaustive exact optimum (tiny instances)")
    p.add_argument("instance")
    p.add_argument("--mode", choices=("ppp", "rwap"), default="ppp")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "solve": cmd_solve,
        "validate": cmd_validate,
        "bench": cmd_bench,
        "chain-check": cmd_chain_check,
        "export": cmd_export,
        "oracle": cmd_oracle,
    }
    if args.command == "gen" and args.kind == "random" and args.k == 0:
        args.k = max(1, args.requests)
    try:
        return handlers[args.command](args, parser)
    except (ModelError, _InputFileError) as exc:
        return _usage_error(str(exc))
    except MemoryError as exc:  # numpy's names the allocation that failed
        return _usage_error(str(exc) or "out of memory")
    except OSError as exc:  # a path to read or write that cannot be used
        where = f"{exc.filename}: " if exc.filename else ""
        return _usage_error(f"{where}{exc.strerror or exc}")


if __name__ == "__main__":
    sys.exit(main())
