"""Run one workload of the lambdabound benchmark and print its metrics.

    python3 benchmark/run.py --workload decomp-table --seed 1 --seconds 20 --trace 0

The program runs in this process, through `lambdabound.cli.main`, from the
sources in `src/` next to this directory, with the environment as given:
the benchmark sets no thread count of its own. After the set-up, passes over
the workload's commands repeat while the next one should end within
--seconds (at least one pass); every pass runs the same commands, so the
share of failed ones does not depend on the run length. Outputs are checked against `reference` after the last pass, outside
every timed interval. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are end to end: set-up time, the median wall
and CPU time of a pass, and the peak RSS by the end of the first pass. With --trace 1 untraced and
traced passes alternate; the metrics are per layer (the mean over traced
passes) plus the tracing overhead, and the spans go to
benchmark/out/trace-<workload>-s<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5


@dataclass
class Pass:
    results: dict  # operation key -> OpResult
    wall: float
    cpu: float
    spans: list | None  # None for an untraced pass


def import_program():
    """Import lambdabound.cli from this checkout's sources; return it and the
    seconds the import took."""
    if not os.path.isfile(os.path.join(SRC, "lambdabound", "cli.py")):
        raise SystemExit(f"benchmark: no lambdabound sources in {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    cli = importlib.import_module("lambdabound.cli")
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported {cli.__file__}, not the sources in {SRC}")
    return cli, elapsed


def run_op(cli, op, argv, tracer=None):
    """Run one command in-process; return (OpResult, wall seconds, CPU seconds)."""
    from workloads import OpResult

    out, err = io.StringIO(), io.StringIO()
    span = tracer.start("cli.main") if tracer else None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed command, not a failed benchmark
        err.write(traceback.format_exc())
        code = -1
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if span:
        span.attrs["op"] = op.key
        tracer.finish(span)
    text = None
    if op.out and os.path.exists(op.out):
        with open(op.out, "r", encoding="utf-8") as fh:
            text = fh.read()
    return OpResult(code, out.getvalue(), err.getvalue(), text), wall, cpu


def run_pass(cli, setup, tracer=None):
    from workloads import resolve_argv

    results, wall, cpu = {}, 0.0, 0.0
    for op in setup.ops:
        res, w, c = run_op(cli, op, resolve_argv(op, setup, results), tracer)
        results[op.key] = res
        wall += w
        cpu += c
    return results, wall, cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decomp-table", "direct-r3", "tiny-ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cli, import_s = import_program()
    import workloads

    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        gen_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            setup = workloads.write_inputs(args.workload, args.seed, workdir)
            gen_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(gen_times)

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        passes: list[Pass] = []
        t_start = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                first_span = len(tracer.spans)
                tracer.install()
            try:
                results, wall, cpu = run_pass(cli, setup, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append(Pass(results, wall, cpu, tracer.spans[first_span:] if traced else None))
            print(f"pass {len(passes)}{' traced' if traced else ''}: wall {wall:.3f} s, "
                  f"cpu {cpu:.3f} s", file=sys.stderr)
            if len(passes) == 1:
                # later passes reuse freed memory unevenly; the first is steady
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # start another pass only if it should end within --seconds
            elapsed = time.perf_counter() - t_start
            if elapsed + wall > args.seconds and (tracer is None or len(passes) >= 2):
                break

        refs = workloads.compute_references(args.workload, setup)
        optima = workloads.TextOptima()
        attempted = failed = 0
        for p in passes:
            problems = workloads.check_pass(args.workload, setup, refs, p.results, optima)
            attempted += len(problems)
            for key, found in problems.items():
                if found:
                    failed += 1
                    print(f"check failed: {key}: {'; '.join(found)}", file=sys.stderr)

        if tracer is None:
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(p.wall for p in passes), "s"),
                "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            traced_passes = [p for p in passes if p.spans is not None]
            per_pass = [tracing.layer_metrics(p.spans) for p in traced_passes]
            metrics = {
                name: (statistics.fmean(m[name] for m in per_pass), unit)
                for name, unit in tracing.PER_LAYER
            }
            overhead = statistics.median(p.wall for p in traced_passes) - statistics.median(
                p.wall for p in passes if p.spans is None
            )
            metrics["trace.overhead_s"] = (overhead, "s")
            os.makedirs(OUT, exist_ok=True)
            tracer.write(
                os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.jsonl"),
                {"workload": args.workload, "seed": args.seed,
                 "metrics": {k: v for k, (v, _) in metrics.items()}},
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
