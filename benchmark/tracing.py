"""Spans around the calls into each lambdabound module, made from outside.

The wrappers replace module attributes at the places where the program looks
them up, because several modules bind their collaborators at import:
`benders` holds its own `solve`, `build_subproblem` and `cut_from_duals`;
`cli` holds `solve_lp_r3_benders`, `load_instance`, `export_lp`,
`export_mps` and `ThreadPoolExecutor`, and reaches `simplex`, `formulations`,
`oracle` and `validator` through their modules. `cli` gets a module-level
`open` so that its file reads and writes are spans too.

Each span records its name, start, end, parent and thread. Spans stay in
memory until the run writes them out; a span's self time is its duration
minus the part of it covered by its children.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_FULL_BUILDERS = (
    "build_ip_rwap_ppp",
    "build_ip_rwap",
    "build_ip_r1",
    "build_ip_r2",
    "build_lp_r3",
    "build_lp_rwap_agg",
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "attrs")

    def __init__(self, sid, parent, name):
        self.id = sid
        self.parent = parent
        self.name = name
        self.thread = threading.get_ident()
        self.attrs = {}
        self.start = time.perf_counter()
        self.end = None

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            **self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(next(self._ids), stack[-1].id if stack else None, name)
        stack.append(span)
        return span

    def finish(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        span = self.start(name)
        try:
            return fn(*args, **kwargs), span
        finally:
            self.finish(span)

    def adopt(self, parent: Span):
        """Make `parent` the current span of this thread (for pool workers)."""
        self._stack().append(parent)

    def release(self):
        self._stack().pop()

    # -- patches -------------------------------------------------------------

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, module.__dict__.get(attr, _MISSING)))
        setattr(module, attr, value)

    def install(self):
        """Wrap the public call boundaries; `uninstall` restores them."""
        from lambdabound import benders, cli, formulations, oracle, simplex, validator

        tracer = self

        def solve_wrapper(original, role_of):
            def solve(model, options=None):
                sol, span = tracer.call("simplex.solve", original, model, options)
                span.attrs.update(role=role_of(model), pivots=sol.iterations)
                return sol

            return solve

        self._patch(simplex, "solve", solve_wrapper(simplex.solve, lambda m: "direct"))
        self._patch(
            benders,
            "solve",
            solve_wrapper(
                benders.solve, lambda m: "master" if m.name.startswith("master:") else "sub"
            ),
        )

        def timed(name, original):
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, *args, **kwargs)[0]

            return wrapper

        self._patch(benders, "build_subproblem",
                    timed("formulations.build_subproblem", benders.build_subproblem))
        self._patch(benders, "cut_from_duals",
                    timed("formulations.cut_from_duals", benders.cut_from_duals))
        self._patch(cli, "load_instance", timed("instance.load_instance", cli.load_instance))
        self._patch(oracle, "verify_chain", timed("oracle.verify_chain", oracle.verify_chain))
        self._patch(oracle, "exact_rwap_ppp", timed("oracle.exact_rwap_ppp", oracle.exact_rwap_ppp))
        self._patch(validator, "validate", timed("validator.validate", validator.validate))

        def builder(name, original):
            def build(*args, **kwargs):
                (model, varmap), span = tracer.call("formulations.build", original, *args, **kwargs)
                span.attrs.update(builder=name, nnz=sum(len(r.coeffs) for r in model.rows))
                return model, varmap

            return build

        for name in _FULL_BUILDERS:
            self._patch(formulations, name, builder(name, getattr(formulations, name)))

        def exporter(original):
            def export(model):
                text, span = tracer.call("lpmodel.export", original, model)
                span.attrs["bytes"] = len(text.encode("utf-8"))
                return text

            return export

        self._patch(cli, "export_lp", exporter(cli.export_lp))
        self._patch(cli, "export_mps", exporter(cli.export_mps))

        original_benders = cli.solve_lp_r3_benders

        def solve_lp_r3_benders(instance, options=None):
            res, span = tracer.call("benders.solve_lp_r3_benders", original_benders, instance, options)
            span.attrs.update(
                iterations=res.iterations,
                cuts=res.cuts_added,
                skipped=sum(r.n_pi_prime for r in res.log),
                due=len(res.log) * len(instance.failures),
                violated=sum(r.n_violated for r in res.log),
            )
            return res

        self._patch(cli, "solve_lp_r3_benders", solve_lp_r3_benders)

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                self._span = tracer.start("cli.thread_pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.finish(self._span)

            def submit(self, fn, /, *args, **kwargs):
                parent = self._span

                def run(*a, **k):
                    tracer.adopt(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.release()

                return super().submit(run, *args, **kwargs)

        self._patch(cli, "ThreadPoolExecutor", TracedPool)

        def traced_open(*args, **kwargs):
            fh, _ = tracer.call("cli.io", open, *args, **kwargs)
            return _TracedFile(fh, tracer)

        self._patch(cli, "open", traced_open)

    def uninstall(self):
        while self._patches:
            module, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(module, attr)
            else:
                setattr(module, attr, old)

    def write(self, path: str, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


_MISSING = object()


class _TracedFile:
    """A file object whose reads, writes and close are `cli.io` spans."""

    def __init__(self, fh, tracer: Tracer):
        self._fh = fh
        self._tracer = tracer

    def read(self, *args):
        return self._tracer.call("cli.io", self._fh.read, *args)[0]

    def write(self, data):
        return self._tracer.call("cli.io", self._fh.write, data)[0]

    def close(self):
        self._tracer.call("cli.io", self._fh.close)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


# ------------------------------------------------------------------- metrics

PER_LAYER = (
    ("cli.self_s", "s"),
    ("instance.load_s", "s"),
    ("formulations.build_s", "s"),
    ("formulations.build_calls", "count"),
    ("formulations.nnz", "count"),
    ("formulations.sub_build_s", "s"),
    ("formulations.cut_s", "s"),
    ("formulations.cuts", "count"),
    ("lpmodel.export_s", "s"),
    ("lpmodel.export_bytes", "bytes"),
    ("simplex.solve_s", "s"),
    ("simplex.solves", "count"),
    ("simplex.pivots", "count"),
    ("simplex.pivot_us", "us"),
    ("benders.solve_s", "s"),
    ("benders.self_s", "s"),
    ("benders.iterations", "count"),
    ("benders.master_s", "s"),
    ("benders.master_pivots", "count"),
    ("benders.sub_s", "s"),
    ("benders.sub_solves", "count"),
    ("benders.sub_pivots", "count"),
    ("benders.cuts", "count"),
    ("benders.filter_ratio", "ratio"),
    ("benders.cut_yield", "ratio"),
    ("oracle.chain_s", "s"),
    ("oracle.exact_s", "s"),
    ("validator.validate_s", "s"),
)


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, cursor = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans) -> dict:
    """Self time per span id."""
    children: dict = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.id: (sp.end - sp.start) - _covered(sp.start, sp.end, children.get(sp.id, ()))
        for sp in spans
    }


def layer_metrics(spans) -> dict:
    """Per-layer totals for the spans of one pass."""
    own = self_times(spans)
    by_name: dict = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def named(name, role=None):
        return [s for s in by_name.get(name, ()) if role is None or s.attrs.get("role") == role]

    def dur(items):
        return sum(s.end - s.start for s in items)

    def attr(items, key):
        return sum(s.attrs.get(key, 0) for s in items)

    def ratio(a, b):
        return a / b if b else 0.0

    solves = named("simplex.solve")
    benders_runs = named("benders.solve_lp_r3_benders")
    masters, subs = named("simplex.solve", "master"), named("simplex.solve", "sub")
    builds = named("formulations.build")
    exports = named("lpmodel.export")
    cuts = named("formulations.cut_from_duals")
    return {
        "cli.self_s": sum(own[s.id] for s in named("cli.main")),
        "instance.load_s": dur(named("instance.load_instance")),
        "formulations.build_s": dur(builds),
        "formulations.build_calls": len(builds),
        "formulations.nnz": attr(builds, "nnz"),
        "formulations.sub_build_s": dur(named("formulations.build_subproblem")),
        "formulations.cut_s": dur(cuts),
        "formulations.cuts": len(cuts),
        "lpmodel.export_s": dur(exports),
        "lpmodel.export_bytes": attr(exports, "bytes"),
        "simplex.solve_s": dur(solves),
        "simplex.solves": len(solves),
        "simplex.pivots": attr(solves, "pivots"),
        "simplex.pivot_us": 1e6 * ratio(dur(solves), attr(solves, "pivots")),
        "benders.solve_s": dur(benders_runs),
        "benders.self_s": sum(own[s.id] for s in benders_runs),
        "benders.iterations": attr(benders_runs, "iterations"),
        "benders.master_s": dur(masters),
        "benders.master_pivots": attr(masters, "pivots"),
        "benders.sub_s": dur(subs),
        "benders.sub_solves": len(subs),
        "benders.sub_pivots": attr(subs, "pivots"),
        "benders.cuts": attr(benders_runs, "cuts"),
        "benders.filter_ratio": ratio(attr(benders_runs, "skipped"), attr(benders_runs, "due")),
        "benders.cut_yield": ratio(attr(benders_runs, "cuts"), attr(benders_runs, "violated")),
        "oracle.chain_s": dur(named("oracle.verify_chain")),
        "oracle.exact_s": dur(named("oracle.exact_rwap_ppp")),
        "validator.validate_s": dur(named("validator.validate")),
    }
