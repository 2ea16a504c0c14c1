"""Workload inputs, operations and output checks.

A workload writes its instance files once (the set-up), then every pass runs
the same list of `lambdabound` commands through `lambdabound.cli.main`.
Seeded instance i of a workload run with --seed n is
`gen_random(..., seed=1000 * (n + 1) + i)`, which no fixed seed reaches.

The checks compare each command's output with the results of `reference`,
never with a stored copy of earlier output; each returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from lambdabound.instance import bundled_text, gen_cycle, gen_random, save_instance

# gen_random(nodes, extra_edges, requests, wavelengths, seed) arguments. A
# fixed seed keeps an instance the same in every run; None takes the seed
# from --seed. The simplex's pivot count varies by a factor of two between
# random instances of one shape, so fixed instances carry most of each pass
# to keep the spread across seeds small; the seeded ones keep a change from
# being tuned to a handful of inputs.
TABLE = (
    [(16, 6, 8, 10, 7)]
    + [(14, 2, 2, 2, s) for s in (7, 8)]
    + [(10, 2, 3, 3, s) for s in range(7, 19)]
    + [(12, 2, 2, 2, s) for s in range(7, 13)]
    + [(10, 2, 3, 3, None)] * 12
    + [(12, 2, 2, 2, None)] * 6
)
RING = (8, 5, 80)  # gen_cycle(m, n, k): lp-rwap = n, lp-r3 = m * n
DIRECT = [(12, 4, 8, 10, 7), (12, 4, 6, 6, 7), (12, 4, 2, 2, None)]
TINY = [(6, 1, 2, 2, 7), (4, 2, 2, 2, 7), (5, 1, 2, 2, 7)] + [
    (n, x, d, d, None) for n, x, d in [(4, 1, 2), (4, 1, 2), (4, 1, 1), (5, 2, 1), (6, 1, 1)]
]

REL_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    """One command of a pass; `out` is the file it writes, if any."""

    key: str
    argv: tuple
    out: str | None = None


@dataclass
class OpResult:
    """Exit code and captured text of one command; `output` is its file's text."""

    code: int
    stdout: str
    stderr: str
    output: str | None = None


@dataclass
class Setup:
    workdir: str
    instances: list  # instance file paths, in the order the ops use them
    ops: list


def _rel_close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def write_inputs(workload: str, seed: int, workdir: str) -> Setup:
    """Generate and write the workload's instance files; return its operations."""
    os.makedirs(workdir, exist_ok=True)

    def write(inst, subdir=""):
        path = os.path.join(workdir, subdir, f"{inst.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(save_instance(inst))
        return path

    def generate(shapes):
        for i, (n, x, d, k, fixed) in enumerate(shapes):
            yield gen_random(n, x, d, k, 1000 * (seed + 1) + i if fixed is None else fixed)

    if workload == "decomp-table":
        table = os.path.join(workdir, "table")
        os.makedirs(table, exist_ok=True)
        paths = [write(gen_cycle(*RING), "table")]
        paths += [write(inst, "table") for inst in generate(TABLE)]
        out = os.path.join(workdir, "table.csv")
        ops = [Op("bench", ("bench", table, "--out", out), out)]
        return Setup(workdir, sorted(paths, key=os.path.basename), ops)

    if workload == "direct-r3":
        paths = [write(inst) for inst in generate(DIRECT)]
        ops = [Op(f"solve:{i}", ("solve", p, "--model", "lp-r3")) for i, p in enumerate(paths)]
        return Setup(workdir, paths, ops)

    if workload == "tiny-ladder":
        paths, ops = [write(inst) for inst in generate(TINY)], []
        net4 = write_bundled(workdir, "net4.json")
        solution = write_bundled(workdir, "net4.solution.json")
        paths.append(net4)  # last: the validate step looks it up there
        for i, path in enumerate(paths):
            stem = os.path.splitext(path)[0]
            ops.append(Op(f"chain:{i}", ("chain-check", path)))
            for fmt in ("lp", "mps"):
                out = f"{stem}.{fmt}"
                argv = ("export", path, "--model", "ip-rwap-ppp", "--format", fmt, "--out", out)
                ops.append(Op(f"{fmt}:{i}", argv, out))
        # the lower bound is filled in from this pass's chain-check of net4
        ops.append(Op("validate", ("validate", net4, solution, "--lower-bound", None)))
        return Setup(workdir, paths, ops)

    raise ValueError(f"unknown workload {workload!r}")


def write_bundled(workdir: str, fname: str) -> str:
    path = os.path.join(workdir, fname)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bundled_text(fname))
    return path


def resolve_argv(op: Op, setup: Setup, results: dict) -> tuple:
    """Fill the placeholder argument from an earlier operation of the same pass."""
    if None not in op.argv:
        return op.argv
    chain = results.get(f"chain:{len(setup.instances) - 1}")
    exact = parse_chain(chain.stdout).get("exact") if chain else None
    bound = "nan" if exact is None else str(exact)
    return tuple(bound if a is None else a for a in op.argv)


# ---------------------------------------------------------------- references


def compute_references(workload: str, setup: Setup) -> dict:
    """Reference values for this run's inputs (run outside every timed interval)."""
    import reference  # scipy.optimize loads only after the last pass

    refs: dict = {"nets": {}}
    for path in setup.instances:
        net = reference.read_net(path)
        entry = {"net": net}
        if workload == "decomp-table":
            entry["rwap"] = reference.lp_rwap(net)
        entry["r3"] = reference.lp_r3(net)
        refs["nets"][path] = entry
    if workload == "tiny-ladder":
        refs["solution_pairs"] = reference.solution_pairs(
            os.path.join(setup.workdir, "net4.solution.json")
        )
    return refs


class TextOptima:
    """MIP and LP-relaxation optima of exported texts, solved once per text."""

    def __init__(self):
        self._cache: dict = {}

    def __call__(self, text: str, fmt: str):
        key = (fmt, text)
        if key not in self._cache:
            import reference

            try:
                model = reference.read_lp(text) if fmt == "lp" else reference.read_mps(text)
                self._cache[key] = (model.optimum(True), model.optimum(False))
            except (ValueError, KeyError, IndexError, RuntimeError) as exc:
                self._cache[key] = exc
        return self._cache[key]


# -------------------------------------------------------------------- checks


def _num(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def check_solve(stdout: str, ref: float) -> list:
    lines = stdout.split()
    value = _num(lines[0]) if len(lines) == 1 else None
    if value is None:
        return [f"expected one objective line, got {stdout!r}"]
    if not _rel_close(value, ref):
        return [f"objective {value} differs from reference {ref:.9f}"]
    return []


def check_bench_csv(csv_text: str, nets: list, refs: dict) -> list:
    """Two rows per instance file (lp-rwap direct, lp-r3 benders), in name order."""
    problems = []
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if len(rows) != 2 * len(nets):
        return [f"expected {2 * len(nets)} rows, got {len(rows)}"]
    for i, path in enumerate(nets):
        net = refs["nets"][path]["net"]
        rwap, r3 = refs["nets"][path]["rwap"], refs["nets"][path]["r3"]
        base, main = rows[2 * i], rows[2 * i + 1]
        want = {
            "name": net.name,
            "V": str(net.num_nodes),
            "E": str(len(net.edges)),
            "D": str(len(net.requests)),
        }
        for row, model, method, status, ref in (
            (base, "lp-rwap", "direct", "Optimal", rwap),
            (main, "lp-r3", "benders", "Converged", r3),
        ):
            where = f"{net.name} {model}"
            for key, val in {**want, "model": model, "method": method, "status": status}.items():
                if row.get(key) != val:
                    problems.append(f"{where}: {key} is {row.get(key)!r}, expected {val!r}")
            value = _num(row.get("objective", ""))
            if value is None or not _rel_close(value, ref):
                problems.append(f"{where}: objective {row.get('objective')!r} vs reference {ref:.9f}")
        im = _num(main.get("im_pct", ""))
        want_im = (r3 - rwap) / rwap * 100.0
        if im is None or abs(im - want_im) > 0.05 + 1e-9:
            problems.append(f"{net.name}: im_pct {main.get('im_pct')!r}, expected {want_im:.3f}")
        if base.get("gap_pct") or main.get("gap_pct"):
            problems.append(f"{net.name}: gap_pct without an upper-bound file")
        if net.name.startswith("cycle-"):
            m, n = net.num_nodes, len(net.requests)
            if not (_rel_close(rwap, n) and _rel_close(r3, m * n)):
                problems.append(f"{net.name}: references {rwap}, {r3} miss the closed forms {n}, {m * n}")
    return problems


_CHAIN_VALUES = {
    "exact optimum": "exact",
    "LP full model": "lp_full",
    "LP relaxation R1": "lp_r1",
    "LP relaxation R2": "lp_r2",
    "LP aggregated R3": "lp_r3",
    "LP working-only": "lp_working",
}


def parse_chain(stdout: str) -> dict:
    """Values and PASS/FAIL lines of `chain-check` output."""
    out: dict = {"verdicts": [], "final": None}
    for line in stdout.splitlines():
        m = re.match(r"^(.*?)\s{2,}(\S+)$", line)
        if line in ("PASS", "FAIL"):
            out["final"] = line
        elif line.startswith(("PASS  ", "FAIL  ")):
            out["verdicts"].append((line[:4], line[6:]))
        elif m and m.group(1) in _CHAIN_VALUES:
            value = _num(m.group(2))
            if m.group(1) == "exact optimum" and value is not None and value.is_integer():
                value = int(value)
            out[_CHAIN_VALUES[m.group(1)]] = value
    return out


def check_chain(stdout: str, r3_ref: float, lp_optima, mps_optima) -> list:
    """All verdicts PASS, R3 matches the incidence reference, and the exact
    optimum and full-model LP match HiGHS on the exported LP and MPS text."""
    chain = parse_chain(stdout)
    problems = []
    if len(chain["verdicts"]) != 5 or any(v != "PASS" for v, _ in chain["verdicts"]):
        problems.append(f"chain verdicts {chain['verdicts']}")
    if chain["final"] != "PASS":
        problems.append(f"final verdict {chain['final']!r}")
    missing = [k for k in _CHAIN_VALUES.values() if chain.get(k) is None]
    if missing:
        return problems + [f"missing values {missing}"]
    if not _rel_close(chain["lp_r3"], r3_ref):
        problems.append(f"LP aggregated R3 {chain['lp_r3']} vs reference {r3_ref:.9f}")
    for fmt, optima in (("lp", lp_optima), ("mps", mps_optima)):
        problems += check_export_optima(fmt, optima, chain)
    return problems


def check_export_optima(fmt: str, optima, chain: dict) -> list:
    """The export's MIP optimum is the oracle's and its LP relaxation the
    printed full-model LP value."""
    if isinstance(optima, Exception):
        return [f"{fmt} export unreadable: {optima}"]
    mip, relaxed = optima
    problems = []
    if chain.get("exact") is None or abs(mip - chain["exact"]) > 1e-6:
        problems.append(f"{fmt} export MIP optimum {mip} vs oracle {chain.get('exact')}")
    if chain.get("lp_full") is None or not _rel_close(relaxed, chain["lp_full"]):
        problems.append(f"{fmt} export LP optimum {relaxed} vs LP full model {chain.get('lp_full')}")
    return problems


def check_validate(stdout: str, pairs: int, exact: float) -> list:
    want = [f"feasible, objective {pairs}", f"gap {(pairs - exact) / exact * 100.0:.1f}%"]
    got = stdout.strip().splitlines()
    return [] if got == want else [f"validate printed {got}, expected {want}"]


def check_pass(workload: str, setup: Setup, refs: dict, results: dict, optima: TextOptima) -> dict:
    """Problems per operation key for one pass; `results` maps key -> OpResult."""
    problems = {}
    for op in setup.ops:
        res = results[op.key]
        found = [] if res.code == 0 else [f"exit code {res.code}: {res.stderr.strip()[-300:]}"]
        problems[op.key] = found
        if found:
            continue
        if workload == "decomp-table":
            found += check_bench_csv(res.output or "", setup.instances, refs)
        elif workload == "direct-r3":
            path = setup.instances[int(op.key.split(":")[1])]
            found += check_solve(res.stdout, refs["nets"][path]["r3"])
        elif op.key == "validate":
            net4 = len(setup.instances) - 1
            chain = parse_chain(results[f"chain:{net4}"].stdout)
            ref_exact = optima(results[f"lp:{net4}"].output or "", "lp")
            exact = None if isinstance(ref_exact, Exception) else ref_exact[0]
            if exact is None or chain.get("exact") is None or abs(chain["exact"] - exact) > 1e-6:
                found.append(f"validate ran against bound {chain.get('exact')}, reference {exact}")
            else:
                found += check_validate(res.stdout, refs["solution_pairs"], exact)
        else:
            kind, idx = op.key.split(":")
            path = setup.instances[int(idx)]
            lp = optima(results[f"lp:{idx}"].output or "", "lp")
            mps = optima(results[f"mps:{idx}"].output or "", "mps")
            chain_out = results[f"chain:{idx}"].stdout
            if kind == "chain":
                found += check_chain(chain_out, refs["nets"][path]["r3"], lp, mps)
            else:
                found += check_export_optima(kind, lp if kind == "lp" else mps, parse_chain(chain_out))
    return problems
