"""The benchmark's output checks pass on the program's outputs and fail on
perturbed ones: a bound moved by 1e-4, a wrong exact optimum, a FAIL chain
line, and an export whose MIP optimum differs from the oracle's.

Run with `python3 -m pytest benchmark/test_bench_checks.py`; the workloads
are shrunk to a few small instances so that the test takes seconds.
"""

from __future__ import annotations

import dataclasses
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from lambdabound import cli  # noqa: E402
from run import run_pass  # noqa: E402


def _run(workload, tmp_path):
    setup = workloads.write_inputs(workload, 3, str(tmp_path))
    results, _, _ = run_pass(cli, setup)
    refs = workloads.compute_references(workload, setup)
    return setup, refs, results


def _failing(workload, setup, refs, results):
    problems = workloads.check_pass(workload, setup, refs, results, workloads.TextOptima())
    return sorted(key for key, found in problems.items() if found)


def _edit(results, key, **changes):
    return {**results, key: dataclasses.replace(results[key], **changes)}


def _shift_number(text, pattern, delta):
    """Add delta to the number matched by the first group of pattern."""
    m = re.search(pattern, text, re.M)
    value = float(m.group(1)) + delta
    return text[: m.start(1)] + f"{value:.6f}" + text[m.end(1):]


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "TABLE", [(6, 1, 2, 2, None)])
    monkeypatch.setattr(workloads, "DIRECT", [(6, 1, 2, 2, None)])
    monkeypatch.setattr(workloads, "TINY", [(4, 1, 1, 1, None)])


def test_decomp_table_bound_moved(small, tmp_path):
    setup, refs, results = _run("decomp-table", tmp_path)
    assert _failing("decomp-table", setup, refs, results) == []
    csv = results["bench"].output
    for model in ("lp-rwap", "lp-r3"):
        moved = _shift_number(csv, rf"^cycle[^,]*,\d+,\d+,\d+,{model},\w+,([0-9.]+),", 1e-4)
        assert moved != csv
        bad = _edit(results, "bench", output=moved)
        assert _failing("decomp-table", setup, refs, bad) == ["bench"]


def test_direct_r3_bound_moved(small, tmp_path):
    setup, refs, results = _run("direct-r3", tmp_path)
    assert _failing("direct-r3", setup, refs, results) == []
    moved = _shift_number(results["solve:0"].stdout, r"^([0-9.]+)$", -1e-4)
    bad = _edit(results, "solve:0", stdout=moved + "\n")
    assert _failing("direct-r3", setup, refs, bad) == ["solve:0"]


def test_tiny_ladder_perturbations(small, tmp_path):
    setup, refs, results = _run("tiny-ladder", tmp_path)
    assert _failing("tiny-ladder", setup, refs, results) == []
    net4 = len(setup.instances) - 1
    chain = results[f"chain:{net4}"].stdout
    assert "exact optimum          3\n" in chain

    wrong = chain.replace("exact optimum          3", "exact optimum          4")
    bad = _edit(results, f"chain:{net4}", stdout=wrong)
    assert f"chain:{net4}" in _failing("tiny-ladder", setup, refs, bad)

    flipped = chain.replace("PASS  LP R1 == LP R2", "FAIL  LP R1 == LP R2")
    assert flipped != chain
    bad = _edit(results, f"chain:{net4}", stdout=flipped)
    assert _failing("tiny-ladder", setup, refs, bad) == [f"chain:{net4}"]

    # doubling every cost doubles the MIP optimum of the exported model
    lp = results["lp:0"].output
    obj = re.search(r"^ obj:.*$", lp, re.M)
    doubled = lp[: obj.start()] + obj.group(0).replace(" 1 w_", " 2 w_") + lp[obj.end():]
    bad = _edit(results, "lp:0", output=doubled)
    assert _failing("tiny-ladder", setup, refs, bad) == ["chain:0", "lp:0"]

    mps = results["mps:0"].output
    bad = _edit(results, "mps:0", output=mps.replace("  COST  1\n", "  COST  2\n"))
    assert _failing("tiny-ladder", setup, refs, bad) == ["chain:0", "mps:0"]

    bad = _edit(results, "validate", stdout="feasible, objective 6\ngap 100.0%\n")
    assert _failing("tiny-ladder", setup, refs, bad) == ["validate"]
