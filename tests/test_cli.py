import argparse
import csv
import json

import pytest

from helpers import parse_mps, patch_factor, run_python
from lambdabound import benders, cli, lpmodel, simplex
from lambdabound.cli import CSV_HEADER, main
from lambdabound.formulations import Cut
from lambdabound.instance import bundled_text, gen_random, load_instance, save_instance
from lambdabound.lpmodel import Solution


def run(capsys, *argv):
    capsys.readouterr()  # drop output of any setup commands
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_cycle(tmp_path, name="c.json", m=5, n=3, k=80):
    path = tmp_path / name
    assert main(["gen", "cycle", "--m", str(m), "--n", str(n), "--k", str(k),
                 "--out", str(path)]) == 0
    return path


@pytest.fixture
def net4_files(tmp_path):
    inst = tmp_path / "net4.json"
    sol = tmp_path / "net4.solution.json"
    inst.write_text(bundled_text("net4.json"))
    sol.write_text(bundled_text("net4.solution.json"))
    return inst, sol


def test_gen_cycle_file(tmp_path, capsys):
    path = write_cycle(tmp_path)
    inst = load_instance(path.read_text())
    assert inst.num_edges == 5 and inst.num_requests == 3


def test_gen_random_deterministic_files(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "random", "--nodes", "8", "--seed", "7", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "cycle", "--m", "2", "--n", "1", "--k", "1",
              "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_solve_benders_ring(tmp_path, capsys):
    path = write_cycle(tmp_path)
    code, out, _ = run(capsys, "solve", str(path), "--model", "lp-r3",
                       "--method", "benders")
    assert code == 0
    assert out.strip() == "15.000000"


def test_solve_direct_working_bound(tmp_path, capsys):
    path = write_cycle(tmp_path)
    code, out, _ = run(capsys, "solve", str(path), "--model", "lp-rwap")
    assert code == 0
    assert out.strip() == "3.000000"


@pytest.mark.parametrize("method", ["direct", "benders"])
def test_solve_lp_r3_without_demand(tmp_path, capsys, method):
    path = tmp_path / "idle.json"
    path.write_text(save_instance(gen_random(4, 1, 0, 1, 0)))
    code, out, _ = run(capsys, "solve", str(path), "--model", "lp-r3", "--method", method)
    assert code == 0
    assert out.strip() == "0.000000"


def test_solve_usage_error(tmp_path):
    path = write_cycle(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), "--model", "lp-rwap", "--method", "benders"])
    assert exc.value.code == 2


def test_solve_record_csv(tmp_path, capsys):
    path = write_cycle(tmp_path, m=3, n=1, k=1)
    record = tmp_path / "runs.csv"
    code, out, _ = run(capsys, "solve", str(path), "--model", "lp-r3",
                       "--method", "benders", "--record", str(record))
    assert code == 0
    lines = record.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("cycle-m3-n1-k1,3,3,1,lp-r3,benders,3.000000")


def test_solve_full_model_goes_warm_from_r1(tmp_path, capsys, monkeypatch):
    """solve --model lp-rwap-ppp solves LP R1, then appends the linking rows
    and re-solves warm; the record sums the pivots of both. Cold, this model
    (4,680 rows) took 36,870 pivots."""
    inst = gen_random(8, 2, 3, 3, seed=3)
    path, record = tmp_path / "s3.json", tmp_path / "runs.csv"
    path.write_text(save_instance(inst))
    solves, original = [], simplex.solve

    def spy(model):
        rows = model.num_rows
        sol = original(model)
        solves.append((rows, sol.iterations))
        return sol

    monkeypatch.setattr(simplex, "solve", spy)
    code, out, _ = run(capsys, "solve", str(path), "--model", "lp-rwap-ppp",
                       "--record", str(record))
    assert code == 0 and out == "14.250000\n"
    count = cli.formulations.path_model_rows
    assert [rows for rows, _ in solves] == [count(inst, "r1"), count(inst, "rwap-ppp")]
    with open(record, newline="", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert row["objective"] == "14.250000" and row["status"] == "Optimal"
    assert int(row["iterations"]) == sum(pivots for _, pivots in solves) <= 5000


def test_csv_fields_are_quoted(tmp_path, capsys):
    path = write_cycle(tmp_path, name="ring.json", m=3, n=1, k=1)
    doc = json.loads(path.read_text())
    doc["name"] = 'ring, "east"'
    path.write_text(json.dumps(doc))
    record, table = tmp_path / "runs.csv", tmp_path / "bench.csv"
    assert run(capsys, "solve", str(path), "--model", "lp-r3", "--method", "benders",
               "--record", str(record))[0] == 0
    assert run(capsys, "bench", str(tmp_path), "--out", str(table))[0] == 0
    for out, count in ((record, 1), (table, 2)):
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == CSV_HEADER.split(",")
        assert len(rows) == count
        assert all(len(row) == len(header) and row[0] == doc["name"] for row in rows)


def test_solve_benders_iteration_limit(tmp_path, capsys, monkeypatch):
    path = tmp_path / "r.json"
    assert main(["gen", "random", "--nodes", "10", "--extra-edges", "2", "--requests", "3",
                 "--k", "3", "--seed", "7", "--out", str(path)]) == 0
    monkeypatch.setattr(benders, "MAX_ITERATIONS", 1)
    bound = benders.solve_lp_r3_benders(load_instance(path.read_text())).lower_bound
    code, out, err = run(capsys, "solve", str(path), "--model", "lp-r3",
                         "--method", "benders")
    assert code == 1
    assert out.strip() == f"{bound:.6f}"
    assert err.strip() == "status: IterationLimit"


def test_solve_benders_stalled_run(tmp_path, capsys, monkeypatch):
    path = tmp_path / "r.json"
    assert main(["gen", "random", "--nodes", "10", "--extra-edges", "2", "--requests", "3",
                 "--k", "3", "--seed", "7", "--out", str(path)]) == 0
    monkeypatch.setattr(benders, "cut_from_duals",
                        lambda tau, *_: Cut(tau, -1.0, ()))
    res = benders.solve_lp_r3_benders(load_instance(path.read_text()))
    assert res.status == "IterationLimit"
    code, out, err = run(capsys, "solve", str(path), "--model", "lp-r3",
                         "--method", "benders")
    assert code == 1
    assert out.strip() == f"{res.lower_bound:.6f}"
    assert err.strip() == "status: IterationLimit"


def test_solve_iteration_log(tmp_path, capsys):
    path = write_cycle(tmp_path, m=4, n=2, k=4)
    log = tmp_path / "iters.csv"
    code, _, _ = run(capsys, "solve", str(path), "--model", "lp-r3",
                     "--method", "benders", "--iteration-log", str(log))
    assert code == 0
    lines = log.read_text().strip().split("\n")
    assert lines[0].startswith("iter,master_obj,")
    assert len(lines) >= 2

    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), "--model", "lp-r3",
              "--iteration-log", str(log)])
    assert exc.value.code == 2


def test_validate_golden(net4_files, capsys):
    inst, sol = net4_files
    code, out, _ = run(capsys, "validate", str(inst), str(sol))
    assert code == 0
    assert "feasible, objective 7" in out


def test_validate_gap(net4_files, capsys):
    inst, sol = net4_files
    code, out, _ = run(capsys, "validate", str(inst), str(sol),
                       "--lower-bound", "6.5")
    assert code == 0
    assert "gap 7.7%" in out


def test_validate_clash_exits_nonzero(net4_files, tmp_path, capsys):
    inst, sol = net4_files
    doc = json.loads(sol.read_text())
    doc["working"][1]["wavelength"] = 0  # collide with request 0 on edge 1
    bad = tmp_path / "bad.solution.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(inst), str(bad))
    assert code == 1
    assert "infeasible" in out
    assert "violation[" in err


def test_bench_rings(tmp_path, capsys):
    for m in (3, 4, 5):
        write_cycle(tmp_path, name=f"cycle{m}.json", m=m, n=2, k=10)
    out_csv = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", str(tmp_path), "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 3  # one working-only + one benders row each
    r3_rows = [ln.split(",") for ln in lines[1:] if ln.split(",")[4] == "lp-r3"]
    for row in r3_rows:
        m = int(row[1])
        assert row[11] == f"{(m - 1) * 100:.1f}"  # improvement over the base bound
        assert row[12] == ""  # no upper-bound sidecar


def test_bench_empty_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    out_csv = tmp_path / "empty.csv"
    code, _, _ = run(capsys, "bench", str(empty), "--out", str(out_csv))
    assert code == 0
    assert out_csv.read_text() == CSV_HEADER + "\n"


def test_bench_upper_bound_sidecar(tmp_path, capsys):
    write_cycle(tmp_path, name="ring.json", m=4, n=2, k=10)
    (tmp_path / "ring.ub").write_text("9\n")
    out_csv = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", str(tmp_path), "--out", str(out_csv))
    assert code == 0
    rows = [ln.split(",") for ln in out_csv.read_text().strip().split("\n")[1:]]
    r3 = next(r for r in rows if r[4] == "lp-r3")
    assert r3[12] == "12.5"  # (9 - 8) / 8


def test_chain_check_ring(tmp_path, capsys):
    path = write_cycle(tmp_path, m=3, n=1, k=1)
    code, out, _ = run(capsys, "chain-check", str(path))
    assert code == 0
    assert out.strip().endswith("PASS")
    assert len([ln for ln in out.splitlines() if ln.startswith(("exact", "LP"))]) == 6


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_chain_check_seed_402(tmp_path, blas_threads):
    # its full-model LP once hit a singular basis at two OpenBLAS threads
    path = tmp_path / "r.json"
    assert main(["gen", "random", "--nodes", "6", "--extra-edges", "2", "--requests",
                 "2", "--k", "2", "--seed", "402", "--out", str(path)]) == 0
    done = run_python(["-m", "lambdabound.cli", "chain-check", str(path)], blas_threads)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["exact", "optimum", "9"]
    assert lines[1].split() == ["LP", "full", "model", "8.000000"]
    assert lines[-1] == "PASS"


def test_chain_check_refuses_large_models(tmp_path, capsys):
    path = write_cycle(tmp_path, m=5, n=3, k=80)  # k blows up the full model
    code, _, err = run(capsys, "chain-check", str(path))
    assert code == 1
    assert "tiny instances" in err


def test_chain_check_row_limit_is_read_at_call_time(tmp_path, capsys, monkeypatch):
    path = write_cycle(tmp_path, m=3, n=1, k=1)  # 2 * 3 * 1 * 1 * 6 = 36 linking rows
    monkeypatch.setattr(cli, "CHAIN_MAX_ROWS", 35)
    code, out, err = run(capsys, "chain-check", str(path))
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [
        "chain-check: full model needs ~36 linking rows (limit 35); "
        "this check is meant for tiny instances"
    ]


def test_export_and_cross_solve(tmp_path, capsys):
    path = write_cycle(tmp_path, m=3, n=1, k=1)
    out_file = tmp_path / "model.mps"
    code, _, _ = run(capsys, "export", str(path), "--model", "lp-r3",
                     "--format", "mps", "--out", str(out_file))
    assert code == 0
    res = parse_mps(out_file.read_text()).solve()
    assert res.status == 0
    assert abs(res.fun - 3.0) < 1e-6


def test_export_formats(tmp_path, capsys):
    path = write_cycle(tmp_path, m=3, n=1, k=2)
    lp_file = tmp_path / "m.lp"
    code, _, _ = run(capsys, "export", str(path), "--model", "ip-rwap",
                     "--format", "lp", "--out", str(lp_file))
    assert code == 0
    assert "Binaries" in lp_file.read_text()

    with pytest.raises(SystemExit) as exc:
        main(["export", str(path), "--model", "lp-r3", "--format", "bogus",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_oracle_command(tmp_path, capsys):
    path = write_cycle(tmp_path, m=3, n=1, k=1)
    code, out, _ = run(capsys, "oracle", str(path), "--mode", "ppp")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "oracle", str(path), "--mode", "rwap")
    assert code == 0 and out.strip() == "1"


def test_missing_instance_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "no-such-file.json", "--model", "lp-r3"])
    assert exc.value.code == 2


def test_solve_infeasible_exits_nonzero(tmp_path, capsys):
    # bridge failure disconnects the only request; not protectable
    doc = {
        "name": "bridge",
        "num_wavelengths": 2,
        "nodes": [0, 1, 2, 3, 4, 5],
        "edges": [
            {"id": 0, "u": 0, "v": 1}, {"id": 1, "u": 1, "v": 2},
            {"id": 2, "u": 0, "v": 2}, {"id": 3, "u": 3, "v": 4},
            {"id": 4, "u": 4, "v": 5}, {"id": 5, "u": 3, "v": 5},
            {"id": 6, "u": 2, "v": 3},
        ],
        "requests": [{"s": 0, "t": 5}],
        "failures": [6],
    }
    path = tmp_path / "bridge.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(path), "--model", "lp-r3",
                       "--method", "benders")
    assert code == 1
    assert "Infeasible" in err


@pytest.mark.parametrize("method", ["direct", "benders"])
def test_solve_lp_r3_needs_failures(tmp_path, capsys, method):
    path = write_cycle(tmp_path, m=3, n=1, k=1)
    doc = json.loads(path.read_text())
    doc["failures"] = []
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(path), "--model", "lp-r3", "--method", method)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "failure set" in err


def test_bench_rejects_empty_failure_set(tmp_path, capsys, monkeypatch):
    write_cycle(tmp_path, name="a.json", m=3, n=1, k=1)
    path = write_cycle(tmp_path, name="b.json", m=3, n=1, k=1)
    doc = json.loads(path.read_text())
    doc["failures"] = []
    path.write_text(json.dumps(doc))

    def no_solve(*args, **kwargs):
        raise AssertionError("bench solved before checking every instance")

    monkeypatch.setattr(cli, "_solve_record", no_solve)
    out_csv = tmp_path / "b.csv"
    code, out, err = run(capsys, "bench", str(tmp_path), "--out", str(out_csv))
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [
        f"lambdabound: error: {path}: lp-r3 needs a non-empty failure set"
    ]
    assert not out_csv.exists()


def test_solve_benders_failure_is_one_line(tmp_path, capsys, monkeypatch):
    path = write_cycle(tmp_path, m=5, n=3, k=80)
    original = benders.solve

    def failing(model):
        if model.name.startswith("sub:"):
            return Solution(status="NumericalError", objective=float("nan"))
        return original(model)

    monkeypatch.setattr(benders, "solve", failing)
    code, out, err = run(capsys, "solve", str(path), "--model", "lp-r3",
                         "--method", "benders")
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "Failed" in lines[0] and "NumericalError" in lines[0]
    assert "failure " in lines[0]


def test_solve_refuses_rows_beyond_dense_limit(net4_files, capsys, monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ROWS", 10)
    code, out, err = run(capsys, "solve", str(net4_files[0]), "--model", "lp-rwap-ppp")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("lambdabound: error: ") and "limit of 10" in lines[0]


def test_over_limit_path_lp_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch):
    path = tmp_path / "wide.json"
    assert main(["gen", "random", "--nodes", "4", "--extra-edges", "100", "--requests", "3",
                 "--out", str(path)]) == 0

    def no_build(*_, **__):
        raise AssertionError("an over-limit model was built")

    for name in ("build_ip_rwap_ppp", "build_ip_r1", "build_ip_r2"):
        monkeypatch.setattr(cli.formulations, name, no_build)
    for model, rows in (("lp-rwap-ppp", 425592), ("lp-r1", 36216), ("lp-r2", 35880)):
        code, out, err = run(capsys, "solve", str(path), "--model", model)
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("lambdabound: error: ")
        assert f"{rows} rows exceed the row limit of 10000" in lines[0]


def test_early_refusal_reads_as_the_solve_refusal(net4_files, capsys, monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ROWS", 10)
    instance = load_instance(net4_files[0].read_text())
    for model in ("lp-rwap-ppp", "lp-r1", "lp-r2"):
        with pytest.raises(lpmodel.ModelError) as late:
            simplex.solve(cli._BUILDERS[model](instance))
        code, out, err = run(capsys, "solve", str(net4_files[0]), "--model", model)
        assert code == 2 and out == ""
        assert err == f"lambdabound: error: {late.value}\n"


def _chain_check_ends_in_one_line(tmp_path, capsys):
    path = write_cycle(tmp_path, m=3, n=1, k=1)
    code, _, err = run(capsys, "chain-check", str(path))
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "NumericalError" in lines[0]


def _solve_ends_in_one_line(tmp_path, capsys):
    path = write_cycle(tmp_path)
    code, out, err = run(capsys, "solve", str(path), "--model", "lp-r3")
    assert code == 1
    assert out == ""
    assert err.strip() == "status: NumericalError"


# every factorization singular, on SuperLU (DENSE_ROWS = 0) or, in the
# _dense twins, on the dense inverse
def test_singular_basis_ends_chain_check_in_one_line(tmp_path, capsys, monkeypatch):
    patch_factor(monkeypatch, dense=False, singular=lambda call: True)
    _chain_check_ends_in_one_line(tmp_path, capsys)


def test_singular_basis_ends_chain_check_in_one_line_dense(tmp_path, capsys, monkeypatch):
    patch_factor(monkeypatch, dense=True, singular=lambda call: True)
    _chain_check_ends_in_one_line(tmp_path, capsys)


def test_singular_basis_ends_solve_in_one_line(tmp_path, capsys, monkeypatch):
    patch_factor(monkeypatch, dense=False, singular=lambda call: True)
    _solve_ends_in_one_line(tmp_path, capsys)


def test_singular_basis_ends_solve_in_one_line_dense(tmp_path, capsys, monkeypatch):
    patch_factor(monkeypatch, dense=True, singular=lambda call: True)
    _solve_ends_in_one_line(tmp_path, capsys)


def _bad_lower_bound(tmp_path, inst, sol):
    return ["validate", str(inst), str(sol), "--lower-bound", "0"]


def _bad_sidecar(tmp_path, inst, sol):
    (tmp_path / "net4.ub").write_text("abc\n")
    return ["bench", str(tmp_path), "--out", str(tmp_path / "t.csv")]


def _infinite_sidecar(tmp_path, inst, sol):
    (tmp_path / "net4.ub").write_text("inf\n")
    return ["bench", str(tmp_path), "--out", str(tmp_path / "t.csv")]


def _nan_sidecar(tmp_path, inst, sol):
    (tmp_path / "net4.ub").write_text("nan\n")
    return ["bench", str(tmp_path), "--out", str(tmp_path / "t.csv")]


def _missing_bench_dir(tmp_path, inst, sol):
    return ["bench", str(tmp_path / "nodir"), "--out", str(tmp_path / "t.csv")]


def _gen_into_missing_dir(tmp_path, inst, sol):
    out = tmp_path / "nodir" / "x.json"
    return ["gen", "cycle", "--m", "3", "--n", "1", "--k", "1", "--out", str(out)]


def _export_into_missing_dir(tmp_path, inst, sol):
    out = tmp_path / "nodir" / "x.lp"
    return ["export", str(inst), "--model", "lp-r3", "--format", "lp", "--out", str(out)]


def _record_into_directory(tmp_path, inst, sol):
    return ["solve", str(inst), "--model", "lp-rwap", "--record", str(tmp_path)]


def _no_failures(inst):
    doc = json.loads(inst.read_text())
    doc["failures"] = []
    inst.write_text(json.dumps(doc))


def _export_lp_r3_without_failures(tmp_path, inst, sol):
    _no_failures(inst)
    out = tmp_path / "x.lp"
    return ["export", str(inst), "--model", "lp-r3", "--format", "lp", "--out", str(out)]


def _chain_check_without_failures(tmp_path, inst, sol):
    _no_failures(inst)
    return ["chain-check", str(inst)]


def _failure_not_an_edge_id(tmp_path, inst, sol):
    doc = json.loads(sol.read_text())
    doc["backups"][0]["failure"] = "x"
    sol.write_text(json.dumps(doc))
    return ["validate", str(inst), str(sol)]


def _working_is_a_number(tmp_path, inst, sol):
    sol.write_text(json.dumps({"working": 5, "backups": []}))
    return ["validate", str(inst), str(sol)]


def _working_and_backups_are_null(tmp_path, inst, sol):
    sol.write_text(json.dumps({"working": None, "backups": None}))
    return ["validate", str(inst), str(sol)]


def _backups_is_a_number(tmp_path, inst, sol):
    doc = json.loads(sol.read_text())
    doc["backups"] = 3
    sol.write_text(json.dumps(doc))
    return ["validate", str(inst), str(sol)]


def _assignments_is_a_number(tmp_path, inst, sol):
    doc = json.loads(sol.read_text())
    doc["backups"][0]["assignments"] = 7
    sol.write_text(json.dumps(doc))
    return ["validate", str(inst), str(sol)]


def _solution_not_utf8(tmp_path, inst, sol):
    sol.write_bytes(b"\xff\xfe{")
    return ["validate", str(inst), str(sol)]


def _sidecar_not_utf8(tmp_path, inst, sol):
    (tmp_path / "net4.ub").write_bytes(b"\xff3")
    return ["bench", str(tmp_path), "--out", str(tmp_path / "t.csv")]


def _instance_deeper_than_recursion_limit(tmp_path, inst, sol):
    inst.write_text("[" * 100_000)
    return ["solve", str(inst), "--model", "lp-rwap"]


def _solution_deeper_than_recursion_limit(tmp_path, inst, sol):
    sol.write_text("[" * 100_000)
    return ["validate", str(inst), str(sol)]


def _oracle_path_deeper_than_recursion_limit(tmp_path, inst, sol):
    ring = tmp_path / "ring.json"
    assert main(["gen", "cycle", "--m", "1200", "--n", "1", "--k", "1",
                 "--out", str(ring)]) == 0
    return ["oracle", str(ring)]


def _oracle_requests_deeper_than_recursion_limit(tmp_path, inst, sol):
    ring = tmp_path / "ring.json"
    assert main(["gen", "cycle", "--m", "3", "--n", "1100", "--k", "1100",
                 "--out", str(ring)]) == 0
    return ["oracle", str(ring), "--mode", "rwap"]


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (_bad_lower_bound, 2, "lambdabound: error: --lower-bound"),
        (_bad_sidecar, 2, "lambdabound: error: "),
        (_infinite_sidecar, 2, "lambdabound: error: "),
        (_nan_sidecar, 2, "lambdabound: error: "),
        (_missing_bench_dir, 2, "lambdabound: error: "),
        (_gen_into_missing_dir, 2, "lambdabound: error: "),
        (_export_into_missing_dir, 2, "lambdabound: error: "),
        (_record_into_directory, 2, "lambdabound: error: "),
        (_export_lp_r3_without_failures, 2, "lambdabound: error: "),
        (_chain_check_without_failures, 2, "lambdabound: error: "),
        (_failure_not_an_edge_id, 1, "malformed solution: backups[0]"),
        (_working_is_a_number, 1, "malformed solution: working must be an array"),
        (_working_and_backups_are_null, 1, "malformed solution: working must be an array"),
        (_backups_is_a_number, 1, "malformed solution: backups must be an array"),
        (_assignments_is_a_number, 1,
         "malformed solution: backups[0].assignments must be an array"),
        (_solution_not_utf8, 1, "malformed solution: "),
        (_sidecar_not_utf8, 2, "lambdabound: error: "),
        (_instance_deeper_than_recursion_limit, 2, "lambdabound: error: "),
        (_solution_deeper_than_recursion_limit, 1, "malformed solution: nests deeper"),
        (_oracle_path_deeper_than_recursion_limit, 1, "oracle: "),
        (_oracle_requests_deeper_than_recursion_limit, 1, "oracle: "),
    ],
)
def test_user_errors_are_one_line(net4_files, tmp_path, capsys, argv, code, prefix):
    got, out, err = run(capsys, *argv(tmp_path, *net4_files))
    assert got == code
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err
    assert "Traceback" not in err
    if "without_failures" in argv.__name__:
        assert lines[0].endswith("net4.json: lp-r3 needs a non-empty failure set")
    if "sidecar" in argv.__name__:
        assert lines[0].endswith("net4.ub: upper bound must be a positive finite number")


@pytest.mark.parametrize("flag", ["--iteration-log", "--record"])
def test_unwritable_solve_outputs_fail_before_the_solve(tmp_path, capsys, monkeypatch, flag):
    path = write_cycle(tmp_path, m=3, n=1, k=1)

    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before its output paths were checked")

    monkeypatch.setattr(cli, "solve_lp_r3_benders", no_solve)
    code, out, err = run(capsys, "solve", str(path), "--model", "lp-r3",
                         "--method", "benders", flag, str(tmp_path / "nodir" / "x.csv"))
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("lambdabound: error: "), err


# every option the CLI takes: inputs, output paths and model or method
# choices. Run settings are module constants (cli.CHAIN_MAX_ROWS,
# oracle.MAX_PATHS_PER_PAIR, oracle.MAX_ASSIGNMENTS, benders.MAX_ITERATIONS),
# so a flag that tunes a run does not belong here.
CLI_OPTIONS = {
    ("gen", "cycle"): {"--m", "--n", "--k", "--out"},
    ("gen", "random"): {"--nodes", "--extra-edges", "--requests", "--k", "--seed", "--out"},
    ("solve",): {"--model", "--method", "--record", "--iteration-log"},
    ("validate",): {"--lower-bound"},
    ("bench",): {"--out"},
    ("chain-check",): set(),
    ("export",): {"--model", "--format", "--out"},
    ("oracle",): {"--mode"},
}


def _leaf_options(parser, path=()):
    """(subcommand path, its option strings) for each leaf subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, {
            opt
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
            for opt in a.option_strings
        }
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_options(child, path + (name,))


def test_no_tuning_flags():
    assert dict(_leaf_options(cli.build_parser())) == CLI_OPTIONS


def test_solve_paths_build_no_row_or_variable(tmp_path, capsys, monkeypatch):
    """Direct solves, the decomposition and chain-check read the model's arrays."""
    paths = [tmp_path / "net4.json", tmp_path / "random8.json"]
    paths[0].write_text(bundled_text("net4.json"))
    paths[1].write_text(save_instance(gen_random(8, 2, 3, 3, seed=4)))
    argvs = [
        argv
        for path in map(str, paths)
        for argv in (
            ["solve", path, "--model", "lp-r3"],
            ["solve", path, "--model", "lp-r3", "--method", "benders"],
            ["chain-check", path],
        )
    ]
    expected = [run(capsys, *argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in expected)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built")

    monkeypatch.setattr(lpmodel.Row, "__init__", refuse)
    with pytest.raises(AssertionError):
        lpmodel.Row(0, lpmodel.SENSE_EQ, 0.0, ())
    assert [run(capsys, *argv) for argv in argvs] == expected


def test_repeated_main_calls_match_lone_calls(tmp_path, capsys):
    """main builds its parser on the first call and reuses it for every call.

    Each command of a sequence run through main in one process must give
    the exit code, output and files that it gives run alone in a fresh
    interpreter. The k that main fills in for gen random's --k 0 must not
    become the next call's default: there k = max(1, requests) again.
    """
    net4 = tmp_path / "net4.json"
    net4.write_text(bundled_text("net4.json"))
    mps, k0, k = (tmp_path / name for name in ("r3.mps", "k0.json", "k.json"))
    argvs = [
        ["export", str(net4), "--model", "lp-r3", "--format", "mps", "--out", str(mps)],
        ["solve", str(net4), "--model", "lp-rwap"],
        ["gen", "random", "--nodes", "5", "--requests", "3", "--k", "0", "--out", str(k0)],
        ["solve", str(net4), "--model", "lp-r9"],  # a usage error: exit 2
        ["gen", "random", "--nodes", "5", "--requests", "1", "--out", str(k)],
    ]
    alone = []
    for argv in argvs:
        proc = run_python(["-m", "lambdabound.cli", *argv], blas_threads=1)
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    written = [path.read_text() for path in (mps, k0, k)]
    assert [code for code, _, _ in alone] == [0, 0, 0, 2, 0]
    assert [json.loads(text)["num_wavelengths"] for text in written[1:]] == [3, 1]
    for path in (mps, k0, k):
        path.unlink()

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    capsys.readouterr()
    assert [call(argv) for argv in argvs] == alone
    assert [path.read_text() for path in (mps, k0, k)] == written
    assert cli.build_parser() is cli.build_parser()
