"""The benchmark tracer (benchmark/tracing.py) against the program it wraps.

The tracer replaces attributes of lambdabound's modules from outside and
reads a few model and result fields, so a rename in the program would
silently empty a benchmark layer. This runs it over the CLI and checks the
layers it fills and that it leaves the modules as it found them.
"""

import os
import sys

from lambdabound import benders, cli, formulations, oracle, simplex, validator
from lambdabound.instance import bundled_text, gen_random, save_instance

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmark"))

import tracing  # noqa: E402

MODULES = (benders, cli, formulations, oracle, simplex, validator)


def test_tracer_fills_its_layers_and_restores_the_modules(tmp_path, capsys, monkeypatch):
    path, random6 = tmp_path / "net4.json", tmp_path / "random6.json"
    path.write_text(bundled_text("net4.json"))
    # net4's filter skips every failure, so its decomposition solves no subproblem
    random6.write_text(save_instance(gen_random(6, 2, 3, 3, seed=1)))
    built_nnz = []
    for name in tracing._FULL_BUILDERS:

        def build(*args, _original=getattr(formulations, name), **kwargs):
            model, varmap = _original(*args, **kwargs)
            built_nnz.append(model.matrix.nnz)
            return model, varmap

        monkeypatch.setattr(formulations, name, build)

    before = [dict(vars(module)) for module in MODULES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = [dict(vars(module)) for module in MODULES]
        for argv in (
            ["solve", str(path), "--model", "lp-r3"],
            ["solve", str(path), "--model", "lp-r3", "--method", "benders"],
            ["solve", str(random6), "--model", "lp-r3", "--method", "benders"],
            ["export", str(path), "--model", "ip-rwap-ppp", "--format", "lp",
             "--out", str(tmp_path / "net4.lp")],
        ):
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()

    metrics = tracing.layer_metrics(tracer.spans)
    # the direct lp-r3 and the exported ip-rwap-ppp; the decomposition builds
    # its master and subproblems outside the full builders
    assert metrics["formulations.build_calls"] == len(built_nnz) == 2
    assert metrics["formulations.nnz"] == sum(built_nnz) > 0
    assert metrics["simplex.solves"] > 0
    assert metrics["benders.master_pivots"] > 0
    assert metrics["benders.sub_solves"] > 0
    assert metrics["lpmodel.export_bytes"] == (tmp_path / "net4.lp").stat().st_size

    for module, old, new in zip(MODULES, before, installed):
        patched = [key for key in new if key not in old or old[key] is not new[key]]
        assert patched, module.__name__
        now = vars(module)
        assert set(now) == set(old), module.__name__
        assert all(now[key] is old[key] for key in old), module.__name__
