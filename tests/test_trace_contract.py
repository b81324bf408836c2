"""The names ``perfbench/tracing.py`` wraps still exist in the library.

The benchmark times each layer through module attributes it replaces;
a name the library drops makes that layer's metrics absent, and the
benchmark's self-check then rejects every traced run.  This test runs
the tracer on one small input per command, in process, so that a
dropped name fails here.  Both files are only read.
"""

import importlib.util
import json
import pathlib

import numpy as np

import perron.cli
from perron import solver

ROOT = pathlib.Path(__file__).resolve().parents[1]
LAYERS = {"cli", "matcore", "structure", "kernels", "solver", "perturb", "harness"}


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_is_wrapped_and_every_metric_present(fixtures_dir, capsys):
    tracing = _tracing()
    tracer = tracing.Tracer()
    restore, installed = tracing.install(tracer)
    try:
        assert {name.split(".", 1)[0] for name in installed} == LAYERS
        commands = (
            ["analyze", "blocks4.txt"],
            ["certify", "cycle2.txt", "cycle2_perturbed.txt"],
            ["converge", "cycle3.txt", "direction3.txt", "--count", "3"],
            ["gelfand", "cycle3.txt"],
        )
        for op, argv in enumerate(commands):
            tracer.op = op
            code = perron.cli.main(
                [str(fixtures_dir / a) if a.endswith(".txt") else a for a in argv])
            assert code == 0, argv
    finally:
        restore()
    stdout = capsys.readouterr().out
    metrics, absent = tracing.layer_metrics(
        tracer.spans, installed, 1, len(commands), len(stdout), 1.0, 0.0)
    assert absent == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}


def test_kernel_name_is_one_stacked_pass():
    rng = np.random.default_rng(7)
    for n in (3, 12, 70):
        b = rng.uniform(0.5, 1.5, (n, n))
        got = solver.collatz_wielandt(b, 1e-12, 100)
        want = solver.collatz_wielandt_stack(b[None], 1e-12, 100)[0]
        assert (got.lo, got.hi, got.iterations) == (want.lo, want.hi, want.iterations)
        assert got.witness.tobytes() == want.witness.tobytes()
