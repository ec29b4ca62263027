"""The names the per-layer tracer patches still exist.

``perfbench/tracing.py`` wraps functions that one ``cfglab`` module looks up
in another.  A wrapped name that is gone only turns its metrics absent, so a
refactor that drops or renames one would pass unnoticed outside the
benchmark's own smoke test; this check fails instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
PATCHED = sorted(
    {(module, attr) for module, attr, _ in tracing.SPAN_PATCHES + tracing.COUNT_PATCHES}
    | {tracing.SCORE_FACTORY}
)


@pytest.mark.parametrize("module,attr", PATCHED, ids=[f"{m}.{a}" for m, a in PATCHED])
def test_patched_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_score_factory_takes_the_arguments_the_tracer_binds():
    module, attr = tracing.SCORE_FACTORY
    parameters = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
    assert "inst" in parameters and "softmax_dtype" in parameters


_SWEEP_ARGV = {
    "beta-w": ["--sigma2", "0.5", "--beta-points", "2", "--w-points", "2"],
    "sigma-w": ["--beta", "0.1", "--sigma2-points", "2", "--w-points", "2"],
    "schedule": ["--sigma2", "0.75", "--w0-points", "2", "--omega-points", "2"],
    "joint-schedule": ["--r", "1", "--s", "0.6", "--w0-points", "2", "--omega-points", "2"],
}


def _traced(tmp_path, commands):
    """Span counts by name of the ``cfglab`` commands (argv lists) under the tracer."""
    from cfglab.cli import main

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in commands:
            assert main(["--out-dir", str(tmp_path), *argv]) == 0
    finally:
        tracer.uninstall()
    assert not tracer.missing
    return tracing.SpanStats(tracer.spans).calls


def _traced_calls(tmp_path, kinds):
    """Span counts by name of the sweeps ``kinds`` at 2x2 points under the tracer."""
    return _traced(tmp_path, [["sweep", kind, *_SWEEP_ARGV[kind]] for kind in kinds])


def test_wrapped_names_are_still_called(tmp_path):
    # A wrapped name that resolves but is no longer called reads as a silent
    # zero; run the four sweeps at 2x2 points under the tracer and count spans.
    calls = _traced_calls(tmp_path, list(_SWEEP_ARGV))
    expected = {
        # Every sweep evaluates a 2x2 grid as one slice: lambda and Lambda once
        # each for a ramp sweep, and one trajectory, one switch scan and one
        # root polish for a constant-guidance sweep.
        "joint_gaussian.coeff_linear": 4,
        "mixture_theory.delta_linear": 1,
        "mixture_theory.assemble": 2,
        "mixture_theory.speciation": 2,
        "special_math.bisection": 2,
        **{name: 1 for name in tracing.SWEEP_SPANS},
    }
    assert {name: calls(name) for name in expected} == expected


@pytest.mark.parametrize(
    "kind,path",
    [
        ("schedule", ["mixture_theory.delta_linear", "joint_gaussian.coeff_linear",
                      "special_math.beta", "special_math.quad"]),
        ("joint-schedule", ["joint_gaussian.coeff_linear", "special_math.beta", "special_math.quad"]),
    ],
)
def test_every_wrapped_name_on_a_ramp_sweep_path_is_called(tmp_path, kind, path):
    calls = _traced_calls(tmp_path, [kind])
    assert all(calls(name) >= 1 for name in path), {name: calls(name) for name in path}


def test_every_wrapped_name_on_the_simulate_path_is_called(tmp_path):
    tiny = ["--w", "1", "--n", "50", "--steps", "20"]
    calls = _traced(tmp_path, [
        ["simulate", "mixture", "--d", "3", "--beta", "0.3", "--sigma2", "0.5", *tiny],
        ["simulate", "joint", "--d2", "3", *tiny],
    ])
    path = ["simulator.centroids", "simulator.integrate", "simulator.bootstrap",
            tracing.SCORE_SETUP, tracing.SCORE, "joint_gaussian.drift"]
    assert all(calls(name) >= 1 for name in path), {name: calls(name) for name in path}
