"""Smoke test of the benchmark at tiny sizes: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
SEED = 1


def _run_tiny(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _unguided_factory(inst, schedule, softmax_dtype=None):
    c1, sigma2 = inst.target, inst.sigma2
    return lambda x, t: (c1 - x) / (sigma2 + t)


def test_a_broken_kernel_raises_failed_frac(monkeypatch):
    import cfglab.cli

    good, good_metrics = run.run_workload("mixture_sde", SEED, 0, False, tiny=True)
    monkeypatch.setattr(cfglab.cli, "make_mixture_score_fn", _unguided_factory)
    bad, bad_metrics = run.run_workload("mixture_sde", SEED, 0, False, tiny=True)
    assert good_metrics["ok_frac"] == 1.0 and not good.failures
    assert bad_metrics["ok_frac"] < 1.0
    assert all(f.startswith("mixture vs theory") for f in bad.failures)


def test_failed_sweep_cells_count_as_failed_operations(monkeypatch):
    import cfglab.cli

    real = cfglab.cli.sweep_beta_w

    def failing(*args, **kwargs):
        return [dataclasses.replace(r, error="boom") for r in real(*args, **kwargs)]

    monkeypatch.setattr(cfglab.cli, "sweep_beta_w", failing)
    result, metrics = run.run_workload("theory_sweeps", SEED, 0, False, tiny=True)
    # 2x2 corner cells, two passes
    assert len([f for f in result.failures if f.startswith("sweep_beta_w.csv cell")]) == 2 * 4
    assert metrics["ok_frac"] < 1.0


def test_a_missing_wrapped_name_marks_its_metrics_absent(monkeypatch):
    patches = tuple((m, "sweep_constant_guidance" if a == "sweep_beta_w" else a, n)
                    for m, a, n in tracing.SPAN_PATCHES)
    monkeypatch.setattr(tracing, "SPAN_PATCHES", patches)
    result, metrics = run.run_workload("theory_sweeps", SEED, 0, True, tiny=True)
    assert not result.failures
    assert "sweeps.beta_w_s" not in metrics and "sweeps.self_s" not in metrics
    assert metrics["sweeps.sigma_w_s"] > 0 and metrics["mixture_theory.speciation_calls"] > 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = tracing.Span("simulator.integrate", None)
    parent.start, parent.end = 0.0, 10.0
    kids = []
    for lo, hi in ((1.0, 5.0), (3.0, 7.0)):  # two worker threads, overlapping
        kid = tracing.Span("simulator.score", parent)
        kid.start, kid.end = lo, hi
        kids.append(kid)
    stats = tracing.SpanStats([parent] + kids)
    assert stats.self_time("simulator.integrate") == pytest.approx(4.0)
    assert stats.wall("simulator.score") == pytest.approx(6.0)
    assert stats.busy("simulator.score") == pytest.approx(8.0)
