"""cfglab benchmark: run one workload through ``cfglab.cli.main(argv)`` and report.

Usage, from the root of a cfglab checkout:

    python3 perfbench/run.py --workload mixture_sde --seed 1 --seconds 25 --trace 0

One run is one fresh interpreter.  It repeats the workload's CLI commands in
this process, all with the same seed, until ``--seconds`` have passed (at
least two passes); before each pass and after the last it times ``import
cfglab.cli`` in three fresh child interpreters (``setup_s``).  Every pass's
outputs are checked, and every pass after the first must reproduce the
first pass's CSVs byte for byte.  The program runs at its own defaults (no ``--workers`` flag).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones (see ``tracing.py``); ``trace.overhead_s`` is the difference of their
median wall times.

stdout carries a ``machine`` line and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
human-readable summary goes to stderr.  Exit code 2 when the checkout holds
no cfglab sources.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
SETUP_SAMPLES_PER_GAP = 3
SETUP_TIMEOUT_S = 30

sys.path.insert(0, HERE)
import workloads  # noqa: E402
import tracing  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
TRACE_UNITS = {"cli.bytes_out": "B", "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count"}
KERNEL_NOTE = (
    "score counts are computed from array shapes: 4*rows*M*d flop (two GEMMs) and rows*M "
    "logits at the softmax dtype per call; no roofline or bandwidth ratio is reported: the "
    "logits of one 1024-row block (90 MB at M=22026, float32) fit in the last-level cache "
    "(see machine.llc), and a bandwidth figure needs arrays of at least 4x the LLC"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its ``import cfglab.cli`` returning.

    The child reports the monotonic clock (shared by all processes) once the
    import is done.
    """
    code = "import cfglab.cli, time; print(repr(time.perf_counter()))"
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(float(proc.stdout) - start)
    return times


def machine_info() -> dict[str, object]:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu, llc = platform.processor(), None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    with contextlib.suppress(OSError):
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            llc = fh.read().strip()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Run:
    """The passes of one workload run and the operations they checked."""

    def __init__(self, workload: workloads.Workload, seed: int, tiny: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.attempted = 0
        self.failures: list[str] = []
        self.first_csvs: dict[str, bytes] | None = None
        self.workers: object = None
        self.bytes_out: list[int] = []

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}")

    def one_pass(self, tracer: tracing.Tracer | None = None) -> float:
        """Run the workload's commands once; returns their wall time."""
        import cfglab.cli

        out_dir = tempfile.mkdtemp(dir=SCRATCH)
        try:
            codes = []
            sink = io.StringIO()
            if tracer:
                tracer.install()
            try:
                start = time.perf_counter()
                with contextlib.redirect_stdout(sink):
                    for argv in self.workload.commands(self.tiny):
                        full = ["--seed", str(self.seed), "--out-dir", out_dir] + argv
                        codes.append(self._invoke(cfglab.cli.main, full, tracer))
                wall = time.perf_counter() - start
            finally:
                if tracer:
                    tracer.uninstall()
            for argv, code in zip(self.workload.commands(self.tiny), codes):
                self.record(" ".join(argv[:2]), code == 0, f"exit code {code}")
            for outcome in self.workload.check(out_dir, self.tiny):
                self.record(outcome.what, outcome.ok, outcome.detail)
            self._check_determinism(out_dir)
            return wall
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    @staticmethod
    def _invoke(main, argv: list[str], tracer: tracing.Tracer | None) -> object:
        try:
            return tracer.call(tracing.CLI, main, argv) if tracer else main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            return exc.code
        except Exception:  # a crash is a failed operation; keep measuring
            traceback.print_exc(file=sys.stderr)
            return "exception"

    def _check_determinism(self, out_dir: str) -> None:
        files = sorted(os.listdir(out_dir))
        self.bytes_out.append(sum(os.path.getsize(os.path.join(out_dir, f)) for f in files))
        csvs = {}
        for f in files:
            path = os.path.join(out_dir, f)
            if f.endswith(".csv"):
                with open(path, "rb") as fh:
                    csvs[f] = fh.read()
            elif f.endswith(".manifest.json") and self.workers is None:
                with open(path) as fh:
                    self.workers = json.load(fh).get("parameters", {}).get("workers")
        if self.first_csvs is None:
            self.first_csvs = csvs
            return
        for f in sorted(set(csvs) | set(self.first_csvs)):
            self.record(f"determinism {f}", csvs.get(f) == self.first_csvs.get(f),
                        "CSV differs from the first pass")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 between: Callable[[], None] | None = None) -> tuple[Run, dict[str, float]]:
    """Measure one workload; returns the run and its metrics (without setup_s).

    ``between`` is called before each pass and after the last one.
    """
    os.makedirs(SCRATCH, exist_ok=True)
    run = Run(workloads.WORKLOADS[name], seed, tiny)
    walls: list[float] = []
    traced: list[tuple[float, dict[str, float], int]] = []
    missing: set[str] = set()
    start = time.perf_counter()
    while len(walls) + len(traced) < 2 or time.perf_counter() - start < seconds:
        if between:
            between()
        if trace and len(traced) < len(walls):
            tracer = tracing.Tracer()
            wall = run.one_pass(tracer)
            traced.append((wall, tracing.layer_metrics(tracer), len(tracer.spans)))
            missing |= tracer.missing
            if len(traced) == 1:
                layer, self_s = tracing.largest_self_layer(tracer)
                print(f"largest self-time layer: {layer} ({self_s:.3f} s)", file=sys.stderr)
        else:
            walls.append(run.one_pass())
    if between:
        between()
    print(f"untraced pass walls (s): {[round(w, 3) for w in walls]}", file=sys.stderr)
    if not trace:
        return run, {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(run.failures) / run.attempted,
        }
    if missing:
        print(f"absent (wrapped name not found): {sorted(missing)}", file=sys.stderr)
    metrics = {m: statistics.median(t[1][m] for t in traced) for m in traced[0][1]}
    metrics["cli.bytes_out"] = float(statistics.median(run.bytes_out))
    metrics["trace.wall_s"] = statistics.median(t[0] for t in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
    metrics["trace.spans"] = float(statistics.median(t[2] for t in traced))
    return run, metrics


def units() -> dict[str, str]:
    per_layer = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
    return {**END_TO_END_UNITS, **per_layer, **TRACE_UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (not for measuring)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cfglab", "cli.py")):
        print(f"perfbench: no cfglab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cfglab

    if os.path.dirname(os.path.abspath(cfglab.__file__)) != os.path.join(SRC, "cfglab"):
        print(f"perfbench: imported cfglab from {cfglab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        run, metrics = run_workload(args.workload, args.seed, args.seconds, True, args.tiny)
    else:
        # Set-up is sampled between all passes, so that its median spans the
        # run's changing machine load; the warm-up fills the bytecode cache.
        measure_setup(1)
        setup: list[float] = []
        run, metrics = run_workload(args.workload, args.seed, args.seconds, False, args.tiny,
                                    between=lambda: setup.extend(measure_setup(SETUP_SAMPLES_PER_GAP)))
        metrics["setup_s"] = statistics.median(setup)
    with contextlib.suppress(OSError):
        os.rmdir(SCRATCH)

    machine = machine_info()
    machine["workers"] = run.workers
    print(json.dumps({"machine": machine, "workload": args.workload, "seed": args.seed}))
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    unit_of = units()
    if args.trace and args.workload == "mixture_sde":
        print(f"note: {KERNEL_NOTE}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{args.workload:14s} {name:40s} {metrics[name]:14.6g} {unit_of[name]}", file=sys.stderr)
    failed_frac = len(run.failures) / run.attempted
    print(f"{args.workload:14s} {'failed_frac':40s} {failed_frac:14.6g} ratio "
          f"({len(run.failures)}/{run.attempted} operations)", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
