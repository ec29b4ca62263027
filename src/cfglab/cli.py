"""Command-line interface.

Subcommands: theory {mixture|joint}, simulate {mixture|joint},
sweep {beta-w|sigma-w|schedule|joint-schedule}, validate.

Global flags: --seed, --workers, --out-dir, --emit-plot, accepted before
or after the subcommand (the later one wins).
--workers sets the number of threads over which ``simulate`` spreads its
sample blocks, the only parallel axis (BLAS runs on one thread inside it);
--emit-plot writes a gnuplot script next to a ``sweep`` CSV.  Each flag is
recorded only in the manifests of the command that reads it.
The resolved parameter set is recorded in a manifest written next to every
output (a sweep's also counts its cells and failed cells), and re-running
with the same parameters reproduces the CSV outputs byte for byte (the
manifest's duration field aside).

Exit codes: 0 success, 1 usage error or unwritable output (a missing --out
directory is found before the command runs), 2 invalid input or numerical
failure, 3 validation failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .errors import DomainError, NumericalError
from .joint_gaussian import guided_moments, guided_score_batch, moments, random_model
from .mixture_theory import MixtureTheoryParams, _relative_deltas, assemble_trajectory
from .schedule import Constant, GuidanceSchedule, Linear
from .simulator import (
    SimConfig,
    integrate_backward,
    make_mixture_score_fn,
    measure_distortion,
    mode_count,
    sample_centroids,
)
from .sweeps import AxisSpec, sweep_beta_w, sweep_schedule_phase_diagram, sweep_joint_gaussian_schedule, sweep_sigma_w

_USAGE_EXIT = 1
_FAILURE_EXIT = 2
_VALIDATION_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:  # a flag is never read as another's abbreviation
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # argparse default exits with 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_USAGE_EXIT)


def _fmt(x: object) -> str:
    """CSV cell: 17 significant digits for reals, empty for absent values."""
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


_PLOT_TEMPLATE = """# gnuplot heatmap for {csv}
# usage: gnuplot {script}
set datafile separator comma
set terminal pngcairo size 900,700
set output '{png}'
set key off
set view map
set xlabel '{xlabel}'
set ylabel '{ylabel}'
set title '{title}'
splot '{csv}' every ::1 using 1:2:{zcol} with points pt 5 ps 2 palette
"""


def _stem(path: str) -> str:
    """The output path without its .csv suffix, which names its sibling files."""
    return path[:-4] if path.endswith(".csv") else path


def _write_plot_script(csv_path: str, xlabel: str, ylabel: str, title: str, zcol: int) -> str:
    script = _stem(csv_path) + ".gp"
    png = os.path.basename(script)[:-3] + ".png"
    with open(script, "w", newline="\n") as fh:
        fh.write(
            _PLOT_TEMPLATE.format(
                csv=os.path.basename(csv_path),
                script=os.path.basename(script),
                png=png,
                xlabel=xlabel,
                ylabel=ylabel,
                title=title,
                zcol=zcol,
            )
        )
    return script


def _parse_times(text: str) -> list[float]:
    try:
        ts = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad time list {text!r}") from exc
    if not ts or not all(math.isfinite(t) for t in ts):
        raise argparse.ArgumentTypeError(f"want a nonempty list of finite times, got {text!r}")
    return ts


def _schedule_from(ns: argparse.Namespace) -> GuidanceSchedule:
    if ns.w is not None and (ns.w0 is not None or ns.omega is not None):
        raise argparse.ArgumentTypeError("give either --w or the pair --w0/--omega, not both")
    if ns.w is None and (ns.w0 is None or ns.omega is None):
        raise argparse.ArgumentTypeError("need --w, or both --w0 and --omega")
    try:
        return Constant(ns.w) if ns.w is not None else Linear(ns.w0, ns.omega)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w", type=float, default=None, help="constant guidance level")
    p.add_argument("--w0", type=float, default=None, help="ramp intercept w(t) = w0 + omega*t")
    p.add_argument("--omega", type=float, default=None, help="ramp slope")


def _criteria(text: str) -> list[int]:
    """--criteria: comma-separated numbers of known criteria."""
    from .acceptance import _CRITERIA

    known = [str(number) for number, *_ in _CRITERIA]
    tokens = text.split(",")
    if not set(tokens) <= set(known):
        raise argparse.ArgumentTypeError(f"want numbers among {','.join(known)}, got {text!r}")
    return [int(tok) for tok in tokens]


_RAMP_AXES = [("w0", -1.0, 1.0, 40, "linear"), ("omega", 0.125, 5.0, 40, "linear")]

# kind: (fixed flags, the two axes as (name, lo, hi, points, scale), sweep).  Each
# entry calls its sweep through the module-level name at call time, so a wrapper
# bound to that name (the per-layer tracer binds one) is the one that runs.
_SWEEPS = {
    "beta-w": (["sigma2"], [("beta", 0.01, 1.0, 40, "log"), ("w", 0.0, 1.0, 40, "linear")],
               lambda *a: sweep_beta_w(*a)),
    "sigma-w": (["beta"], [("sigma2", 0.1, 1.0, 40, "linear"), ("w", 0.0, 1.0, 40, "linear")],
                lambda *a: sweep_sigma_w(*a)),
    "schedule": (["sigma2"], _RAMP_AXES, lambda *a: sweep_schedule_phase_diagram(*a)),
    "joint-schedule": (["r", "s"], _RAMP_AXES, lambda *a: sweep_joint_gaussian_schedule(*a)),
}


def build_parser() -> _Parser:
    # The global flags, declared once and shared by the top parser and every
    # leaf command.  A leaf not given one leaves the value from before the
    # subcommand alone (SUPPRESS), so the later position wins.  The defaults
    # reach only the top parser, through a parent of their own: set_defaults on
    # a parser that holds the shared flags would write them into every leaf.
    leaf = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    leaf.add_argument("--seed", type=int)
    leaf.add_argument("--workers", type=int)
    leaf.add_argument("--out-dir")
    leaf.add_argument("--emit-plot", action="store_true")
    defaults = argparse.ArgumentParser(add_help=False)
    defaults.set_defaults(seed=0, workers=os.cpu_count() or 1, out_dir=".", emit_plot=False)
    parser = _Parser(prog="cfglab", description=__doc__, parents=[leaf, defaults])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group: argparse._SubParsersAction, name: str, run) -> _Parser:
        # A leaf stores the function main runs and itself, the parser that
        # reports the usage errors found after parsing.
        p = group.add_parser(name, parents=[leaf])
        p.set_defaults(run=run, leaf=p)
        return p

    theory = sub.add_parser("theory", help="closed-form guided moments and distortion")
    tsub = theory.add_subparsers(dest="target", required=True)
    tm = command(tsub, "mixture", _cmd_theory_mixture)
    tm.add_argument("--sigma2", type=float, required=True)
    tm.add_argument("--beta", type=float, required=True)
    _add_schedule_flags(tm)
    tm.add_argument("--t", default="0", help="comma-separated evaluation times")
    tm.add_argument("--out", default="theory_mixture.csv")
    tj = command(tsub, "joint", _cmd_theory_joint)
    tj.add_argument("--r", type=float, required=True)
    tj.add_argument("--s", type=float, required=True)
    _add_schedule_flags(tj)
    tj.add_argument("--t", default="0")
    tj.add_argument("--out", default="theory_joint.csv")

    simulate = sub.add_parser("simulate", help="Monte Carlo guided backward SDE")
    ssub = simulate.add_subparsers(dest="target", required=True)
    sm = command(ssub, "mixture", _cmd_simulate_mixture)
    sm.add_argument("--d", type=int, required=True)
    sm.add_argument("--beta", type=float, required=True)
    sm.add_argument("--sigma2", type=float, required=True)
    _add_schedule_flags(sm)
    sm.add_argument("--n", type=int, required=True)
    sm.add_argument("--T", type=float, default=500.0)
    sm.add_argument("--steps", type=int, default=2000)
    sm.add_argument("--checkpoints", default="0")
    sm.add_argument("--dump-samples", action="store_true")
    sm.add_argument("--normalize-target", action="store_true",
                    help="rescale the conditioning centroid to norm sqrt(d)")
    sm.add_argument("--out", default="simulate_mixture.csv")
    sj = command(ssub, "joint", _cmd_simulate_joint)
    sj.add_argument("--d2", type=int, required=True)
    _add_schedule_flags(sj)
    sj.add_argument("--n", type=int, required=True)
    sj.add_argument("--model-seed", type=int, default=0)
    sj.add_argument("--T", type=float, default=500.0)
    sj.add_argument("--steps", type=int, default=2000)
    sj.add_argument("--out", default="simulate_joint.csv")

    sweep = sub.add_parser("sweep", help="phase-diagram grids as CSV tables")
    wsub = sweep.add_subparsers(dest="target", required=True)
    for kind, (fixed, axes, _) in _SWEEPS.items():
        p = command(wsub, kind, _cmd_sweep)
        for name in fixed:
            p.add_argument(f"--{name}", type=float, required=True)
        for name, lo, hi, points, scale in axes:
            p.add_argument(f"--{name}-min", type=float, default=lo)
            p.add_argument(f"--{name}-max", type=float, default=hi)
            p.add_argument(f"--{name}-points", type=int, default=points)
            p.add_argument(f"--{name}-scale", choices=["linear", "log"], default=scale)
        p.add_argument("--out", default=f"sweep_{kind.replace('-', '_')}.csv")

    val = sub.add_parser("validate", help="run the acceptance criteria", parents=[leaf])
    val.add_argument("--criteria", type=_criteria, default=None,
                     help="comma-separated criterion numbers (default: all)")
    return parser


def _check_flags(ns: argparse.Namespace) -> None:
    """Judge the flags that argparse reads one by one but the command reads
    together (the guidance schedule and the time lists), and simulate's
    worker count, which must be at least 1."""
    if ns.command == "simulate" and ns.workers < 1:
        raise argparse.ArgumentTypeError(f"--workers must be >= 1, got {ns.workers}")
    if hasattr(ns, "w"):
        _schedule_from(ns)
    for name in ("t", "checkpoints"):
        if hasattr(ns, name):
            _parse_times(getattr(ns, name))


def _resolved_params(ns: argparse.Namespace) -> dict:
    skip = {"command", "target", "run", "leaf"}
    if ns.command != "simulate":
        skip.add("workers")  # only simulate reads it
    if ns.command != "sweep":
        skip.add("emit_plot")  # only sweep reads it
    return {k: v for k, v in sorted(vars(ns).items()) if k not in skip}


# A command takes the namespace and the primary output path and returns its
# table (header, rows), the other files it wrote and the manifest's counters.
_Table = tuple[list[str], list[list[object]], list[str], dict[str, int]]

_THEORY_HEADER = ["t", "mean_coeff", "variance", "delta_mu", "delta_sigma2", "phase"]


def _cmd_theory_mixture(ns: argparse.Namespace, out: str) -> _Table:
    params = MixtureTheoryParams(ns.sigma2, ns.beta, _schedule_from(ns))
    trajectory, _ = assemble_trajectory(params, sorted(_parse_times(ns.t)))
    return _THEORY_HEADER, [[m.t, m.mean_coeff, m.variance, *_relative_deltas(m, ns.sigma2), m.phase]
                            for m in trajectory], [], {}


def _cmd_theory_joint(ns: argparse.Namespace, out: str) -> _Table:
    t = np.array(sorted(_parse_times(ns.t)))
    mean_coeff, variance = moments(ns.s, ns.r, _schedule_from(ns), t)
    columns = (t, mean_coeff, variance, mean_coeff - 1.0, variance / (ns.s + t) - 1.0)
    return _THEORY_HEADER, [[*row, ""] for row in zip(*(c.tolist() for c in columns))], [], {}


def _cmd_simulate_mixture(ns: argparse.Namespace, out: str) -> _Table:
    sched = _schedule_from(ns)
    checkpoints = tuple(_parse_times(ns.checkpoints))
    M = mode_count(ns.beta, ns.d)
    inst = sample_centroids(
        ns.d, M, ns.seed, sigma2=ns.sigma2, normalize_target=ns.normalize_target
    )
    config = SimConfig(dim=ns.d, n_samples=ns.n, seed=ns.seed, horizon_T=ns.T, n_steps=ns.steps,
                       checkpoints=checkpoints)
    score = make_mixture_score_fn(inst, sched, softmax_dtype=np.float32 if M > 4096 else np.float64)
    # The score holds its own copy of the centroids: keep only the target row,
    # so the float64 (M, d) matrix is freed before the integration.
    target = inst.target.copy()
    del inst
    samples = integrate_backward(config, score, grid_offset=ns.sigma2, workers=ns.workers)
    rows = []
    for t in config.checkpoints:  # every estimate is finite before any file is written
        emp = measure_distortion(samples[t], target, ns.sigma2 + t, seed=ns.seed)
        rows.append([t, emp.delta_mu_hat, emp.delta_mu_se, emp.delta_sigma2_hat,
                     emp.delta_sigma2_se, emp.n_samples])
    dumps = []
    for t in config.checkpoints if ns.dump_samples else ():
        dumps.append(_stem(out) + f"_samples_t{_fmt(float(t))}.csv")
        _write_csv(dumps[-1], [f"x_{j + 1}" for j in range(ns.d)], samples[t].tolist())
    return ["t", "delta_mu_hat", "delta_mu_se", "delta_sigma2_hat", "delta_sigma2_se",
            "n_samples"], rows, dumps, {}


def _cmd_simulate_joint(ns: argparse.Namespace, out: str) -> _Table:
    sched = _schedule_from(ns)
    model = random_model(ns.d2, ns.model_seed)
    config = SimConfig(dim=ns.d2, n_samples=ns.n, seed=ns.seed, horizon_T=ns.T, n_steps=ns.steps)
    samples = integrate_backward(
        config,
        lambda x, t: guided_score_batch(model, sched, x, t),
        grid_offset=float(np.min(model.s)),
        init_mean=model.mu,
        workers=ns.workers,
    )[0.0]
    mean_th, cov_eigs = guided_moments(model, sched, 0.0)
    y = samples @ model.basis
    mean_sim = model.basis @ y.mean(axis=0)
    mean_se = samples.std(axis=0, ddof=1) / math.sqrt(ns.n)
    var_sim = y.var(axis=0, ddof=1)
    rows = [
        [i, mean_th[i], mean_sim[i], mean_se[i], cov_eigs[i], var_sim[i]]
        for i in range(ns.d2)
    ]
    return ["eig_index", "mean_theory", "mean_sim", "mean_se", "var_eig_theory",
            "var_eig_sim"], rows, [], {}


def _cmd_sweep(ns: argparse.Namespace, out: str) -> _Table:
    """The sweep's table; its counters (the cells and the failed cells) stay
    out of the CSV."""
    fixed, axes, sweep = _SWEEPS[ns.target]
    names = [name for name, *_ in axes]
    specs = [AxisSpec(name, *(getattr(ns, f"{name}_{k}") for k in ("min", "max", "points", "scale")))
             for name in names]
    rows = sweep(*(getattr(ns, name) for name in fixed), *specs)
    table = [[r.axis1_value, r.axis2_value, r.t_speciation, r.delta_mu, r.delta_sigma2,
              r.region_label, r.error] for r in rows]
    plot = [_write_plot_script(out, names[0], names[1], f"sweep {ns.target}", 4)] if ns.emit_plot else []
    counters = {"cells": len(rows), "failed_cells": sum(r.region_label == "failed" for r in rows)}
    return ([*names, "t_speciation", "delta_mu", "delta_sigma2", "region_label", "error"], table,
            plot, counters)


def _cmd_validate(ns: argparse.Namespace) -> int:
    from .acceptance import run_criteria

    results = run_criteria(numbers=ns.criteria)
    failures = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] criterion {r.number}: {r.name} ({r.runtime_s:.1f}s, budget {r.budget_s:.0f}s) {r.detail}")
    print(f"{len(results) - len(failures)}/{len(results)} criteria passed")
    return 0 if not failures else _VALIDATION_EXIT


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _check_flags(ns)
    except argparse.ArgumentTypeError as exc:
        ns.leaf.error(str(exc))
    try:
        os.makedirs(ns.out_dir, exist_ok=True)
        if ns.command == "validate":  # the one command without a table
            return _cmd_validate(ns)
        out = os.path.join(ns.out_dir, ns.out)
        if not os.path.isdir(os.path.dirname(out) or "."):  # found before the work, not after
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
        started = time.perf_counter()
        header, rows, extra, counters = ns.run(ns, out)
        _write_csv(out, header, rows)
        manifest = {"tool_version": __version__, "subcommand": f"{ns.command} {ns.target}",
                    "parameters": _resolved_params(ns), "seed": ns.seed,
                    "duration_s": time.perf_counter() - started,
                    "outputs": [os.path.basename(o) for o in [out, *extra]]}
        if counters:
            manifest["counters"] = counters
        with open(out + ".manifest.json", "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for o in [out, *extra]:
            print(o)
        return 0
    except DomainError as exc:
        print(f"cfglab: invalid input to {ns.command}: {exc}", file=sys.stderr)
        return _FAILURE_EXIT
    except NumericalError as exc:
        print(f"cfglab: numerical failure in {ns.command}: {exc}", file=sys.stderr)
        return _FAILURE_EXIT
    except OSError as exc:
        print(f"cfglab: cannot write output: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
