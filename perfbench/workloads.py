"""The benchmark's workloads: the CLI commands of one pass and the checks on their outputs.

A pass is a list of ``cfglab`` argv lists (without the global ``--seed`` and
``--out-dir``, which the runner prepends).  A check reads the CSVs a pass
wrote and returns one ``Outcome`` per checked operation; a missing or
malformed file is a failed operation, never an exception.
"""

from __future__ import annotations

import csv
import functools
import gzip
import math
import os
from dataclasses import dataclass
from typing import Callable

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# simulate mixture: criterion 3's heaviest cell (d=20, M=22026, two 1024-row blocks).
MIXTURE = {"d": 20, "beta": 0.5, "sigma2": 0.5, "w": 1.0}
# The mean-field theory misses the finite-d simulation at 60 steps by about
# 0.09 in delta_mu and up to 0.025 in delta_sigma2 (the criterion-3 gap).
# The tolerances hold that gap over seeds and still reject an unguided kernel
# (delta_mu near 0), one without the 1/g temperature (delta_sigma2 off by
# 0.09) and one with a wrong softmax normaliser (delta_mu near 1).
MIXTURE_MU_TOL = 0.12
MIXTURE_SIGMA2_TOL = 0.06

# simulate joint: criterion 4's simulation (d2=9, w=2, n=2e4, 2000 steps).
# Criterion 4 tests each of the 9 mean coordinates at 3 SE for one fixed
# seed.  The benchmark draws a fresh seed every run, where 3 SE would fail
# about one run in forty by chance alone; 4.5 SE keeps the family-wise false
# alarm rate near 1e-4 per run.  The eigen-variance tolerance is criterion 4's.
JOINT_MEAN_Z = 4.5
JOINT_VAR_REL_TOL = 0.05

# Sweep outputs must match the reference (written by this benchmark's parent
# commit) to 1e-9 relative; the absolute floor covers cells that are exactly 0.
SWEEP_REL_TOL = 1e-9
SWEEP_ABS_TOL = 1e-12

SWEEPS = (
    # (subcommand args, axis 1, axis 2, output CSV)
    (["sweep", "beta-w", "--sigma2", "0.5"], "beta", "w", "sweep_beta_w.csv"),
    (["sweep", "sigma-w", "--beta", "0.1"], "sigma2", "w", "sweep_sigma_w.csv"),
    (["sweep", "schedule", "--sigma2", "0.75"], "w0", "omega", "sweep_schedule.csv"),
    (["sweep", "joint-schedule", "--r", "1", "--s", "0.6"], "w0", "omega", "sweep_joint_schedule.csv"),
)


@dataclass(frozen=True)
class Outcome:
    """One checked operation."""

    what: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    commands: Callable[[bool], list[list[str]]]
    check: Callable[[str, bool], list[Outcome]]


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _mixture_commands(tiny: bool) -> list[list[str]]:
    n, steps = ("256", "60") if tiny else ("2048", "60")
    return [[
        "simulate", "mixture", "--d", str(MIXTURE["d"]), "--beta", str(MIXTURE["beta"]),
        "--sigma2", str(MIXTURE["sigma2"]), "--w", str(MIXTURE["w"]), "--n", n,
        "--steps", steps, "--normalize-target",
    ]]


@functools.cache
def mixture_theory() -> tuple[float, float]:
    """(delta_mu, delta_sigma2) at t=0 from the program's own closed form."""
    from cfglab.mixture_theory import MixtureTheoryParams, assemble_trajectory
    from cfglab.schedule import Constant

    params = MixtureTheoryParams(MIXTURE["sigma2"], MIXTURE["beta"], Constant(MIXTURE["w"]))
    _, rep = assemble_trajectory(params, [0.0])
    return rep.delta_mu, rep.delta_sigma2


def _check_mixture(out_dir: str, tiny: bool) -> list[Outcome]:
    try:
        rows = [r for r in _read_csv(os.path.join(out_dir, "simulate_mixture.csv"))
                if float(r["t"]) == 0.0]
        dmu, dsig = float(rows[-1]["delta_mu_hat"]), float(rows[-1]["delta_sigma2_hat"])
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [Outcome("mixture vs theory", False, f"unreadable output: {exc!r}")]
    th_mu, th_sig = mixture_theory()
    ok = (math.isfinite(dmu) and math.isfinite(dsig)
          and abs(dmu - th_mu) <= MIXTURE_MU_TOL and abs(dsig - th_sig) <= MIXTURE_SIGMA2_TOL)
    detail = (f"delta_mu {dmu:.4f} vs {th_mu:.4f} (tol {MIXTURE_MU_TOL}), "
              f"delta_sigma2 {dsig:.4f} vs {th_sig:.4f} (tol {MIXTURE_SIGMA2_TOL})")
    return [Outcome("mixture vs theory", ok, detail)]


def _joint_commands(tiny: bool) -> list[list[str]]:
    n, steps = ("8192", "1000") if tiny else ("20000", "2000")
    return [["simulate", "joint", "--d2", "9", "--w", "2", "--n", n, "--steps", steps]]


def _check_joint(out_dir: str, tiny: bool) -> list[Outcome]:
    try:
        rows = _read_csv(os.path.join(out_dir, "simulate_joint.csv"))
        z = [abs(float(r["mean_sim"]) - float(r["mean_theory"])) / float(r["mean_se"]) for r in rows]
        v = [abs(float(r["var_eig_sim"]) / float(r["var_eig_theory"]) - 1.0) for r in rows]
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        return [Outcome("joint vs guided_moments", False, f"unreadable output: {exc!r}")]
    ok = (len(rows) == 9 and all(math.isfinite(x) for x in z + v)
          and max(z) <= JOINT_MEAN_Z and max(v) <= JOINT_VAR_REL_TOL)
    detail = (f"max |z| {max(z, default=math.nan):.2f} (<= {JOINT_MEAN_Z}), "
              f"max var err {max(v, default=math.nan):.4f} (<= {JOINT_VAR_REL_TOL})")
    return [Outcome("joint vs guided_moments", ok, detail)]


def _sweep_commands(tiny: bool) -> list[list[str]]:
    # The tiny grid is the 2x2 corners of the default grid, whose axis values
    # are exactly the reference's end points.
    return [args + ([f"--{a1}-points", "2", f"--{a2}-points", "2"] if tiny else [])
            for args, a1, a2, _ in SWEEPS]


@functools.cache
def _reference(name: str) -> tuple[list[str], dict[tuple[str, str], dict[str, str]]]:
    """Header and {(axis1, axis2): row} of a reference sweep CSV."""
    with gzip.open(os.path.join(REFERENCE_DIR, name + ".gz"), "rt", newline="") as fh:
        header, *body = list(csv.reader(fh))
    return header, {(r[0], r[1]): dict(zip(header, r)) for r in body}


def _close(a: str, b: str) -> bool:
    if a == "" or b == "":
        return a == b
    return math.isclose(float(a), float(b), rel_tol=SWEEP_REL_TOL, abs_tol=SWEEP_ABS_TOL)


def _cell_problem(cell: dict[str, str], ref: dict[str, str]) -> str:
    """Empty when the cell matches its reference cell."""
    if cell["error"]:
        return f"error {cell['error']!r}"
    if cell["region_label"] != ref["region_label"]:
        return f"region {cell['region_label']} != {ref['region_label']}"
    for col in ("t_speciation", "delta_mu", "delta_sigma2"):
        if not _close(cell[col], ref[col]):
            return f"{col} {cell[col]} != {ref[col]}"
    return ""


def _check_sweeps(out_dir: str, tiny: bool) -> list[Outcome]:
    outcomes = []
    for _, _, _, name in SWEEPS:
        ref_header, ref_rows = _reference(name)
        try:
            with open(os.path.join(out_dir, name), newline="") as fh:
                header, *body = list(csv.reader(fh))
        except (OSError, ValueError) as exc:
            outcomes.append(Outcome(name, False, f"unreadable output: {exc!r}"))
            continue
        if header != ref_header:
            outcomes.append(Outcome(name, False, f"header {header} != {ref_header}"))
            continue
        seen = set()
        for row in body:
            key = tuple(row[:2])
            seen.add(key)
            if len(row) != len(header):
                problem = "malformed row"
            elif key not in ref_rows:
                problem = "no reference cell"
            else:
                problem = _cell_problem(dict(zip(header, row)), ref_rows[key])
            outcomes.append(Outcome(f"{name} cell {key}", not problem, problem))
        if not tiny:
            for key in ref_rows.keys() - seen:
                outcomes.append(Outcome(f"{name} cell {key}", False, "missing"))
    return outcomes


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "mixture_sde": Workload(_mixture_commands, _check_mixture),
    "joint_sde": Workload(_joint_commands, _check_joint),
    "theory_sweeps": Workload(_sweep_commands, _check_sweeps),
}
