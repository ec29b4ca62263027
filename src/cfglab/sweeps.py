"""Grid evaluation over control parameters: phase diagrams as tabular data.

Each sweep takes its two swept axes as the ``AxisSpec`` arguments
``axis1, axis2`` after its fixed parameters, walks the grid in row-major
order (axis1 outer, axis2 inner), evaluates the closed-form theory per cell,
and classifies the cell by the signs of the distortion pair.  Cells where
the theory evaluation fails numerically are emitted with the region label
``failed`` and the error text instead of aborting the sweep (grid edges
probe the validity limits of the formulas).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CfgLabError, DomainError
from .joint_gaussian import Lambda_coeff_linear, lambda_coeff_linear
from .mixture_theory import MixtureTheoryParams, assemble_trajectory, delta_estimators_linear
from .schedule import Constant, Linear

__all__ = [
    "AxisSpec",
    "SweepRow",
    "classify_region",
    "sweep_beta_w",
    "sweep_sigma_w",
    "sweep_schedule_phase_diagram",
    "sweep_joint_gaussian_schedule",
]

_SIGN_TOL = 1e-9
_ZERO_TOL = 1e-6


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: name, range, resolution, linear or log placement."""

    name: str
    lo: float
    hi: float
    n_points: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise DomainError("each axis needs at least 2 points")
        if not (self.lo < self.hi):
            raise DomainError(f"axis {self.name}: need lo < hi")
        if self.scale not in ("linear", "log"):
            raise DomainError(f"axis {self.name}: scale must be linear or log")
        if self.scale == "log" and self.lo <= 0:
            raise DomainError(f"axis {self.name}: log scale requires lo > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.n_points)
        return np.linspace(self.lo, self.hi, self.n_points)


@dataclass(frozen=True)
class SweepRow:
    """One grid cell: axis values, switch time, distortion pair, region."""

    axis1_value: float
    axis2_value: float
    t_speciation: Optional[float]
    delta_mu: Optional[float]
    delta_sigma2: Optional[float]
    region_label: str
    error: str = ""


def classify_region(delta_mu: float, delta_sigma2: float) -> str:
    """Sign-based region taxonomy (sign threshold 1e-9, dead zone 1e-6).

    Both deltas positive: separability_and_diversity (the beneficial cell);
    negative mean shift: mean_collapse; otherwise a negative variance shift:
    variance_shrink; both negligible: no_distortion.  A cell whose theory
    evaluation failed has no deltas and is labelled failed (``_run_grid``).
    """
    if abs(delta_mu) < _ZERO_TOL and abs(delta_sigma2) < _ZERO_TOL:
        return "no_distortion"
    if delta_mu > _SIGN_TOL and delta_sigma2 > _SIGN_TOL:
        return "separability_and_diversity"
    if delta_mu < -_SIGN_TOL:
        return "mean_collapse"
    return "variance_shrink"


def _run_grid(
    axis1: AxisSpec, axis2: AxisSpec, cell: Callable[[float, float], SweepRow]
) -> list[SweepRow]:
    """Evaluate every cell in row-major order; a failed cell becomes a row
    labelled failed that carries the error text."""
    rows = []
    for a in axis1.values().tolist():
        for b in axis2.values().tolist():
            try:
                rows.append(cell(a, b))
            except CfgLabError as exc:
                rows.append(SweepRow(a, b, None, None, None, "failed", error=str(exc)))
    return rows


def _constant_guidance_row(axis1: float, w: float, sigma2: float, beta: float) -> SweepRow:
    """Switch time and t=0 distortion at (sigma2, beta, w); axis1 is the swept one."""
    _, rep = assemble_trajectory(MixtureTheoryParams(sigma2, beta, Constant(w)), [0.0])
    return SweepRow(
        axis1,
        w,
        rep.t_speciation,
        rep.delta_mu,
        rep.delta_sigma2,
        classify_region(rep.delta_mu, rep.delta_sigma2),
    )


def sweep_beta_w(sigma2: float, axis1: AxisSpec, axis2: AxisSpec) -> list[SweepRow]:
    """Switch time and t=0 distortion over (beta, w) at fixed sigma2."""
    if not (sigma2 > 0):
        raise DomainError("sigma2 must be positive")
    return _run_grid(axis1, axis2, lambda beta, w: _constant_guidance_row(beta, w, sigma2, beta))


def sweep_sigma_w(beta: float, axis1: AxisSpec, axis2: AxisSpec) -> list[SweepRow]:
    """Switch time and t=0 distortion over (sigma2, w) at fixed beta."""
    if not (beta >= 0):
        raise DomainError("beta must be >= 0")
    return _run_grid(axis1, axis2, lambda sigma2, w: _constant_guidance_row(sigma2, w, sigma2, beta))


def sweep_schedule_phase_diagram(
    sigma2: float, axis1: AxisSpec, axis2: AxisSpec
) -> list[SweepRow]:
    """t=0 distortion over (w0, omega) for the ramped schedule, guided-only path.

    Valid in the regime where the class density is large enough that the
    process never switches to the conditional phase; no switch time is
    reported.  delta_sigma2 is the absolute variance deviation (see
    ``delta_estimators_linear``).
    """
    if not (sigma2 > 0):
        raise DomainError("sigma2 must be positive")

    def cell(w0: float, omega: float) -> SweepRow:
        dm, dv = delta_estimators_linear(0.0, sigma2, Linear(w0, omega))
        return SweepRow(w0, omega, None, dm, dv, classify_region(dm, dv))

    return _run_grid(axis1, axis2, cell)


def sweep_joint_gaussian_schedule(
    r: float, s: float, axis1: AxisSpec, axis2: AxisSpec
) -> list[SweepRow]:
    """lambda(0) and Lambda(0) over (w0, omega) for one eigenvalue pair.

    The delta columns hold lambda-1 and Lambda-1, so the shared sign
    classifier applies: separability_and_diversity marks the beneficial cells
    where the mean and the covariance are both expanded.
    """
    if not (0 < s < r):
        raise DomainError("need 0 < s < r")

    def cell(w0: float, omega: float) -> SweepRow:
        sched = Linear(w0, omega)
        lam = lambda_coeff_linear(s, r, sched, 0.0)
        big = Lambda_coeff_linear(s, r, sched, 0.0)
        return SweepRow(w0, omega, None, lam - 1.0, big - 1.0, classify_region(lam - 1.0, big - 1.0))

    return _run_grid(axis1, axis2, cell)
