"""Grid evaluation over control parameters: phase diagrams as tabular data.

Each sweep takes its two swept axes as the ``AxisSpec`` arguments
``axis1, axis2`` after its fixed parameters, walks the grid in row-major
order (axis1 outer, axis2 inner), evaluates the closed-form theory, and
classifies each cell by the signs of the distortion pair.  Every sweep
evaluates slices of ``_SLICE`` cells per call: the constant-guidance sweeps
scan and polish the switch times of a slice and take its moments in one
``assemble_trajectory`` call, and the ramp sweeps advance all the
quadratures of a slice in one lock-step batch.  Cells where the theory
evaluation fails numerically are emitted with the region label ``failed``
and the error text instead of aborting the sweep (grid edges probe the
validity limits of the formulas); a slice that fails is evaluated again in
halves, down to single cells where it must, which gives every other cell the
same bits, since every batch evaluates each cell independently of the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CfgLabError, DomainError, NumericalError
from .joint_gaussian import Lambda_coeff_linear, lambda_coeff_linear
from .mixture_theory import MixtureTheoryParams, _check_sigma2, assemble_trajectory, delta_estimators_linear
from .schedule import Constant, Linear
from .special_math import FloatOrArray

_SIGN_TOL = 1e-9
_ZERO_TOL = 1e-6
# Cells per call of a sweep: the working set of one batch grows with its
# cells, so a grid is evaluated in slices of this many.
_SLICE = 128


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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and math.isfinite(self.hi - self.lo)):
            raise DomainError(f"axis {self.name}: need finite lo, hi and hi - lo, "
                              f"got [{self.lo}, {self.hi}]")
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
    variance_shrink; both negligible: no_distortion.  A non-finite delta raises
    NumericalError: such a cell is labelled failed (``_rows_or_failed``).
    """
    if not (math.isfinite(delta_mu) and math.isfinite(delta_sigma2)):
        raise NumericalError(f"non-finite delta_mu={delta_mu} or delta_sigma2={delta_sigma2}")
    if abs(delta_mu) < _ZERO_TOL and abs(delta_sigma2) < _ZERO_TOL:
        return "no_distortion"
    if delta_mu > _SIGN_TOL and delta_sigma2 > _SIGN_TOL:
        return "separability_and_diversity"
    if delta_mu < -_SIGN_TOL:
        return "mean_collapse"
    return "variance_shrink"


def _run_grid(
    axis1: AxisSpec,
    axis2: AxisSpec,
    rows_for: Callable[[list[float], list[float]], list[SweepRow]],
) -> list[SweepRow]:
    """Evaluate the grid in row-major order, ``rows_for(a, b)`` on the axis
    values of ``_SLICE`` cells at a time."""
    a, b = (g.ravel().tolist() for g in np.meshgrid(axis1.values(), axis2.values(), indexing="ij"))
    return [row for lo in range(0, len(a), _SLICE)
            for row in _rows_or_failed(rows_for, a[lo:lo + _SLICE], b[lo:lo + _SLICE])]


def _rows_or_failed(
    rows_for: Callable[[list[float], list[float]], list[SweepRow]], a: list[float], b: list[float]
) -> list[SweepRow]:
    """rows_for(a, b), or, if it raises, each half again the same way, so
    the cells that do not raise are still evaluated in batches; a cell that
    raises alone becomes a row labelled failed that carries the error text."""
    try:
        return rows_for(a, b)
    except CfgLabError as exc:
        if len(a) == 1:
            return [SweepRow(a[0], b[0], None, None, None, "failed", error=str(exc))]
        mid = len(a) // 2
        return _rows_or_failed(rows_for, a[:mid], b[:mid]) + _rows_or_failed(rows_for, a[mid:], b[mid:])


def _rows(a: list[float], b: list[float], t_s: list[Optional[float]],
          deltas: tuple[np.ndarray, np.ndarray]) -> list[SweepRow]:
    """Rows of a slice of cells from their switch times and (delta_mu, delta_sigma2) arrays."""
    return [SweepRow(x, y, ts, dm, dv, classify_region(dm, dv))
            for x, y, ts, dm, dv in zip(a, b, t_s, deltas[0].tolist(), deltas[1].tolist())]


def _constant_guidance_rows(a: list[float], w: list[float], sigma2: FloatOrArray,
                            beta: FloatOrArray) -> list[SweepRow]:
    """Switch times and t=0 distortion of a slice of cells (sigma2, beta, w),
    one of sigma2 and beta swept along with w; a is the swept one."""
    _, rep = assemble_trajectory(MixtureTheoryParams(sigma2, beta, Constant(np.array(w))), [0.0])
    return _rows(a, w, rep.t_speciation, (rep.delta_mu, rep.delta_sigma2))


def sweep_beta_w(sigma2: float, axis1: AxisSpec, axis2: AxisSpec) -> list[SweepRow]:
    """Switch time and t=0 distortion over (beta, w) at fixed sigma2."""
    _check_sigma2(sigma2)
    return _run_grid(axis1, axis2, lambda beta, w: _constant_guidance_rows(beta, w, sigma2, np.array(beta)))


def sweep_sigma_w(beta: float, axis1: AxisSpec, axis2: AxisSpec) -> list[SweepRow]:
    """Switch time and t=0 distortion over (sigma2, w) at fixed beta."""
    if not (beta >= 0):
        raise DomainError("beta must be >= 0")
    return _run_grid(axis1, axis2, lambda sigma2, w: _constant_guidance_rows(sigma2, w, np.array(sigma2), beta))


def sweep_schedule_phase_diagram(
    sigma2: float, axis1: AxisSpec, axis2: AxisSpec
) -> list[SweepRow]:
    """t=0 distortion over (w0, omega) for the ramped schedule, guided-only path.

    Valid in the regime where the class density is large enough that the
    process never switches to the conditional phase; no switch time is
    reported.  delta_sigma2 is the absolute variance deviation (see
    ``delta_estimators_linear``).
    """
    _check_sigma2(sigma2)

    def rows(w0: list[float], omega: list[float]) -> list[SweepRow]:
        sched = Linear(np.array(w0), np.array(omega))
        return _rows(w0, omega, [None] * len(w0), delta_estimators_linear(0.0, sigma2, sched))

    return _run_grid(axis1, axis2, rows)


def sweep_joint_gaussian_schedule(
    r: float, s: float, axis1: AxisSpec, axis2: AxisSpec
) -> list[SweepRow]:
    """lambda(0) and Lambda(0) over (w0, omega) for one eigenvalue pair.

    The delta columns hold lambda-1 and Lambda-1, so the shared sign
    classifier applies: separability_and_diversity marks the beneficial cells
    where the mean and the covariance are both expanded.
    """
    if not (0 < s < r < math.inf):
        raise DomainError("need 0 < s < r < inf")

    def rows(w0: list[float], omega: list[float]) -> list[SweepRow]:
        sched = Linear(np.array(w0), np.array(omega))
        lam = lambda_coeff_linear(s, r, sched, 0.0)
        big = Lambda_coeff_linear(s, r, sched, 0.0)
        return _rows(w0, omega, [None] * len(w0), (lam - 1.0, big - 1.0))

    return _run_grid(axis1, axis2, rows)
