"""Mean-field theory of guided sampling from a mixture of M Gaussians.

Target: a homogeneous mixture of M = exp(beta * d) isotropic Gaussians with
per-mode variance sigma^2 and standard-normal centroids, conditioned on one
mode c1.  In the large-d limit the guided backward process is driven by a
piecewise quadratic effective potential with two phases:

* guided phase -- the drift feels the whole sea of modes through the
  log-partition of exponentially many overlap terms; the well centre sits
  beyond c1 and its width is narrowed by positive guidance;
* conditional phase -- mode c1 dominates the marginal, the drift reduces to
  the plain conditional score and the process relaxes to the true target.

The phase switch happens when beta + zeta_t changes sign, where zeta_t is the
per-coordinate cumulant generating function of the mode overlaps evaluated
along the mean trajectory.  The switch time t_s ("speciation time") seeds the
conditional phase; distortion at sampling time t=0 is summarised by

    delta_mu      = c1 . (mean(0) - c1) / d        (mean shift along c1)
    delta_sigma2  = (var(0) - sigma^2) / sigma^2   (relative variance change)

By isotropy the d-dimensional moments reduce to a scalar pair
(mean_coeff a(t), variance s^2(t)) with mean(t) = a(t) * c1.  Both phases
are joint-Gaussian moments at (s, r) = (sigma^2, sigma^2 + 1): the guided
phase is ``joint_gaussian.moments`` there, the horizon-free
a(t) = lambda(t), s^2(t) = (sigma^2 + t) Lambda(t) of the schedule, and the
conditional phase is the propagator at w = 0, seeded at t_s by the guided
moments there.  One ``assemble_trajectory`` serves every schedule.  The
switch is computed for a constant schedule only; a ramp's trajectory has
t_s = None, the guided-only regime of a class density large enough that the
process never switches.  Under a constant schedule sigma^2, beta and w may
be arrays: a batch of cells whose switch scans, root polishes and moments
each run as one array computation (a float call is a batch of one), and a
cell gets the same bits alone as in any batch.

Conventions fixed by exactly solvable limits (see the test suite):
* zeta_t is evaluated on the mean path, q1 = (a-1)^2, q2 = a^2 with
  |c1|^2/d = 1.  This reproduces the closed-form switch time of the
  linear-ramp sanity schedule and the large-t asymptote
  zeta_t ~ -(1+w)/t exactly; including the per-coordinate variance in
  q1/q2 would break both.  These overlaps leave out the per-sample variance
  s^2: a sample sits at q1 = (a-1)^2 + s^2, q2 = a^2 + s^2, and the term
  s^2/(2g(g+1)) that the mean path drops stays O(1) at any d.  So
  ``speciation_time`` is the switch of the mean path, not the switch the
  samples of the finite-d process make: 1.886 against 1.091 at
  sigma2 = beta = 0.5, w = 1 (``sample_path_report`` places the switch
  where the samples make it, the reference that criterion 3 checks the
  simulator against).
* the guided-branch variance estimator subtracts (sigma^2 + t), forced by
  the w = 0 identity (unguided conditional diffusion has variance exactly
  sigma^2 + t, so delta_sigma2 must vanish at every t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError
from .joint_gaussian import Lambda_coeff_linear, lambda_coeff_linear, lambda_formula, moments, propagate
from .schedule import Constant, GuidanceSchedule, Linear
from .special_math import FloatOrArray, _check_each, _flat, bisection_root

GUIDED = "guided"
CONDITIONAL = "conditional"

# The switch-time scan brackets a sign change on a log grid before refining,
# in chunks of _SCAN_ROWS cells: a (cells x 400) scan of a whole batch would
# hold several MB of temporaries at once.
_SCAN_GRID = np.geomspace(1e-6, 1e8, 400)
_LOG_SCAN_GRID = np.log(_SCAN_GRID)
_SCAN_ROWS = 16

# A switch time per cell: None, math.inf or a positive float (``DistortionReport``).
SwitchTime = Optional[float]


def _check_sigma2(sigma2: FloatOrArray) -> None:
    """DomainError unless 0 < sigma2 < 2**53 in every cell: from 2**53 on,
    floats no longer resolve the guided phase's r = sigma2 + 1.  It rounds to
    sigma2, where the closed forms divide 0 by 0, or to sigma2 + 2."""
    _check_each((0 < np.asarray(sigma2)) & (np.asarray(sigma2) < 2.0**53),
                lambda s: f"sigma2 must be positive and below 2**53, got {s}", sigma2)


@dataclass(frozen=True)
class MixtureTheoryParams:
    """Mean-field control parameters of the mixture target.

    Under a constant schedule sigma2, beta and the schedule's w may be arrays
    that broadcast together: a batch of cells, each checked.
    """

    sigma2: FloatOrArray  # per-mode variance
    beta: FloatOrArray  # class-density exponent log(M)/d
    schedule: GuidanceSchedule

    def __post_init__(self) -> None:
        _check_sigma2(self.sigma2)
        _check_each(np.asarray(self.beta) >= 0, lambda b: f"beta must be >= 0, got {b}", self.beta)


@dataclass(frozen=True)
class GuidedMoments:
    """Reduced trajectory state: mean = mean_coeff * c1, isotropic variance.

    For a batch of cells mean_coeff and variance are arrays and phase is a
    list, one entry per cell.
    """

    t: float
    mean_coeff: FloatOrArray
    variance: FloatOrArray
    phase: Union[str, list[str]]

    def __post_init__(self) -> None:
        _check_each(~(np.asarray(self.variance) < 0), lambda v: f"variance must be >= 0, got {v}",
                    self.variance)
        for phase in [self.phase] if isinstance(self.phase, str) else self.phase:
            if phase not in (GUIDED, CONDITIONAL):
                raise DomainError(f"unknown phase label {phase!r}")


@dataclass(frozen=True)
class DistortionReport:
    """Distortion of the sampled law at t = 0 and the switch time behind it.

    ``t_speciation`` is None when the process never leaves the guided phase
    (no transition: distortion persists) and math.inf when the transition
    happens beyond any finite time (always conditional: zero distortion).
    For a ramped schedule it is always None: no switch is computed, and the
    report is that of the guided-only regime.
    Switch times are positive, so the phase at t = 0 is guided exactly when
    ``t_speciation`` is None.  For a batch of cells the deltas are flat
    arrays and ``t_speciation`` a list, in the batch's flat order.
    """

    delta_mu: FloatOrArray
    delta_sigma2: FloatOrArray
    t_speciation: Union[SwitchTime, list[SwitchTime]]


# ---------------------------------------------------------------------------
# Overlap cumulant generating function
# ---------------------------------------------------------------------------


def zeta(
    t: FloatOrArray, lam: float, sigma2: FloatOrArray, q1: FloatOrArray, q2: FloatOrArray
) -> FloatOrArray:
    """Per-coordinate log-MGF of the mode-overlap energies at position x.

    q1 = lim |x - c1|^2 / d and q2 = lim |x|^2 / d locate x;
    zeta = lam*q1/(2g) - log(1 + lam/g)/2 - lam*q2/(2(g+lam)), g = sigma2 + t.
    Elementwise over array arguments, and a float gets the bits of the same
    element of an array; DomainError if any element has sigma2 + t <= 0 or
    sigma2 + t + lam <= 0, or if t, sigma2 or lam is nan.
    """
    g = sigma2 + t
    g_min = np.min(g)  # nan if any element is
    if not (g_min + min(lam, 0.0) > 0):  # g + lam <= g when lam <= 0: one test covers both
        raise DomainError(f"need sigma2+t > 0 and sigma2+t+lam > 0, got min g={g_min}, lam={lam}")
    return (
        lam * q1 / (2.0 * g)
        - 0.5 * np.log1p(lam / g)
        - lam * q2 / (2.0 * (g + lam))
    )


def zeta_typical(t: FloatOrArray, sigma2: FloatOrArray, w: FloatOrArray) -> FloatOrArray:
    """zeta at unit tilt along the typical guided trajectory: the mean path
    q1 = (a-1)^2, q2 = a^2 with |c1|^2/d = 1 and a = lambda(t); elementwise
    over arrays that broadcast together.

    Tends to -(1+w)/t at large t, so the switch time diverges like (1+w)/beta
    when the class density beta vanishes.
    """
    a = lambda_formula(sigma2, sigma2 + 1.0, w, t)
    return zeta(t, 1.0, sigma2, (a - 1.0) ** 2, a * a)


# ---------------------------------------------------------------------------
# Phase boundaries
# ---------------------------------------------------------------------------


def speciation_time(params: MixtureTheoryParams) -> Union[SwitchTime, list[SwitchTime]]:
    """Backward time where the guided phase hands over to the conditional one.

    Solves beta + zeta_typical(t) = 0 for its largest root: ``_switch_root``
    brackets the last sign change on a log grid on (1e-6, 1e8), and
    ``bisection_root`` polishes that scan cell in log t.  Returns None when
    beta + zeta stays positive on the whole grid (no transition), and
    math.inf when it is negative even at the largest grid time (the process
    is conditional before any finite time; zero distortion).  For a batch of
    cells, a list of these in the batch's flat order, from one scan and one
    polish; float params are a batch of one and return its value.
    """
    if not isinstance(params.schedule, Constant):
        raise DomainError("speciation_time is defined for constant schedules")
    shape, (sigma2, beta, w) = _flat(params.sigma2, params.beta, params.schedule.w)
    t_s = _switch_root(lambda t, k: beta[k] + zeta_typical(t, sigma2[k], w[k]), beta.size)
    return t_s if shape else t_s[0]


def sample_path_report(sigma2: FloatOrArray, beta: FloatOrArray, w: FloatOrArray) -> DistortionReport:
    """Constant-guidance distortion at t = 0 with the phase switch placed
    where the samples of the guided phase make it.

    A sample sits at |x - c1|^2/d -> q1 = (a-1)^2 + s^2 and |x|^2/d ->
    q2 = a^2 + s^2; ``speciation_time`` drops s^2 (the mean path).  The
    switch is the largest root of beta + zeta(t, 1, sigma2, q1, q2), the
    moments on either side are ``assemble_trajectory``'s.  At w = 0 the root
    is the collapse time 1/(exp(2 beta) - 1) - sigma2 and the distortion
    vanishes.  Arrays are a batch of cells, as in ``MixtureTheoryParams``.
    """
    MixtureTheoryParams(sigma2, beta, Constant(w))  # checks all three
    shape, (sigma2, beta, w) = _flat(sigma2, beta, w)

    def switch(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        a, s2 = propagate(sigma2[k], sigma2[k] + 1.0, w[k], t)
        return beta[k] + zeta(t, 1.0, sigma2[k], (a - 1.0) ** 2 + s2, a * a + s2)

    t_s = _switch_root(switch, beta.size)
    return _report(shape, _moments_at(0.0, t_s, sigma2, Constant(w)), sigma2, t_s)


def _switch_root(f: Callable[[np.ndarray, np.ndarray], np.ndarray], n: int) -> list[SwitchTime]:
    """Largest root in t of the switch condition f(t, k) = beta + zeta(t) of
    each cell k of a batch of n, as a list.

    f takes times and cell indices that broadcast together.  The scan calls
    f on the 400-point log grid on (1e-6, 1e8) for _SCAN_ROWS cells at a
    time, a (cells x 400) array, and finds each cell's last grid point where
    f <= 0, so the scan alone decides which root is the largest.  One
    ``bisection_root`` call then polishes the scan cell above it of every
    cell in log t to 1e-13 with Brent's method, calling f at t = exp(y) on
    the cells still going.  A cell's value is None when f stays positive on
    its whole grid and math.inf when f is nonpositive even at the largest
    grid time (the sentinels of ``DistortionReport``); a grid point where f
    is exactly zero is returned as it is.
    """
    t_s: list[SwitchTime] = [None] * n
    polish, last = [], []  # the cells with a bracket, and its lower grid index
    for first in range(0, n, _SCAN_ROWS):
        cells = np.arange(first, min(first + _SCAN_ROWS, n))
        values = f(_SCAN_GRID, cells[:, None])
        below = values[:, :-1] <= 0.0
        j = below.shape[1] - 1 - np.argmax(below[:, ::-1], axis=1)  # the last True of each row
        top, found = (values[:, -1] <= 0.0).tolist(), below.any(axis=1).tolist()
        hit = (values[np.arange(cells.size), j] == 0.0).tolist()
        for row, cell in enumerate(cells.tolist()):
            if top[row]:
                t_s[cell] = math.inf
            elif found[row] and hit[row]:
                t_s[cell] = float(_SCAN_GRID[j[row]])
            elif found[row]:
                polish.append(cell)
                last.append(j[row])
    if polish:
        cells, last = np.array(polish), np.array(last)
        y = bisection_root(lambda y, k: f(np.exp(y), cells[k]),
                           _LOG_SCAN_GRID[last], _LOG_SCAN_GRID[last + 1], 1e-13)
        for cell, t in zip(polish, np.exp(y).tolist()):
            t_s[cell] = t
    return t_s


# ---------------------------------------------------------------------------
# Piecewise closed-form moments
# ---------------------------------------------------------------------------


def _moments_at(
    t: float, t_s: list[SwitchTime], sigma2: FloatOrArray, sched: GuidanceSchedule
) -> GuidedMoments:
    """Piecewise moments at time t of a batch of cells for their switch times
    t_s (``DistortionReport``'s sentinels): guided at and above t_s or
    throughout when t_s is None, the exact conditional marginal when t_s is
    math.inf, otherwise the guided propagator at w = 0 seeded by the guided
    moments at t_s.  sigma2 and the schedule hold one value per cell, or are
    floats for one cell."""
    mean, var = (np.atleast_1d(x) for x in moments(sigma2, sigma2 + 1.0, sched, t))
    switch = np.array([t if ts is None else ts for ts in t_s])  # None: guided, as if t_s = t
    conditional = t < switch
    if conditional.any():
        exact = switch == math.inf
        seed = np.where(conditional & ~exact, switch, t)  # t: a cell that is not seeded
        start = (seed, *moments(sigma2, sigma2 + 1.0, sched, seed))
        seeded_mean, seeded_var = propagate(sigma2, sigma2 + 1.0, 0.0, t, start)
        mean = np.where(conditional, np.where(exact, 1.0, seeded_mean), mean)
        var = np.where(conditional, np.where(exact, sigma2 + t, seeded_var), var)
    return GuidedMoments(t, mean, var, [CONDITIONAL if c else GUIDED for c in conditional])


def assemble_trajectory(
    params: MixtureTheoryParams, t_grid: list[float]
) -> tuple[list[GuidedMoments], DistortionReport]:
    """Piecewise trajectory: guided from the infinite horizon down to
    max(0, t_s), then conditional to 0; distortion measured at t = 0.

    A ramp has no switch computed (t_s = None: guided-only) and takes float
    params.  Under a constant schedule the params may be a batch of cells:
    one ``speciation_time`` call and one moment evaluation per time serve
    them all, and the moments and report hold one entry per cell in the
    batch's flat order; float params are a batch of one, reported as
    floats.  A t = 0 row of the grid is reused for the report."""
    if any(t < 0 for t in t_grid):
        raise DomainError("t_grid times must be >= 0")
    if any(b < a for a, b in zip(t_grid, t_grid[1:])):
        raise DomainError("t_grid must be sorted ascending")
    sched = params.schedule
    if isinstance(sched, Constant):
        shape, (sigma2, _, w) = _flat(params.sigma2, params.beta, sched.w)
        sched, t_s = Constant(w), speciation_time(params)
        t_s = t_s if shape else [t_s]
    else:
        shape, sigma2, t_s = (), params.sigma2, [None]
    trajectory = [_moments_at(t, t_s, sigma2, sched) for t in t_grid]
    at_zero = trajectory[0] if t_grid and t_grid[0] == 0.0 else _moments_at(0.0, t_s, sigma2, sched)
    if not shape:
        trajectory = [GuidedMoments(m.t, m.mean_coeff.item(), m.variance.item(), m.phase[0])
                      for m in trajectory]
    return trajectory, _report(shape, at_zero, sigma2, t_s)


def _report(shape: tuple[int, ...], at_zero: GuidedMoments, sigma2: FloatOrArray,
            t_s: list[SwitchTime]) -> DistortionReport:
    """The report of a batch from its moments at t = 0; floats for shape ()."""
    delta_mu, delta_sigma2 = _relative_deltas(at_zero, sigma2)
    if shape:
        return DistortionReport(delta_mu, delta_sigma2, t_s)
    return DistortionReport(delta_mu.item(), delta_sigma2.item(), t_s[0])


def _relative_deltas(m: GuidedMoments, sigma2: float) -> tuple[float, float]:
    """(delta_mu, delta_sigma2) of m, delta_sigma2 relative to sigma^2 + t."""
    return m.mean_coeff - 1.0, (m.variance - (sigma2 + m.t)) / (sigma2 + m.t)


def delta_estimators_linear(
    t: float, sigma2: float, sched: Linear
) -> tuple[FloatOrArray, FloatOrArray]:
    """Distortion pair at time t under a linear schedule (guided-only regime).

    Here delta_sigma2 is the absolute variance deviation s^2(t) - (sigma2+t),
    not the relative one of ``assemble_trajectory``: the solvable linear-ramp
    benchmark pins the pair (delta_mu, delta_sigma2)(0) to
    (sigma2, (1-2*sigma2)/3), which fixes this normalisation for
    ``sweep schedule``.  sigma2 and the schedule's w0 and omega may be
    arrays that broadcast together; the pair is then a pair of arrays,
    evaluated in one batch.
    """
    # Not ``moments``: the per-layer tracer wraps the ramp coefficients as this module names them.
    s, r, g = sigma2, sigma2 + 1.0, sigma2 + t
    return lambda_coeff_linear(s, r, sched, t) - 1.0, g * Lambda_coeff_linear(s, r, sched, t) - g


def sanity_schedule_speciation(sigma2: float, beta: float) -> Optional[float]:
    """Closed-form switch time for the solvable ramp w0 = sigma2-1, omega = 1.

    t_s = 1/(exp(2*beta - 1) - 1) - sigma2 for beta > 1/2.  The sentinels
    are ``DistortionReport``'s: math.inf for beta <= 1/2 (the process stays
    conditional: zero distortion) and None when the closed form lands at or
    below zero (guided throughout).
    """
    if not (beta >= 0):
        raise DomainError(f"beta must be >= 0, got {beta}")
    if beta <= 0.5:
        return math.inf
    t_s = 1.0 / math.expm1(2.0 * beta - 1.0) - sigma2
    return t_s if t_s > 0.0 else None

