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
phase is the horizon-free a(t) = lambda(t), s^2(t) = (sigma^2 + t) Lambda(t)
of the schedule (``joint_gaussian.propagate`` for a constant w, the
incomplete-Beta forms for a ramp w0 + omega t), and the conditional phase is
the propagator at w = 0, seeded at t_s by the guided moments there.  One
``assemble_trajectory`` serves every schedule.  The switch is computed for a
constant schedule only; a ramp's trajectory has t_s = None, the guided-only
regime of a class density large enough that the process never switches.

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
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .joint_gaussian import Lambda_coeff_linear, lambda_coeff_linear, lambda_formula, propagate
from .schedule import Constant, GuidanceSchedule, Linear
from .special_math import FloatOrArray, bisection_root

__all__ = [
    "GUIDED",
    "CONDITIONAL",
    "MixtureTheoryParams",
    "GuidedMoments",
    "DistortionReport",
    "zeta",
    "zeta_typical",
    "typical_overlaps",
    "speciation_time",
    "sample_path_report",
    "assemble_trajectory",
    "delta_estimators_linear",
    "sanity_schedule_speciation",
]

GUIDED = "guided"
CONDITIONAL = "conditional"

# The switch-time scan brackets a sign change on a log grid before refining.
_SCAN_GRID = np.geomspace(1e-6, 1e8, 400)


@dataclass(frozen=True)
class MixtureTheoryParams:
    """Mean-field control parameters of the mixture target."""

    sigma2: float  # per-mode variance
    beta: float  # class-density exponent log(M)/d
    schedule: GuidanceSchedule

    def __post_init__(self) -> None:
        if not (0 < self.sigma2 < math.inf):
            raise DomainError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not (self.beta >= 0):
            raise DomainError(f"beta must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class GuidedMoments:
    """Reduced trajectory state: mean = mean_coeff * c1, isotropic variance."""

    t: float
    mean_coeff: float
    variance: float
    phase: str

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise DomainError(f"variance must be >= 0, got {self.variance}")
        if self.phase not in (GUIDED, CONDITIONAL):
            raise DomainError(f"unknown phase label {self.phase!r}")


@dataclass(frozen=True)
class DistortionReport:
    """Distortion of the sampled law at t = 0 and the switch time behind it.

    ``t_speciation`` is None when the process never leaves the guided phase
    (no transition: distortion persists) and math.inf when the transition
    happens beyond any finite time (always conditional: zero distortion).
    For a ramped schedule it is always None: no switch is computed, and the
    report is that of the guided-only regime.
    Switch times are positive, so the phase at t = 0 is guided exactly when
    ``t_speciation`` is None.
    """

    delta_mu: float
    delta_sigma2: float
    t_speciation: Optional[float]


# ---------------------------------------------------------------------------
# Overlap cumulant generating function
# ---------------------------------------------------------------------------


def zeta(
    t: FloatOrArray, lam: float, sigma2: float, q1: FloatOrArray, q2: FloatOrArray
) -> FloatOrArray:
    """Per-coordinate log-MGF of the mode-overlap energies at position x.

    q1 = lim |x - c1|^2 / d and q2 = lim |x|^2 / d locate x;
    zeta = lam*q1/(2g) - log(1 + lam/g)/2 - lam*q2/(2(g+lam)), g = sigma2 + t.
    Elementwise over array arguments; DomainError if any element has
    sigma2 + t <= 0 or sigma2 + t + lam <= 0.  A float t is checked without
    numpy; the log1p stays numpy's for floats too, since ``math.log1p``
    rounds differently and would move the switch roots and the number of
    Brent steps that reach them.
    """
    g = sigma2 + t
    g_min = g.min() if isinstance(g, np.ndarray) else g  # floats skip numpy call overhead
    if g_min + min(lam, 0.0) <= 0:  # g + lam <= g when lam <= 0: one test covers both
        raise DomainError(f"need sigma2+t > 0 and sigma2+t+lam > 0, got min g={g_min}, lam={lam}")
    return (
        lam * q1 / (2.0 * g)
        - 0.5 * np.log1p(lam / g)
        - lam * q2 / (2.0 * (g + lam))
    )


def typical_overlaps(t: FloatOrArray, sigma2: float, w: float) -> tuple[FloatOrArray, FloatOrArray]:
    """(q1, q2) on the mean guided path: q1 = (a-1)^2, q2 = a^2, |c1|^2/d = 1."""
    a = lambda_formula(sigma2, sigma2 + 1.0, w, t)
    return (a - 1.0) ** 2, a * a


def zeta_typical(t: FloatOrArray, sigma2: float, w: float) -> FloatOrArray:
    """zeta at unit tilt along the typical guided trajectory.

    Tends to -(1+w)/t at large t, so the switch time diverges like (1+w)/beta
    when the class density beta vanishes.
    """
    q1, q2 = typical_overlaps(t, sigma2, w)
    return zeta(t, 1.0, sigma2, q1, q2)


# ---------------------------------------------------------------------------
# Phase boundaries
# ---------------------------------------------------------------------------


def speciation_time(params: MixtureTheoryParams) -> Optional[float]:
    """Backward time where the guided phase hands over to the conditional one.

    Solves beta + zeta_typical(t) = 0 for its largest root: one array
    evaluation on a log grid on (1e-6, 1e8) brackets the last sign change,
    and ``bisection_root`` refines it in log t (one multisection round on an
    array, then Brent's method on floats).  Returns None when
    beta + zeta stays positive on the whole grid (no transition), and
    math.inf when it is negative even at the largest grid time (the process
    is conditional before any finite time; zero distortion).
    """
    if not isinstance(params.schedule, Constant):
        raise DomainError("speciation_time is defined for constant schedules")
    w = params.schedule.w
    beta = params.beta
    return _switch_root(lambda t: beta + zeta_typical(t, params.sigma2, w))


def sample_path_report(sigma2: float, beta: float, w: float) -> DistortionReport:
    """Constant-guidance distortion at t = 0 with the phase switch placed
    where the samples of the guided phase make it.

    A sample sits at |x - c1|^2/d -> q1 = (a-1)^2 + s^2 and |x|^2/d ->
    q2 = a^2 + s^2; ``speciation_time`` drops s^2 (the mean path).  The
    switch is the largest root of beta + zeta(t, 1, sigma2, q1, q2), the
    moments on either side are ``assemble_trajectory``'s.  At w = 0 the root
    is the collapse time 1/(exp(2 beta) - 1) - sigma2 and the distortion
    vanishes.
    """
    params = MixtureTheoryParams(sigma2, beta, Constant(w))  # checks all three

    def switch(t: FloatOrArray) -> FloatOrArray:
        a, s2 = propagate(sigma2, sigma2 + 1.0, w, t)
        return beta + zeta(t, 1.0, sigma2, (a - 1.0) ** 2 + s2, a * a + s2)

    t_s = _switch_root(switch)
    at_zero = _moments_at(0.0, t_s, sigma2, params.schedule)
    return DistortionReport(*_relative_deltas(at_zero, sigma2), t_s)


def _switch_root(f: Callable[[FloatOrArray], FloatOrArray]) -> Optional[float]:
    """Largest root in t of a switch condition f(t) = beta + zeta(t).

    f takes an array of times or one float time.  One call of f on the
    400-point log grid on (1e-6, 1e8) finds the last grid point where f <= 0;
    ``bisection_root`` then refines the bracket above it in log t to 1e-13:
    one 257-point array call, then a few float calls of Brent's method, each
    at t = math.exp(y) so the closed forms take their ``math`` branch.  None
    when f stays positive on the whole grid, math.inf when f is nonpositive
    even at the largest grid time (the sentinels of ``DistortionReport``); a
    grid point where f is exactly zero is returned as it is.
    """
    values = f(_SCAN_GRID)
    if values[-1] <= 0.0:
        return math.inf
    nonpositive = np.flatnonzero(values[:-1] <= 0.0)
    if nonpositive.size == 0:
        return None
    k = int(nonpositive[-1])
    if values[k] == 0.0:
        return float(_SCAN_GRID[k])
    x = bisection_root(
        lambda y: f(np.exp(y) if isinstance(y, np.ndarray) else math.exp(y)),
        math.log(_SCAN_GRID[k]),
        math.log(_SCAN_GRID[k + 1]),
        1e-13,
    )
    return math.exp(x)


# ---------------------------------------------------------------------------
# Piecewise closed-form moments
# ---------------------------------------------------------------------------


def _guided_phase(
    sigma2: float, sched: GuidanceSchedule, t: float
) -> tuple[FloatOrArray, FloatOrArray]:
    """Horizon-free guided (mean_coeff, variance) at (s, r) = (sigma2, sigma2 + 1):
    ``propagate`` for a constant schedule, lambda and (s+t) Lambda of the
    incomplete Beta forms for a ramp (arrays for a batch of ramps).  The ramp
    forms are looked up in this module, where the per-layer tracer wraps them."""
    s, r = sigma2, sigma2 + 1.0
    if isinstance(sched, Constant):
        return propagate(s, r, sched.w, t)
    return lambda_coeff_linear(s, r, sched, t), (s + t) * Lambda_coeff_linear(s, r, sched, t)


def _moments_at(
    t: float, t_s: Optional[float], sigma2: float, sched: GuidanceSchedule
) -> GuidedMoments:
    """Piecewise moments at time t for switch time t_s (``DistortionReport``'s
    sentinels): guided at and above t_s or throughout when t_s is None, the
    exact conditional marginal when t_s is math.inf, otherwise the guided
    propagator at w = 0 seeded by the guided moments at t_s."""
    if t_s is None or t >= t_s:
        return GuidedMoments(t, *_guided_phase(sigma2, sched, t), GUIDED)
    if math.isinf(t_s):
        return GuidedMoments(t, 1.0, sigma2 + t, CONDITIONAL)
    start = (t_s, *_guided_phase(sigma2, sched, t_s))
    return GuidedMoments(t, *propagate(sigma2, sigma2 + 1.0, 0.0, t, start), CONDITIONAL)


def assemble_trajectory(
    params: MixtureTheoryParams, t_grid: list[float]
) -> tuple[list[GuidedMoments], DistortionReport]:
    """Piecewise trajectory: guided from the infinite horizon down to
    max(0, t_s), then conditional to 0; distortion measured at t = 0.

    A ramp has no switch computed (t_s = None: guided-only).  A t = 0 row of
    the grid is reused for the report."""
    if any(t < 0 for t in t_grid):
        raise DomainError("t_grid times must be >= 0")
    if any(b < a for a, b in zip(t_grid, t_grid[1:])):
        raise DomainError("t_grid must be sorted ascending")
    sched, sigma2 = params.schedule, params.sigma2
    t_s = speciation_time(params) if isinstance(sched, Constant) else None
    trajectory = [_moments_at(t, t_s, sigma2, sched) for t in t_grid]
    at_zero = trajectory[0] if t_grid and t_grid[0] == 0.0 else _moments_at(0.0, t_s, sigma2, sched)
    return trajectory, DistortionReport(*_relative_deltas(at_zero, sigma2), t_s)


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
    ``sweep schedule``.  The schedule's w0 and omega may be arrays; the pair
    is then a pair of arrays, evaluated in one batch.
    """
    mean_coeff, variance = _guided_phase(sigma2, sched, t)
    return mean_coeff - 1.0, variance - (sigma2 + t)


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

