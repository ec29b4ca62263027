"""Test-side oracle: the scalar phase-switch root finder.

``mixture_theory`` finds the phase switch with one evaluation of the switch
condition on the 400-point log grid, then a Brent polish on floats, in
log t, of the scan cell above the last nonpositive grid point.  This module
keeps the scalar path that the array scan replaced -- the guided-phase
closed forms and zeta written with ``math``, a point-by-point descending
sign scan and plain bisection -- so the tests can check the library's path
against an independent one, for the mean-path switch (``speciation_time``)
and the sample-path switch (``sample_path_report``).  It also keeps the
conditional-phase closed form, which the library now evaluates as the
guided propagator at w = 0.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from cfglab.errors import BracketError, DomainError


def mean_coeff(t: float, sigma2: float, w: float) -> float:
    g = sigma2 + t
    ell = math.log1p(1.0 / g)
    return g * math.exp(-w * ell) * math.expm1((1.0 + w) * ell)


def variance(t: float, sigma2: float, w: float) -> float:
    g = sigma2 + t
    ell = math.log1p(1.0 / g)
    return g * g * math.exp(-2.0 * w * ell) * math.expm1((2.0 * w + 1.0) * ell) / (2.0 * w + 1.0)


def conditional_moments(
    t: float, t_start: float, sigma2: float, a0: float, v0: float
) -> tuple[float, float]:
    """Conditional-phase (mean_coeff, variance) at t, seeded with (a0, v0) at t_start."""
    g_t, g_s = sigma2 + t, sigma2 + t_start
    ratio = g_t / g_s
    return ratio * a0 + (t_start - t) / g_s, ratio * ratio * v0 + (t_start - t) * ratio


def zeta(t: float, lam: float, sigma2: float, q1: float, q2: float) -> float:
    g = sigma2 + t
    return lam * q1 / (2.0 * g) - 0.5 * math.log1p(lam / g) - lam * q2 / (2.0 * (g + lam))


def bisection_root(g: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Bisection on a sign-changing bracket; stops when the bracket is <= tol."""
    if not (lo < hi):
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0:
        raise DomainError("tol must be positive")
    g_lo = g(lo)
    g_hi = g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0) == (g_hi > 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: g={g_lo:.3e}, {g_hi:.3e}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float resolution reached
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def switch_root(f: Callable[[float], float]) -> Optional[float]:
    """Largest root in t of f: descending scan over the log grid on (1e-6, 1e8),
    then bisection in log t to 1e-13; None / math.inf as ``DistortionReport``."""
    grid = np.geomspace(1e-6, 1e8, 400)
    values = [f(float(t)) for t in grid]
    if values[-1] <= 0.0:
        return math.inf
    for k in range(len(grid) - 2, -1, -1):
        if values[k] <= 0.0:
            if values[k] == 0.0:
                return float(grid[k])
            x = bisection_root(
                lambda y: f(math.exp(y)), math.log(grid[k]), math.log(grid[k + 1]), 1e-13
            )
            return math.exp(x)
    return None


def mean_path_switch(sigma2: float, beta: float, w: float) -> Optional[float]:
    """``speciation_time``: beta + zeta at q1 = (a-1)^2, q2 = a^2."""

    def f(t: float) -> float:
        a = mean_coeff(t, sigma2, w)
        return beta + zeta(t, 1.0, sigma2, (a - 1.0) ** 2, a * a)

    return switch_root(f)


def sample_path_switch(sigma2: float, beta: float, w: float) -> Optional[float]:
    """``mixture_theory.sample_path_report``'s switch: q1 and q2 include s^2."""

    def f(t: float) -> float:
        a, s2 = mean_coeff(t, sigma2, w), variance(t, sigma2, w)
        return beta + zeta(t, 1.0, sigma2, (a - 1.0) ** 2 + s2, a * a + s2)

    return switch_root(f)
