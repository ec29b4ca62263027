"""Shared numerical kernels.

Self-contained implementations (no external special-function dependency) of

* adaptive Gauss-Kronrod (G7/K15) quadrature with local error control,
* definite incomplete Beta integrals  int_{f1}^{f2} r^(a-1) (1-r)^(b-1) dr,
  including exponents a <= 0 (only with f1 > 0) and endpoint regularisation
  by change of variable when 0 < a < 1 or 0 < b < 1,
* bracketed root finding for the largest root: one multisection round
  evaluates the function once on an array of equispaced points and keeps the
  last sub-bracket where the sign changes, then Brent's method refines that
  sub-bracket on Python floats.

All functions are pure; the module holds no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Union

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError

__all__ = [
    "BetaArgs",
    "adaptive_quad",
    "incomplete_beta_definite",
    "bisection_root",
]

# A point for the functions that take a float or a numpy array of them.
FloatOrArray = Union[float, np.ndarray]


# Error control of ``adaptive_quad``: it stops once the summed error estimate
# is below max(_ABS_TOL, _REL_TOL * |integral|) and raises ConvergenceError
# rather than split more than _MAX_PANELS panels.
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_MAX_PANELS = 2000


@dataclass(frozen=True)
class BetaArgs:
    """Arguments of a definite incomplete Beta integral on [f1, f2]."""

    a: float
    b: float
    f1: float
    f2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.f1 <= self.f2 <= 1.0):
            raise DomainError(f"need 0 <= f1 <= f2 <= 1, got f1={self.f1}, f2={self.f2}")
        if self.f1 == 0.0 and self.a <= 0.0:
            raise DomainError("a <= 0 requires a strictly positive lower limit f1")
        if self.f2 == 1.0 and self.b <= 0.0:
            raise DomainError("b <= 0 requires an upper limit f2 < 1")
        for name in ("a", "b", "f1", "f2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")


# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
# Columns: node, Gauss-7 weight (zero on Kronrod-only nodes), Kronrod-15 weight.
_G7K15 = (
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
)


def _gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """One G7/K15 panel on [lo, hi]; returns (K15 estimate, error estimate)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    g7 = 0.0
    k15 = 0.0
    for node, wg, wk in _G7K15:
        fx = f(mid + half * node)
        g7 += wg * fx
        k15 += wk * fx
    diff = abs(k15 - g7)
    # QUADPACK-style sharpened estimate, never reported below the raw gap scale.
    err = half * min(diff, (200.0 * diff) ** 1.5 if diff < 1.0 else diff)
    return half * k15, max(err, half * abs(k15) * 1e-16)


def adaptive_quad(integrand: Callable[[float], float], lo: float, hi: float) -> float:
    """Globally adaptive G7/K15 integration of ``integrand`` on [lo, hi].

    The interval with the largest error estimate is bisected until the summed
    error drops below max(_ABS_TOL, _REL_TOL * |integral|).
    """
    if not (lo <= hi):
        raise DomainError(f"need lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    val, err = _gk15(integrand, lo, hi)
    # Heap of (-error, lo, hi, value); counter breaks ties deterministically.
    heap: list[tuple[float, int, float, float, float]] = [(-err, 0, lo, hi, val)]
    total_val, total_err = val, err
    n_panels = 1
    tick = 1
    while total_err > max(_ABS_TOL, _REL_TOL * abs(total_val)):
        if n_panels >= _MAX_PANELS:
            raise ConvergenceError(
                f"quadrature needs more than {_MAX_PANELS} panels "
                f"(error estimate {total_err:.3e} on [{lo}, {hi}])"
            )
        neg_err, _, a, b, v = heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # Interval saturated at float resolution; keep its estimate as is.
            heappush(heap, (0.0, tick, a, b, v))
            total_err += neg_err  # drop this panel's error from the budget
            tick += 1
            continue
        v1, e1 = _gk15(integrand, a, m)
        v2, e2 = _gk15(integrand, m, b)
        total_val += v1 + v2 - v
        total_err += e1 + e2 + neg_err
        heappush(heap, (-e1, tick, a, m, v1))
        heappush(heap, (-e2, tick + 1, m, b, v2))
        tick += 2
        n_panels += 1
    return total_val


def incomplete_beta_definite(args: BetaArgs) -> float:
    """Definite incomplete Beta integral int_{f1}^{f2} r^(a-1) (1-r)^(b-1) dr.

    Integrable endpoint singularities (0 < a < 1 at r=0, 0 < b < 1 at r=1) are
    removed exactly by the substitutions r = v^(1/a) and 1-r = v^(1/b); the
    remaining integrands are bounded and handled by ``adaptive_quad``.
    """
    a, b, f1, f2 = args.a, args.b, args.f1, args.f2
    if f1 == f2:
        return 0.0
    am1, bm1 = a - 1.0, b - 1.0

    def integrand(r: float) -> float:
        return r**am1 * (1.0 - r) ** bm1

    # Split at 1/2 so each endpoint is treated by the piece that owns it.
    mid = 0.5
    pieces: list[float] = []
    left_hi = min(f2, mid)
    if f1 < left_hi:
        if f1 == 0.0 and a < 1.0:
            # r = v**(1/a):  dr r^(a-1) = dv / a
            inv_a = 1.0 / a
            pieces.append(adaptive_quad(lambda v: (1.0 - v**inv_a) ** bm1 / a, 0.0, left_hi**a))
        else:
            pieces.append(adaptive_quad(integrand, f1, left_hi))
    right_lo = max(f1, mid)
    if right_lo < f2:
        u_hi = 1.0 - right_lo
        u_lo = 1.0 - f2
        if u_lo == 0.0 and b < 1.0:
            # 1-r = v**(1/b):  dr (1-r)^(b-1) = dv / b
            inv_b = 1.0 / b
            pieces.append(adaptive_quad(lambda v: (1.0 - v**inv_b) ** am1 / b, 0.0, u_hi**b))
        else:
            pieces.append(adaptive_quad(lambda u: (1.0 - u) ** am1 * u**bm1, u_lo, u_hi))
    return math.fsum(pieces)


# Sub-brackets of the one multisection round.  The round costs one array call
# of g and keeps the last sign change it resolves; Brent's method then needs
# only a few float calls: a bracket of width 0.08 reaches 1e-13 in about three.
_SECTIONS = 256
_SECTION_FRACTIONS = np.linspace(0.0, 1.0, _SECTIONS + 1)
_EPS = np.finfo(float).eps


def bisection_root(
    g: Callable[[FloatOrArray], FloatOrArray], lo: float, hi: float, tol: float
) -> float:
    """Largest root of g on a sign-changing bracket; stops when the bracket is <= tol.

    g takes a 1-d array of points or one Python float and returns its values
    there.  One call on ``_SECTIONS + 1`` equispaced points of [lo, hi] checks
    the bracket with its end values and keeps the last sub-bracket where the
    sign changes, so among the roots that grid resolves the largest one is
    kept.  Brent's method (inverse quadratic and secant steps, with a
    bisection fallback that bounds the worst case) then refines that
    sub-bracket, one float call of g per step, until it is within tol or at
    float resolution.  A bracket already within tol costs one call of g on
    its two ends.  A point where g is exactly zero is returned as it is.
    """
    if not (lo < hi):
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0:
        raise DomainError("tol must be positive")
    xs = np.array([lo, hi]) if hi - lo <= tol else lo + (hi - lo) * _SECTION_FRACTIONS
    xs[-1] = hi
    values = g(xs)
    g_lo, g_hi = values[0], values[-1]
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0) == (g_hi > 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: g={g_lo:.3e}, {g_hi:.3e}")
    if xs.size == 2:
        return 0.5 * (lo + hi)
    sign_hi = 1.0 if g_hi > 0 else -1.0
    signs = np.sign(values)
    signs[0], signs[-1] = -sign_hi, sign_hi  # the bracket's end signs are known
    # Every point right of k has g(hi)'s sign: the last root lies in [x_k, x_k+1).
    k = int(np.flatnonzero(signs != sign_hi)[-1])
    if signs[k] == 0.0:
        return float(xs[k])
    return _brent(g, float(xs[k]), float(xs[k + 1]), float(values[k]), float(values[k + 1]), tol)


def _brent(g: Callable[[float], float], a: float, b: float, fa: float, fb: float,
           tol: float) -> float:
    """Brent's zero of g on [a, b], where fa = g(a) and fb = g(b) differ in sign.

    Brent (1973), "Algorithms for Minimization without Derivatives", ch. 4:
    b is the best point so far and c the other end of the bracket.  A step
    that would not shrink the bracket fast enough bisects instead, which
    bounds the calls by about k^2 for the k steps plain bisection would take;
    near a simple root the steps converge superlinearly.  Returns b once
    |c - b| <= tol + 4 eps |b| (the slack is float resolution) or g(b) == 0.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = float(g(b))
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
