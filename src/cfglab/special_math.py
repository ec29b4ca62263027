"""Shared numerical kernels.

Self-contained implementations (no external special-function dependency) of

* globally adaptive Gauss-Kronrod (G7/K15) quadrature of a batch of integrals
  in lock step: each integral keeps its own panels and its own error control,
  and one round bisects the worst panel of every unfinished integral with a
  single array call of the integrand on all their nodes,
* definite incomplete Beta integrals  int_{f1}^{f2} r^(a-1) (1-r)^(b-1) dr
  on floats or broadcast arrays, checked once and integrated in one
  quadrature batch, including exponents a <= 0 (only with f1 > 0) and
  endpoint regularisation by change of variable when 0 < a < 1 or 0 < b < 1,
* Brent's method on a batch of sign-changing brackets in lock step: each
  bracket keeps its own state and stopping test, and one round calls the
  function once on the brackets still going.  It polishes the scan cells in
  which the phase-switch scan (``mixture_theory``) brackets the largest
  roots of a batch of sweep cells.

A float argument is a batch of one: there is one quadrature path and one
root finder.  An integral or a root gets the same bits alone as in any
batch, because every array operation on it is elementwise or a reduction
along its own row.

All functions are pure; the module holds no mutable state.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .errors import DomainError, NumericalError

# A point for the functions that take a float or a numpy array of them.
FloatOrArray = Union[float, np.ndarray]
# integrand(x, k): values at the nodes x, an (m, 15) array with one panel per
# row, where k is the (m, 1) array of the flat indices in the batch of the
# integrals the rows belong to.
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


# Error control of ``adaptive_quad``: an integral stops once its summed error
# estimate is below max(_ABS_TOL, _REL_TOL * |integral|) and raises
# NumericalError rather than split more than _MAX_PANELS panels.
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_MAX_PANELS = 2000


def _flat(*values: FloatOrArray) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The shape the values broadcast to, and each value as a flat float array
    of that shape's size (a float is a batch of one)."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    shape = np.broadcast_shapes(*(x.shape for x in arrays))
    flat = []
    for x in arrays:
        if x.shape != shape:  # np.full is the cheap broadcast of a float
            x = np.full(shape, x) if x.ndim == 0 else np.broadcast_to(x, shape)
        flat.append(x.ravel())
    return shape, flat


def _check_each(ok: Union[bool, np.ndarray], message: Callable[..., str], *values: FloatOrArray) -> None:
    """DomainError unless ok holds in every element (a nan fails every
    comparison, so it fails ok); the error is message(*values) at the first
    element where ok fails, each value broadcast to ok's shape, so a float
    is named as it is."""
    ok = np.asarray(ok)
    if ok.all():
        return
    i = int(np.argmin(ok.ravel()))
    raise DomainError(message(*(np.broadcast_to(v, ok.shape).flat[i] for v in values)))


# 15-point Kronrod extension of 7-point Gauss on [-1, 1]: the Gauss nodes
# first, then the Kronrod-only ones.
_NODES = np.array([
    +0.949107912342759, -0.949107912342759, +0.741531185599394, -0.741531185599394,
    +0.405845151377397, -0.405845151377397, 0.000000000000000,
    +0.991455371120813, -0.991455371120813, +0.864864423359769, -0.864864423359769,
    +0.586087235467691, -0.586087235467691, +0.207784955007898, -0.207784955007898,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.129484966168870, 0.279705391489277, 0.279705391489277,
    0.381830050505119, 0.381830050505119, 0.417959183673469,
])
_K15_WEIGHTS = np.array([
    0.063092092629979, 0.063092092629979, 0.140653259715525, 0.140653259715525,
    0.190350578064785, 0.190350578064785, 0.209482141084728,
    0.022935322010529, 0.022935322010529, 0.104790010322250, 0.104790010322250,
    0.169004726639267, 0.169004726639267, 0.204432940075298, 0.204432940075298,
])


def _gk15(integrand: Integrand, lo: np.ndarray, hi: np.ndarray,
          which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One G7/K15 panel [lo[i], hi[i]] of integral which[i] per element; returns
    the (K15 estimates, error estimates) from one call of the integrand."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _NODES
    fx = integrand(x, which[:, None])
    k15 = np.add.reduce(fx * _K15_WEIGHTS, axis=1)
    diff = np.abs(k15 - np.add.reduce(fx[:, :_G7_WEIGHTS.size] * _G7_WEIGHTS, axis=1))
    # QUADPACK-style sharpened estimate, never reported below the raw gap scale;
    # (200 diff)^1.5 only counts below diff = 1, and the inner min keeps it finite.
    sharp = np.where(diff < 1.0, np.minimum(diff, (200.0 * np.minimum(diff, 1.0)) ** 1.5), diff)
    return half * k15, np.maximum(half * sharp, half * np.abs(k15) * 1e-16)


def adaptive_quad(integrand: Integrand, lo: FloatOrArray, hi: FloatOrArray) -> FloatOrArray:
    """Globally adaptive G7/K15 integration of a batch of integrals on [lo, hi].

    lo and hi broadcast to the batch's shape, which the result takes (a float
    for two floats).  ``integrand(x, k)`` gets the nodes of m panels as an
    (m, 15) array and, as an (m, 1) array, the flat index in the batch of the
    integral each panel belongs to; it returns the values at x, in x's shape.
    Each round, every unfinished integral bisects its panel with the largest
    error estimate (the older panel on a tie), and the integrand is called
    once on the nodes of all the new panels.  An integral stops once its
    summed error is at most max(_ABS_TOL, _REL_TOL * |integral|); one that
    would split more than _MAX_PANELS panels raises NumericalError.  A
    panel too narrow to bisect at float resolution keeps its estimate and
    leaves the error budget.
    """
    shape, (lo, hi) = _flat(lo, hi)
    _check_each(lo <= hi, lambda a, b: f"need lo <= hi, got [{a}, {b}]", lo, hi)
    result = np.zeros(lo.size)
    live = np.flatnonzero(lo < hi)  # the unfinished integrals
    val, err = _gk15(integrand, lo[live], hi[live], live)
    total_val, total_err = val.copy(), err.copy()
    n_panels = np.ones(live.size, dtype=int)
    # Panels (lo, hi, value, error) of integral live[i] in row i, in the order
    # they were made, so argmax breaks ties towards the older panel; a
    # bisected panel and an unused slot have error -inf.
    panels = np.full((4, live.size, 8), -np.inf)
    panels[:, :, 0] = lo[live], hi[live], val, err
    used = 1
    while live.size:
        going = total_err > np.maximum(_ABS_TOL, _REL_TOL * np.abs(total_val))
        n_going = np.count_nonzero(going)
        if n_going < live.size:  # a nan estimate stops too
            result[live[~going]] = total_val[~going]
            if not n_going:
                break
            live, panels, total_val, total_err, n_panels = (
                live[going], panels[:, going], total_val[going], total_err[going], n_panels[going])
        # An integral adds at most one panel per round.
        if used // 2 + 1 >= _MAX_PANELS and (n_panels >= _MAX_PANELS).any():
            i = int(np.argmax(n_panels >= _MAX_PANELS))
            raise NumericalError(
                f"quadrature needs more than {_MAX_PANELS} panels "
                f"(error estimate {total_err[i]:.3e} on [{lo[live[i]]}, {hi[live[i]]}])"
            )
        if used + 2 > panels.shape[2]:
            panels = np.concatenate([panels, np.full(panels.shape, -np.inf)], axis=2)
        rows = np.arange(live.size)
        worst = panels[3, :, :used].argmax(axis=1)
        a, b, v, e = panels[:, rows, worst]
        panels[3, rows, worst] = -np.inf
        m = 0.5 * (a + b)
        hi1 = lo2 = m
        # A panel too narrow to bisect at float resolution is evaluated again
        # whole: it keeps its value with error 0 and gets no sibling.
        whole = (m <= a) | (m >= b)
        if np.count_nonzero(whole):
            hi1, lo2 = np.where(whole, b, m), np.where(whole, a, m)
        halves, errs = _gk15(integrand, np.concatenate([a, lo2]), np.concatenate([hi1, b]),
                             np.concatenate([live, live]))
        v1, v2, e1, e2 = halves[:live.size], halves[live.size:], errs[:live.size], errs[live.size:]
        v2[whole] = e1[whole] = e2[whole] = 0.0
        total_val += v1 + v2 - v
        total_err += e1 + e2 + -e
        e2[whole] = -np.inf
        panels[:, :, used] = a, hi1, v1, e1
        panels[:, :, used + 1] = lo2, b, v2, e2
        n_panels += ~whole
        used += 2
    return float(result[0]) if shape == () else result.reshape(shape)


def _near_zero_end(own: np.ndarray, other: np.ndarray, x1: np.ndarray,
                   x2: np.ndarray) -> tuple[np.ndarray, ...]:
    """int_{x1}^{x2} x^(own-1) (1-x)^(other-1) dx as c^-1 int x^p (1-x^q)^e
    over [x1, y2]; returns (x1, y2, p, q, e, c).  An integrable singularity at
    x = 0 (x1 = 0, 0 < own < 1) is removed exactly by x = y^(1/own):
    dx x^(own-1) = dy / own.  Elsewhere q = c = 1 and y2 = x2 (x**1 is exact)."""
    sub = (x1 == 0.0) & (own < 1.0)
    c = np.where(sub, own, 1.0)
    return x1, x2**c, np.where(sub, 0.0, own - 1.0), 1.0 / c, other - 1.0, c


def incomplete_beta_definite(a: FloatOrArray, b: FloatOrArray, f1: FloatOrArray,
                             f2: FloatOrArray) -> FloatOrArray:
    """Definite incomplete Beta integrals int_{f1}^{f2} r^(a-1) (1-r)^(b-1) dr.

    The arguments are floats or arrays that broadcast together: one integral
    per element, all in one ``adaptive_quad`` batch; a float for float
    arguments.  DomainError unless every element is finite with
    0 <= f1 <= f2 <= 1, f1 > 0 where a <= 0 and f2 < 1 where b <= 0.  Each
    integral is split at r = 1/2 so each endpoint is treated by the piece that
    owns it: the left piece in r, the right one in u = 1 - r.  Integrable
    endpoint singularities (0 < a < 1 at r=0, 0 < b < 1 at r=1) are removed
    exactly by the substitutions r = v^(1/a) and 1-r = v^(1/b); the remaining
    integrands are bounded.
    """
    shape, (a, b, f1, f2) = _flat(a, b, f1, f2)
    _check_each((0.0 <= f1) & (f1 <= f2) & (f2 <= 1.0),
                lambda x1, x2: f"need 0 <= f1 <= f2 <= 1, got f1={x1}, f2={x2}", f1, f2)
    if np.count_nonzero((f1 == 0.0) & (a <= 0.0)):
        raise DomainError("a <= 0 requires a strictly positive lower limit f1")
    if np.count_nonzero((f2 == 1.0) & (b <= 0.0)):
        raise DomainError("b <= 0 requires an upper limit f2 < 1")
    for name, value in (("a", a), ("b", b)):  # 0 <= f1 <= f2 <= 1 holds f1, f2 finite
        if np.count_nonzero(np.isfinite(value)) < value.size:
            raise DomainError(f"{name} must be finite")
    left_hi, right_lo = np.minimum(f2, 0.5), np.maximum(f1, 0.5)
    left, right = np.flatnonzero(f1 < left_hi), np.flatnonzero(right_lo < f2)
    pieces = [np.concatenate(parts) for parts in zip(
        _near_zero_end(a[left], b[left], f1[left], left_hi[left]),
        _near_zero_end(b[right], a[right], 1.0 - f2[right], 1.0 - right_lo[right]),
    )]
    x1, x2, p, q, e, c = pieces
    values = adaptive_quad(lambda x, k: x ** p[k] * (1.0 - x ** q[k]) ** e[k] / c[k], x1, x2)
    result = np.zeros(a.size)
    result[left] += values[:left.size]
    result[right] += values[left.size:]
    return float(result[0]) if shape == () else result.reshape(shape)


_EPS = np.finfo(float).eps


# g(y, k): values at the points y of a batch of brackets, a flat array, where
# k is the flat array of the indices in the batch of the brackets they belong to.
BracketFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]


def bisection_root(g: BracketFunction, lo: FloatOrArray, hi: FloatOrArray, tol: float) -> FloatOrArray:
    """A root of g on each sign-changing bracket [lo, hi], to within tol.

    lo and hi broadcast to the batch's shape, which the result takes (a float
    for two floats: a batch of one).  ``g(y, k)`` gets the points y of the
    brackets still going as a flat array and the flat indices k of their
    brackets in the batch, and returns g there; the first call holds both end
    points of every bracket.  Brent's method (Brent (1973), "Algorithms for
    Minimization without Derivatives", ch. 4) runs on every bracket in lock
    step, one call of g per round: b is a bracket's best point so far and c
    the other end of it.  Inverse quadratic and secant steps converge
    superlinearly near a simple root; a step that would not shrink the
    bracket fast enough bisects instead, which bounds the rounds by about k^2
    for the k steps plain bisection would take.  A bracket stops at b once
    |c - b| <= tol + 4 eps |b| (the slack is float resolution); an end or a
    point where g is exactly zero is returned as it is.  DomainError names
    the first bracket with lo >= hi or no sign change.  With several roots
    in a bracket, which one is found is unspecified: the caller's scan
    chooses the bracket.
    """
    shape, (lo, hi) = _flat(lo, hi)
    _check_each(lo < hi, lambda a, b: f"need lo < hi, got [{a}, {b}]", lo, hi)
    if tol <= 0:
        raise DomainError("tol must be positive")
    n = lo.size
    ends = g(np.concatenate([lo, hi]), np.concatenate([np.arange(n)] * 2))
    fa, fb = ends[:n], ends[n:]
    root = np.where(fa == 0.0, lo, hi)  # exact zeros at an end, the lower end first
    going = (fa != 0.0) & (fb != 0.0)
    _check_each(~going | ((fa > 0) != (fb > 0)),
                lambda a, b, ga, gb: f"no sign change on [{a}, {b}]: g={ga:.3e}, {gb:.3e}", lo, hi, fa, fb)
    k = np.flatnonzero(going)
    a, b, fa, fb = lo[k], hi[k], fa[k], fb[k]
    c, fc = a, fa
    d = e = b - a
    while k.size:
        swap = np.abs(fc) < np.abs(fb)
        a, b, c = np.where(swap, b, a), np.where(swap, c, b), np.where(swap, b, c)
        fa, fb, fc = np.where(swap, fb, fa), np.where(swap, fc, fb), np.where(swap, fb, fc)
        tol1 = 2.0 * _EPS * np.abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        done = (np.abs(xm) <= tol1) | (fb == 0.0)
        if done.any():
            root[k[done]] = b[done]
            going = ~done
            k, a, b, c, fa, fb, fc, d, e, tol1, xm = (
                x[going] for x in (k, a, b, c, fa, fb, fc, d, e, tol1, xm))
            if not k.size:
                break
        # Every step is computed in every bracket and kept only where Brent
        # takes it, so a division by zero where it is not taken is harmless.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s, q, r = fb / fa, fa / fc, fb / fc
            secant = a == c
            p = np.where(secant, 2.0 * xm * s, s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0)))
            q = np.where(secant, 1.0 - s, (q - 1.0) * (r - 1.0) * (s - 1.0))
            q = np.where(p > 0.0, -q, q)
            p = np.abs(p)
            step = ((np.abs(e) >= tol1) & (np.abs(fa) > np.abs(fb))
                    & (2.0 * p < np.minimum(3.0 * xm * q - np.abs(tol1 * q), np.abs(e * q))))
            e, d = np.where(step, d, xm), np.where(step, p / q, xm)
        a, fa = b, fb
        b = b + np.where(np.abs(d) > tol1, d, np.copysign(tol1, xm))
        fb = g(b, k)
        flip = (fb > 0.0) == (fc > 0.0)
        c, fc = np.where(flip, a, c), np.where(flip, fa, fc)
        d, e = np.where(flip, b - a, d), np.where(flip, b - a, e)
    return float(root[0]) if shape == () else root.reshape(shape)
