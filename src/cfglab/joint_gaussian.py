"""Closed-form guided moments and exact scores for a jointly Gaussian target.

The class variable c and the data x are jointly Gaussian; conditioning on c
gives a Gaussian with mean ``mu`` and covariance sharing one eigenbasis with
the data covariance.  Everything here is diagonal in that basis, so the model
is parametrised directly by the basis V, the data eigenvalues r_i, the
conditional eigenvalues s_i and the conditional mean.

For a constant guidance level w the guided marginal at time t is Gaussian with

    mean        sum_i lambda_i(t) (v_i . mu) v_i,
    covariance  sum_i Lambda_i(t) (s_i + t)  v_i v_i^T,

with lambda_i >= 1 and Lambda_i <= 1 whenever w >= 0: guidance expands the
mean and contracts the covariance.  For a linear schedule w(t) = w0 + omega*t
the coefficients are definite incomplete Beta integrals evaluated numerically.

The guided SDE drift (1+w) * cond - w * uncond is affine in x at each time,
x @ A(t) + b(t) with A(t) and b(t) assembled from the same basis
(``guided_score_batch``); ``exact_scores`` keeps the eigenbasis form as the
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericalError
from .schedule import Constant, GuidanceSchedule, Linear, guidance_level
from .simulator import _BLOCK
from .special_math import FloatOrArray, _check_each, _flat, incomplete_beta_definite

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class JointGaussianModel:
    """Reduced parametrisation (V, r, s, mu) of the conditional target."""

    basis: np.ndarray  # (d, d), columns are the shared eigenvectors
    r: np.ndarray  # (d,) data covariance eigenvalues
    s: np.ndarray  # (d,) conditional covariance eigenvalues
    mu: np.ndarray  # (d,) conditional mean

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=float)
        r = np.asarray(self.r, dtype=float)
        s = np.asarray(self.s, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        d = basis.shape[0]
        if d < 1 or basis.shape != (d, d):
            raise DomainError(f"basis must be a d x d matrix with d >= 1, got shape {basis.shape}")
        if r.shape != (d,) or s.shape != (d,) or mu.shape != (d,):
            raise DomainError("r, s, mu must be length-d vectors")
        if not (np.max(np.abs(basis.T @ basis - np.eye(d))) <= _ORTHO_TOL):
            raise DomainError("basis columns are not orthonormal to 1e-10")
        if not (np.all(s > 0) and np.all(s <= r * (1.0 + 1e-15)) and np.all(r < np.inf)):
            raise DomainError("need 0 < s_i <= r_i < inf for every eigendirection")
        if not np.all(np.isfinite(mu)):
            raise DomainError("mu must be finite")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", np.minimum(s, r))  # propagate needs s <= r
        object.__setattr__(self, "mu", mu)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def _check_pair(s: FloatOrArray, r: FloatOrArray) -> None:
    _check_each((0.0 < s) & (s <= r) & (r < math.inf),
                lambda s, r: f"need 0 < s <= r < inf, got s={s}, r={r}", s, r)


def _ratio_power_m1(s: FloatOrArray, r: FloatOrArray, k: FloatOrArray, t: FloatOrArray) -> FloatOrArray:
    """((s+t)/(r+t))^k - 1 through expm1/log1p, so s -> r stays exact; one
    numpy path, so a float call has the bits of the same element of an array.
    Where s is below the resolution of r + t, log1p(-1) = -inf is the limit."""
    with np.errstate(divide="ignore"):
        return np.expm1(k * np.log1p((s - r) / (r + t)))


def lambda_formula(s: FloatOrArray, r: FloatOrArray, w: FloatOrArray, t: FloatOrArray) -> FloatOrArray:
    """((s+t)^(w+1)/(r+t)^w - (r+t)) / (s-r) for s != r, unchecked
    (``propagate`` checks); elementwise over arrays, a float for floats, as
    in ``_ratio_power_m1``."""
    return (r + t) * _ratio_power_m1(s, r, w + 1.0, t) / (s - r)


def Lambda_formula(s: FloatOrArray, r: FloatOrArray, w: FloatOrArray, t: FloatOrArray) -> FloatOrArray:
    """((s+t)^(1+2w)/(r+t)^(2w) - (r+t)) / ((2w+1)(s-r)) for s != r, unchecked
    (``propagate`` checks); arguments as in ``lambda_formula``."""
    k = 2.0 * w + 1.0
    return (r + t) * _ratio_power_m1(s, r, k, t) / (k * (s - r))


def propagate(
    s: FloatOrArray, r: FloatOrArray, w: FloatOrArray, t: FloatOrArray,
    start: Optional[tuple[FloatOrArray, FloatOrArray, FloatOrArray]] = None,
) -> tuple[FloatOrArray, FloatOrArray]:
    """(mean_coeff, variance) of the pair 0 < s <= r < inf at time t under
    constant w > -1/2: the horizon-free (lambda, (s+t) Lambda), whose s = r
    limit is (1+w, s+t), or seeded by ``start=(T, mean_T, var_T)`` at a
    finite T >= t, whose gap to them the linear dynamics decay by
    D = ((s+t)/(s+T))^(1+w) ((r+T)/(r+t))^w (D^2 for the variance).  w = 0
    gives lambda = Lambda = 1 to rounding, and w >= 0 implies lambda >= 1
    and Lambda <= 1.  Every argument, start's included, may be an array: the
    arrays broadcast to a batch of cells, each checked, and DomainError names
    the first bad one."""
    _check_pair(s, r)
    _check_each(np.asarray(w) > -0.5, lambda w: f"constant guidance requires w > -1/2, got {w}", w)
    T = math.inf if start is None else start[0]
    lo, hi = np.min(t), np.max(t)  # a nan t fails
    _check_each((0.0 <= lo) & (t <= T), lambda T: f"need 0 <= t <= T, got t in [{lo}, {hi}], T={T}", T)
    same = s == r  # the s = r limit (1+w, s+t), where the closed forms divide 0 by 0
    apart = np.where(same, s + 1.0, r)
    mean = np.where(same, 1.0 + w, lambda_formula(s, apart, w, t))[()]
    var = np.where(same, s + t, (s + t) * Lambda_formula(s, apart, w, t))[()]
    if start is None:
        return mean, var
    _, mean_T, var_T = start
    free_mean_T, free_var_T = propagate(s, r, w, T)
    decay = ((s + t) / (s + T)) ** (1.0 + w) * ((r + T) / (r + t)) ** w
    return mean + decay * (mean_T - free_mean_T), var + decay * decay * (var_T - free_var_T)


def _per_ramp(s: FloatOrArray, r: FloatOrArray, sched: Linear, t: FloatOrArray,
              constant: Callable[..., np.ndarray], ramped: Callable[..., np.ndarray]) -> FloatOrArray:
    """A ramp coefficient of every cell of the batch that s, r, t and the
    schedule's (w0, omega) broadcast to: constant(s, r, t, w0) on the cells
    where omega = 0 (``propagate``'s closed form), ramped(s, r, t, w0, omega)
    on the other cells, each as one batch of flat arrays.  A float for float
    arguments.  DomainError names the first cell out of the domain, and
    NumericalError the first ramp whose coefficient overflows."""
    _check_pair(s, r)
    _check_each(np.asarray(t) >= 0.0, lambda t: f"need t >= 0, got t={t}", t)
    shape, cells = _flat(s, r, t, sched.w0, sched.omega)
    w0, omega = cells[3:]
    out = np.empty(w0.size)
    level = omega == 0.0
    if np.count_nonzero(level):
        out[level] = constant(*(x[level] for x in cells[:4]))
    if np.count_nonzero(level) < level.size:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out[~level] = ramped(*(x[~level] for x in cells))
    finite = np.isfinite(out)
    if np.count_nonzero(finite) < finite.size:
        i = int(np.argmin(finite))
        raise NumericalError(f"non-finite ramp coefficient at (w0, omega) = ({w0[i]}, {omega[i]})")
    return out.reshape(shape)[()]


def lambda_coeff_linear(s: FloatOrArray, r: FloatOrArray, sched: Linear, t: FloatOrArray) -> FloatOrArray:
    """Mean amplification factor under w(t) = w0 + omega*t, horizon -> inf;
    s, r, t, w0 and omega may be arrays that broadcast together (one
    coefficient per cell, all integrals in one quadrature batch).

    Written as incomplete Beta integrals over u = (s+t')/(r+t'); the two-term
    combination is rearranged so both terms stay O(1) as omega -> 0 (the raw
    coefficients individually diverge like 1/omega there).

    For every omega > 0 and w0 this equals P = (r+t)/(r-s), which solves the
    mean ODE for any w(t) and is outgrown by its homogeneous solutions
    h = (s+t)^(1+w0-omega s) (r+t)^(omega r-w0); from lambda(T) at a finite
    horizon T the coefficient is P(t) + (lambda(T) - P(T)) h(t)/h(T).

    Accuracy degrades as p = omega (r - s) -> 0: against P the relative
    error is 2.2e-5 at (s, r, w0, omega, t) = (0.5, 1.5, 0.5, 1e-4, 0) and
    at most 2.9e-9 wherever p >= 1e-3 (6000 random draws).  The default
    sweep grids keep omega >= 0.125.
    """

    def ramped(s: np.ndarray, r: np.ndarray, t: np.ndarray, w0: np.ndarray, omega: np.ndarray) -> np.ndarray:
        _check_each(s != r, lambda _: (
            "mean coefficient diverges for s = r under a ramped schedule with "
            "omega > 0 (the integrated guidance level grows without bound)"), s)
        f_t = (s + t) / (r + t)
        p = omega * (r - s)
        a1 = omega * s - w0 - 1.0
        c1 = 1.0 + w0 - omega * s
        terms = incomplete_beta_definite(np.concatenate([a1, a1 + 1.0]), np.concatenate([p + 1.0, p]),
                                         np.concatenate([f_t, f_t]), 1.0)
        term1, term2 = terms[:w0.size], terms[w0.size:]
        pref = (s + t) ** c1 * (r + t) ** (omega * r - w0) * (r - s) ** (-p - 1.0)
        return pref * (c1 * term1 + p * term2)

    return _per_ramp(s, r, sched, t, lambda s, r, t, w0: propagate(s, r, w0, t)[0], ramped)


def Lambda_coeff_linear(s: FloatOrArray, r: FloatOrArray, sched: Linear, t: FloatOrArray) -> FloatOrArray:
    """Variance factor under w(t) = w0 + omega*t, horizon -> inf; the
    arguments may be arrays, as in ``lambda_coeff_linear``.

    The per-direction guided variance is Lambda_i(t) * (s_i + t).
    """

    def ramped(s: np.ndarray, r: np.ndarray, t: np.ndarray, w0: np.ndarray, omega: np.ndarray) -> np.ndarray:
        f_t = (s + t) / (r + t)
        p = omega * (r - s)
        a = 2.0 * (omega * s - w0) - 1.0
        integral = incomplete_beta_definite(a, 2.0 * p + 1.0, f_t, 1.0)
        pref = (
            (s + t) ** (1.0 + 2.0 * (w0 - omega * s))
            * (r + t) ** (2.0 * omega * r - 2.0 * w0)
            * (r - s) ** (-2.0 * p - 1.0)
        )
        return np.where(s == r, 1.0, pref * integral)

    return _per_ramp(s, r, sched, t, lambda s, r, t, w0: propagate(s, r, w0, t)[1] / (s + t), ramped)


def moments(s: FloatOrArray, r: FloatOrArray, sched: GuidanceSchedule,
            t: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    """(mean_coeff, variance) of the eigenvalue pair (s, r) at time t under
    sched, horizon -> inf: ``propagate`` for a constant schedule, lambda and
    (s+t) Lambda from the incomplete Beta forms for a ramped one.  The
    arguments and the schedule's fields may be arrays that broadcast to a
    batch of cells, evaluated in one call."""
    if isinstance(sched, Constant):
        return propagate(s, r, sched.w, t)
    return lambda_coeff_linear(s, r, sched, t), (s + t) * Lambda_coeff_linear(s, r, sched, t)


def guided_moments(
    model: JointGaussianModel, sched: GuidanceSchedule, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Guided mean vector and covariance eigenvalues (in the model basis) at t.

    mean = sum_i lambda_i(t) (v_i . mu) v_i ; covariance eigenvalue i equals
    Lambda_i(t) * (s_i + t).  One ``moments`` call takes every eigendirection.
    """
    mean_coeff, cov_eigenvalues = moments(model.s, model.r, sched, t)
    mean = model.basis @ (mean_coeff * (model.basis.T @ model.mu))
    return mean, cov_eigenvalues


def exact_scores(
    model: JointGaussianModel, x: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional and unconditional scores at x, time t (diagonal solves).

    cond  = -(Sigma_cond + t I)^-1 (x - mu)
    uncond = -(Sigma_data + t I)^-1 x
    """
    if not (t >= 0.0):
        raise DomainError(f"need t >= 0, got t={t}")
    x = np.asarray(x, dtype=float)
    y = model.basis.T @ x
    m = model.basis.T @ model.mu
    cond = model.basis @ (-(y - m) / (model.s + t))
    uncond = model.basis @ (-y / (model.r + t))
    return cond, uncond


def guided_score_batch(
    model: JointGaussianModel, sched: GuidanceSchedule, x: np.ndarray, t: float
) -> np.ndarray:
    """Guided drift (1+w(t)) * cond - w(t) * uncond for an (n, d) batch of rows.

    The drift is affine in x, so each call forms, with w = w(t),

        A = V diag(w/(r+t) - (1+w)/(s+t)) V^T,
        b = V ((1+w) (V^T mu) / (s+t)),

    and returns the rows x @ A + b (A is symmetric): a GEMM against a (d, d)
    matrix instead of a round trip through the eigenbasis.  The GEMM runs
    over 1024-row tiles from the first row, aligned with the simulator's
    blocks, because OpenBLAS rounds a row differently depending on how many
    rows share its call; so each row of a batch that starts at a block
    boundary gets the same bytes as in a call on its block alone.
    """
    w = guidance_level(sched, t)
    basis = model.basis
    a = (basis * (w / (model.r + t) - (1.0 + w) / (model.s + t))) @ basis.T
    b = basis @ ((1.0 + w) * (basis.T @ model.mu) / (model.s + t))
    drift = np.empty(np.shape(x))
    for lo in range(0, len(x), _BLOCK):
        np.matmul(x[lo:lo + _BLOCK], a, out=drift[lo:lo + _BLOCK])
    drift += b
    return drift


def random_model(dim: int, seed: int) -> JointGaussianModel:
    """Seeded random model: orthonormal basis from a QR factorisation,
    r sorted descending in (0.5, 1.5], s = u * r with u uniform in (0.3, 1],
    and a standard-normal conditional mean."""
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    q, rr = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(rr))  # fix the sign convention so output is unique
    r = np.sort(rng.uniform(0.5, 1.5, dim))[::-1].copy()
    s = rng.uniform(0.3, 1.0, dim) * r
    mu = rng.standard_normal(dim)
    return JointGaussianModel(basis=q, r=r, s=s, mu=mu)
