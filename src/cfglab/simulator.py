"""Monte Carlo validation engine for the guided backward SDE.

Euler-Maruyama integration of  x_{t-dt} = x_t + score(x_t, t) dt + sqrt(dt) xi
with the exact scores of both solvable targets, run backward from
x_T ~ N(init_mean, T I) down to t = 0, plus empirical distortion estimators
with bootstrap standard errors.

Determinism contract: every random draw comes from a counter-based Philox
stream keyed by (master seed, purpose tag, step, block).  Samples are
processed in fixed-size blocks; a contiguous run of blocks advances one step
at a time, with one score call on all of its rows.  The scores compute every
row independently of the rest of its call (their GEMMs run over tiles aligned
with the blocks) and BLAS runs single-threaded, so outputs are bit-identical
for a given (``SimConfig``, score function) under any worker count, any
grouping of the blocks and any BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import DomainError, NumericalError
from .schedule import GuidanceSchedule, guidance_level

__all__ = [
    "SimConfig",
    "MixtureInstance",
    "EmpiricalDistortion",
    "mode_count",
    "sample_centroids",
    "make_mixture_score_fn",
    "integrate_backward",
    "measure_distortion",
]

# Fixed processing block: part of the output contract (noise is keyed per
# block), deliberately independent of the worker count.
_BLOCK = 1024

# Rows per score tile.  It divides _BLOCK, so tiles stay aligned with the
# blocks.
_TILE = 64

# Centroid columns per softmax chunk: a tile holds its logits one
# (_TILE, _CHUNK) chunk at a time, 1.5 MB in float32 whatever M is, where a
# full-width tile at M = e^10 modes would be 5.6 MB and a whole block's
# 90 MB.  The chunk fits one core's 2 MB L2 next to its keys; 8000 is as
# fast, while 4000, 10000 and 8192 (a power of two, whose rows alias in the
# cache) are slower.
_CHUNK = 6000

# Purpose tags for Philox key derivation.
_TAG_INIT = 1
_TAG_STEP = 2
_TAG_CENTROIDS = 3
_TAG_BOOTSTRAP = 4

_CENTROID_BUDGET = 10**8
_N_BOOTSTRAP = 200
_MODE_COUNT_CAP = 5 * 10**4


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description; equal (config, score) pairs give identical outputs."""

    dim: int
    n_samples: int
    seed: int
    horizon_T: float = 500.0
    n_steps: int = 2000
    checkpoints: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError("dim must be >= 1")
        if self.n_samples < 2:
            raise DomainError("n_samples must be >= 2")
        if not (0 < self.horizon_T < math.inf):  # nan fails too
            raise DomainError(f"horizon_T must be positive and finite, got {self.horizon_T}")
        if self.n_steps < 10:
            raise DomainError("n_steps must be >= 10")
        cps = tuple(sorted(set(float(c) for c in self.checkpoints), reverse=True))
        if not cps:
            raise DomainError("need at least one checkpoint")
        if not all(0.0 <= c <= self.horizon_T for c in cps):  # nan fails too
            raise DomainError(f"checkpoints must lie in [0, horizon_T], got {cps}")
        object.__setattr__(self, "checkpoints", cps)


@dataclass(frozen=True)
class MixtureInstance:
    """Concrete sampled mixture: centroid rows (row 0 conditions), sigma^2."""

    centroids: np.ndarray  # (M, d)
    sigma2: float

    def __post_init__(self) -> None:
        c = np.asarray(self.centroids, dtype=float)
        if c.ndim != 2 or c.shape[0] < 1:
            raise DomainError("centroids must be a non-empty (M, d) matrix")
        if not (0 < self.sigma2 < math.inf):
            raise DomainError(f"sigma2 must be positive and finite, got {self.sigma2}")
        object.__setattr__(self, "centroids", c)

    @property
    def target(self) -> np.ndarray:
        return self.centroids[0]


@dataclass(frozen=True)
class EmpiricalDistortion:
    """Empirical distortion pair with nonparametric bootstrap errors."""

    delta_mu_hat: float
    delta_mu_se: float
    delta_sigma2_hat: float
    delta_sigma2_se: float
    n_samples: int


def _philox_key(seed: int, tag: int, index: int) -> np.ndarray:
    """Philox key of stream (seed, tag, index): seed mod 2^64, then tag << 32 | index."""
    return np.array([seed & (2**64 - 1), (tag << 32) | index], dtype=np.uint64)


def _philox(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, tag, index)))


_PHILOX_START = np.zeros(4, dtype=np.uint64)


def _rekey(rng: np.random.Generator, seed: int, tag: int, index: int) -> np.random.Generator:
    """Point a Philox generator at the start of stream (seed, tag, index).

    It then draws what ``_philox(seed, tag, index)`` draws, without building a
    new bit generator (and the SeedSequence its constructor gathers).
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _PHILOX_START, "key": _philox_key(seed, tag, index)},
        "buffer": _PHILOX_START,
        "buffer_pos": len(_PHILOX_START),
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def mode_count(beta: float, d: int) -> int:
    """M = round(exp(beta*d)), rejected above 5e4 (reduce d to simulate)."""
    if not beta >= 0 or d < 1:
        raise DomainError(f"need beta >= 0 and d >= 1, got beta={beta}, d={d}")
    if beta * d > math.log(_MODE_COUNT_CAP + 0.5):  # judged before exp, which overflows
        raise DomainError(
            f"beta*d = {beta * d:.3f} gives M = exp(beta*d) > {_MODE_COUNT_CAP}; "
            "reduce d (the exponential mode count is only materialised at "
            "desk scale)"
        )
    return max(round(math.exp(beta * d)), 1)


def sample_centroids(
    d: int, M: int, seed: int, sigma2: float = 1.0, normalize_target: bool = False
) -> MixtureInstance:
    """Standard-normal centroid rows, deterministic in the seed.

    ``normalize_target`` rescales the conditioning row to norm sqrt(d),
    removing the chi-square fluctuation of |c1|^2/d that dominates the
    finite-d comparison against the mean-field theory (which assumes
    |c1|^2/d -> 1) at desk-scale dimensions.
    """
    if M < 1 or d < 1:
        raise DomainError("need M >= 1 and d >= 1")
    if M * d > _CENTROID_BUDGET:
        raise DomainError(f"centroid matrix would hold {M * d} entries (> {_CENTROID_BUDGET})")
    c = _philox(seed, _TAG_CENTROIDS).standard_normal((M, d))
    if normalize_target:
        c[0] *= math.sqrt(d) / np.linalg.norm(c[0])
    return MixtureInstance(centroids=c, sigma2=sigma2)


def make_mixture_score_fn(
    inst: MixtureInstance,
    schedule: GuidanceSchedule,
    softmax_dtype: type = np.float64,
) -> Callable[[np.ndarray, float], np.ndarray]:
    """Guided drift (1+w) * cond_score - w * uncond_score of the mixture, w = w(t).

    The returned closure maps a batch x of shape (n, d) and a time t to the
    drift; any other shape raises DomainError.  The unconditional score is
    the softmax-weighted pull toward the centroids, i.e. attention with the
    samples as queries and the centroids as keys and values.  Keys and values
    share one (M, d+2) buffer [C, 1, -|c|^2/2], and the kernel runs over
    64-row tiles and, within a tile, over chunks of ``_CHUNK`` centroids:
    - the augmented query [x/g, 0, 1/g] times the chunk's buffer rows gives
      the logits (x.c - |c|^2/2)/g in one GEMM (the 0 skips the ones);
    - the logits, shifted by the running row max and exponentiated, times the
      chunk's values [C, 1] give the weighted sum and, in the last column,
      the normaliser in a second GEMM;
    - that product is added into the tile's accumulator after the
      accumulator is rescaled by exp(old max - new max), the online softmax
      of Milakov & Gimelshein (arXiv:1805.02867), so the logits held do not
      grow with M.  A tile starts at a running max of -inf and an accumulator
      of 0, so the first chunk's rescale is 0 * exp(-inf) = 0 like any other.
    Tiles start at the first row, so a batch of whole 1024-row blocks splits
    into the same tiles as each block alone and every row gets the same bytes.

    ``softmax_dtype=np.float32`` halves the cost of the (n_samples, M) softmax
    at exponential mode counts; the conditional part stays in float64.

    The closure holds the (M, d+2) buffer at the softmax dtype and a copy of
    the target row, not ``inst.centroids``: a caller that drops ``inst``
    frees the float64 (M, d) matrix.  A call adds one (_TILE, _CHUNK) logit
    chunk and O(n*d) arrays, the float64 ones built in place.
    """
    C = inst.centroids
    M, d = C.shape
    # The ones precede -|c|^2/2 so that the values are a slice of the same
    # shape as a separate [C, 1] array: OpenBLAS rounds a GEMM by its operand
    # shapes, and this keeps more outputs at their former bytes.
    kv = np.empty((M, d + 2), dtype=softmax_dtype)
    kv[:, :d] = C
    kv[:, d] = 1.0
    kv[:, d + 1] = -0.5 * np.einsum("ij,ij->i", C, C)
    width = min(M, _CHUNK)
    chunks = [(kv[lo:lo + width].T, kv[lo:lo + width, :d + 1]) for lo in range(0, M, width)]
    c1 = inst.target.copy()  # a view would keep the (M, d) float64 matrix alive
    sigma2 = inst.sigma2

    def score(x: np.ndarray, t: float) -> np.ndarray:
        if np.ndim(x) != 2 or np.shape(x)[1] != d:
            raise DomainError(f"score expects an (n, {d}) batch, got shape {np.shape(x)}")
        w = guidance_level(schedule, t)
        g = sigma2 + t
        cond = c1 - x
        cond /= g
        if w == 0.0 or M == 1:
            return cond
        n = len(x)
        queries = np.empty((n, d + 2), dtype=softmax_dtype)
        np.divide(x, g, out=queries[:, :d])
        queries[:, d] = 0.0
        queries[:, d + 1] = 1.0 / g
        acc = np.zeros((n, d + 1), dtype=softmax_dtype)
        rows = min(n, _TILE)
        logits = np.empty((rows, width), dtype=softmax_dtype)
        part = np.empty((rows, d + 1), dtype=softmax_dtype)
        for lo in range(0, n, _TILE):
            q, a = queries[lo:lo + _TILE], acc[lo:lo + _TILE]
            k = len(q)
            running = np.full((k, 1), -np.inf, dtype=softmax_dtype)
            for keys, values in chunks:
                tile = logits[:k, :len(values)]
                np.matmul(q, keys, out=tile)
                new = np.maximum(running, tile.max(axis=1, keepdims=True))
                tile -= new
                np.exp(tile, out=tile)
                a *= np.exp(running - new)
                a += np.matmul(tile, values, out=part[:k])
                running = new
        # The float64 epilogue runs in place, in the order of
        # (1 + w) * cond - w * (mean - x) / g, so it rounds as that does.
        np.divide(acc[:, :d], acc[:, d:], out=acc[:, :d])
        uncond = acc[:, :d].astype(float)
        uncond -= x
        uncond /= g
        cond *= 1.0 + w
        uncond *= w
        cond -= uncond
        return cond

    return score


def time_grid(config: SimConfig, grid_offset: float = 0.0) -> np.ndarray:
    """Descending times from horizon_T to 0 with checkpoints spliced in.

    Steps are placed geometrically in (grid_offset + t) so the step size
    shrinks where the dynamics stiffens near t = 0; pass the per-mode
    variance (or the smallest conditional eigenvalue) as the offset.
    DomainError if an offset far above T leaves fewer than n_steps distinct
    steps at float resolution.
    """
    if not (0 <= grid_offset < math.inf):
        raise DomainError(f"grid_offset must be >= 0 and finite, got {grid_offset}")
    T, n = config.horizon_T, config.n_steps
    off = max(grid_offset, 1e-6 * T)
    ts = np.geomspace(off + T, off, n + 1) - off
    ts[0], ts[-1] = T, 0.0
    if not np.all(np.diff(ts) < 0):
        raise DomainError(
            f"{n} steps from T={T} to 0 merge at float resolution at grid offset {grid_offset}")
    merged = np.unique(np.concatenate([ts, np.asarray(config.checkpoints, dtype=float)]))
    return merged[::-1].copy()


# (get, set) symbol pairs of the OpenBLAS builds numpy ships or links against.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas_threads() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) of the thread count of the OpenBLAS numpy has loaded, or None.

    Looked up on first use through numpy's multiarray extension, whose symbol
    lookup also searches the libraries it links against.
    """
    core = getattr(np, "_core", None) or np.core  # numpy 2 / numpy 1
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


@contextmanager
def _blas_on_one_thread() -> Iterator[None]:
    """Run OpenBLAS on the calling thread only, restoring its count on exit."""
    controls = _openblas_threads()
    if controls is None:
        yield
        return
    get, set_ = controls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def integrate_backward(
    config: SimConfig,
    score_fn: Callable[[np.ndarray, float], np.ndarray],
    grid_offset: float = 0.0,
    init_mean: Optional[np.ndarray] = None,
    workers: int = 1,
) -> dict[float, np.ndarray]:
    """Integrate n_samples backward trajectories; returns {checkpoint: (n, d)}.

    Initial condition x_T ~ N(init_mean, T * I) (zero mean by default).
    The blocks are the only parallel axis: they are split into
    min(workers, n_blocks) contiguous groups, the calling thread runs the
    first and a pool of the remaining threads the others.  A group advances
    all of its rows one step at a time: one ``score_fn`` call on the group's
    rows, then each block's noise drawn from its own (step, block) stream.
    ``score_fn`` must return a fresh array, which is scaled in place, and
    compute every row independently of the rest of its call (as both targets'
    drifts do, over block-aligned tiles), so the output is fixed by
    (config, score_fn) and does not depend on the grouping.  OpenBLAS runs on
    one thread for the whole call, so it does not depend on the BLAS thread
    count either.
    Raises DomainError for ``workers`` below 1, and NumericalError naming the
    first step at which a state leaves float range and a sample that left it.
    A group that raises stops the others before their next step; of the
    groups that raised by then, the first in block order has its error
    reported.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    grid = time_grid(config, grid_offset)
    n, d = config.n_samples, config.dim
    sqrt_T = math.sqrt(config.horizon_T)
    mean0 = np.zeros(d) if init_mean is None else np.asarray(init_mean, dtype=float)
    if mean0.shape != (d,):
        raise DomainError("init_mean must be a length-d vector")
    wanted = set(config.checkpoints)
    out = {t: np.empty((n, d)) for t in config.checkpoints}
    x = np.empty((n, d))
    n_blocks = (n + _BLOCK - 1) // _BLOCK
    n_groups = min(workers, n_blocks)
    # Contiguous groups whose sizes differ by at most one block.
    size, extra = divmod(n_blocks, n_groups)
    edges = [g * size + min(g, extra) for g in range(n_groups + 1)]
    failed = threading.Event()

    def run_group(first: int, last: int) -> None:
        lo, hi = first * _BLOCK, min(last * _BLOCK, n)
        rows = x[lo:hi]
        blocks = [(b, x[b * _BLOCK:min((b + 1) * _BLOCK, n)]) for b in range(first, last)]
        noise = np.empty((min(_BLOCK, hi - lo), d))
        rng = _philox(config.seed, _TAG_INIT)  # re-keyed before every draw
        for b, block in blocks:
            _rekey(rng, config.seed, _TAG_INIT, b).standard_normal(out=block)
            block *= sqrt_T
            block += mean0
        if grid[0] in wanted:
            out[grid[0]][lo:hi] = rows
        try:
            for k in range(len(grid) - 1):
                if failed.is_set():
                    return
                t, t_next = grid[k], grid[k + 1]
                dt = t - t_next
                drift = score_fn(rows, t)
                rows += np.multiply(drift, dt, out=drift)
                del drift  # not held through the next score call
                sqrt_dt = math.sqrt(dt)
                for b, block in blocks:
                    z = noise[:len(block)]
                    _rekey(rng, config.seed, _TAG_STEP, k * n_blocks + b).standard_normal(out=z)
                    z *= sqrt_dt
                    block += z
                if not np.isfinite(rows).all():
                    bad = int(np.argwhere(~np.isfinite(rows).all(axis=1))[0, 0])
                    raise NumericalError(
                        f"non-finite state at step {k} (t={t_next:.6g}), sample {lo + bad}"
                    )
                if t_next in wanted:
                    out[t_next][lo:hi] = rows
        except BaseException:
            failed.set()  # the other groups stop before their next step
            raise

    # Threads start on submit, so a lone group starts none.
    with _blas_on_one_thread(), ThreadPoolExecutor(max_workers=max(n_groups - 1, 1)) as pool:
        futures = [pool.submit(run_group, edges[g], edges[g + 1]) for g in range(1, n_groups)]
        run_group(edges[0], edges[1])
        for fut in futures:
            fut.result()
    return out


def measure_distortion(
    samples: np.ndarray,
    c1: np.ndarray,
    sigma2: float,
    seed: int = 0,
) -> EmpiricalDistortion:
    """Empirical distortion pair with bootstrap standard errors.

    delta_mu_hat = c1.(mean - c1)/d, delta_sigma2_hat = (s2_hat - sigma2)/sigma2
    with s2_hat the per-coordinate unbiased sample variance averaged over
    coordinates.  sigma2 is the reference variance: for samples at time t,
    pass the per-mode variance plus t, the conditional marginal's variance
    there, as the theory does.  The bootstrap stream is keyed separately
    from the SDE noise.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DomainError("need an (n >= 2, d) sample matrix")
    c1 = np.asarray(c1, dtype=float)
    n, d = X.shape

    def estimates(Y: np.ndarray) -> tuple[float, float]:
        mu_hat = Y.mean(axis=0)
        dmu = float(c1 @ (mu_hat - c1)) / d
        s2_hat = float(Y.var(axis=0, ddof=1).mean())
        return dmu, (s2_hat - sigma2) / sigma2

    dmu, dsig = estimates(X)
    rng = _philox(seed, _TAG_BOOTSTRAP)
    boots = np.empty((_N_BOOTSTRAP, 2))
    for k in range(_N_BOOTSTRAP):
        idx = rng.integers(0, n, n)
        boots[k] = estimates(X[idx])
    se = boots.std(axis=0, ddof=1)
    return EmpiricalDistortion(
        delta_mu_hat=dmu,
        delta_mu_se=float(se[0]),
        delta_sigma2_hat=dsig,
        delta_sigma2_se=float(se[1]),
        n_samples=n,
    )
