"""Monte Carlo engine: determinism, exact scores, estimator behaviour."""

import gc
import math
import os
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from cfglab.errors import DomainError, NumericalError
from cfglab.joint_gaussian import guided_score_batch, random_model
from cfglab.schedule import Constant
from cfglab.simulator import (
    MixtureInstance,
    SimConfig,
    _BLOCK,
    _CHUNK,
    _TAG_STEP,
    _TILE,
    _openblas_threads,
    _philox,
    _rekey,
    integrate_backward,
    make_mixture_score_fn,
    measure_distortion,
    mode_count,
    sample_centroids,
    time_grid,
)


class TestSampleCentroids:
    def test_deterministic(self):
        a = sample_centroids(16, 40, seed=5)
        b = sample_centroids(16, 40, seed=5)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_row_norms_concentrate(self):
        inst = sample_centroids(1000, 100, seed=1)
        norms2 = (inst.centroids**2).sum(axis=1) / 1000.0
        assert 0.9 <= norms2.mean() <= 1.1

    def test_single_mode(self):
        inst = sample_centroids(2, 1, seed=0)
        assert inst.centroids.shape == (1, 2) and np.isfinite(inst.target).all()

    def test_budget_guard(self):
        with pytest.raises(DomainError, match="centroid matrix would hold"):
            sample_centroids(2000, 100000, seed=0)

    def test_normalized_target(self):
        inst = sample_centroids(12, 30, seed=3, normalize_target=True)
        assert float(inst.target @ inst.target) == pytest.approx(12.0, rel=1e-12)

    def test_mode_count_cap(self):
        assert mode_count(0.5, 20) == 22026
        with pytest.raises(DomainError, match=r"exp\(beta\*d\)"):
            mode_count(0.6, 20)
        with pytest.raises(DomainError, match=r"exp\(beta\*d\)"):
            mode_count(1.0, 1000)  # exp(1000) overflows a float
        with pytest.raises(DomainError):
            mode_count(math.nan, 20)


class TestPhiloxStreams:
    # (step, block) at block and step boundaries of a 20-block, 2000-step run.
    @pytest.mark.parametrize("k,b", [(0, 0), (0, 19), (1, 0), (1, 19), (1999, 0), (1999, 19)])
    @pytest.mark.parametrize("seed", [0, 31, 2**63, 2**63 + 12345, 2**64 - 1])
    def test_rekeyed_generator_draws_the_fresh_stream(self, seed, k, b):
        index = k * 20 + b
        rng = _philox(seed ^ 1, _TAG_STEP, index + 1)
        rng.standard_normal(5)
        rng.integers(0, 2**32, size=3, dtype=np.uint32)  # leaves a cached half word
        _rekey(rng, seed, _TAG_STEP, index)
        fresh = _philox(seed, _TAG_STEP, index)
        for draw in (lambda g: g.standard_normal(37).view(np.uint64),
                     lambda g: g.integers(0, 2**32, size=5, dtype=np.uint32),
                     lambda g: g.bit_generator.random_raw(9)):
            np.testing.assert_array_equal(draw(rng), draw(fresh))


# Both softmax dtypes the simulator ships; the conditional part is float64 in each.
SOFTMAX_DTYPES = (np.float64, np.float32)


def _row_by_row_drift(inst, w, X, t):
    """Guided drift from the float64 softmax of -|x - c|^2 / (2g), one row at a time."""
    g = inst.sigma2 + t
    out = np.empty_like(X)
    for i, x in enumerate(X):
        le = -((x - inst.centroids) ** 2).sum(axis=1) / (2.0 * g)
        p = np.exp(le - le.max())
        mean = p @ inst.centroids / p.sum()
        out[i] = ((1.0 + w) * (inst.target - x) - w * (mean - x)) / g
    return out


def _unfused_float32_drift(inst, w, X, t):
    """The untiled float32 kernel the fused one replaced: shift, scale, exp, row-sum."""
    g = inst.sigma2 + t
    C = inst.centroids.astype(np.float32)
    logits = X.astype(np.float32) @ C.T
    logits -= 0.5 * np.einsum("ij,ij->i", C, C)
    logits /= np.float32(g)
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    mean = (logits @ C) / logits.sum(axis=1, keepdims=True)
    return ((1.0 + w) * (inst.target - X) - w * (mean.astype(float) - X)) / g


class TestMixtureScore:
    def test_single_mode_reduces_to_conditional(self):
        inst = sample_centroids(4, 1, seed=2, sigma2=0.7)
        X = np.arange(4.0)[None, :]
        for dtype in SOFTMAX_DTYPES:
            for w in (0.0, 1.0, 5.0):
                got = make_mixture_score_fn(inst, Constant(w), softmax_dtype=dtype)(X, 0.5)
                np.testing.assert_allclose(got, (inst.target - X) / 1.2, atol=1e-14)

    def test_zero_guidance_is_conditional(self):
        inst = sample_centroids(3, 6, seed=2, sigma2=0.5)
        X = np.array([[0.3, -1.0, 0.8]])
        for dtype in SOFTMAX_DTYPES:
            got = make_mixture_score_fn(inst, Constant(0.0), softmax_dtype=dtype)(X, 0.2)
            np.testing.assert_allclose(got, (inst.target - X) / 0.7, atol=1e-14)

    def test_matches_finite_difference_gradient(self):
        inst = sample_centroids(3, 4, seed=4, sigma2=0.6)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(3)
        w, t = 0.8, 0.5
        g = inst.sigma2 + t

        def log_target(z):
            le = -((z - inst.centroids) ** 2).sum(axis=1) / (2.0 * g)
            mix = float(le.max() + np.log(np.exp(le - le.max()).sum()))
            return (1.0 + w) * float(le[0]) - w * mix

        h = 1e-5
        for dtype in SOFTMAX_DTYPES:
            sc = make_mixture_score_fn(inst, Constant(w), softmax_dtype=dtype)(x[None, :], t)[0]
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (log_target(x + e) - log_target(x - e)) / (2.0 * h)
                assert sc[j] == pytest.approx(fd, abs=1e-5), dtype

    def test_magnitude_bound(self):
        inst = sample_centroids(5, 12, seed=6, sigma2=0.5)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 5)) * 3.0
        t, w = 0.3, 1.7
        bound = (1.0 + 2.0 * abs(w)) * np.sqrt(
            (((X[:, None, :] - inst.centroids[None]) ** 2).sum(-1)).max(axis=1)
        ) / (inst.sigma2 + t)
        for dtype in SOFTMAX_DTYPES:
            S = make_mixture_score_fn(inst, Constant(w), softmax_dtype=dtype)(X, t)
            assert np.all(np.linalg.norm(S, axis=1) <= bound + 1e-12), dtype

    @pytest.mark.parametrize("rows", [1, _TILE - 1, _TILE, _TILE + 1, 300])
    def test_tiles_match_row_by_row_softmax(self, rows):
        # Row counts around the tile: a short last tile must not reuse stale
        # logits or write outside its rows.
        d, M, w, t = 8, 600, 1.3, 0.4
        inst = sample_centroids(d, M, seed=21, sigma2=0.5)
        rng = np.random.default_rng(rows)
        X = inst.centroids[rng.integers(0, M, rows)] + rng.standard_normal((rows, d))
        ref = _row_by_row_drift(inst, w, X, t)
        f64 = make_mixture_score_fn(inst, Constant(w))(X, t)
        np.testing.assert_allclose(f64, ref, rtol=0.0, atol=1e-12)
        # float32: within 8x the untiled kernel's own error.  The fused kernel
        # sums the normaliser inside the float32 GEMM instead of with numpy's
        # pairwise row sum, which at M = 600 costs a factor of 1-5.
        f32 = make_mixture_score_fn(inst, Constant(w), softmax_dtype=np.float32)(X, t)
        unfused_err = np.abs(_unfused_float32_drift(inst, w, X, t) - ref).max()
        assert np.abs(f32 - ref).max() <= 8.0 * unfused_err

    @pytest.mark.parametrize("M", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 37])
    def test_chunks_match_row_by_row_softmax(self, M):
        # Mode counts around the chunk: one chunk, one full chunk, a one-column
        # second chunk, and three chunks whose running max must rescale the
        # accumulator.
        d, w, t, rows = 4, 1.3, 0.4, 100
        inst = sample_centroids(d, M, seed=21, sigma2=0.5)
        rng = np.random.default_rng(M)
        X = inst.centroids[rng.integers(0, M, rows)] + rng.standard_normal((rows, d))
        ref = _row_by_row_drift(inst, w, X, t)
        f64 = make_mixture_score_fn(inst, Constant(w))(X, t)
        np.testing.assert_allclose(f64, ref, rtol=0.0, atol=1e-12)
        f32 = make_mixture_score_fn(inst, Constant(w), softmax_dtype=np.float32)(X, t)
        unfused_err = np.abs(_unfused_float32_drift(inst, w, X, t) - ref).max()
        assert np.abs(f32 - ref).max() <= 8.0 * unfused_err

    def test_running_max_spans_far_apart_chunks(self):
        # The first chunk's centroids sit 30 away from the rest, so a row's
        # chunk maxima differ by hundreds: the running max must only grow, or
        # the float32 rescale exp(old - new) overflows.
        d, M, w, t, rows = 4, 2 * _CHUNK + 37, 1.0, 0.05, 64
        C = sample_centroids(d, M, seed=5).centroids
        C[:_CHUNK, 0] += 30.0
        inst = MixtureInstance(centroids=C, sigma2=0.5)
        rng = np.random.default_rng(9)
        X = C[rng.integers(0, M, rows)] + 0.3 * rng.standard_normal((rows, d))
        ref = _row_by_row_drift(inst, w, X, t)
        f64 = make_mixture_score_fn(inst, Constant(w))(X, t)
        np.testing.assert_allclose(f64, ref, rtol=0.0, atol=1e-11)
        f32 = make_mixture_score_fn(inst, Constant(w), softmax_dtype=np.float32)(X, t)
        unfused_err = np.abs(_unfused_float32_drift(inst, w, X, t) - ref).max()
        assert np.abs(f32 - ref).max() <= 8.0 * unfused_err

    @staticmethod
    def _assert_batch_matches_block_calls(d, M, dtype, t):
        rows = 2500
        inst = sample_centroids(d, M, seed=4, sigma2=0.5)
        rng = np.random.default_rng(6)
        X = inst.centroids[rng.integers(0, M, rows)] + math.sqrt(0.5 + t) * rng.standard_normal((rows, d))
        fn = make_mixture_score_fn(inst, Constant(1.0), softmax_dtype=dtype)
        batch = fn(X, t)
        blocks = [fn(X[lo:lo + _BLOCK], t) for lo in range(0, rows, _BLOCK)]
        np.testing.assert_array_equal(batch.view(np.uint64), np.concatenate(blocks).view(np.uint64))

    @pytest.mark.parametrize("t", [0.05, 1.0, 40.0])
    @pytest.mark.parametrize("dtype", SOFTMAX_DTYPES)
    def test_batch_rows_match_their_block_calls_bit_for_bit(self, dtype, t):
        # The simulator may call the score on several 1024-row blocks at once,
        # so tiles must not straddle a block boundary.  At d = 15, M = 1808 a
        # misaligned tile (100 rows) rounds some rows differently; at d = 20,
        # M = 3000 it does not, so that size would not tell them apart.
        assert _BLOCK % _TILE == 0
        self._assert_batch_matches_block_calls(15, mode_count(0.5, 15), dtype, t)

    @pytest.mark.parametrize("t", [0.05, 1.0, 40.0])
    @pytest.mark.parametrize("dtype", SOFTMAX_DTYPES)
    def test_chunked_batch_rows_match_their_block_calls_bit_for_bit(self, dtype, t):
        # Three centroid chunks per tile: the running max and the rescale
        # must not depend on which other rows share the call.
        self._assert_batch_matches_block_calls(8, 2 * _CHUNK + 37, dtype, t)

    def test_logits_held_one_tile_at_a_time(self):
        # One block's call holds its logits a tile at a time, never as one
        # (1024, M) array (33 MB at d = 12, M = 8103 in float32).
        d, M = 12, mode_count(0.75, 12)
        inst = sample_centroids(d, M, seed=3, sigma2=0.5)
        X = inst.centroids[np.random.default_rng(2).integers(0, M, _BLOCK)]
        fn = make_mixture_score_fn(inst, Constant(1.0), softmax_dtype=np.float32)
        tracemalloc.start()
        try:
            fn(X, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_logit_bytes = _BLOCK * M * np.dtype(np.float32).itemsize
        assert peak < block_logit_bytes / 4

    def test_memory_does_not_grow_with_the_mode_count(self):
        # The factory holds one (M, d+2) buffer for keys and values, and a
        # call's peak at 6 chunks is no higher than at 2: the logits are held
        # one (_TILE, _CHUNK) chunk at a time, whatever M is.
        d, itemsize = 4, np.dtype(np.float32).itemsize
        peaks = {}
        for M in (2 * _CHUNK, 6 * _CHUNK):
            inst = sample_centroids(d, M, seed=3, sigma2=0.5)
            X = inst.centroids[np.random.default_rng(2).integers(0, M, _BLOCK)]
            tracemalloc.start()
            try:
                fn = make_mixture_score_fn(inst, Constant(1.0), softmax_dtype=np.float32)
                held, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                fn(X, 0.3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert M * (d + 2) * itemsize <= held < M * (d + 2) * itemsize + 16 * 1024
            peaks[M] = peak - held
        per_call_arrays = _BLOCK * (d + 2) * itemsize
        assert peaks[6 * _CHUNK] <= peaks[2 * _CHUNK] + per_call_arrays

    @pytest.mark.parametrize("dtype", SOFTMAX_DTYPES)
    def test_holds_no_reference_to_the_centroid_matrix(self, dtype):
        # The closure keeps its (M, d+2) buffer and a copy of the target row,
        # so dropping the instance frees the float64 (M, d) matrix.
        inst = sample_centroids(4, 300, seed=3, sigma2=0.5)
        X = inst.centroids[:8] + 0.1
        expected = make_mixture_score_fn(inst, Constant(1.0), softmax_dtype=dtype)(X, 0.3)
        centroids = weakref.ref(inst.centroids)
        fn = make_mixture_score_fn(inst, Constant(1.0), softmax_dtype=dtype)
        del inst
        gc.collect()
        assert centroids() is None, "centroids alive"
        np.testing.assert_array_equal(fn(X, 0.3), expected)

    def test_rejects_anything_but_an_n_by_d_batch(self):
        # Every branch: zero guidance, a single mode, and the softmax.
        for M, w in ((4, 0.0), (1, 1.0), (4, 1.0)):
            inst = sample_centroids(3, M, seed=2, sigma2=0.5)
            for dtype in SOFTMAX_DTYPES:
                fn = make_mixture_score_fn(inst, Constant(w), softmax_dtype=dtype)
                for x in (np.zeros(3), np.zeros((2, 4)), np.zeros((1, 2, 3))):
                    with pytest.raises(DomainError):
                        fn(x, 0.5)

    def test_float32_path_close_to_float64(self):
        inst = sample_centroids(6, 200, seed=9, sigma2=0.5)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((16, 6))
        f64 = make_mixture_score_fn(inst, Constant(1.0))(X, 0.4)
        f32 = make_mixture_score_fn(inst, Constant(1.0), softmax_dtype=np.float32)(X, 0.4)
        np.testing.assert_allclose(f32, f64, atol=5e-5)


class TestTimeGrid:
    def test_endpoints_and_order(self):
        cfg = SimConfig(dim=1, n_samples=2, seed=0, horizon_T=100.0, n_steps=50)
        g = time_grid(cfg, grid_offset=0.5)
        assert g[0] == 100.0 and g[-1] == 0.0
        assert np.all(np.diff(g) < 0)

    def test_checkpoints_spliced_exactly(self):
        cfg = SimConfig(dim=1, n_samples=2, seed=0, horizon_T=100.0, n_steps=50,
                        checkpoints=(0.0, 0.123, 7.0))
        g = time_grid(cfg, grid_offset=0.5)
        for c in (0.0, 0.123, 7.0):
            assert c in g

    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(dim=0, n_samples=2, seed=0)
        with pytest.raises(DomainError):
            SimConfig(dim=1, n_samples=2, seed=0, n_steps=5)
        with pytest.raises(DomainError):
            SimConfig(dim=1, n_samples=2, seed=0, checkpoints=(700.0,))
        # non-finite horizons and checkpoints, a nan anywhere in the list included
        for kwargs in ({"horizon_T": math.inf}, {"horizon_T": math.nan},
                       {"checkpoints": (math.nan,)}, {"checkpoints": (1.0, math.nan, 0.0)}):
            with pytest.raises(DomainError):
                SimConfig(dim=2, n_samples=10, seed=0, **kwargs)

    def test_steps_that_merge_at_float_resolution_are_rejected(self):
        # at T = 500 and 2000 steps an offset of 1e15 leaves 123 distinct steps
        cfg = SimConfig(dim=1, n_samples=2, seed=0)
        assert len(time_grid(cfg, grid_offset=1e13)) == cfg.n_steps + 1
        for offset in (1e15, 1e300, math.inf, math.nan, -1.0):
            with pytest.raises(DomainError):
                time_grid(cfg, grid_offset=offset)

    def test_mixture_variance_must_be_positive_and_finite(self):
        for sigma2 in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                MixtureInstance(centroids=np.zeros((2, 3)), sigma2=sigma2)


class TestIntegrateBackward:
    def test_pure_diffusion_increments(self):
        # zero score: x_0 - x_T is a Brownian increment of variance T
        cfg = SimConfig(dim=8, n_samples=4000, seed=11, horizon_T=1.0, n_steps=10,
                        checkpoints=(0.0, 1.0))
        out = integrate_backward(cfg, lambda x, t: np.zeros_like(x))
        inc = out[0.0] - out[1.0]
        var = float(inc.var(axis=0, ddof=1).mean())
        assert var == pytest.approx(1.0, abs=3.0 * math.sqrt(2.0 / (4000 * 8)))

    def test_unguided_single_mode_sampler(self):
        # w = 0, M = 1, d = 100: exact conditional sampler at t = 0
        d, n = 100, 4000
        inst = sample_centroids(d, 1, seed=7, sigma2=0.5)
        cfg = SimConfig(dim=d, n_samples=n, seed=7, horizon_T=500.0, n_steps=2000)
        out = integrate_backward(cfg, make_mixture_score_fn(inst, Constant(0.0)),
                                 grid_offset=0.5, workers=os.cpu_count() or 1)[0.0]
        se_mean = math.sqrt(0.5 / n)
        assert np.all(np.abs(out.mean(axis=0) - inst.target) < 4.0 * se_mean)
        var = float(out.var(axis=0, ddof=1).mean())
        assert var == pytest.approx(0.5, abs=3.0 * 0.5 * math.sqrt(2.0 / (n * d)) + 0.005)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_workers_below_one(self, workers):
        cfg = SimConfig(dim=2, n_samples=10, seed=0, horizon_T=1.0, n_steps=10)
        with pytest.raises(DomainError, match="workers must be >= 1"):
            integrate_backward(cfg, lambda x, t: np.zeros_like(x), workers=workers)

    def test_deterministic_across_worker_counts(self):
        inst = sample_centroids(5, 9, seed=3, sigma2=0.5)
        cfg = SimConfig(dim=5, n_samples=2500, seed=3, horizon_T=50.0, n_steps=40)
        fn = make_mixture_score_fn(inst, Constant(0.7))
        a = integrate_backward(cfg, fn, grid_offset=0.5, workers=1)[0.0]
        b = integrate_backward(cfg, fn, grid_offset=0.5, workers=3)[0.0]
        c = integrate_backward(cfg, fn, grid_offset=0.5, workers=1)[0.0]
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("dtype", SOFTMAX_DTYPES)
    def test_chunked_softmax_identical_across_worker_counts(self, dtype):
        # Three blocks, the last partial, at three centroid chunks per tile:
        # the running max and rescale stay inside each row.
        d, M = 4, 2 * _CHUNK + 37
        inst = sample_centroids(d, M, seed=6, sigma2=0.5)
        cfg = SimConfig(dim=d, n_samples=2500, seed=6, horizon_T=50.0, n_steps=10)
        fn = make_mixture_score_fn(inst, Constant(1.0), softmax_dtype=dtype)
        runs = [integrate_backward(cfg, fn, grid_offset=0.5, workers=k)[0.0] for k in (1, 2, 3)]
        for run in runs[1:]:
            np.testing.assert_array_equal(run.view(np.uint64), runs[0].view(np.uint64))

    def test_independent_of_blas_thread_count(self):
        controls = _openblas_threads()
        if controls is None:
            pytest.skip("no OpenBLAS thread-count setter found")
        get_threads, set_threads = controls
        d, M = 20, 3000
        inst = sample_centroids(d, M, seed=5, sigma2=0.5)
        cfg = SimConfig(dim=d, n_samples=1024, seed=5, horizon_T=50.0, n_steps=10)
        fn = make_mixture_score_fn(inst, Constant(1.0), softmax_dtype=np.float32)
        original = get_threads()
        runs = []
        try:
            for threads in (1, 2):
                set_threads(threads)
                before = get_threads()
                runs.append(integrate_backward(cfg, fn, grid_offset=0.5)[0.0])
                assert get_threads() == before
        finally:
            set_threads(original)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_nonfinite_state_reported(self):
        cfg = SimConfig(dim=2, n_samples=8, seed=0, horizon_T=1.0, n_steps=10)
        with pytest.raises(NumericalError, match="step"):
            integrate_backward(cfg, lambda x, t: np.full_like(x, np.inf))

    def test_joint_drift_byte_identical_over_block_groupings(self):
        # Three blocks, the last partial: workers 1, 2 and 3 group them as
        # {0,1,2}, {0,1}+{2} and {0}+{1}+{2}, and the drift's d = 20 GEMM
        # must round each row the same in every grouping.  The groups share
        # one state array; a short switch interval interleaves their threads.
        model = random_model(20, seed=1)
        sched = Constant(2.0)
        cfg = SimConfig(dim=20, n_samples=3000, seed=9, horizon_T=50.0, n_steps=30,
                        checkpoints=(0.0, 1.0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [integrate_backward(cfg, lambda x, t: guided_score_batch(model, sched, x, t),
                                       grid_offset=float(model.s.min()), init_mean=model.mu,
                                       workers=workers)
                    for workers in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        for out in runs[1:]:
            for t in (0.0, 1.0):
                np.testing.assert_array_equal(out[t], runs[0][t])

    def test_nonfinite_report_names_the_first_step_over_all_blocks(self):
        # Block 2 (rows 2048-2999) turns non-finite at step 3 and block 0 at
        # step 7: one group advances all blocks a step at a time, so the
        # report names step 3 and a sample of block 2.
        cfg = SimConfig(dim=20, n_samples=3000, seed=9, horizon_T=50.0, n_steps=30)
        grid = time_grid(cfg)

        def score(x, t):
            drift = np.zeros_like(x)
            if t == grid[3]:
                drift[2048:] = np.inf
            if t == grid[7]:
                drift[:1024] = np.nan
            return drift

        with pytest.raises(NumericalError, match="step") as err:
            integrate_backward(cfg, score, workers=1)
        found = re.search(r"at step (\d+) .*sample (\d+)", str(err.value))
        assert int(found.group(1)) == 3 and int(found.group(2)) >= 2048

    def test_failing_group_stops_the_others(self):
        # Three groups on more threads than cores, interleaved by a short
        # switch interval: the calling thread's turns non-finite at step 3,
        # and the pool threads must stop within a few steps (or before their
        # first) instead of running all 2000 before the error surfaces.
        cfg = SimConfig(dim=9, n_samples=3 * 1024, seed=0, horizon_T=50.0, n_steps=2000)
        grid = time_grid(cfg)
        caller = threading.get_ident()
        calls = {}

        def score(x, t):
            me = threading.get_ident()
            calls[me] = calls.get(me, 0) + 1
            drift = np.zeros_like(x)
            if me == caller and t == grid[3]:
                drift[:] = np.inf
            return drift

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with pytest.raises(NumericalError, match="at step 3 "):
                integrate_backward(cfg, score, workers=3)
        finally:
            sys.setswitchinterval(interval)
        pool_calls = sum(n for thread, n in calls.items() if thread != caller)
        assert calls[caller] == 4
        assert pool_calls < cfg.n_steps // 10

    def test_step_halving_stability(self):
        # regression guard at fixed seeds: doubling the step count moves the
        # mean estimator by less than its bootstrap error
        d, M, n = 8, 30, 2000
        inst = sample_centroids(d, M, seed=13, sigma2=0.5)
        est = []
        for steps in (300, 600):
            cfg = SimConfig(dim=d, n_samples=n, seed=13, horizon_T=500.0, n_steps=steps)
            out = integrate_backward(cfg, make_mixture_score_fn(inst, Constant(0.7)),
                                     grid_offset=0.5)[0.0]
            est.append(measure_distortion(out, inst.target, 0.5, seed=13))
        assert abs(est[0].delta_mu_hat - est[1].delta_mu_hat) < est[1].delta_mu_se

    def test_horizon_doubling_stability(self):
        # regression guard at fixed seeds: T = 500 vs 1000 agree within 1 SE
        d, M, n = 8, 30, 2000
        inst = sample_centroids(d, M, seed=17, sigma2=0.5)
        est = []
        for T in (500.0, 1000.0):
            cfg = SimConfig(dim=d, n_samples=n, seed=17, horizon_T=T, n_steps=400)
            out = integrate_backward(cfg, make_mixture_score_fn(inst, Constant(0.7)),
                                     grid_offset=0.5)[0.0]
            est.append(measure_distortion(out, inst.target, 0.5, seed=17))
        assert abs(est[0].delta_mu_hat - est[1].delta_mu_hat) < est[1].delta_mu_se
        assert abs(est[0].delta_sigma2_hat - est[1].delta_sigma2_hat) < est[1].delta_sigma2_se

    def test_guided_run_matches_theory_at_moderate_dimension(self):
        # d = 24, exponential mode count: theory within loose finite-d slack
        d = 24
        M = mode_count(0.35, d)
        inst = sample_centroids(d, M, seed=5, sigma2=0.5, normalize_target=True)
        cfg = SimConfig(dim=d, n_samples=2000, seed=5, horizon_T=500.0, n_steps=200)
        out = integrate_backward(cfg, make_mixture_score_fn(inst, Constant(1.0),
                                                            softmax_dtype=np.float32),
                                 grid_offset=0.5)[0.0]
        emp = measure_distortion(out, inst.target, 0.5, seed=5)
        from cfglab.mixture_theory import MixtureTheoryParams, assemble_trajectory

        _, rep = assemble_trajectory(MixtureTheoryParams(0.5, 0.35, Constant(1.0)), [0.0])
        assert emp.delta_mu_hat == pytest.approx(rep.delta_mu, abs=0.12)
        assert emp.delta_sigma2_hat == pytest.approx(rep.delta_sigma2, abs=0.12)


class TestMeasureDistortion:
    def test_zero_spread_samples(self):
        c1 = np.array([1.0, -2.0, 0.5])
        X = np.tile(c1, (50, 1))
        emp = measure_distortion(X, c1, sigma2=0.5, seed=0)
        assert emp.delta_mu_hat == pytest.approx(0.0, abs=1e-14)
        assert emp.delta_sigma2_hat == pytest.approx(-1.0, abs=1e-14)
        assert emp.delta_mu_se == 0.0 and emp.delta_sigma2_se == 0.0

    def test_exact_conditional_samples(self):
        rng = np.random.default_rng(19)
        d, n, sigma2 = 24, 6000, 0.5
        c1 = rng.standard_normal(d)
        X = c1 + math.sqrt(sigma2) * rng.standard_normal((n, d))
        emp = measure_distortion(X, c1, sigma2, seed=19)
        assert abs(emp.delta_mu_hat) <= 3.0 * emp.delta_mu_se
        assert abs(emp.delta_sigma2_hat) <= 3.0 * emp.delta_sigma2_se

    def test_bootstrap_seeded(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((300, 4))
        a = measure_distortion(X, np.ones(4), 1.0, seed=5)
        b = measure_distortion(X, np.ones(4), 1.0, seed=5)
        assert a == b

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            measure_distortion(np.ones((1, 3)), np.ones(3), 1.0)
