"""Joint-Gaussian closed forms: amplification factors, moments, exact scores."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfglab.errors import DomainError
from cfglab.joint_gaussian import (
    JointGaussianModel,
    Lambda_coeff_linear,
    Lambda_formula,
    exact_scores,
    guided_moments,
    guided_score_batch,
    lambda_coeff_linear,
    lambda_formula,
    moments,
    propagate,
    random_model,
)
from cfglab.schedule import Constant, Linear, guidance_level
from quad_oracle import improper_quad, tight_quadrature


def _coefficients(s, r, w, t):
    """(lambda, Lambda) of the horizon-free ``propagate``: Lambda = variance / (s+t)."""
    mean_coeff, variance = propagate(s, r, w, t)
    return mean_coeff, variance / (s + t)


class TestConstantCoefficients:
    """``propagate``'s horizon-free moments as the pair (lambda, Lambda)."""

    def test_unguided_is_identity(self):
        for t in (0.0, 0.7, 12.0):
            lam, big = _coefficients(0.6, 1.0, 0.0, t)
            assert lam == pytest.approx(1.0, abs=1e-14)
            assert big == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_pair(self):
        # the s = r limit (1+w, s+t), exactly, for a float, an array and a seed
        assert propagate(1.0, 1.0, 2.5, 0.3) == (3.5, 1.3)
        t = np.array([0.0, 0.3, 4.0])
        mean, var = propagate(1.0, 1.0, 2.5, t)
        np.testing.assert_array_equal(mean, np.full(3, 3.5))
        np.testing.assert_array_equal(var, 1.0 + t)
        # seeded at T = 2 the decay is ((1+t)/3)^3.5 (3/(1+t))^2.5 = (1+t)/3
        mean, var = propagate(1.0, 1.0, 2.5, 0.5, (2.0, 1.5, 2.0))
        assert mean == pytest.approx(3.5 + 0.5 * (1.5 - 3.5), rel=1e-14)
        assert var == pytest.approx(1.5 + 0.25 * (2.0 - 3.0), rel=1e-14)

    def test_equal_pair_is_the_limit_of_nearby_pairs(self):
        for start in (None, (2.0, 1.5, 2.0)):
            at_limit = propagate(1.0, 1.0, 2.5, 0.5, start)
            nearby = propagate(1.0 - 1e-9, 1.0, 2.5, 0.5, start)
            assert at_limit == pytest.approx(nearby, abs=1e-8)

    def test_reference_point(self):
        lam, big = _coefficients(0.6, 1.0, 1.0, 0.0)
        assert lam == pytest.approx(1.6, abs=1e-12)
        assert big == pytest.approx(0.653333333333, abs=1e-10)

    def test_near_degenerate_pair_is_stable(self):
        # s -> r approaches 1+w / 1 linearly in r-s, without cancellation
        # noise on top (the expm1/log1p form keeps full precision there)
        for eps in (1e-6, 1e-10, 1e-13):
            lam, big = _coefficients(1.0 - eps, 1.0, 2.0, 5.0)
            assert lam == pytest.approx(3.0, abs=10 * eps + 1e-14)
            assert big == pytest.approx(1.0, abs=10 * eps + 1e-14)

    def test_pair_below_float_resolution_is_the_array_limit(self):
        # (s - r)/(r + t) rounds to -1, where math.log1p raises and numpy's
        # log1p gives -inf: the float call returns the array call's limit.
        for s, r, w in ((1e-17, 1.0, 1.0), (1e-17, 1.0 + 1e-17, 0.5), (1e-300, 1e10, 2.0)):
            for formula in (lambda_formula, Lambda_formula):
                with np.errstate(divide="ignore"):
                    array = formula(s, r, w, np.zeros(1))
                assert formula(s, r, w, 0.0) == array[0]
        assert lambda_formula(1e-17, 1.0, 1.0, 0.0) == 1.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            propagate(1.2, 1.0, 1.0, 0.0)  # s > r
        with pytest.raises(DomainError):
            propagate(0.5, np.inf, 1.0, 0.0)  # r = inf
        with pytest.raises(DomainError):
            lambda_coeff_linear(0.5, np.inf, Linear(0.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            propagate(0.5, 1.0, 1.0, -0.1)  # t < 0
        with pytest.raises(DomainError):
            propagate(0.5, 1.0, -0.5, 0.0)  # w <= -1/2

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(0.05, 3.0),
        u=st.floats(0.01, 1.0),
        w=st.floats(0.0, 10.0),
        t=st.floats(0.0, 10.0),
    )
    def test_expansion_contraction_law(self, r, u, w, t):
        lam, big = _coefficients(u * r, r, w, t)
        assert lam >= 1.0 - 1e-12
        assert big <= 1.0 + 1e-12


def _lambda_time_domain(s, r, w0, omega, t):
    """Independent oracle: the defining improper time integral, truncated by
    its power-law tail bound."""
    z_t = (s + t) ** (1.0 + w0 - omega * s) * (r + t) ** (-w0 + omega * r)

    def integrand(u):
        return (1.0 + w0 + omega * u) * (s + u) ** (omega * s - w0 - 2.0) * (r + u) ** (
            w0 - omega * r
        )

    p = omega * (r - s)
    tail = lambda T: 3.0 * omega * T ** (-p) / p
    with tight_quadrature():
        return z_t * improper_quad(integrand, t, tail)


def _Lambda_time_domain(s, r, w0, omega, t):
    z2 = (s + t) ** (1.0 + 2.0 * (w0 - omega * s)) * (r + t) ** (2.0 * omega * r - 2.0 * w0)

    def integrand(u):
        return (s + u) ** (2.0 * omega * s - 2.0 * w0 - 2.0) * (r + u) ** (
            2.0 * w0 - 2.0 * omega * r
        )

    p = 2.0 * omega * (r - s)
    tail = lambda T: 2.0 * T ** (-p - 1.0) / (p + 1.0)
    with tight_quadrature():
        return z2 * improper_quad(integrand, t, tail)


class TestPropagate:
    """The constant-w propagator of one eigendirection, horizon-free or seeded."""

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.floats(0.05, 2.0),
        gap=st.floats(0.05, 2.0),
        w=st.floats(-0.45, 3.0, exclude_min=True, exclude_max=True),
        T1=st.floats(1e-3, 1e4),
        f2=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        f=st.floats(0.0, 1.0, exclude_max=True),
        mean_T1=st.floats(-3.0, 3.0),
        var_frac=st.floats(0.0, 2.0),
    )
    def test_seeds_compose(self, s, gap, w, T1, f2, f, mean_T1, var_frac):
        # the dynamics are linear, so stopping at T2 and seeding again from
        # there equals going from T1 to t in one piece.  The error is taken
        # relative to the larger of the moment and its horizon-free value: a
        # seed can cancel a moment to near 0, not the rounding of its terms.
        r, T2 = s + gap, f2 * T1
        t = f * T2
        assume(0.0 <= t < T2 < T1)
        seed = (T1, mean_T1, var_frac * (s + T1))
        direct = propagate(s, r, w, t, seed)
        composed = propagate(s, r, w, t, (T2, *propagate(s, r, w, T2, seed)))
        for got, want, free in zip(composed, direct, propagate(s, r, w, t)):
            assert abs(got - want) <= 1e-12 * max(abs(want), abs(free))

    @pytest.mark.parametrize(
        "s,r,w,t,start",
        [
            (1.2, 1.0, 1.0, 0.5, None),  # s > r
            (0.0, 1.0, 1.0, 0.5, None),  # s = 0
            (0.6, 1.0, -0.5, 0.5, None),  # w = -1/2
            (0.6, 1.0, -0.7, 0.5, (2.0, 0.0, 2.0)),
            (0.6, 1.0, 1.0, -0.1, None),  # t < 0
            (0.6, 1.0, 1.0, 2.5, (2.0, 0.0, 2.0)),  # t > T
            (0.6, 1.0, 1.0, np.array([0.0, 1.0, -1e-9]), None),
            (0.6, 1.0, 1.0, np.array([0.0, 2.0 + 1e-9, 1.0]), (2.0, 0.0, 2.0)),
            (0.5, 1.5, 1.0, float("nan"), None),
            (0.5, 1.5, 1.0, 1.0, (float("nan"), 0.0, 2.0)),
            (0.6, 1.0, 1.0, np.array([0.0, float("nan"), 1.0]), None),
            (0.6, 1.0, float("nan"), 0.5, None),
        ],
        ids=["s_gt_r", "s_zero", "w_half", "w_below_half_seeded", "t_negative",
             "t_past_horizon", "array_t_negative", "array_t_past_horizon", "t_nan",
             "horizon_nan", "array_t_nan", "w_nan"],
    )
    def test_rejects_out_of_domain(self, s, r, w, t, start):
        with pytest.raises(DomainError):
            propagate(s, r, w, t, start)


class TestMoments:
    """``moments`` is the one dispatch on the schedule kind."""

    @pytest.mark.parametrize("s,r", [(0.6, 1.0), (1.0, 1.0), (0.05, 2.5)])
    @pytest.mark.parametrize("t", [0.0, 0.3, 7.0])
    @pytest.mark.parametrize("w", [-0.4, 0.0, 1.3])
    def test_constant_is_propagate(self, s, r, t, w):
        assert moments(s, r, Constant(w), t) == propagate(s, r, w, t)

    @pytest.mark.parametrize("s,r", [(0.6, 1.0), (0.25, 1.25)])
    @pytest.mark.parametrize("t", [0.0, 0.3, 7.0])
    @pytest.mark.parametrize("sched", [Linear(-0.75, 1.0), Linear(0.5, 2.0), Linear(0.4, 0.0)])
    def test_linear_is_the_incomplete_beta_pair(self, s, r, t, sched):
        want = (lambda_coeff_linear(s, r, sched, t), (s + t) * Lambda_coeff_linear(s, r, sched, t))
        assert moments(s, r, sched, t) == want


class TestLinearScheduleCoefficients:
    def test_omega_zero_delegates_to_constant(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = float(rng.uniform(0.2, 2.0))
            s = float(rng.uniform(0.1, 1.0)) * r
            t = float(rng.uniform(0.0, 3.0))
            w = float(rng.uniform(-0.4, 2.0))
            sched = Linear(w0=w, omega=0.0)
            lam, big = _coefficients(s, r, w, t)
            assert lambda_coeff_linear(s, r, sched, t) == pytest.approx(lam, abs=1e-8)
            assert Lambda_coeff_linear(s, r, sched, t) == pytest.approx(big, abs=1e-8)

    @pytest.mark.parametrize(
        "s,r,w0,omega,t",
        [
            (0.6, 1.0, -0.75, 1.0, 0.0),
            (0.6, 1.0, 0.5, 2.0, 0.3),
            (0.25, 1.25, -1.0, 0.7, 0.0),
            (0.9, 1.0, -0.3, 3.0, 1.2),
        ],
    )
    def test_matches_time_domain_quadrature(self, s, r, w0, omega, t):
        sched = Linear(w0, omega)
        assert lambda_coeff_linear(s, r, sched, t) == pytest.approx(
            _lambda_time_domain(s, r, w0, omega, t), abs=1e-7
        )
        assert Lambda_coeff_linear(s, r, sched, t) == pytest.approx(
            _Lambda_time_domain(s, r, w0, omega, t), abs=1e-7
        )

    def test_negative_window_reference_cell(self):
        # early-high ramp with a terminal negative window at r=1, s=0.6
        sched = Linear(w0=-0.75, omega=1.0)
        assert lambda_coeff_linear(0.6, 1.0, sched, 0.0) == pytest.approx(2.5, abs=1e-8)
        assert lambda_coeff_linear(0.6, 1.0, sched, 0.0) > 1.0

    def test_mean_coefficient_is_the_schedule_free_particular_solution(self):
        # (r+t)/(r-s) for every omega > 0 and w0 (``lambda_coeff_linear``'s
        # docstring says why).  With r - s >= 0.1 and omega >= 0.01 the
        # quadrature holds it to 1e-8; it loses accuracy as omega (r-s) -> 0.
        rng = np.random.default_rng(23)
        for _ in range(3000):
            s = float(rng.uniform(0.01, 2.0))
            r = s + float(rng.uniform(0.1, 2.0))
            sched = Linear(float(rng.uniform(-1.0, 3.0)), float(rng.uniform(0.01, 5.0)))
            t = float(rng.uniform(0.0, 5.0))
            assert lambda_coeff_linear(s, r, sched, t) == pytest.approx((r + t) / (r - s), rel=1e-8)

    @pytest.mark.parametrize("omega", [0.2, 0.5, 1.0])
    def test_small_slope_expands_covariance(self, omega):
        # diversity gain: Lambda > 1 when the negative window is wide enough
        assert Lambda_coeff_linear(0.6, 1.0, Linear(-0.75, omega), 0.0) > 1.0

    def test_nan_time_is_rejected(self):
        # two branches that return without a quadrature that could trip on nan
        with pytest.raises(DomainError):
            Lambda_coeff_linear(1.0, 1.0, Linear(0.2, 0.5), np.nan)  # s = r returns 1
        with pytest.raises(DomainError):
            lambda_coeff_linear(0.5, 1.5, Linear(0.5, 0.0), np.nan)  # omega = 0

    def test_degenerate_pair_with_ramp(self):
        assert Lambda_coeff_linear(1.0, 1.0, Linear(0.2, 0.5), 0.0) == 1.0
        with pytest.raises(DomainError):
            lambda_coeff_linear(1.0, 1.0, Linear(0.2, 0.5), 0.0)


class TestGuidedMoments:
    def test_unguided_reproduces_conditional(self):
        model = random_model(6, seed=3)
        for t in (0.0, 1.3):
            mean, eigs = guided_moments(model, Constant(0.0), t)
            np.testing.assert_allclose(mean, model.mu, atol=1e-12)
            np.testing.assert_allclose(eigs, model.s + t, rtol=1e-13)

    def test_degenerate_model_doubles_mean(self):
        # s_i = r_i for all i, w = 1, t = 0: mean doubled, covariance intact
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        r = rng.uniform(0.5, 1.5, 5)
        model = JointGaussianModel(basis=q, r=r, s=r.copy(), mu=rng.standard_normal(5))
        mean, eigs = guided_moments(model, Constant(1.0), 0.0)
        np.testing.assert_allclose(mean, 2.0 * model.mu, rtol=1e-12)
        np.testing.assert_allclose(eigs, model.s, rtol=1e-12)

    def test_monotone_distortion_in_w(self):
        model = random_model(9, seed=8)
        mean_norms, frob_norms = [], []
        for w in (0.0, 1.0, 2.0):
            mean, eigs = guided_moments(model, Constant(w), 0.0)
            mean_norms.append(np.linalg.norm(mean))
            # the basis is orthonormal: |V diag(e) V^T|_F = |e|_2
            frob_norms.append(np.linalg.norm(eigs))
        assert mean_norms[0] < mean_norms[1] < mean_norms[2]
        assert frob_norms[0] > frob_norms[1] > frob_norms[2]

    def test_model_validation(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        with pytest.raises(DomainError):
            JointGaussianModel(basis=q * 1.01, r=np.ones(4), s=np.ones(4), mu=np.zeros(4))
        with pytest.raises(DomainError):
            JointGaussianModel(basis=q, r=np.ones(4), s=1.5 * np.ones(4), mu=np.zeros(4))
        with pytest.raises(DomainError):
            JointGaussianModel(basis=np.zeros((0, 0)), r=[], s=[], mu=[])
        # a nan entry fails the checks, so no nan moment leaves guided_moments
        nan_basis = q.copy()
        nan_basis[1, 2] = np.nan
        with pytest.raises(DomainError):
            JointGaussianModel(basis=nan_basis, r=np.ones(4), s=np.ones(4), mu=np.zeros(4))
        with pytest.raises(DomainError):
            JointGaussianModel(basis=q, r=np.ones(4), s=np.ones(4), mu=[0.0, np.nan, 0.0, 0.0])
        with pytest.raises(DomainError):
            JointGaussianModel(basis=q, r=np.ones(4), s=[0.5, np.nan, 0.5, 0.5], mu=np.zeros(4))
        with pytest.raises(DomainError):
            JointGaussianModel(basis=q, r=[1.0, np.inf, 1.0, 1.0], s=np.ones(4), mu=np.zeros(4))

    @pytest.mark.parametrize("dim", [0, -2])
    def test_random_model_rejects_dimension_below_one(self, dim):
        with pytest.raises(DomainError):
            random_model(dim, seed=0)

    def test_random_model_rejects_a_negative_seed(self):
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            random_model(3, seed=-1)

    def test_s_within_the_slack_above_r_is_the_s_equals_r_limit(self):
        # The constructor accepts s_i <= r_i + 1e-15 and propagate needs s <= r:
        # s = 1 + 2.2e-16 must give the s = r limit (1 + w, s + t), not raise.
        for mu in ([0.0, 0.0], [1.0, 1.0]):
            model = JointGaussianModel(np.eye(2), [1.0, 1.0], [1.0 + 2.2e-16, 0.5], mu)
            assert model.s[0] == 1.0
            mean, eigs = guided_moments(model, Constant(1.0), 0.0)
            assert mean[0] == 2.0 * mu[0] and eigs[0] == 1.0

    def test_random_model_deterministic(self):
        a, b = random_model(7, seed=42), random_model(7, seed=42)
        np.testing.assert_array_equal(a.basis, b.basis)
        np.testing.assert_array_equal(a.r, b.r)
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.mu, b.mu)


class TestExactScores:
    def test_conditional_score_vanishes_at_mean(self):
        model = random_model(6, seed=4)
        cond, _ = exact_scores(model, model.mu, 0.5)
        np.testing.assert_allclose(cond, 0.0, atol=1e-13)

    def test_unconditional_score_vanishes_at_origin(self):
        model = random_model(6, seed=4)
        _, uncond = exact_scores(model, np.zeros(6), 0.5)
        np.testing.assert_allclose(uncond, 0.0, atol=1e-13)

    def test_nan_time_is_rejected(self):
        model = random_model(3, seed=4)
        with pytest.raises(DomainError):
            exact_scores(model, np.zeros(3), float("nan"))

    def test_matches_finite_differences(self):
        model = random_model(5, seed=9)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5)
        t = 0.8
        cond, uncond = exact_scores(model, x, t)
        m = model.basis.T @ model.mu

        def log_cond(z):
            y = model.basis.T @ z
            return -0.5 * float(((y - m) ** 2 / (model.s + t)).sum())

        def log_unc(z):
            y = model.basis.T @ z
            return -0.5 * float((y**2 / (model.r + t)).sum())

        h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd_c = (log_cond(x + e) - log_cond(x - e)) / (2 * h)
            fd_u = (log_unc(x + e) - log_unc(x - e)) / (2 * h)
            assert fd_c == pytest.approx(cond[j], abs=1e-5)
            assert fd_u == pytest.approx(uncond[j], abs=1e-5)

    def test_guided_batch_combines_scores(self):
        model = random_model(4, seed=6)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((7, 4))
        w, t = 1.3, 0.6
        batch = guided_score_batch(model, Constant(w), X, t)
        for i in range(7):
            cond, uncond = exact_scores(model, X[i], t)
            np.testing.assert_allclose(batch[i], (1 + w) * cond - w * uncond, atol=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0, 50.0])
    @pytest.mark.parametrize(
        "sched",
        [Constant(0.0), Constant(1.3), Linear(-0.4, 0.5)],
        ids=["constant0", "constant1.3", "linear-0.4+0.5t"],
    )
    def test_affine_drift_matches_scores_row_by_row(self, sched, t):
        # Linear(-0.4, 0.5) guides negatively on t < 0.8, inside the paper's
        # negative-guidance window; at w = 0 the drift is the conditional score.
        model = random_model(9, seed=0)
        rng = np.random.default_rng(4)
        X = model.mu + 2.0 * rng.standard_normal((33, 9))
        w = guidance_level(sched, t)
        batch = guided_score_batch(model, sched, X, t)
        assert batch.shape == X.shape
        for i in range(len(X)):
            cond, uncond = exact_scores(model, X[i], t)
            expected = cond if w == 0.0 else (1 + w) * cond - w * uncond
            np.testing.assert_allclose(batch[i], expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [2500, 3000])
    @pytest.mark.parametrize("t", [0.0, 0.3, 7.0, 500.0])
    @pytest.mark.parametrize(
        "sched", [Constant(2.0), Linear(-0.4, 0.5)], ids=["constant2", "linear-0.4+0.5t"]
    )
    def test_batch_rows_match_their_block_calls_bit_for_bit(self, sched, t, rows):
        # The simulator may call the drift on several 1024-row blocks at once.
        # At d = 20 an untiled OpenBLAS GEMM rounds a row differently once the
        # batch passes 2500 rows (rows * d * d > 1e6 leaves its small-matrix
        # kernel), so 3000 rows is the case that tells tiled from untiled.
        model = random_model(20, seed=3)
        rng = np.random.default_rng(8)
        X = model.mu + 3.0 * rng.standard_normal((rows, 20))
        batch = guided_score_batch(model, sched, X, t)
        blocks = [guided_score_batch(model, sched, X[lo:lo + 1024], t) for lo in range(0, rows, 1024)]
        np.testing.assert_array_equal(batch.view(np.uint64), np.concatenate(blocks).view(np.uint64))
