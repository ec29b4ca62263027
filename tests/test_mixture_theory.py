"""Mean-field mixture theory: overlap MGF, phase boundaries, moments, distortion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import root_oracle
from cfglab.acceptance import _linear_moment_ode_oracle
from cfglab.errors import DomainError
from cfglab.joint_gaussian import propagate
from cfglab.mixture_theory import (
    CONDITIONAL,
    GUIDED,
    _SCAN_GRID,
    MixtureTheoryParams,
    _relative_deltas,
    _switch_root,
    assemble_trajectory,
    delta_estimators_linear,
    sample_path_report,
    sanity_schedule_speciation,
    speciation_time,
    zeta,
    zeta_typical,
)
from cfglab.schedule import Constant, Linear
from cfglab.special_math import adaptive_quad


class TestZeta:
    def test_vanishes_at_zero_tilt(self):
        assert zeta(0.3, 0.0, 0.7, 1.4, 2.2) == 0.0

    def test_pinned_value(self):
        # q1 = q2 = 0, lam = 1, sigma2 + t = 1: -log(2)/2
        assert zeta(0.5, 1.0, 0.5, 0.0, 0.0) == pytest.approx(-0.5 * math.log(2.0))

    @pytest.mark.parametrize(
        "t,lam,sigma2",
        [(0.0, -1.0, 0.5), (math.nan, 1.0, 0.5), (0.1, math.nan, 0.5), (0.1, 1.0, math.nan)],
        ids=["log_argument", "t_nan", "lam_nan", "sigma2_nan"],
    )
    def test_domain_guard(self, t, lam, sigma2):
        # sigma2 + t + lam <= 0, or a nan that every comparison lets through
        with pytest.raises(DomainError):
            zeta(t, lam, sigma2, 0.1, 0.1)

    def test_matches_coordinatewise_gaussian_quadrature(self):
        # For a concrete x the defining expectation factorises over
        # coordinates; integrate each factor numerically and compare.
        rng = np.random.default_rng(21)
        d, lam, sigma2, t = 6, 0.8, 0.6, 0.4
        g = sigma2 + t
        c1 = rng.standard_normal(d)
        x = 1.2 * c1 + 0.9 * rng.standard_normal(d)
        q1 = float((x - c1) @ (x - c1)) / d
        q2 = float(x @ x) / d

        def factor(xi):
            integrand = lambda c, _: (
                np.exp(-0.5 * c * c - lam * (xi - c) ** 2 / (2.0 * g))
                / math.sqrt(2.0 * math.pi)
            )
            return math.log(adaptive_quad(integrand, -12.0, 12.0))

        oracle = (lam * q1 * d / (2.0 * g) + sum(factor(xi) for xi in x)) / d
        assert zeta(t, lam, sigma2, q1, q2) == pytest.approx(oracle, abs=1e-9)


class TestZetaTypical:
    def test_large_time_value(self):
        # close to -(1+w)/t well before the asymptotic regime saturates
        assert zeta_typical(1000.0, 0.5, 1.0) == pytest.approx(-0.002, rel=0.10)

    def test_asymptote(self):
        for w in (0.0, 1.0, 3.0):
            assert 1e4 * zeta_typical(1e4, 0.5, w) == pytest.approx(-(1.0 + w), rel=0.01)

    def test_self_consistency_with_mean_path_overlaps(self):
        # the mean path q1 = (a-1)^2, q2 = a^2 of the guided moments, bit for bit
        for t in np.geomspace(1e-3, 1e3, 25).tolist():
            a, _ = propagate(0.5, 1.5, 1.0, t)
            assert zeta_typical(t, 0.5, 1.0) == zeta(t, 1.0, 0.5, (a - 1.0) ** 2, a * a)

    def test_monotone_on_the_bracketing_interval(self):
        # increasing toward 0- across the interval where beta + zeta changes
        # sign (global monotonicity is not assumed)
        sigma2, w, beta = 0.5, 1.0, 0.3
        ts = np.geomspace(1e-3, 1e4, 200)
        vals = np.array([zeta_typical(float(t), sigma2, w) for t in ts])
        crossings = np.where(np.diff(np.sign(beta + vals)))[0]
        assert crossings.size == 1
        k = crossings[0]
        window = vals[max(0, k - 5) : k + 6]
        assert np.all(np.diff(window) > 0)


def _speciation_grid_scan(sigma2, beta, w, n_coarse=20000, n_fine=20000):
    """Two-stage dense sign scan, independent of the bisection path."""
    f = lambda t: beta + zeta_typical(t, sigma2, w)
    grid = np.geomspace(1e-6, 1e8, n_coarse)
    vals = np.array([f(float(t)) for t in grid])
    idx = None
    for k in range(len(grid) - 2, -1, -1):
        if vals[k] <= 0.0:
            idx = k
            break
    if idx is None:
        return None
    fine = np.linspace(grid[idx], grid[idx + 1], n_fine)
    fvals = np.array([f(float(t)) for t in fine])
    j = int(np.where(fvals <= 0.0)[0][-1])
    return 0.5 * (fine[j] + fine[min(j + 1, n_fine - 1)])


class TestSpeciationTime:
    def test_matches_dense_grid_scan(self):
        t_ref = _speciation_grid_scan(0.5, 0.1, 0.5)
        t_s = speciation_time(MixtureTheoryParams(0.5, 0.1, Constant(0.5)))
        assert t_s == pytest.approx(t_ref, rel=1e-6)

    def test_diverges_at_vanishing_class_density(self):
        for w in (0.0, 1.0, 3.0):
            t_s = speciation_time(MixtureTheoryParams(0.5, 1e-3, Constant(w)))
            assert 0.95 <= t_s * 1e-3 / (1.0 + w) <= 1.05

    def test_absent_at_large_class_density(self):
        # beyond the zero-time value of |zeta| there is no transition at all
        t_s = speciation_time(MixtureTheoryParams(0.5, 1.2, Constant(1.0)))
        assert t_s is None

    def test_always_conditional_at_zero_density(self):
        # beta = 0: a single mode; the process is conditional from the start
        t_s = speciation_time(MixtureTheoryParams(0.5, 0.0, Constant(1.0)))
        assert t_s == math.inf

    def test_increases_with_guidance_level(self):
        ts = [
            speciation_time(MixtureTheoryParams(0.5, 0.1, Constant(w)))
            for w in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_switch_exactly_on_the_scan_grid(self):
        # exp(log(t)) rounds away from t at the first and last of these
        # points; a batch of three cells, one switch on each
        hits = np.array([1, 200, 398])
        assert _switch_root(lambda t, k: t - _SCAN_GRID[hits[k]], 3) == _SCAN_GRID[hits].tolist()

    def test_scan_keeps_the_largest_of_roots_in_different_cells(self):
        # f > 0 below 1 and above 10 (100 in the second cell): each cell's
        # last nonpositive scan point lies just below its larger root, so the
        # polish sees only that one.
        t_s = _switch_root(lambda t, k: (t - 1.0) * (t - 10.0 ** (k + 1)), 2)
        assert t_s == [pytest.approx(10.0, rel=1e-12), pytest.approx(100.0, rel=1e-12)]

    def test_requires_constant_schedule(self):
        with pytest.raises(DomainError):
            speciation_time(MixtureTheoryParams(0.5, 0.1, Linear(0.0, 1.0)))


_ARRAY_TIMES = np.geomspace(1e-6, 1e8, 400)


class TestArrayClosedForms:
    """Each closed form takes an array of times and returns, element by
    element, what it returns for one Python float."""

    @pytest.mark.parametrize("w", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize(
        "name,form",
        [
            ("mean_coeff", lambda t, w: propagate(0.5, 1.5, w, t)[0]),
            ("variance", lambda t, w: propagate(0.5, 1.5, w, t)[1]),
            ("seeded_mean_coeff", lambda t, w: propagate(0.5, 1.5, w, t, (1e8, 0.0, 1e8))[0]),
            ("seeded_variance", lambda t, w: propagate(0.5, 1.5, w, t, (1e8, 0.0, 1e8))[1]),
            ("zeta_typical", lambda t, w: zeta_typical(t, 0.5, w)),
            ("zeta", lambda t, w: zeta(t, 0.7, 0.5, 1.3 + w, 2.1 + t)),
        ],
    )
    def test_array_matches_scalar_calls(self, name, form, w):
        on_array = form(_ARRAY_TIMES, w)
        one_by_one = np.array([form(float(t), w) for t in _ARRAY_TIMES])
        assert on_array.shape == _ARRAY_TIMES.shape
        np.testing.assert_allclose(on_array, one_by_one, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("sigma2", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("w", [-0.4, 0.0, 1.0, 3.0])
    def test_guided_forms_match_scalar_oracle(self, sigma2, w):
        # root_oracle writes a(t) and s^2(t) in g = sigma2 + t and log1p(1/g),
        # independently of the joint-Gaussian lambda and Lambda
        a, v = propagate(sigma2, sigma2 + 1.0, w, _ARRAY_TIMES)
        oracle_a = [root_oracle.mean_coeff(float(t), sigma2, w) for t in _ARRAY_TIMES]
        oracle_v = [root_oracle.variance(float(t), sigma2, w) for t in _ARRAY_TIMES]
        np.testing.assert_allclose(a, oracle_a, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(v, oracle_v, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("k", [0, 137, 399])
    @pytest.mark.parametrize("lam", [1.0, -0.2])
    def test_zeta_rejects_one_element_outside_its_domain(self, k, lam):
        sigma2 = 0.5
        t = _ARRAY_TIMES.copy()
        t[k] = -sigma2 - (0.0 if lam > 0 else 0.1)  # g = 0, or g + lam < 0 < g
        with pytest.raises(DomainError):
            zeta(t, lam, sigma2, 1.0, 1.0)


@pytest.mark.parametrize(
    "sigma2,beta,w,expected",
    [
        (0.5, 1.2, 1.0, None),  # guided throughout
        (0.25, 2.0, 3.0, None),
        (0.5, 0.0, 1.0, math.inf),  # always conditional
        (2.0, 0.0, 0.0, math.inf),
        (0.5, 0.1, 0.5, "finite"),
        (0.5, 0.5, 1.0, "finite"),
        (0.25, 0.3, 2.0, "finite"),
        (1.0, 1e-3, 0.0, "finite"),
        (0.1, 0.8, 3.0, "finite"),
        (2.0, 0.05, -0.4, "finite"),
        (0.05, 1.5, 0.2, "finite"),
    ],
)
def test_switch_matches_scalar_scan_and_bisection(sigma2, beta, w, expected):
    t_s = speciation_time(MixtureTheoryParams(sigma2, beta, Constant(w)))
    ref = root_oracle.mean_path_switch(sigma2, beta, w)
    if expected == "finite":
        assert math.isfinite(ref)
        assert t_s == pytest.approx(ref, rel=1e-12, abs=0.0)
    else:
        assert ref == expected and t_s == expected


@settings(max_examples=60, deadline=None)
@given(
    sigma2=st.floats(0.05, 2.0, exclude_min=True, exclude_max=True),
    beta=st.floats(0.005, 1.5, exclude_min=True, exclude_max=True),
    w=st.floats(-0.45, 3.0, exclude_min=True, exclude_max=True),
)
def test_switch_matches_scalar_scan_and_bisection_anywhere(sigma2, beta, w):
    # the array scan, multisection round and Brent polish against the scalar
    # scan and plain bisection: same sentinel, or the same root to 1e-12
    t_s = speciation_time(MixtureTheoryParams(sigma2, beta, Constant(w)))
    ref = root_oracle.mean_path_switch(sigma2, beta, w)
    if ref is None or math.isinf(ref):
        assert t_s == ref
    else:
        assert t_s == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("w", [0.0, 0.5, 1.0])
def test_sample_path_switch_matches_scalar_scan_and_bisection(w):
    # criterion 3's cell sigma2 = beta = 0.5
    ref = root_oracle.sample_path_switch(0.5, 0.5, w)
    assert math.isfinite(ref)
    assert sample_path_report(0.5, 0.5, w).t_speciation == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_sample_path_report_of_a_batch_is_its_cells_reports():
    w = np.array([0.0, 0.5, 1.0])
    batch = sample_path_report(0.5, 0.5, w)
    assert batch.t_speciation == [sample_path_report(0.5, 0.5, x).t_speciation for x in w]
    for i, x in enumerate(w):
        alone = sample_path_report(0.5, 0.5, x)
        assert (batch.delta_mu[i], batch.delta_sigma2[i]) == (alone.delta_mu, alone.delta_sigma2)


@pytest.mark.parametrize("sigma2,beta", [(0.5, 0.5), (0.2, 0.7), (1.0, 0.3)])
def test_sample_path_report_unguided_is_collapse_time(sigma2, beta):
    # At w = 0 a sample sits at q1 = g, q2 = g + 1, so beta + zeta = 0 is the
    # collapse condition beta = log(1 + 1/(sigma2 + t)) / 2.
    rep = sample_path_report(sigma2, beta, 0.0)
    assert rep.t_speciation == pytest.approx(1.0 / math.expm1(2.0 * beta) - sigma2, abs=1e-9)
    assert abs(rep.delta_mu) <= 1e-12
    assert abs(rep.delta_sigma2) <= 1e-12


@pytest.mark.parametrize("w", [0.5, 1.0])
def test_sample_path_switches_below_mean_path(w):
    # The per-sample variance raises zeta, so the samples switch at a smaller
    # backward time and stay guided longer: more mean shift, less variance.
    params = MixtureTheoryParams(0.5, 0.5, Constant(w))
    sample_path = sample_path_report(0.5, 0.5, w)
    _, mean_path = assemble_trajectory(params, [0.0])
    assert sample_path.t_speciation < speciation_time(params)
    assert sample_path.delta_mu > mean_path.delta_mu
    assert sample_path.delta_sigma2 < mean_path.delta_sigma2


@pytest.mark.parametrize("sigma2,beta,w", [(float("nan"), 0.5, 1.0), (0.5, float("nan"), 1.0),
                                           (0.5, 0.5, float("nan")), (0.5, 0.5, -0.5)])
def test_sample_path_report_rejects_bad_parameters(sigma2, beta, w):
    with pytest.raises(DomainError):
        sample_path_report(sigma2, beta, w)


@pytest.mark.parametrize("sigma2", [0.0, 2.0**53, 2.0**53 + 2.0, 1e300, math.inf])
def test_sigma2_must_be_positive_and_below_2_53(sigma2):
    # at 2**53 + 2, sigma2 + 1 rounds up to sigma2 + 2 rather than to sigma2
    with pytest.raises(DomainError, match="sigma2 must be positive and below 2"):
        MixtureTheoryParams(sigma2, 0.5, Constant(1.0))
    MixtureTheoryParams(2.0**53 - 1.0, 0.5, Constant(1.0))


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: Constant(np.array([0.5, -0.7, -0.9])), "constant schedule requires w > -1/2, got -0.7"),
        (lambda: MixtureTheoryParams(np.array([0.5, 0.0, 1e300]), 0.5, Constant(1.0)),
         r"sigma2 must be positive and below 2\*\*53, got 0.0"),
        (lambda: MixtureTheoryParams(0.5, np.array([0.1, np.nan, -1.0]), Constant(1.0)),
         "beta must be >= 0, got nan"),
        (lambda: propagate(0.5, 1.5, np.array([1.0, -0.6, -0.7]), 0.0),
         "constant guidance requires w > -1/2, got -0.6"),
        (lambda: propagate(np.array([0.5, 0.7]), np.array([1.5, 0.6]), 1.0, 0.0),
         "need 0 < s <= r < inf, got s=0.7, r=0.6"),
    ],
    ids=["constant_w", "sigma2", "beta", "propagate_w", "propagate_pair"],
)
def test_a_batch_names_its_first_bad_cell(make, message):
    with pytest.raises(DomainError, match=message):
        make()


class TestGuidedPhaseMoments:
    """The guided phase: ``propagate`` at (s, r) = (sigma2, sigma2 + 1)."""

    def test_unguided_marginal(self):
        for t in (0.0, 0.8, 7.0):
            a, v = propagate(0.5, 1.5, 0.0, t)
            assert a == pytest.approx(1.0, abs=1e-14)
            assert v == pytest.approx(0.5 + t, rel=1e-14)

    def test_reference_point(self):
        a, v = propagate(0.5, 1.5, 1.0, 0.0)
        assert a == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert v == pytest.approx(0.2407407407, abs=1e-9)

    def test_finite_horizon_converges_to_limit(self):
        limit = propagate(0.5, 1.5, 1.0, 0.4)
        finite = propagate(0.5, 1.5, 1.0, 0.4, (1e6, 0.0, 1e6))
        assert finite[0] == pytest.approx(limit[0], abs=1e-4)
        assert finite[1] == pytest.approx(limit[1], abs=1e-4)

    @pytest.mark.parametrize("w", [-0.3, 0.0, 1.0, 2.5])
    def test_finite_horizon_matches_moment_ode(self, w):
        # RK4 on the guided-phase moment ODEs from (a, v) = (0, T) at T = 10
        sigma2, T, t = 0.5, 10.0, 0.3
        a, v = _linear_moment_ode_oracle(sigma2, Linear(w, 0.0), t, horizon=T, n_steps=4000)
        mean, var = propagate(sigma2, sigma2 + 1.0, w, t, (T, 0.0, T))
        assert mean == pytest.approx(a, rel=1e-9)
        assert var == pytest.approx(v, rel=1e-9)

    def test_large_time_behaviour(self):
        # mean coefficient saturates at 1+w; variance grows like t
        for w in (0.0, 1.5):
            a, v = propagate(0.5, 1.5, w, 1e6)
            assert a == pytest.approx(1.0 + w, rel=1e-4)
            assert v / 1e6 == pytest.approx(1.0, rel=1e-4)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            propagate(0.5, 1.5, 1.0, 2.0, (1.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            propagate(0.5, 1.5, -0.5, 0.0)
        with pytest.raises(DomainError):
            propagate(0.5, 1.5, -0.5, 0.0, (1.0, 0.0, 1.0))


class TestConditionalPhaseMoments:
    """The conditional phase: ``propagate`` at w = 0, seeded at the switch."""

    def test_exact_marginal_is_fixed_point(self):
        a, v = propagate(0.5, 1.5, 0.0, 0.3, (2.0, 1.0, 2.5))
        assert a == pytest.approx(1.0, abs=1e-14)
        assert v == pytest.approx(0.8, rel=1e-14)

    def test_start_time_returns_init(self):
        assert propagate(0.5, 1.5, 0.0, 2.0, (2.0, 1.2, 1.0)) == (1.2, 1.0)

    def test_matches_fine_step_euler_recursion(self):
        sigma2, t_start = 0.5, 2.0
        a, v = 1.2, 1.0
        n = 200000
        dt = t_start / n
        for k in range(n):
            t = t_start - k * dt
            g = sigma2 + t
            a, v = a + dt * (1.0 - a) / g, (1.0 - dt / g) ** 2 * v + dt * (1.0 - dt / g)
        mean, var = propagate(sigma2, sigma2 + 1.0, 0.0, 0.0, (t_start, 1.2, 1.0))
        assert mean == pytest.approx(a, abs=1e-3)
        assert var == pytest.approx(v, abs=1e-3)

    @pytest.mark.parametrize("t_start", [1e-6, 0.3, 1.7, 1e3, 1e8])
    @pytest.mark.parametrize("sigma2", [0.05, 0.5, 2.0])
    def test_matches_scalar_oracle(self, t_start, sigma2):
        a0, v0 = 1.3, 0.7 * (sigma2 + t_start)
        for t in t_start * np.linspace(0.0, 1.0, 41):
            mean, var = propagate(sigma2, sigma2 + 1.0, 0.0, float(t), (t_start, a0, v0))
            a, v = root_oracle.conditional_moments(float(t), t_start, sigma2, a0, v0)
            assert mean == pytest.approx(a, rel=1e-13, abs=0.0)
            assert var == pytest.approx(v, rel=1e-13, abs=0.0)

    def test_rejects_future_time(self):
        with pytest.raises(DomainError):
            propagate(0.5, 1.5, 0.0, 1.5, (1.0, 1.0, 1.0))


class TestAssembleTrajectory:
    def test_zero_guidance_zero_distortion_on_grid(self):
        rng = np.random.default_rng(13)
        grid = sorted(float(t) for t in rng.uniform(0.0, 8.0, 100))
        for beta in (0.05, 0.4, 1.5):
            moments, rep = assemble_trajectory(
                MixtureTheoryParams(0.5, beta, Constant(0.0)), grid
            )
            assert abs(rep.delta_mu) < 1e-9 and abs(rep.delta_sigma2) < 1e-9
            for m in moments:
                assert m.mean_coeff == pytest.approx(1.0, abs=1e-9)
                assert m.variance == pytest.approx(0.5 + m.t, abs=1e-9)

    def test_seam_continuity(self):
        params = MixtureTheoryParams(0.5, 0.3, Constant(1.0))
        t_s = speciation_time(params)
        eps = 1e-12 * t_s
        below, _ = assemble_trajectory(params, [t_s - eps])
        above, _ = assemble_trajectory(params, [t_s + eps])
        assert below[0].mean_coeff == pytest.approx(above[0].mean_coeff, abs=1e-10)
        assert below[0].variance == pytest.approx(above[0].variance, abs=1e-10)
        assert below[0].phase == CONDITIONAL and above[0].phase == GUIDED

    def test_variance_distortion_has_interior_minimum(self):
        # delta_sigma2(w) dips and comes back: guidance first shrinks the
        # variance, then the growing switch time restores it
        ws = np.linspace(0.0, 6.0, 25)
        dsig = []
        for w in ws:
            _, rep = assemble_trajectory(MixtureTheoryParams(0.5, 0.1, Constant(float(w))), [0.0])
            dsig.append(rep.delta_sigma2)
        k_sig = int(np.argmin(dsig))
        assert 0 < k_sig < len(ws) - 1
        assert dsig[k_sig] < dsig[0] - 1e-6 and dsig[k_sig] < dsig[-1] - 1e-6

    def test_mean_distortion_saturates_at_strong_guidance(self):
        # the growing switch time caps delta_mu near sigma2 * beta instead of
        # letting it grow with w
        sigma2, beta = 0.5, 0.1
        values = {}
        for w in (1.0, 40.0, 60.0):
            _, rep = assemble_trajectory(MixtureTheoryParams(sigma2, beta, Constant(w)), [0.0])
            values[w] = rep.delta_mu
        assert values[60.0] < 1.2 * sigma2 * beta
        assert abs(values[60.0] - values[40.0]) < 0.05 * values[60.0]

    def test_never_condensed_along_guided_branch(self):
        # A single mode would dominate the overlap sum at tilts lam where
        # beta - log1p(lam/g)/2 + lam/(2(g+lam)) (1 - lam q2/(g+lam)) <= 0;
        # with i.i.d. centroids the guided branch stays clear of it up to lam = 1.
        lams = np.geomspace(1e-6, 1.0, 400)
        for beta, w in ((0.3, 1.0), (1.2, 1.0), (0.1, 0.5)):
            params = MixtureTheoryParams(0.5, beta, Constant(w))
            t_s = speciation_time(params)
            lo = 1e-3 if t_s is None else float(t_s)
            for t in np.geomspace(max(lo, 1e-3), 1e3, 40):
                a, v = propagate(0.5, 1.5, w, float(t))
                q2 = a**2 + v
                g = 0.5 + float(t)
                f = (
                    beta
                    - 0.5 * np.log1p(lams / g)
                    + lams / (2.0 * (g + lams)) * (1.0 - lams * q2 / (g + lams))
                )
                assert np.all(f > 0.0), (beta, w, t)

    def test_report_phase_bookkeeping(self):
        # the phase at t = 0 is guided exactly when there is no switch time
        moments, rep = assemble_trajectory(MixtureTheoryParams(0.5, 1.2, Constant(1.0)), [0.0])
        assert rep.t_speciation is None and moments[0].phase == GUIDED
        moments, rep = assemble_trajectory(MixtureTheoryParams(0.5, 0.3, Constant(1.0)), [0.0])
        assert rep.t_speciation > 0 and moments[0].phase == CONDITIONAL

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            assemble_trajectory(MixtureTheoryParams(0.5, 0.3, Constant(1.0)), [1.0, 0.5])


class TestDeltaEstimatorsConstant:
    """Constant-guidance deltas at one time t: ``_relative_deltas`` of the
    one-point trajectory ``assemble_trajectory(params, [t])``."""

    @staticmethod
    def _deltas(t, sigma2, beta, w):
        (m,), _ = assemble_trajectory(MixtureTheoryParams(sigma2, beta, Constant(w)), [t])
        return _relative_deltas(m, sigma2)

    @pytest.mark.parametrize("beta", [1.2, 0.0, 0.3], ids=["guided", "conditional", "switch"])
    def test_deltas_match_trajectory_in_every_branch(self, beta):
        # t_s is None at beta = 1.2, math.inf at beta = 0 and finite at 0.3
        sigma2, w = 0.5, 1.0
        params = MixtureTheoryParams(sigma2, beta, Constant(w))
        _, rep = assemble_trajectory(params, [0.0])
        t_s = rep.t_speciation
        times = [0.0, 0.5, 3.0]
        if t_s is not None and math.isfinite(t_s):
            eps = 1e-9 * t_s
            times += [t_s - eps, t_s + eps]
        times.sort()
        moments, _ = assemble_trajectory(params, times)
        for t, m in zip(times, moments):
            expected = (m.mean_coeff - 1.0, (m.variance - (sigma2 + t)) / (sigma2 + t))
            assert self._deltas(t, sigma2, beta, w) == expected

    @pytest.mark.parametrize("beta", [1.2, 0.0, 0.3], ids=["guided", "conditional", "switch"])
    def test_zero_guidance(self, beta):
        for t in (0.0, 0.7, 3.0):
            dm, dv = self._deltas(t, 0.5, beta, 0.0)
            assert abs(dm) < 1e-12 and abs(dv) < 1e-12

    def test_guided_branch_reference(self):
        # beta = 1.2 has no switch at w = 1: guided throughout
        dm, dv = self._deltas(0.0, 0.5, 1.2, 1.0)
        assert dm == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert dv == pytest.approx(-0.5185185185, abs=1e-9)

    def test_branches_agree_at_the_seam(self):
        # guided at t_s, conditional one float below it
        sigma2, params = 0.5, MixtureTheoryParams(0.5, 0.3, Constant(1.0))
        t_s = assemble_trajectory(params, [0.0])[1].t_speciation
        below, at = assemble_trajectory(params, [math.nextafter(t_s, 0.0), t_s])[0]
        assert (below.phase, at.phase) == (CONDITIONAL, GUIDED)
        seamed, guided = _relative_deltas(below, sigma2), _relative_deltas(at, sigma2)
        assert guided[0] == pytest.approx(seamed[0], abs=1e-10)
        assert guided[1] == pytest.approx(seamed[1], abs=1e-10)


class TestLinearScheduleMoments:
    """Ramped moments through ``assemble_trajectory``: a ramp has no switch,
    so its trajectory is guided-only whatever beta is."""

    @staticmethod
    def _moments(t, sigma2, sched):
        (m,), _ = assemble_trajectory(MixtureTheoryParams(sigma2, 1.0, sched), [t])
        return m

    def test_solvable_ramp_moments(self):
        # w0 = sigma2 - 1, omega = 1: mean coefficient sigma2 + t + 1 and
        # variance (sigma2 + t + 1)/3
        for sigma2 in (0.1, 0.25, 0.4, 0.5):
            m = self._moments(0.0, sigma2, Linear(sigma2 - 1.0, 1.0))
            assert m.mean_coeff == pytest.approx(sigma2 + 1.0, abs=1e-9)
            assert m.variance == pytest.approx((sigma2 + 1.0) / 3.0, abs=1e-9)

    def test_solvable_ramp_distortion(self):
        for sigma2, dv_expected in ((0.25, 0.25 / 1.5), (0.5, 0.0)):
            dm, dv = delta_estimators_linear(0.0, sigma2, Linear(sigma2 - 1.0, 1.0))
            assert dm == pytest.approx(sigma2, abs=1e-9)
            assert dv == pytest.approx((1.0 - 2.0 * sigma2) / 3.0, abs=1e-9)

    def test_variance_converges_to_constant_at_small_slope(self):
        # The horizon->inf *variance* approaches the constant-w value at
        # O(omega); the mean keeps an O(1) contribution from backward times
        # of order exp(1/omega), so no analogous statement holds for it.
        for sigma2, w0 in ((0.5, 0.3), (0.75, -0.2)):
            _, ref = propagate(sigma2, sigma2 + 1.0, w0, 0.0)
            got = self._moments(0.0, sigma2, Linear(w0, 1e-4)).variance
            assert got == pytest.approx(ref, abs=1e-3)

    def test_omega_zero_delegates_to_constant(self):
        # the flat cells of a ramp batch take the constant closed form as one batch
        got = self._moments(0.3, 0.5, Linear(0.4, 0.0))
        mean, var = propagate(0.5, 1.5, np.array([0.4]), 0.3)
        assert (got.mean_coeff, got.variance) == (mean[0], var[0])

    def test_phase_diagram_cell_signs(self):
        # w0 = -0.5, omega = 2 at sigma2 = 0.75: expanded mean, shrunk variance
        dm, dv = delta_estimators_linear(0.0, 0.75, Linear(-0.5, 2.0))
        assert dm > 0 and dv < 0

    def test_report_is_guided_only(self):
        # no switch is computed for a ramp: t_speciation is None at any beta
        for beta in (0.0, 0.3, 100.0):
            params = MixtureTheoryParams(0.25, beta, Linear(-0.75, 1.0))
            (m,), rep = assemble_trajectory(params, [0.0])
            assert m.phase == GUIDED and rep.t_speciation is None
            assert (rep.delta_mu, rep.delta_sigma2) == _relative_deltas(m, 0.25)

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.floats(-0.45, 5.0),
        sigma2=st.floats(0.05, 2.0),
        times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4),
    )
    def test_flat_ramp_equals_constant(self, w, sigma2, times):
        # Linear(w, 0) and Constant(w) agree wherever the constant schedule
        # has no switch either (beta large enough)
        grid = sorted(times)
        constant = MixtureTheoryParams(sigma2, 5.0, Constant(w))
        assert speciation_time(constant) is None
        flat = MixtureTheoryParams(sigma2, 5.0, Linear(w, 0.0))
        assert assemble_trajectory(flat, grid) == assemble_trajectory(constant, grid)


class TestSanityScheduleSpeciation:
    def test_no_switch_at_and_below_half(self):
        assert sanity_schedule_speciation(0.3, 0.5) == math.inf
        assert sanity_schedule_speciation(0.3, 0.2) == math.inf

    def test_closed_form_value(self):
        assert sanity_schedule_speciation(0.25, 1.0) == pytest.approx(0.331977, abs=1e-6)

    def test_negative_values_clipped(self):
        assert sanity_schedule_speciation(0.6, 1.0) is None

    @pytest.mark.parametrize("beta", [-0.1, math.nan])
    def test_rejects_negative_or_nan_beta(self, beta):
        with pytest.raises(DomainError):
            sanity_schedule_speciation(0.3, beta)
        with pytest.raises(DomainError):
            MixtureTheoryParams(0.3, beta, Constant(1.0))
