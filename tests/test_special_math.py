"""Numerical-kernel tests: quadrature, incomplete Beta, roots, and the test-side
improper-integral oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfglab import special_math
from cfglab.errors import DomainError, NumericalError
from cfglab.special_math import adaptive_quad, bisection_root, incomplete_beta_definite
from quad_oracle import improper_quad


class TestAdaptiveQuad:
    def test_linear(self):
        assert adaptive_quad(lambda x, _: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_sine(self):
        assert adaptive_quad(lambda x, _: np.sin(x), 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_empty_interval(self):
        assert adaptive_quad(lambda x, _: np.exp(x), 1.3, 1.3) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            adaptive_quad(lambda x, _: np.exp(x), 1.0, 0.0)
        with pytest.raises(DomainError, match=r"got \[1.0, 0.0\]"):  # one reversed member fails the batch
            adaptive_quad(lambda x, _: np.exp(x), [0.0, 1.0], [1.0, 0.0])

    def test_subdivision_exhaustion(self, monkeypatch):
        nasty = lambda x, _: np.sin(1.0 / (x + 1e-14)) / np.sqrt(x + 1e-14)
        monkeypatch.setattr(special_math, "_MAX_PANELS", 4)
        with pytest.raises(NumericalError, match="more than 4 panels"):
            adaptive_quad(nasty, 0.0, 1.0)
        # in a batch, the nasty member still raises once it reaches the cap
        with pytest.raises(NumericalError, match=r"on \[0.0, 1.0\]"):
            adaptive_quad(lambda x, k: np.where(k == 1, nasty(x, k), x), [0.0, 0.0], [1.0, 1.0])

    @staticmethod
    def _family(x, k):
        """Integral k of a batch: x^(k/3 - 1/2) * cos(k x), singular at 0 for small k."""
        return x ** (k / 3.0 - 0.5) * np.cos(k * x)

    def test_equal_errors_bisect_the_older_panel(self, monkeypatch):
        # 1 on the 7 Gauss nodes and 0 on the 8 Kronrod-only ones: panels of
        # equal width have bit-equal error estimates and the total never falls.
        monkeypatch.setattr(special_math, "_MAX_PANELS", 5)
        midpoints = []

        def gauss_nodes_only(x, _):
            midpoints.append(x[:, 6].tolist())
            return np.broadcast_to(np.arange(15) < 7, x.shape).astype(float)

        with pytest.raises(NumericalError, match="more than 5 panels"):
            adaptive_quad(gauss_nodes_only, 0.0, 1.0)
        # [0, 1/2] ties [1/2, 1] and is bisected first; after the widest
        # panel, the oldest of the four quarters is.
        assert midpoints == [[0.5], [0.25, 0.75], [0.125, 0.375], [0.625, 0.875], [0.0625, 0.1875]]

    def test_batch_members_get_their_solo_bits(self):
        # Different integrals need different numbers of rounds; each member
        # of the batch returns what it returns alone, bit for bit.
        lo = np.array([0.0, 0.1, 0.0, 0.5, 0.0, 2.0, 0.0, 1.0])
        hi = np.array([1.0, 3.0, 0.25, 0.5, 7.0, 9.0, 1.0, 1.5])
        batch = adaptive_quad(self._family, lo, hi)
        for k in range(lo.size):
            alone = adaptive_quad(lambda x, _: self._family(x, np.full(x.shape, k)), lo[k], hi[k])
            assert batch[k] == alone, k
        assert batch[3] == 0.0
        assert batch[0] == pytest.approx(2.0, rel=1e-8)  # int_0^1 x^(-1/2) dx
        grid = adaptive_quad(self._family, lo.reshape(2, 4), hi.reshape(2, 4))
        assert grid.tolist() == batch.reshape(2, 4).tolist()

    def test_panel_too_narrow_to_bisect_keeps_its_estimate(self):
        # One ulp wide: the midpoint rounds to an end, and the Kronrod nodes
        # that round below 1.0 see the 1e30 step, so the error never falls.
        lo, hi = 1.0, np.nextafter(1.0, 2.0)
        step = lambda x, _: np.where(x < 1.0, 1e30, 0.0)
        estimate, _ = special_math._gk15(step, np.array([lo]), np.array([hi]), np.array([0]))
        got = adaptive_quad(step, lo, hi)
        assert math.isfinite(got) and got == estimate[0]

    def test_a_nan_integral_stops_at_once(self):
        # A nan error estimate ends that integral at once; the rest of the
        # batch converges as usual.
        calls = []

        def f(x, k):
            calls.append(x.size)
            return np.where(k == 0, np.nan, x * x)

        got = adaptive_quad(f, [0.0, 0.0], [1.0, 2.0])
        assert math.isnan(got[0]) and got[1] == pytest.approx(8.0 / 3.0, abs=1e-12)
        assert calls == [30]  # one call: both stop on their first panel


class TestImproperQuad:
    def test_inverse_square_tail(self):
        # int_1^inf t^-2 dt = 1, tail bound int_T^inf = 1/T
        val = improper_quad(lambda t: t**-2, 1.0, tail_bound=lambda T: 1.0 / T)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_exponential_tail(self):
        val = improper_quad(lambda t: np.exp(-t), 0.0, tail_bound=lambda T: math.exp(-T))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_requires_tail_bound(self):
        with pytest.raises(DomainError):
            improper_quad(lambda t: t**-2, 1.0)


class TestIncompleteBeta:
    def test_uniform_integrand(self):
        assert incomplete_beta_definite(1.0, 1.0, 0.0, 0.5) == pytest.approx(
            0.5, abs=1e-12
        )

    @pytest.mark.parametrize("f", [0.1, 0.37, 0.8, 1.0])
    def test_identity_integrand(self, f):
        assert incomplete_beta_definite(1.0, 1.0, 0.0, f) == pytest.approx(
            f, abs=1e-10
        )

    def test_polynomial_antiderivative(self):
        # integrand r (1-r)^2; antiderivative r^2/2 - 2 r^3/3 + r^4/4
        val = incomplete_beta_definite(2.0, 3.0, 0.2, 0.8)
        assert val == pytest.approx(0.066, abs=1e-10)

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 2), (1, 4), (4, 2)])
    def test_complete_beta_vs_gamma_product(self, a, b):
        exact = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        got = incomplete_beta_definite(float(a), float(b), 0.0, 1.0)
        assert got == pytest.approx(exact, abs=1e-10)

    def test_singular_left_endpoint(self):
        # a = 0.5, b = 1: int_0^f r^-0.5 dr = 2 sqrt(f)
        val = incomplete_beta_definite(0.5, 1.0, 0.0, 0.49)
        assert val == pytest.approx(2.0 * math.sqrt(0.49), abs=1e-10)

    def test_singular_right_endpoint(self):
        # a = 1, b = 0.25: int_f^1 (1-r)^-0.75 dr = 4 (1-f)^0.25
        val = incomplete_beta_definite(1.0, 0.25, 0.9, 1.0)
        assert val == pytest.approx(4.0 * 0.1**0.25, abs=1e-9)

    def test_negative_first_exponent_with_interior_lower_limit(self):
        # a = -1, b = 1: int r^-2 dr = 1/f1 - 1/f2
        val = incomplete_beta_definite(-1.0, 1.0, 0.25, 0.75)
        assert val == pytest.approx(4.0 - 4.0 / 3.0, abs=1e-9)

    def test_tiny_b_with_upper_limit_one(self):
        # b -> 0: int_f^1 (1-r)^(b-1) dr = (1-f)^b / b for a = 1
        b = 1e-4
        val = incomplete_beta_definite(1.0, b, 0.3, 1.0)
        assert val == pytest.approx(0.7**b / b, rel=1e-8)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            incomplete_beta_definite(0.0, 1.0, 0.0, 0.5)  # a <= 0 needs f1 > 0
        with pytest.raises(DomainError):
            incomplete_beta_definite(1.0, -0.5, 0.5, 1.0)  # b <= 0 needs f2 < 1
        with pytest.raises(DomainError):
            incomplete_beta_definite(1.0, 1.0, 0.7, 0.3)  # f1 > f2
        with pytest.raises(DomainError, match="a must be finite"):
            incomplete_beta_definite(np.nan, 1.0, 0.2, 0.5)
        with pytest.raises(DomainError, match="need 0 <= f1 <= f2 <= 1"):  # the range holds f2 finite
            incomplete_beta_definite(1.0, 1.0, 0.2, np.nan)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(0.3, 4.0),
        b=st.floats(0.3, 4.0),
        cuts=st.tuples(st.floats(0.02, 0.98), st.floats(0.02, 0.98), st.floats(0.02, 0.98)),
    )
    def test_additivity_over_adjacent_intervals(self, a, b, cuts):
        f1, f2, f3 = sorted(cuts)
        left = incomplete_beta_definite(a, b, f1, f2)
        right = incomplete_beta_definite(a, b, f2, f3)
        whole = incomplete_beta_definite(a, b, f1, f3)
        assert left + right == pytest.approx(whole, abs=2 * special_math._ABS_TOL + 2e-12)

    def test_monotone_in_upper_limit(self):
        vals = [
            incomplete_beta_definite(0.7, 2.0, 0.1, f2)
            for f2 in np.linspace(0.1, 1.0, 12)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestBisectionRoot:
    def test_linear_root(self):
        assert bisection_root(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == pytest.approx(1.0)

    def test_sqrt_two(self):
        root = bisection_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-10)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(DomainError, match="no sign change"):
            bisection_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-8)

    def test_endpoint_root(self):
        assert bisection_root(lambda x: x, 0.0, 1.0, 1e-8) == 0.0

    def test_upper_endpoint_root(self):
        assert bisection_root(lambda x: x - 2.0, 0.0, 2.0, 1e-12) == 2.0

    def test_one_scan_cell_in_log_t_to_the_switch_tolerance(self):
        # The switch-time bracket: one cell of the 400-point log grid on
        # (1e-6, 1e8), refined in log t to 1e-13.
        lo = math.log(1.5)
        hi = lo + math.log(1e14) / 399
        root = lo + 0.3 * (hi - lo)
        g = lambda y: np.expm1(y - root) * (1.0 + np.exp(y))
        assert abs(bisection_root(g, lo, hi, 1e-13) - root) <= 1e-13

    @staticmethod
    def _recording_switch_g(root, calls):
        """expm1(y - root) that records each call, on floats only."""

        def g(y):
            assert isinstance(y, float), type(y)
            calls.append(y)
            return math.expm1(y - root)

        return g

    def test_switch_bracket_takes_few_float_calls(self):
        # The switch bracket (0.0808 wide, tol 1e-13): Brent's method on
        # floats, the two end values included.
        lo = math.log(1.5)
        hi = lo + math.log(1e14) / 399
        root = lo + 0.3 * (hi - lo)
        calls = []
        g = self._recording_switch_g(root, calls)
        assert abs(bisection_root(g, lo, hi, 1e-13) - root) <= 1e-13
        assert len(calls) <= 8

    def test_bracket_within_tol_returns_a_point_within_tol(self):
        root = 0.7
        g = self._recording_switch_g(root, [])
        assert abs(bisection_root(g, root - 1e-14, root + 1e-14, 1e-13) - root) <= 1e-13

    @pytest.mark.parametrize(
        "shape", [lambda u: math.copysign(1.0, u), lambda u: u**9], ids=["step", "ninth_power"]
    )
    def test_reaches_tol_where_interpolation_fails(self, shape):
        # No slope to interpolate (a step) or a root of order nine: Brent's
        # bisection fallback still closes the switch bracket to 1e-13, in at
        # most three times the 40 calls plain bisection would make, plus the
        # two end values.
        lo = math.log(1.5)
        hi = lo + math.log(1e14) / 399
        root = lo + 0.3 * (hi - lo)
        calls = []

        def g(y):
            assert isinstance(y, float), type(y)
            calls.append(y)
            return shape(y - root)

        assert abs(bisection_root(g, lo, hi, 1e-13) - root) <= 1e-13
        assert len(calls) <= 2 + 3 * 40
