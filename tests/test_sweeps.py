"""Grid sweeps: cell consistency, region taxonomy, determinism."""

import math

import numpy as np
import pytest

from cfglab import special_math, sweeps
from cfglab.errors import DomainError, NumericalError
from cfglab.joint_gaussian import Lambda_coeff_linear, lambda_coeff_linear
from cfglab.mixture_theory import MixtureTheoryParams, assemble_trajectory, delta_estimators_linear
from cfglab.schedule import Constant, Linear
from cfglab.sweeps import (
    AxisSpec,
    classify_region,
    sweep_beta_w,
    sweep_joint_gaussian_schedule,
    sweep_schedule_phase_diagram,
    sweep_sigma_w,
)


# (delta_mu, delta_sigma2) of the 6x6 ramp grid w0 in [-1, 1] x omega in
# [0.125, 5], row-major, as the one-integral-at-a-time quadrature gave them
# before the ramp sweeps were batched.
_RAMP_AXES_6X6 = (AxisSpec("w0", -1.0, 1.0, 6), AxisSpec("omega", 0.125, 5.0, 6))
_PINNED_SCHEDULE_6X6 = [  # sweep_schedule_phase_diagram(0.75, ...)
    (0.7499999998759308, 0.7713490857819325),
    (0.7500000028241727, 0.12814589036377777),
    (0.7499999998772837, -0.07388003036614033),
    (0.749999999971747, -0.18098618255801135),
    (0.7500000001101974, -0.24972291387060608),
    (0.7499999999999944, -0.2985527032829557),
    (0.7500000002887708, 0.33162635790510153),
    (0.7500000019900097, -0.06020465654554685),
    (0.7499999996330355, -0.1961789399743441),
    (0.7499999999842715, -0.27216412814639723),
    (0.7500000000776417, -0.32265090348064684),
    (0.7499999999999931, -0.3594358497433585),
    (0.7500000004745111, 0.04663794618519446),
    (0.750000001402052, -0.19597266979922157),
    (0.7499999997385978, -0.28882647974732445),
    (0.7499999999918772, -0.34340501218032016),
    (0.7500000000547067, -0.380888859554899),
    (0.749999999999994, -0.4088655600568897),
    (0.7500000005296039, -0.14280425398375574),
    (0.7500000009876815, -0.29570487320559796),
    (0.7499999998133939, -0.36006556973744597),
    (0.7499999999963707, -0.39976145317504175),
    (0.7500000000385452, -0.42789271340299934),
    (0.7499999999999953, -0.44937308746902493),
    (0.7500000005138114, -0.27213559782273206),
    (0.750000000695684, -0.37035155541508913),
    (0.749999999867399, -0.4156466979859784),
    (0.7499999999989244, -0.44488259545311754),
    (0.7500000000271589, -0.4662223244062984),
    (0.7499999999999956, -0.4828704917704889),
    (0.7500000010105485, -0.36287791108994844),
    (0.7500000010695613, -0.42725537055486645),
    (0.749999999905796, -0.45962700069769274),
    (0.7500000000077809, -0.4814299170634451),
    (0.7500000000191349, -0.49779036579038627),
    (0.7499999999999944, -0.510813440625144),
]
_PINNED_JOINT_SCHEDULE_6X6 = [  # sweep_joint_gaussian_schedule(1.0, 0.6, ...)
    (1.4999999999194569, 0.577032010257845),
    (1.499999999690926, 0.1711286778700012),
    (1.5000000001416192, -0.025339358234330978),
    (1.5000000037334495, -0.14668025363440662),
    (1.5000000012107844, -0.23117896553438233),
    (1.4999999999999916, -0.2944039651858603),
    (1.5000000002844862, 0.2808420577631474),
    (1.4999999999007398, -0.014162542194849803),
    (1.500000000078352, -0.16213546083153418),
    (1.5000000030169236, -0.25584897046002497),
    (1.500000000980965, -0.322357928943918),
    (1.499999999999993, -0.3728751083759676),
    (1.5000000010711916, 0.054375562553189205),
    (1.5000000000334466, -0.16119222655570276),
    (1.500000000033633, -0.27328353749850076),
    (1.5000000024377251, -0.3460656867097729),
    (1.5000000007947363, -0.39869295222519807),
    (1.4999999999999933, -0.4392582770239223),
    (1.500000001355008, -0.12040121860170938),
    (1.5000000001369802, -0.27884080857907456),
    (1.5000000001534448, -0.364264242532494),
    (1.500000001969568, -0.4211167199747792),
    (1.5000000006438365, -0.46298542736034065),
    (1.499999999999993, -0.4957245194176435),
    (1.5000000014973378, -0.256603324859201),
    (1.5000000001943823, -0.3737819432170151),
    (1.4999999998094355, -0.43929208996139246),
    (1.5000000015911898, -0.4839648842207265),
    (1.5000000005215672, -0.517458129510618),
    (1.4999999999999933, -0.5440163134013714),
    (1.5000000015407826, -0.3638157396358731),
    (1.5000000002258895, -0.45105645429675156),
    (1.4999999999690705, -0.5016238500003738),
    (1.500000001285398, -0.5369393434444196),
    (1.5000000004225003, -0.563882425729042),
    (1.499999999999993, -0.5855379188712534),
]


def test_axis_scale_must_be_linear_or_log():
    # the CLI's --*-scale choices never reach this check
    with pytest.raises(DomainError, match="axis w: scale must be linear or log"):
        AxisSpec("w", 0.0, 1.0, 2, "cubic")


class TestClassifier:
    def test_taxonomy(self):
        assert classify_region(0.2, 0.1) == "separability_and_diversity"
        assert classify_region(-0.2, 0.1) == "mean_collapse"
        assert classify_region(0.2, -0.1) == "variance_shrink"
        assert classify_region(1e-9, -1e-9) == "no_distortion"

    @pytest.mark.parametrize("deltas", [(np.nan, 0.1), (0.2, np.nan), (np.inf, -0.1)])
    def test_non_finite_deltas_have_no_region(self, deltas):
        with pytest.raises(NumericalError, match="non-finite"):
            classify_region(*deltas)


@pytest.fixture(scope="module")
def beta_w_table():
    axes = (AxisSpec("beta", 0.01, 1.2, 12, "log"), AxisSpec("w", 0.0, 1.0, 6))
    return sweep_beta_w(0.5, *axes)


@pytest.fixture(scope="module")
def schedule_table():
    axes = (AxisSpec("w0", -1.0, 1.0, 16), AxisSpec("omega", 0.25, 5.0, 12))
    return sweep_schedule_phase_diagram(0.75, *axes)


class TestBetaWSweep:

    def test_zero_guidance_column(self, beta_w_table):
        for row in beta_w_table:
            if row.axis2_value == 0.0:
                assert abs(row.delta_mu) < 1e-9 and abs(row.delta_sigma2) < 1e-9

    def test_no_transition_region_at_large_density(self, beta_w_table):
        white = [r for r in beta_w_table if r.t_speciation is None]
        coloured = [r for r in beta_w_table if r.t_speciation is not None and r.axis2_value > 0]
        assert white and min(r.axis1_value for r in white) > 0.5
        # the no-transition cells carry the strong distortion
        strongest_white = max(abs(r.delta_sigma2) for r in white)
        weakest_needed = np.mean([abs(r.delta_sigma2) for r in coloured])
        assert strongest_white > weakest_needed

    def test_spot_cell_matches_direct_evaluation(self):
        # both constant-guidance sweeps, at the cell (sigma2, beta, w) = (0.5, 0.1, 0.5)
        _, rep = assemble_trajectory(MixtureTheoryParams(0.5, 0.1, Constant(0.5)), [0.0])
        w_axis = AxisSpec("w", 0.5, 1.0, 2)
        for row, axis1 in (
            (sweep_beta_w(0.5, AxisSpec("beta", 0.1, 0.2, 2), w_axis)[0], 0.1),
            (sweep_sigma_w(0.1, AxisSpec("sigma2", 0.5, 0.6, 2), w_axis)[0], 0.5),
        ):
            assert row.axis1_value == axis1 and row.axis2_value == 0.5
            assert row.delta_mu == rep.delta_mu and row.delta_sigma2 == rep.delta_sigma2
            assert row.t_speciation == rep.t_speciation
            assert row.region_label == classify_region(rep.delta_mu, rep.delta_sigma2)

    def test_row_major_order_and_determinism(self, beta_w_table):
        again = sweep_beta_w(
            0.5,
            AxisSpec("beta", 0.01, 1.2, 12, "log"), AxisSpec("w", 0.0, 1.0, 6),
        )
        assert beta_w_table == again
        betas = [r.axis1_value for r in beta_w_table]
        assert betas == sorted(betas)


class TestSigmaWSweep:
    def test_switch_time_increases_with_guidance(self):
        axes = (AxisSpec("sigma2", 0.3, 0.7, 3), AxisSpec("w", 0.0, 2.0, 5))
        table = sweep_sigma_w(0.1, *axes)
        by_sigma = {}
        for r in table:
            by_sigma.setdefault(r.axis1_value, []).append(r.t_speciation)
        for ts in by_sigma.values():
            present = [t for t in ts if t is not None]
            assert all(b > a for a, b in zip(present, present[1:]))

    @pytest.mark.filterwarnings("error")
    def test_cells_where_sigma2_plus_one_is_unresolved_fail(self):
        axes = (AxisSpec("sigma2", 0.1, 1e300, 6, "log"), AxisSpec("w", 0.0, 1.0, 2))
        rows = sweep_sigma_w(0.1, *axes)
        assert [r.region_label == "failed" for r in rows] == [r.axis1_value >= 2.0**53 for r in rows]
        assert rows[-1].error == "sigma2 must be positive and below 2**53, got 1e+300"


class TestConstantGuidanceSlices:
    """The constant-guidance sweeps evaluate a slice of cells in one
    ``assemble_trajectory`` call, and a cell gets the same bits there as
    evaluated alone."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []

        def counted(*args, _fn=sweeps.assemble_trajectory):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(sweeps, "assemble_trajectory", counted)
        return calls

    def test_slice_cells_equal_their_batches_of_one(self, monkeypatch):
        # beta = 0 is always conditional (math.inf), beta = 1.2 at w = 1 never
        # switches (None), the other cells switch at a finite time.
        calls = self._count_calls(monkeypatch)
        rows = sweep_beta_w(0.5, AxisSpec("beta", 0.0, 1.2, 2), AxisSpec("w", 0.0, 1.0, 3))
        assert len(calls) == 1
        assert {type(r.t_speciation) for r in rows} == {float, type(None)}
        assert rows[0].t_speciation == math.inf and rows[-1].t_speciation is None
        for row in rows:
            _, alone = assemble_trajectory(
                MixtureTheoryParams(0.5, row.axis1_value, Constant(row.axis2_value)), [0.0])
            assert isinstance(alone.delta_mu, float)
            assert row.t_speciation == alone.t_speciation
            assert (row.delta_mu, row.delta_sigma2) == (alone.delta_mu, alone.delta_sigma2)

    @pytest.mark.filterwarnings("error")
    def test_slice_crossing_2_53_fails_only_there(self, monkeypatch):
        # sigma2 = 0.5, 2**53 and 2**54: the slice fails as a whole.
        w_axis = AxisSpec("w", 0.0, 1.0, 3)
        calls = self._count_calls(monkeypatch)
        clean = sweep_sigma_w(0.1, AxisSpec("sigma2", 0.5, 0.7, 2), w_axis)
        assert len(calls) == 1
        crossing = sweep_sigma_w(0.1, AxisSpec("sigma2", 0.5, 2.0**54, 3), w_axis)
        # the failed slice is evaluated again in halves: the three good cells
        # in two calls, cells 0-1 and cell 2
        assert len(calls) == 1 + 2
        assert crossing[:3] == clean[:3]
        assert [r.region_label for r in crossing[3:]] == ["failed"] * 6
        assert crossing[3].error == "sigma2 must be positive and below 2**53, got 9007199254740992.0"


class TestScheduleSweep:
    def test_beneficial_region_in_negative_intercept_half_plane(self, schedule_table):
        beneficial = [r for r in schedule_table if r.region_label == "separability_and_diversity"]
        assert beneficial
        assert all(r.axis1_value < 0 for r in beneficial)

    def test_nonnegative_ramps_shrink_variance(self, schedule_table):
        for r in schedule_table:
            if r.axis1_value >= 0:
                assert r.region_label == "variance_shrink"
                assert r.delta_sigma2 < 0

    def test_sanity_point_classification(self):
        # w0 = sigma2 - 1, omega = 1 at sigma2 = 0.25
        axes = (AxisSpec("w0", -0.75, 0.0, 2), AxisSpec("omega", 1.0, 2.0, 2))
        row = sweep_schedule_phase_diagram(0.25, *axes)[0]
        assert row.delta_mu == pytest.approx(0.25, abs=1e-8)
        assert row.delta_sigma2 == pytest.approx(1.0 / 6.0, abs=1e-8)
        assert row.region_label == "separability_and_diversity"

    def test_refinement_keeps_interior_labels(self):
        coarse_axes = (AxisSpec("w0", -1.0, 1.0, 9), AxisSpec("omega", 0.5, 4.5, 9))
        fine_axes = (AxisSpec("w0", -1.0, 1.0, 17), AxisSpec("omega", 0.5, 4.5, 17))
        coarse = {(r.axis1_value, r.axis2_value): r for r in sweep_schedule_phase_diagram(0.75, *coarse_axes)}
        fine = {(r.axis1_value, r.axis2_value): r for r in sweep_schedule_phase_diagram(0.75, *fine_axes)}
        for key, row in coarse.items():
            if key in fine and min(abs(row.delta_mu), abs(row.delta_sigma2)) > 1e-8:
                assert fine[key].region_label == row.region_label


class TestJointScheduleSweep:
    def test_beneficial_region_at_negative_intercept_and_small_slope(self):
        axes = (AxisSpec("w0", -1.0, 1.0, 9), AxisSpec("omega", 0.25, 3.0, 8))
        table = sweep_joint_gaussian_schedule(1.0, 0.6, *axes)
        beneficial = [r for r in table if r.region_label == "separability_and_diversity"]
        assert beneficial
        assert all(r.axis1_value < 0 for r in beneficial)
        assert max(r.axis2_value for r in beneficial) < 2.0

    def test_zero_slope_column_expands_mean_contracts_covariance(self):
        axes = (AxisSpec("w0", 0.25, 1.0, 4), AxisSpec("omega", 0.0, 2.0, 3))
        table = sweep_joint_gaussian_schedule(1.0, 0.6, *axes)
        zero_slope = [r for r in table if r.axis2_value == 0.0]
        assert zero_slope
        for r in zero_slope:
            assert r.delta_mu > 0 and r.delta_sigma2 < 0  # lambda > 1, Lambda < 1

    def test_failed_cells_flagged_not_fatal(self):
        # omega = 0 with w0 <= -1/2 has no convergent constant-guidance limit
        axes = (AxisSpec("w0", -0.9, -0.6, 2), AxisSpec("omega", 0.0, 1.0, 2))
        table = sweep_joint_gaussian_schedule(1.0, 0.6, *axes)
        flagged = [r for r in table if r.error]
        clean = [r for r in table if not r.error]
        assert flagged and clean
        assert all(r.region_label == "failed" for r in flagged)
        assert all(r.region_label != "failed" for r in clean)

    @pytest.mark.filterwarnings("error")
    def test_overflowed_cells_fail(self):
        # at r = 1e308 the prefactors overflow to nan at omega = 1/8, and the
        # exponent p = omega (r - s) is inf at omega = 5; neither warns
        axes = (AxisSpec("w0", -1.0, 1.0, 2), AxisSpec("omega", 0.125, 5.0, 2))
        rows = sweep_joint_gaussian_schedule(1e308, 0.5, *axes)
        assert [r.region_label for r in rows] == ["failed"] * 4
        assert [r.error for r in rows] == [
            "non-finite ramp coefficient at (w0, omega) = (-1.0, 0.125)", "b must be finite",
            "non-finite ramp coefficient at (w0, omega) = (1.0, 0.125)", "b must be finite",
        ]

    def test_input_validation(self):
        axes = (AxisSpec("w0", -1.0, 1.0, 2), AxisSpec("omega", 0.5, 1.0, 2))
        with pytest.raises(DomainError):
            sweep_joint_gaussian_schedule(0.6, 1.0, *axes)  # s > r
        with pytest.raises(DomainError):
            sweep_joint_gaussian_schedule(np.inf, 0.6, *axes)


class TestRampSweepBatches:
    """The ramp sweeps evaluate slices of cells in one quadrature batch."""

    @staticmethod
    def _both_sweeps(axes):
        return (sweep_schedule_phase_diagram(0.75, *axes), sweep_joint_gaussian_schedule(1.0, 0.6, *axes))

    def test_grid_matches_the_pinned_values(self):
        for table, pinned in zip(self._both_sweeps(_RAMP_AXES_6X6),
                                 (_PINNED_SCHEDULE_6X6, _PINNED_JOINT_SCHEDULE_6X6)):
            assert len(table) == len(pinned)
            for row, (dm, dv) in zip(table, pinned):
                assert row.delta_mu == pytest.approx(dm, rel=1e-12, abs=0.0)
                assert row.delta_sigma2 == pytest.approx(dv, rel=1e-12, abs=0.0)

    def test_cells_equal_their_scalar_calls_bit_for_bit(self, monkeypatch):
        # Slices of 5 cells put the 36 cells in 8 batches of different sizes.
        monkeypatch.setattr(sweeps, "_SLICE", 5)
        schedule, joint = self._both_sweeps(_RAMP_AXES_6X6)
        for row in schedule:
            sched = Linear(row.axis1_value, row.axis2_value)
            assert (row.delta_mu, row.delta_sigma2) == delta_estimators_linear(0.0, 0.75, sched)
        for row in joint:
            sched = Linear(row.axis1_value, row.axis2_value)
            assert row.delta_mu == lambda_coeff_linear(0.6, 1.0, sched, 0.0) - 1.0
            assert row.delta_sigma2 == Lambda_coeff_linear(0.6, 1.0, sched, 0.0) - 1.0

    def test_slicing_does_not_change_a_bit(self, monkeypatch):
        whole = self._both_sweeps(_RAMP_AXES_6X6)
        for size in (1, 7, 36):
            monkeypatch.setattr(sweeps, "_SLICE", size)
            assert self._both_sweeps(_RAMP_AXES_6X6) == whole

    def test_cells_past_the_panel_cap_fail_alone(self, monkeypatch):
        axes = (AxisSpec("w0", -1.0, 1.0, 4), AxisSpec("omega", 0.125, 5.0, 4))
        clean = sweep_joint_gaussian_schedule(1.0, 0.6, *axes)
        monkeypatch.setattr(special_math, "_MAX_PANELS", 12)
        capped = sweep_joint_gaussian_schedule(1.0, 0.6, *axes)
        failed = [r for r in capped if r.region_label == "failed"]
        assert 0 < len(failed) < len(capped)
        for row, before in zip(capped, clean):
            if row.region_label != "failed":
                assert row == before
                continue
            assert (row.axis1_value, row.axis2_value) == (before.axis1_value, before.axis2_value)
            assert row.delta_mu is None and row.delta_sigma2 is None
            sched = Linear(row.axis1_value, row.axis2_value)
            with pytest.raises(NumericalError, match="more than 12 panels") as info:
                lambda_coeff_linear(0.6, 1.0, sched, 0.0)
                Lambda_coeff_linear(0.6, 1.0, sched, 0.0)
            assert row.error == str(info.value)
            assert row.error.startswith("quadrature needs more than 12 panels")
