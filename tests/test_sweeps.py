"""Grid sweeps: cell consistency, region taxonomy, determinism."""

import numpy as np
import pytest

from cfglab.errors import DomainError
from cfglab.mixture_theory import MixtureTheoryParams, assemble_trajectory
from cfglab.schedule import Constant
from cfglab.sweeps import (
    AxisSpec,
    classify_region,
    sweep_beta_w,
    sweep_joint_gaussian_schedule,
    sweep_schedule_phase_diagram,
    sweep_sigma_w,
)


class TestClassifier:
    def test_taxonomy(self):
        assert classify_region(0.2, 0.1) == "separability_and_diversity"
        assert classify_region(-0.2, 0.1) == "mean_collapse"
        assert classify_region(0.2, -0.1) == "variance_shrink"
        assert classify_region(1e-9, -1e-9) == "no_distortion"


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

    def test_input_validation(self):
        axes = (AxisSpec("w0", -1.0, 1.0, 2), AxisSpec("omega", 0.5, 1.0, 2))
        with pytest.raises(DomainError):
            sweep_joint_gaussian_schedule(0.6, 1.0, *axes)  # s > r
