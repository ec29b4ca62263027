"""CLI contract: CSV schemas, manifests, determinism, exit codes, plots."""

import json
import math
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest

import cfglab.cli
from cfglab.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"

THEORY_HEADER = "t,mean_coeff,variance,delta_mu,delta_sigma2,phase"
SIM_HEADER = "t,delta_mu_hat,delta_mu_se,delta_sigma2_hat,delta_sigma2_se,n_samples"


def _read(path):
    with open(path) as fh:
        return fh.read()


def _rows(path):
    text = _read(path).strip().split("\n")
    return text[0], [line.split(",") for line in text[1:]]


class TestTheoryCommand:
    def test_mixture_zero_guidance_all_zero_deltas(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["--out-dir", str(tmp_path), "theory", "mixture", "--sigma2", "0.5",
                   "--beta", "0.1", "--w", "0", "--t", "0,0.5,1.5", "--out", "m.csv"])
        assert rc == 0
        header, rows = _rows(out)
        assert header == THEORY_HEADER
        assert len(rows) == 3
        for row in rows:
            assert abs(float(row[3])) < 1e-9 and abs(float(row[4])) < 1e-9

    def test_mixture_guided_only_reference_values(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), "theory", "mixture", "--sigma2", "0.5",
                   "--beta", "100", "--w", "1", "--t", "0", "--out", "m.csv"])
        assert rc == 0
        _, rows = _rows(tmp_path / "m.csv")
        assert float(rows[0][3]) == pytest.approx(0.333333, abs=1e-6)
        assert float(rows[0][4]) == pytest.approx(-0.518519, abs=1e-6)
        assert rows[0][5] == "guided"

    def test_joint_reference_values(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), "theory", "joint", "--r", "1",
                   "--s", "0.6", "--w", "1", "--t", "0", "--out", "j.csv"])
        assert rc == 0
        _, rows = _rows(tmp_path / "j.csv")
        assert float(rows[0][1]) == pytest.approx(1.6, abs=1e-9)
        # the variance Lambda * (s + t), with Lambda = 0.653333 and s + t = 0.6
        assert float(rows[0][2]) == pytest.approx(0.392, abs=1e-6)
        assert float(rows[0][4]) == pytest.approx(0.653333 - 1.0, abs=1e-6)

    def test_ramped_schedule_path(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), "theory", "mixture", "--sigma2", "0.25",
                   "--beta", "100", "--w0", "-0.75", "--omega", "1", "--t", "0",
                   "--out", "ramp.csv"])
        assert rc == 0
        _, rows = _rows(tmp_path / "ramp.csv")
        assert float(rows[0][3]) == pytest.approx(0.25, abs=1e-8)
        # relative to sigma2: the solvable ramp's (1 - 2 sigma2)/3 over sigma2
        assert float(rows[0][4]) == pytest.approx(2.0 / 3.0, abs=1e-8)

    @pytest.mark.parametrize("schedule", [["--w", "1"], ["--w0", "-0.75", "--omega", "1"]],
                             ids=["constant", "ramp"])
    def test_mixture_rows_evaluate_their_moments_once(self, tmp_path, monkeypatch, schedule):
        # Four rows, one evaluation each: the distortion report reuses the t = 0 row.
        import cfglab.mixture_theory as mt

        calls = []

        def counted(*args, _fn=mt._moments_at):
            calls.append(args[0])
            return _fn(*args)

        monkeypatch.setattr(mt, "_moments_at", counted)
        rc = main(["--out-dir", str(tmp_path), "theory", "mixture", "--sigma2", "0.5",
                   "--beta", "0.5", *schedule, "--t", "0,0.5,1,2"])
        assert rc == 0
        assert calls == [0.0, 0.5, 1.0, 2.0]


class TestManifests:
    def test_written_alongside_output(self, tmp_path):
        main(["--seed", "3", "--out-dir", str(tmp_path), "theory", "joint",
              "--r", "1", "--s", "0.6", "--w", "0.5", "--out", "j.csv"])
        manifest = json.loads(_read(tmp_path / "j.csv.manifest.json"))
        assert manifest["subcommand"] == "theory joint"
        assert manifest["seed"] == 3
        assert manifest["outputs"] == ["j.csv"]
        assert "duration_s" in manifest and manifest["parameters"]["s"] == 0.6

    @pytest.mark.parametrize("argv,counters", [
        (["beta-w", "--sigma2", "0.5", "--w-min", "-0.9", "--w-max", "0", "--w-points", "2",
          "--beta-points", "3"], {"cells": 6, "failed_cells": 3}),
        (["joint-schedule", "--r", "1", "--s", "0.6", "--w0-min", "-0.9", "--w0-max", "-0.6",
          "--w0-points", "2", "--omega-min", "0", "--omega-points", "3"], {"cells": 6, "failed_cells": 2}),
        (["schedule", "--sigma2", "0.75", "--w0-points", "2", "--omega-points", "2"],
         {"cells": 4, "failed_cells": 0}),
    ], ids=["beta-w", "joint-schedule", "schedule"])
    def test_sweep_counts_its_cells_and_failures(self, tmp_path, argv, counters):
        assert main(["--out-dir", str(tmp_path), "sweep", *argv, "--out", "g.csv"]) == 0
        assert json.loads(_read(tmp_path / "g.csv.manifest.json"))["counters"] == counters
        _, rows = _rows(tmp_path / "g.csv")
        assert len(rows) == counters["cells"]
        assert sum(row[5] == "failed" for row in rows) == counters["failed_cells"]

    def test_only_sweeps_write_counters(self, tmp_path):
        main(["--out-dir", str(tmp_path), "theory", "joint", "--r", "1", "--s", "0.6",
              "--w", "0.5", "--out", "j.csv"])
        assert "counters" not in json.loads(_read(tmp_path / "j.csv.manifest.json"))

    def test_workers_recorded_only_where_it_is_read(self, tmp_path):
        main(["--workers", "3", "--out-dir", str(tmp_path), "sweep", "beta-w", "--sigma2", "0.5",
              "--beta-points", "2", "--w-points", "2", "--out", "g.csv"])
        sweep = json.loads(_read(tmp_path / "g.csv.manifest.json"))["parameters"]
        assert "workers" not in sweep and sweep["sigma2"] == 0.5
        main(["--workers", "3", "--out-dir", str(tmp_path), "simulate", "joint", "--d2", "3",
              "--w", "1", "--n", "50", "--steps", "20", "--out", "j.csv"])
        simulate = json.loads(_read(tmp_path / "j.csv.manifest.json"))["parameters"]
        assert simulate["workers"] == 3

    def test_emit_plot_recorded_only_where_it_is_read(self, tmp_path):
        main(["--emit-plot", "--out-dir", str(tmp_path), "theory", "joint", "--r", "1", "--s", "0.6",
              "--w", "1", "--out", "j.csv"])
        assert "emit_plot" not in json.loads(_read(tmp_path / "j.csv.manifest.json"))["parameters"]
        main(["--emit-plot", "--out-dir", str(tmp_path), "sweep", "beta-w", "--sigma2", "0.5",
              "--beta-points", "2", "--w-points", "2", "--out", "g.csv"])
        assert json.loads(_read(tmp_path / "g.csv.manifest.json"))["parameters"]["emit_plot"] is True

    def test_replay_from_manifest_parameters(self, tmp_path):
        argv = ["--seed", "5", "--out-dir", str(tmp_path / "a"), "theory", "mixture",
                "--sigma2", "0.4", "--beta", "0.2", "--w", "0.8", "--t", "0,1",
                "--out", "m.csv"]
        main(argv)
        params = json.loads(_read(tmp_path / "a" / "m.csv.manifest.json"))["parameters"]
        replay = ["--seed", str(params["seed"]), "--out-dir", str(tmp_path / "b"),
                  "theory", "mixture", "--sigma2", str(params["sigma2"]),
                  "--beta", str(params["beta"]), "--w", str(params["w"]),
                  "--t", params["t"], "--out", params["out"]]
        main(replay)
        assert _read(tmp_path / "a" / "m.csv") == _read(tmp_path / "b" / "m.csv")


class TestSimulateCommand:
    def test_deterministic_and_seed_sensitivity(self, tmp_path):
        base = ["simulate", "mixture", "--d", "6", "--beta", "0.4", "--sigma2", "0.5",
                "--w", "0.7", "--n", "2000", "--steps", "80", "--out", "s.csv"]
        main(["--seed", "7", "--out-dir", str(tmp_path / "r1")] + base)
        main(["--seed", "7", "--out-dir", str(tmp_path / "r2")] + base)
        main(["--seed", "8", "--out-dir", str(tmp_path / "r3")] + base)
        a, b = _read(tmp_path / "r1" / "s.csv"), _read(tmp_path / "r2" / "s.csv")
        assert a == b
        _, rows_a = _rows(tmp_path / "r1" / "s.csv")
        _, rows_c = _rows(tmp_path / "r3" / "s.csv")
        assert rows_a != rows_c
        # different seeds agree statistically: combined three-standard-error gate
        for col in (1, 3):
            va, sa = float(rows_a[0][col]), float(rows_a[0][col + 1])
            vc, sc = float(rows_c[0][col]), float(rows_c[0][col + 1])
            assert abs(va - vc) <= 3.0 * math.hypot(sa, sc)

    def test_header_and_dump_samples(self, tmp_path):
        rc = main(["--seed", "1", "--out-dir", str(tmp_path), "simulate", "mixture",
                   "--d", "3", "--beta", "0.3", "--sigma2", "0.5", "--w", "0", "--n", "50",
                   "--steps", "20", "--dump-samples", "--out", "s.csv"])
        assert rc == 0
        header, rows = _rows(tmp_path / "s.csv")
        assert header == SIM_HEADER
        assert rows[0][5] == "50"
        dump_header, dump_rows = _rows(tmp_path / "s_samples_t0.csv")
        assert dump_header == "x_1,x_2,x_3"
        assert len(dump_rows) == 50

    @pytest.mark.parametrize("out,stem", [(None, "simulate_mixture"), ("run", "run")],
                             ids=["default", "no_suffix"])
    def test_dumps_land_beside_the_output(self, tmp_path, monkeypatch, out, stem):
        monkeypatch.chdir(tmp_path)
        argv = ["--out-dir", "o", "simulate", "mixture", "--d", "3", "--beta", "0.3",
                "--sigma2", "0.5", "--w", "1", "--n", "50", "--steps", "10",
                "--checkpoints", "0,1", "--dump-samples"]
        assert main(argv + (["--out", out] if out else [])) == 0
        primary = out or "simulate_mixture.csv"
        dumps = {f"{stem}_samples_t0.csv", f"{stem}_samples_t1.csv"}
        assert {p.name for p in tmp_path.iterdir()} == {"o"}
        assert {p.name for p in (tmp_path / "o").iterdir()} == {
            primary, primary + ".manifest.json", *dumps}
        manifest = json.loads(_read(tmp_path / "o" / (primary + ".manifest.json")))
        assert set(manifest["outputs"]) == {primary, *dumps}

    def test_checkpoint_variance_is_relative_to_the_marginal(self, tmp_path):
        # At w = 0 the samples at time t follow the conditional marginal, of
        # variance sigma2 + t, so delta_sigma2_hat is near 0 at every
        # checkpoint, as the theory's is.
        rc = main(["--seed", "3", "--out-dir", str(tmp_path), "simulate", "mixture",
                   "--d", "8", "--beta", "0.3", "--sigma2", "0.5", "--w", "0", "--n", "2000",
                   "--steps", "200", "--checkpoints", "0,1,5", "--out", "s.csv"])
        assert rc == 0
        _, rows = _rows(tmp_path / "s.csv")
        assert sorted(float(row[0]) for row in rows) == [0.0, 1.0, 5.0]
        for row in rows:
            assert abs(float(row[3])) < 0.1, row

    def test_joint_comparison_table(self, tmp_path):
        rc = main(["--seed", "2", "--out-dir", str(tmp_path), "simulate", "joint",
                   "--d2", "4", "--w", "1", "--n", "4000", "--steps", "400",
                   "--out", "j.csv"])
        assert rc == 0
        header, rows = _rows(tmp_path / "j.csv")
        assert header == "eig_index,mean_theory,mean_sim,mean_se,var_eig_theory,var_eig_sim"
        assert len(rows) == 4
        for row in rows:
            assert float(row[5]) == pytest.approx(float(row[4]), rel=0.2)

    def test_mixture_run_frees_the_centroid_matrix(self, tmp_path):
        # d = 12, beta = 0.75: M = 8103 centroids, whose float64 (M, d)
        # matrix is 0.78 MB.  The run's traced peak is about 2.7 MB when the
        # matrix is freed once the score is built, and about 3.8 MB when it is
        # held through the integration.  A small run first does the one-off
        # allocations (imports, caches) outside the traced one.
        argv = ["--workers", "1", "--out-dir", str(tmp_path), "simulate", "mixture",
                "--sigma2", "0.5", "--w", "1", "--steps", "10", "--out", "m.csv"]
        assert main(argv + ["--d", "3", "--beta", "0.3", "--n", "10"]) == 0
        tracemalloc.start()
        try:
            assert main(argv + ["--d", "12", "--beta", "0.75", "--n", "1024"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.25e6

    def test_joint_byte_identical_across_workers(self, tmp_path):
        argv = ["--seed", "4", "simulate", "joint", "--d2", "5", "--w", "1.5",
                "--n", "2500", "--steps", "60", "--out", "j.csv"]
        for workers in ("1", "2"):
            assert main(["--workers", workers, "--out-dir", str(tmp_path / workers)] + argv) == 0
        assert _read(tmp_path / "1" / "j.csv") == _read(tmp_path / "2" / "j.csv")


class TestSweepCommand:
    def test_minimal_grid_shape(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), "sweep", "beta-w", "--sigma2", "0.5",
                   "--beta-points", "2", "--w-points", "2", "--out", "g.csv"])
        assert rc == 0
        header, rows = _rows(tmp_path / "g.csv")
        assert header == "beta,w,t_speciation,delta_mu,delta_sigma2,region_label,error"
        assert len(rows) == 4

    def test_absent_switch_time_is_empty_field(self, tmp_path):
        main(["--out-dir", str(tmp_path), "sweep", "beta-w", "--sigma2", "0.5",
              "--beta-min", "1.1", "--beta-max", "1.3", "--beta-points", "2",
              "--w-min", "0.8", "--w-max", "1.0", "--w-points", "2", "--out", "g.csv"])
        _, rows = _rows(tmp_path / "g.csv")
        assert any(row[2] == "" for row in rows)

    def test_plot_script_golden(self, tmp_path):
        main(["--out-dir", str(tmp_path), "--emit-plot", "sweep", "schedule",
              "--sigma2", "0.75", "--w0-points", "2", "--omega-points", "2",
              "--out", "ps.csv"])
        script = _read(tmp_path / "ps.gp")
        assert script == (
            "# gnuplot heatmap for ps.csv\n"
            "# usage: gnuplot ps.gp\n"
            "set datafile separator comma\n"
            "set terminal pngcairo size 900,700\n"
            "set output 'ps.png'\n"
            "set key off\n"
            "set view map\n"
            "set xlabel 'w0'\n"
            "set ylabel 'omega'\n"
            "set title 'sweep schedule'\n"
            "splot 'ps.csv' every ::1 using 1:2:4 with points pt 5 ps 2 palette\n"
        )

    def test_failed_cells_have_their_own_label(self, tmp_path):
        # constant guidance needs w > -1/2, so the w = -0.9 cells fail; the
        # w = 0 cells are genuinely undistorted
        main(["--out-dir", str(tmp_path), "sweep", "beta-w", "--sigma2", "0.5",
              "--w-min", "-0.9", "--w-max", "0", "--w-points", "2", "--beta-points", "2",
              "--out", "g.csv"])
        _, rows = _rows(tmp_path / "g.csv")
        labels = {(float(row[1]), row[5], row[6] != "") for row in rows}
        assert labels == {(-0.9, "failed", True), (0.0, "no_distortion", False)}

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["sweep", "joint-schedule", "--r", "1", "--s", "0.6",
                "--w0-points", "3", "--omega-points", "3", "--out", "g.csv"]
        main(["--out-dir", str(tmp_path / "x")] + argv)
        main(["--out-dir", str(tmp_path / "y")] + argv)
        assert _read(tmp_path / "x" / "g.csv") == _read(tmp_path / "y" / "g.csv")


class TestGlobalFlags:
    @pytest.mark.parametrize(
        "before,after,seed,out_dir",
        [
            (["--seed", "3", "--out-dir", "a"], [], 3, "a"),
            ([], ["--seed", "4", "--out-dir", "b"], 4, "b"),
            (["--seed", "3", "--out-dir", "a"], ["--seed", "4", "--out-dir", "b"], 4, "b"),
            ([], [], 0, "."),
        ],
        ids=["before", "after", "both_later_wins", "neither_defaults"],
    )
    def test_position_before_or_after_the_subcommand(self, tmp_path, monkeypatch,
                                                      before, after, seed, out_dir):
        monkeypatch.chdir(tmp_path)
        assert main([*before, "theory", "joint", *after, "--r", "1", "--s", "0.6",
                     "--w", "1", "--out", "j.csv"]) == 0
        manifest = json.loads(_read(tmp_path / out_dir / "j.csv.manifest.json"))
        assert manifest["seed"] == seed
        assert manifest["parameters"]["seed"] == seed
        assert manifest["parameters"]["out_dir"] == out_dir


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["theory", "mixture", "--sigma2", "0.5"])  # missing --beta
        assert exc.value.code == 1

    def test_removed_quick_flag_is_a_usage_error(self, tmp_path):
        for argv in (["validate", "--quick"], ["--quick", "validate"],
                     ["validate", "--config", "cfg.json"], ["--config", "cfg.json", "validate"]):
            with pytest.raises(SystemExit) as exc:
                main(["--out-dir", str(tmp_path), *argv, "--criteria", "5"])
            assert exc.value.code == 1

    @pytest.mark.parametrize(
        "flags", [["--out", "o.csv"], ["--see", "3"]], ids=["leaf_flag", "prefix_of_seed"])
    def test_flag_before_the_subcommand_is_not_an_abbreviation(self, tmp_path, monkeypatch,
                                                                flags):
        # --out is a prefix of --out-dir, --see of --seed; both are unknown here
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", "d", *flags, "theory", "joint", "--r", "1", "--s", "0.6",
                  "--w", "1"])
        assert exc.value.code == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_numerical_failure_is_two(self, tmp_path, capsys):
        # the ramp's prefactors overflow at this r
        rc = main(["--out-dir", str(tmp_path), "theory", "joint", "--r", "1e300", "--s", "0.5",
                   "--w0", "0.5", "--omega", "1", "--out", "x.csv"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cfglab: numerical failure in theory: ")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["theory", "mixture", "--sigma2", "0.5", "--beta", "nan", "--w", "1"],
            ["theory", "mixture", "--sigma2", "nan", "--beta", "0.5", "--w", "1"],
            ["theory", "mixture", "--sigma2", "inf", "--beta", "0.5", "--w", "1"],
            ["theory", "joint", "--r", "inf", "--s", "0.5", "--w", "1"],
            ["theory", "mixture", "--sigma2", "0.5", "--beta", "-1", "--w", "1"],
            ["theory", "mixture", "--sigma2", "0.5", "--beta", "-1", "--w0", "0", "--omega", "1"],
            ["sweep", "sigma-w", "--beta", "nan", "--sigma2-points", "2", "--w-points", "2"],
            ["sweep", "beta-w", "--sigma2", "nan", "--beta-points", "2", "--w-points", "2"],
            ["sweep", "beta-w", "--sigma2", "inf", "--beta-points", "2", "--w-points", "2"],
            ["sweep", "schedule", "--sigma2", "nan", "--w0-points", "2", "--omega-points", "2"],
            ["sweep", "schedule", "--sigma2", "inf", "--w0-points", "2", "--omega-points", "2"],
            ["sweep", "joint-schedule", "--r", "inf", "--s", "0.5", "--w0-points", "2",
             "--omega-points", "2"],
            ["simulate", "joint", "--d2", "0", "--w", "1", "--n", "10"],
            ["simulate", "joint", "--d2", "-2", "--w", "1", "--n", "10"],
            ["simulate", "joint", "--d2", "3", "--w", "1", "--n", "10", "--model-seed", "-1"],
            ["simulate", "mixture", "--d", "3", "--beta", "0.3", "--sigma2", "inf", "--w", "1",
             "--n", "10"],
            ["simulate", "mixture", "--d", "3", "--beta", "0.3", "--sigma2", "1e15", "--w", "1",
             "--n", "10"],
            ["simulate", "mixture", "--d", "3", "--beta", "0.3", "--sigma2", "1e300", "--w", "1",
             "--n", "10"],
            # sigma2 + 1 rounds to sigma2: every scan value would be 0/0
            ["theory", "mixture", "--sigma2", "1e16", "--beta", "0.5", "--w", "1"],
            ["sweep", "beta-w", "--sigma2", "1e300", "--beta-points", "2", "--w-points", "2"],
            ["sweep", "schedule", "--sigma2", "1e300", "--w0-points", "2", "--omega-points", "2"],
            # M = exp(beta * d) above the mode budget
            ["simulate", "mixture", "--d", "40", "--beta", "0.5", "--sigma2", "0.5", "--w", "1",
             "--n", "100"],
        ],
        ids=["theory_beta_nan", "theory_sigma2_nan", "theory_sigma2_inf", "theory_joint_r_inf",
             "theory_beta_negative", "theory_ramp_beta_negative", "sigma_w_beta_nan",
             "beta_w_sigma2_nan", "beta_w_sigma2_inf", "schedule_sigma2_nan", "schedule_sigma2_inf",
             "joint_schedule_r_inf", "joint_d2_zero", "joint_d2_negative",
             "joint_model_seed_negative", "simulate_sigma2_inf", "simulate_steps_merge",
             "simulate_sigma2_huge", "theory_sigma2_unresolved", "beta_w_sigma2_unresolved",
             "schedule_sigma2_unresolved", "simulate_mode_budget"],
    )
    @pytest.mark.filterwarnings("error")
    def test_nan_or_negative_control_parameter_is_two(self, tmp_path, capsys, argv):
        rc = main(["--out-dir", str(tmp_path), *argv, "--out", "x.csv"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"cfglab: invalid input to {argv[0]}: ")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "beta-w", "--sigma2", "0.5", "--beta-points", "1"],
             "each axis needs at least 2 points"),
            (["sweep", "beta-w", "--sigma2", "0.5", "--w-min", "1", "--w-max", "0"],
             "axis w: need lo < hi"),
            (["sweep", "beta-w", "--sigma2", "0.5", "--beta-scale", "log", "--beta-min", "0"],
             "axis beta: log scale requires lo > 0"),
            (["sweep", "beta-w", "--sigma2", "0.5", "--beta-max", "inf", "--beta-points", "3",
              "--w-points", "2"], "axis beta: need finite lo, hi and hi - lo, got [0.01, inf]"),
            (["sweep", "sigma-w", "--beta", "0.1", "--sigma2-max", "inf", "--sigma2-points", "3",
              "--w-points", "2"], "axis sigma2: need finite lo, hi and hi - lo, got [0.1, inf]"),
            (["sweep", "schedule", "--sigma2", "0.75", "--w0-min=-1e308", "--w0-max", "1e308",
              "--w0-points", "3", "--omega-points", "2"],
             "axis w0: need finite lo, hi and hi - lo, got [-1e+308, 1e+308]"),
            (["theory", "mixture", "--sigma2", "0.5", "--beta", "0.5", "--w", "1", "--t", "-1"],
             "t_grid times must be >= 0"),
            (["simulate", "mixture", "--d", "3", "--beta", "0.3", "--sigma2", "0.5", "--w", "1",
              "--n", "1"], "n_samples must be >= 2"),
        ],
        ids=["axis_one_point", "axis_reversed", "log_axis_from_zero", "axis_to_inf",
             "axis_to_inf_sigma2", "axis_range_overflows", "negative_time", "one_sample"],
    )
    def test_input_check_is_two(self, tmp_path, capsys, argv, message):
        rc = main(["--out-dir", str(tmp_path), *argv, "--out", "x.csv"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"cfglab: invalid input to {argv[0]}: {message}"]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["theory", "mixture", "--sigma2", "1e-17", "--beta", "0.5", "--w", "1"],
            ["theory", "joint", "--r", "1", "--s", "1e-17", "--w", "1"],
            ["sweep", "sigma-w", "--beta", "0.1", "--sigma2-min", "1e-17",
             "--sigma2-points", "2", "--w-points", "2"],
        ],
        ids=["theory_mixture", "theory_joint", "sigma_w_sweep"],
    )
    def test_variance_ratio_below_float_resolution_is_zero(self, tmp_path, argv):
        # (s - r)/(r + t) rounds to -1 at t = 0, where log1p's limit -inf gives the value
        assert main(["--out-dir", str(tmp_path), *argv, "--out", "x.csv"]) == 0
        assert "failed" not in _read(tmp_path / "x.csv")

    @pytest.mark.parametrize("out_dir,out", [("taken", "x.csv"), (".", "sub/x.csv")],
                             ids=["out_dir_is_a_file", "missing_subdirectory"])
    def test_unwritable_output_is_one(self, tmp_path, monkeypatch, capsys, out_dir, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        rc = main(["--out-dir", out_dir, "theory", "joint", "--r", "1", "--s", "0.5", "--w", "1",
                   "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("cfglab: cannot write output: ")
        assert "Traceback" not in err

    def test_missing_output_directory_is_found_before_the_work(self, tmp_path, monkeypatch,
                                                               capsys):
        def never(*args, **kwargs):
            raise AssertionError("the simulation ran before the output path was checked")

        monkeypatch.setattr(cfglab.cli, "sample_centroids", never)
        monkeypatch.setattr(cfglab.cli, "integrate_backward", never)
        rc = main(["--out-dir", str(tmp_path), "simulate", "mixture", "--d", "3", "--beta", "0.3",
                   "--sigma2", "0.5", "--w", "1", "--n", "50", "--steps", "20",
                   "--out", "sub/x.csv"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cfglab: cannot write output: ")

    @pytest.mark.parametrize(
        "flags", [["--T", "1e200"], ["--sigma2", "1e-300", "--checkpoints", "0,1", "--dump-samples"]],
        ids=["horizon_past_float_range", "variance_ratio_past_float_range"])
    def test_non_finite_estimate_is_two(self, tmp_path, capsys, flags):
        # the sample variance overflows: no inf standard error in a CSV, and
        # no dump from a checkpoint estimated before the failing one
        rc = main(["--out-dir", str(tmp_path), "simulate", "mixture", "--d", "3", "--beta", "0.3",
                   "--sigma2", "0.5", "--w", "1", "--n", "10", "--steps", "20", *flags])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cfglab: numerical failure in simulate: ")
        assert list(tmp_path.iterdir()) == []

    def test_infinite_horizon_fails_before_integrating(self, tmp_path, capsys):
        rc = main(["--out-dir", str(tmp_path), "simulate", "mixture", "--d", "3", "--beta", "0.3",
                   "--sigma2", "0.5", "--w", "1", "--n", "10", "--steps", "10", "--T", "inf",
                   "--out", "x.csv"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "horizon_T must be positive and finite" in err[0]
        assert not (tmp_path / "x.csv").exists()

    def test_validation_failure_is_three(self, tmp_path, monkeypatch, capsys):
        import cfglab.acceptance as acc

        monkeypatch.setattr(
            acc, "_CRITERIA", [(1, "stub_criterion", 1.0, lambda: (False, "hook"))]
        )
        rc = main(["--out-dir", str(tmp_path), "validate", "--criteria", "1"])
        assert rc == 3
        assert "FAIL] criterion 1: stub_criterion" in capsys.readouterr().out

    def test_validate_passing_subset_is_zero(self, tmp_path, capsys):
        rc = main(["--out-dir", str(tmp_path), "validate", "--criteria", "1,5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"\] criterion 1: zero_guidance_identity \(\d+\.\ds, budget 1s\) ", out)

    @pytest.mark.parametrize("criteria", ["99", "1,99", "x"])
    def test_bad_criteria_are_a_usage_error(self, tmp_path, capsys, criteria):
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), "validate", "--criteria", criteria])
        assert exc.value.code == 1
        assert "error: argument --criteria" in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["theory", "joint", "--r", "1", "--s", "0.6"],
            ["theory", "joint", "--r", "1", "--s", "0.6", "--w", "1", "--t", "abc"],
            ["theory", "mixture", "--sigma2", "0.5", "--beta", "0.3", "--w", "1",
             "--w0", "0", "--omega", "1"],
            ["simulate", "mixture", "--d", "3", "--beta", "0.3", "--sigma2", "0.5", "--w", "0",
             "--n", "50", "--steps", "20", "--checkpoints", ""],
            ["theory", "mixture", "--sigma2", "0.5", "--beta", "0.3", "--w", "-0.7"],
            ["simulate", "joint", "--d2", "3", "--n", "50", "--w", "nan"],
            ["theory", "joint", "--r", "1", "--s", "0.6", "--w0", "-2", "--omega", "1"],
            ["simulate", "mixture", "--d", "3", "--beta", "0.3", "--sigma2", "0.5", "--w0", "0",
             "--omega", "-1", "--n", "50"],
            ["theory", "mixture", "--sigma2", "0.5", "--beta", "0.3", "--w", "1",
             "--t", "nan,inf"],
            ["simulate", "mixture", "--d", "3", "--beta", "0.3", "--sigma2", "0.5", "--w", "0",
             "--n", "50", "--steps", "20", "--checkpoints", "0,inf"],
            ["simulate", "joint", "--d2", "3", "--w", "1", "--n", "100", "--steps", "10",
             "--workers", "0"],
            ["simulate", "mixture", "--d", "3", "--beta", "0.3", "--sigma2", "0.5", "--w", "1",
             "--n", "50", "--steps", "20", "--workers", "-2"],
            # a flat ramp is the constant level w0, found before any work
            ["theory", "joint", "--r", "1", "--s", "0.6", "--w0", "-0.7", "--omega", "0"],
            ["simulate", "joint", "--d2", "3", "--w0", "-0.7", "--omega", "0", "--n", "10",
             "--steps", "20"],
        ],
        ids=["no_schedule", "bad_time_list", "both_schedules", "empty_checkpoints",
             "w_below_half", "w_nan", "w0_below_minus_one", "omega_negative",
             "non_finite_times", "non_finite_checkpoints", "workers_zero", "workers_negative",
             "flat_ramp_theory", "flat_ramp_simulate"],
    )
    def test_bad_schedule_or_time_list_is_a_usage_error(self, tmp_path, capsys, argv):
        # reported by the leaf command, before --out-dir is created
        out_dir = tmp_path / "nd" / "x"
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(out_dir), *argv, "--out", "x.csv"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "numerical failure" not in err and "invalid input" not in err
        leaf = f"cfglab {argv[0]} {argv[1]}"
        assert err.startswith(f"usage: {leaf} [-h]")
        assert err.splitlines()[-1].startswith(f"{leaf}: error: ")
        assert not (tmp_path / "nd").exists()

    def test_usage_error_shows_the_leaf_flags_it_names(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theory", "joint", "--r", "1", "--s", "0.6"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        usage = err[: err.index("cfglab theory joint: error: need --w")]
        assert all(flag in usage for flag in ("[--w W]", "[--w0 W0]", "[--omega OMEGA]"))

    def test_usage_error_leaves_no_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", "nd/x", "theory", "joint", "--r", "1", "--s", "0.6"])
        assert exc.value.code == 1
        assert not (tmp_path / "nd").exists()
        assert main(["--out-dir", "nd/x", "theory", "joint", "--r", "1", "--s", "0.6", "--w", "1"]) == 0
        assert (tmp_path / "nd" / "x" / "theory_joint.csv").exists()


@pytest.mark.parametrize(
    "kind,fixed,axes,name",
    [
        ("beta-w", ["--sigma2", "0.5"], ("beta", "w"), "sweep_beta_w"),
        ("sigma-w", ["--beta", "0.1"], ("sigma2", "w"), "sweep_sigma_w"),
        ("schedule", ["--sigma2", "0.75"], ("w0", "omega"), "sweep_schedule_phase_diagram"),
        ("joint-schedule", ["--r", "1", "--s", "0.6"], ("w0", "omega"),
         "sweep_joint_gaussian_schedule"),
    ],
    ids=["beta-w", "sigma-w", "schedule", "joint-schedule"],
)
def test_sweep_runs_the_function_bound_to_its_module_name(tmp_path, monkeypatch,
                                                          kind, fixed, axes, name):
    """The per-layer tracer wraps ``cfglab.cli.sweep_*``: each kind must call through that name."""
    real = getattr(cfglab.cli, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cfglab.cli, name, counting)
    rc = main(["--out-dir", str(tmp_path), "sweep", kind, *fixed,
               f"--{axes[0]}-points", "2", f"--{axes[1]}-points", "2", "--out", "g.csv"])
    assert rc == 0
    assert len(calls) == 1
    header, rows = _rows(tmp_path / "g.csv")
    assert header.startswith(f"{axes[0]},{axes[1]},") and len(rows) == 4


def _readme_commands():
    """Every ``cfglab ...`` line of README's sh blocks, continuations joined, $VAR as 1."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [re.sub(r"\$\w+", "1", line.strip()) for line in lines
            if line.strip().startswith("cfglab ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert commands
    parser = build_parser()
    rejected = []
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            rejected.append(line)
    assert rejected == []
