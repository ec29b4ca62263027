"""Acceptance gate: every criterion at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line with the measured
runtime next to the stated budget.  Criterion 3 checks the simulated mixture
against the phase switch its samples make (``mixture_theory.sample_path_report``);
the library's mean-path theory keeps an O(1) gap of 0.05-0.08 to the
simulation at w > 0, which the criterion detail reports next to it.  Criteria
3, 4 and 9 run ``simulate`` through the CLI.
"""

import pytest

from cfglab.acceptance import _columns, _simulate, run_criteria
from cfglab.cli import main


@pytest.mark.parametrize("number", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_criterion(number):
    result = run_criteria(numbers=[number])[0]
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[{status}] criterion {result.number}: {result.name} "
        f"({result.runtime_s:.1f}s, budget {result.budget_s:.0f}s) {result.detail}"
    )
    assert result.passed, f"criterion {result.number} ({result.name}): {result.detail}"


def test_simulate_returns_the_csv_the_command_writes(tmp_path):
    argv = ["--seed", "5", "simulate", "joint", "--d2", "3", "--w", "1", "--n", "50",
            "--steps", "20"]
    assert main([*argv, "--out-dir", str(tmp_path), "--out", "s.csv"]) == 0
    text = _simulate(argv)
    assert text == (tmp_path / "s.csv").read_text()
    cols = _columns(text)
    assert list(cols) == text.splitlines()[0].split(",")
    assert cols["eig_index"].tolist() == [0.0, 1.0, 2.0]


def test_simulate_raises_when_the_command_fails():
    with pytest.raises(RuntimeError, match="exited 2"):
        _simulate(["simulate", "joint", "--d2", "0", "--w", "1", "--n", "50"])
