"""Acceptance criteria: one callable per criterion, shared by the test suite
and the ``cfglab validate`` subcommand.

Each criterion asserts the numerical tolerances stated in its docstring and
reports its runtime next to the stated budget (budgets are targets measured
on a desk-class machine; they are reported, not asserted, since wall time is
hardware-dependent).

The simulation criteria (3, 4 and 9) run ``cfglab simulate`` commands through
``cli.main`` and read the CSVs they write, so ``validate`` checks the
simulation path that users run, not a copy of it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import cli
from .joint_gaussian import exact_scores, propagate, random_model
from .mixture_theory import (
    MixtureTheoryParams,
    _relative_deltas,
    assemble_trajectory,
    delta_estimators_linear,
    sample_path_report,
    sanity_schedule_speciation,
    speciation_time,
    zeta,
)
from .schedule import Constant, Linear, guidance_level
from .simulator import make_mixture_score_fn, sample_centroids
from .special_math import incomplete_beta_definite
from .sweeps import AxisSpec, sweep_schedule_phase_diagram


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime_s: float
    budget_s: float


def _simulate(argv: list[str]) -> str:
    """Text of the CSV that ``cfglab <argv>``, a ``simulate`` command, writes
    when run through ``cli.main`` in a temporary directory; the command's
    stdout is kept out of ``validate``'s."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*argv, "--out-dir", tmp, "--out", "sim.csv"])
        if rc != 0:
            raise RuntimeError(f"cfglab {' '.join(argv)} exited {rc}")
        with open(os.path.join(tmp, "sim.csv")) as fh:
            return fh.read()


def _columns(csv_text: str) -> dict[str, np.ndarray]:
    """The columns of a ``simulate`` CSV by header name, parsed as floats."""
    header, *rows = (line.split(",") for line in csv_text.splitlines())
    return dict(zip(header, np.array([[float(x) for x in row] for row in rows]).T))


def criterion_1_zero_guidance() -> tuple[bool, str]:
    """w = 0 leaves the conditional target untouched.

    100 random (sigma2, beta, t) tuples: |delta_mu|, |delta_sigma2| < 1e-9;
    joint-Gaussian lambda_i = Lambda_i = 1 to 1e-12.
    """
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        sigma2 = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.0, 1.2))
        t = float(rng.uniform(0.0, 5.0))
        trajectory, _ = assemble_trajectory(MixtureTheoryParams(sigma2, beta, Constant(0.0)), [t])
        dm, dv = _relative_deltas(trajectory[0], sigma2)
        worst = max(worst, abs(dm), abs(dv))
    if worst >= 1e-9:
        return False, f"mixture w=0 distortion reached {worst:.3e} (>= 1e-9)"
    models = [random_model(7, seed) for seed in range(5)]
    s = np.concatenate([m.s for m in models])[:, None]
    r = np.concatenate([m.r for m in models])[:, None]
    t = np.array([0.0, 0.3, 2.0])
    mean_coeff, variance = propagate(s, r, 0.0, t)
    worst_j = float(max(np.max(np.abs(mean_coeff - 1.0)), np.max(np.abs(variance / (s + t) - 1.0))))
    if worst_j > 1e-12:
        return False, f"joint w=0 coefficients off by {worst_j:.3e} (> 1e-12)"
    return True, f"max |delta| {worst:.1e}, max |coeff-1| {worst_j:.1e}"


def criterion_2_expansion_contraction() -> tuple[bool, str]:
    """lambda >= 1 - 1e-12 and Lambda <= 1 + 1e-12 on 1e4 random tuples
    with 0 < s <= r, w in [0, 10], t in [0, 10]."""
    rng = np.random.default_rng(12)
    n = 10**4
    r = rng.uniform(0.05, 3.0, n)
    s = rng.uniform(0.0, 1.0, n) * r
    s[s == 0.0] = r[s == 0.0]
    s[::97] = r[::97]  # exercise the degenerate branch too
    w = rng.uniform(0.0, 10.0, n)
    t = rng.uniform(0.0, 10.0, n)
    mean_coeff, variance = propagate(s, r, w, t)
    min_lam, max_big = np.min(mean_coeff), np.max(variance / (s + t))
    ok = min_lam >= 1.0 - 1e-12 and max_big <= 1.0 + 1e-12
    return ok, f"min lambda {min_lam:.15f}, max Lambda {max_big:.15f}"


def criterion_3_mixture_vs_sim() -> tuple[bool, str]:
    """Theory vs simulation for the mixture at sigma2=0.5, beta=0.5.

    w in {0, 0.5, 1}, d in {10, 15, 20} (M = round(exp(beta*d))), n = 5000.
    The reference places the phase switch where the samples make it
    (``sample_path_report``).  Asserted: |empirical - reference| <=
    max(0.05, 3*SE) at d = 20 for both estimators, and, for at least 2 of the
    3 w values, no gap grows from one d to the next by more than three
    standard errors of the difference, gap(d') <= gap(d) +
    3*sqrt(SE_d^2 + SE_d'^2), for both estimators.  The conditioning centroid
    is rescaled to norm sqrt(d) so the comparison is not dominated by the
    chi-square fluctuation of |c1|^2/d.  Each cell is one
    ``simulate mixture --normalize-target`` run at seed 7 and T = 500 (its
    softmax is float64 up to M = 4096 modes, float32 above), spreading its
    sample blocks over every core (the default ``--workers``).

    ``assemble_trajectory`` places the switch on the mean path, whose
    overlaps drop the per-sample variance; that leaves an O(1) gap of
    0.05-0.08 at w > 0 that does not close with d or with more steps.  The
    detail reports the gap to both references for every (d, w), the
    mean-path one second.
    """
    sigma2, beta, seed, n = 0.5, 0.5, 7, 5000
    ws, ds = (0.0, 0.5, 1.0), (10, 15, 20)
    # (sample-path, mean-path) reports, one cell per w
    reports = (sample_path_report(sigma2, beta, np.array(ws)),
               assemble_trajectory(MixtureTheoryParams(sigma2, beta, Constant(np.array(ws))), [0.0])[1])
    # (d, w) -> (gaps to the sample-path reference, their standard errors)
    gaps: dict[tuple[int, float], tuple[tuple[float, float], tuple[float, float]]] = {}
    tol_ok = True
    lines = []
    for d in ds:
        for i, w in enumerate(ws):
            steps = 1000 if w == 0.0 else 200
            row = _columns(_simulate([
                "--seed", str(seed), "simulate", "mixture", "--d", str(d), "--beta", str(beta),
                "--sigma2", str(sigma2), "--w", str(w), "--n", str(n), "--T", "500",
                "--steps", str(steps), "--normalize-target",
            ]))
            est = (row["delta_mu_hat"][0], row["delta_sigma2_hat"][0])
            se = (row["delta_mu_se"][0], row["delta_sigma2_se"][0])
            sample_ref, mean_ref = ((r.delta_mu[i], r.delta_sigma2[i]) for r in reports)
            gap = (abs(est[0] - sample_ref[0]), abs(est[1] - sample_ref[1]))
            gaps[(d, w)] = (gap, se)
            parts = []
            for k, name in enumerate(("mu", "sig2")):
                part = f"{name} gap {gap[k]:.4f}/{abs(est[k] - mean_ref[k]):.4f}"
                if d == ds[-1]:
                    tol = max(0.05, 3.0 * se[k])
                    tol_ok = tol_ok and gap[k] <= tol
                    part += f" (tol {tol:.4f})"
                parts.append(part)
            lines.append(f"d={d} w={w}: " + ", ".join(parts))

    def steady(w: float) -> bool:
        for d, d_next in zip(ds, ds[1:]):
            (gap, se), (gap_next, se_next) = gaps[(d, w)], gaps[(d_next, w)]
            if any(gap_next[k] > gap[k] + 3.0 * math.hypot(se[k], se_next[k]) for k in (0, 1)):
                return False
        return True

    n_steady = sum(steady(w) for w in ws)
    trend_ok = n_steady >= 2
    return tol_ok and trend_ok, (
        "gaps to sample-path/mean-path reference; " + "; ".join(lines)
        + f"; no gap growth beyond 3 SE in d for {n_steady}/3 w"
    )


def criterion_4_joint_vs_sim() -> tuple[bool, str]:
    """Joint-Gaussian simulation reproduces the closed-form moments.

    d2 = 9 random model, w in {0, 1, 2}, n = 2e4: mean within 3 SE per
    coordinate, per-eigendirection variance within 5%, |mean_w|/|mu| strictly
    increasing in w and the Frobenius-norm ratio strictly decreasing.  Each w
    is one ``simulate joint`` run at seed 3, 2000 steps and T = 500, spreading
    its sample blocks over every core (the default ``--workers``).
    """
    n, var_tol = 20000, 0.05
    model = random_model(9, seed=0)  # the model of ``simulate joint --model-seed 0``
    mean_ratios, frob_ratios = [], []
    # The basis is orthonormal, so the Frobenius norm of V diag(e) V^T is |e|_2.
    frob_cond = float(np.linalg.norm(model.s))
    worst_z, worst_var = 0.0, 0.0
    for w in (0.0, 1.0, 2.0):
        cols = _columns(_simulate([
            "--seed", "3", "simulate", "joint", "--d2", str(model.dim), "--model-seed", "0",
            "--w", str(w), "--n", str(n), "--T", "500", "--steps", "2000",
        ]))
        mean_sim, var_sim = cols["mean_sim"], cols["var_eig_sim"]
        z = (mean_sim - cols["mean_theory"]) / cols["mean_se"]
        worst_z = max(worst_z, float(np.max(np.abs(z))))
        worst_var = max(worst_var, float(np.max(np.abs(var_sim / cols["var_eig_theory"] - 1.0))))
        mean_ratios.append(float(np.linalg.norm(mean_sim) / np.linalg.norm(model.mu)))
        frob_ratios.append(float(np.linalg.norm(var_sim)) / frob_cond)
    monotone = all(a < b for a, b in zip(mean_ratios, mean_ratios[1:])) and all(
        a > b for a, b in zip(frob_ratios, frob_ratios[1:])
    )
    ok = worst_z <= 3.0 and worst_var <= var_tol and monotone
    return ok, (
        f"max |z| {worst_z:.2f} (<=3), max var err {worst_var:.3f} (<= {var_tol}), "
        f"mean ratios {[f'{x:.3f}' for x in mean_ratios]}, "
        f"frob ratios {[f'{x:.3f}' for x in frob_ratios]}"
    )


def criterion_5_speciation_asymptote() -> tuple[bool, str]:
    """Switch-time divergence at vanishing class density.

    sigma2 = 0.5, beta = 1e-3, w in {0, 1, 3}: t_s * beta / (1+w) in
    [0.95, 1.05]."""
    w = np.array([0.0, 1.0, 3.0])
    t_s = np.array(speciation_time(MixtureTheoryParams(0.5, 1e-3, Constant(w))), dtype=float)  # None: nan
    if not np.all(np.isfinite(t_s)):
        return False, f"no finite switch time at w={w[np.argmin(np.isfinite(t_s))]}"
    ratios = t_s * 1e-3 / (1.0 + w)
    ok = bool(np.all((0.95 <= ratios) & (ratios <= 1.05)))
    return ok, f"ratios {[f'{r:.4f}' for r in ratios]}"


def criterion_6_sanity_schedule() -> tuple[bool, str]:
    """Solvable ramp w0 = sigma2 - 1, omega = 1 through the numerical path.

    delta_mu(0) = sigma2 and delta_sigma2(0) = (1 - 2*sigma2)/3 to 1e-6 for
    sigma2 in {0.1, 0.25, 0.4, 0.5}; closed-form switch time 0.331977 +- 1e-6
    at (beta=1, sigma2=0.25) and math.inf (always conditional) at beta = 0.5."""
    sigma2 = np.array([0.1, 0.25, 0.4, 0.5])
    dm, dv = delta_estimators_linear(0.0, sigma2, Linear(sigma2 - 1.0, 1.0))
    worst = float(max(np.max(np.abs(dm - sigma2)), np.max(np.abs(dv - (1.0 - 2.0 * sigma2) / 3.0))))
    if worst >= 1e-6:
        return False, f"ramp benchmark off by {worst:.2e} (>= 1e-6)"
    t_s = sanity_schedule_speciation(0.25, 1.0)
    expected = 1.0 / math.expm1(1.0) - 0.25
    if t_s is None or abs(t_s - expected) > 1e-6:
        return False, f"closed-form switch time {t_s} != {expected:.9f}"
    if abs(t_s - 0.331977) > 1.1e-6:
        return False, f"closed-form switch time {t_s:.9f} != 0.331977"
    if sanity_schedule_speciation(0.25, 0.5) != math.inf:
        return False, "expected math.inf (always conditional) at beta = 0.5"
    return True, f"max benchmark error {worst:.2e}, t_s = {t_s:.6f}"


def criterion_7_schedule_phase_diagram() -> tuple[bool, str]:
    """40x40 ramp-schedule diagram at sigma2 = 0.75 (guided-only path).

    Every separability_and_diversity cell has w0 < 0; every cell with
    w(t) >= 0 for all t (i.e. w0 >= 0) has delta_sigma2 < 0."""
    rows = sweep_schedule_phase_diagram(0.75, *(AxisSpec(*axis) for axis in cli._RAMP_AXES))
    bad_beneficial = [
        r for r in rows if r.region_label == "separability_and_diversity" and r.axis1_value >= 0
    ]
    bad_shrink = [
        r
        for r in rows
        if r.axis1_value >= 0 and not r.error and r.delta_sigma2 is not None and r.delta_sigma2 >= 0
    ]
    errors = [r for r in rows if r.error]
    ok = not bad_beneficial and not bad_shrink and not errors
    n_beneficial = sum(r.region_label == "separability_and_diversity" for r in rows)
    return ok, (
        f"{n_beneficial} beneficial cells all at w0 < 0; "
        f"{len(bad_shrink)} nonnegative-guidance cells with delta_sigma2 >= 0; "
        f"{len(errors)} failed cells"
    )


def _zeta_mc_oracle(x: np.ndarray, c1: np.ndarray, lam: float, g: float,
                    n_centroids: int, seed: int) -> float:
    """(1/d) log mean_c exp(-lam (|x-c|^2 - |x-c1|^2) / (2g)), c ~ N(0, I).

    Plain Monte Carlo concentrates only while the tilt is weak (small lam);
    callers stay inside that regime."""
    d = x.size
    rng = np.random.default_rng(seed)
    base = float(x @ x - 2.0 * x @ c1 + c1 @ c1)  # |x-c1|^2 rewritten
    chunks = []
    per = 5000
    for _ in range(n_centroids // per):
        c = rng.standard_normal((per, d))
        expo = -lam * ((c * c).sum(axis=1) - 2.0 * c @ x + base) / (2.0 * g)
        m = float(expo.max())
        chunks.append((m, float(np.exp(expo - m).sum())))
    m_all = max(m for m, _ in chunks)
    total = sum(s * math.exp(m - m_all) for m, s in chunks)
    return (m_all + math.log(total / n_centroids)) / d


def _linear_moment_ode_oracle(sigma2: float, sched: Linear, t_end: float,
                              horizon: float = 2e5, n_steps: int = 60000) -> tuple[float, float]:
    """RK4 integration of the guided-phase moment ODEs from the noise prior.

    ``rates`` gives d(a, v) per unit of *backward* progress (decreasing t);
    the stepper walks a geometric grid from the horizon down to t_end."""

    def rates(t: float, a: float, v: float) -> tuple[float, float]:
        w = guidance_level(sched, t)
        g = sigma2 + t
        alpha = (1.0 + w) / g - w / (g + 1.0)
        return (1.0 + w) / g - alpha * a, -2.0 * alpha * v + 1.0

    ts = np.geomspace(sigma2 + horizon, sigma2 + t_end, n_steps + 1) - sigma2
    a, v = 0.0, horizon
    for k in range(n_steps):
        t, t1 = float(ts[k]), float(ts[k + 1])
        h = t - t1  # backward step size, positive
        ka1, kv1 = rates(t, a, v)
        ka2, kv2 = rates(t - h / 2, a + h / 2 * ka1, v + h / 2 * kv1)
        ka3, kv3 = rates(t - h / 2, a + h / 2 * ka2, v + h / 2 * kv2)
        ka4, kv4 = rates(t1, a + h * ka3, v + h * kv3)
        a += h / 6 * (ka1 + 2 * ka2 + 2 * ka3 + ka4)
        v += h / 6 * (kv1 + 2 * kv2 + 2 * kv3 + kv4)
    return a, v


def _fd_gap(f: Callable[[np.ndarray], float], x: np.ndarray, grad: np.ndarray, h: float) -> float:
    """Largest gap between grad and the central differences of f at x, step h."""
    return max(abs((f(x + e) - f(x - e)) / (2 * h) - g) for e, g in zip(h * np.eye(x.size), grad))


def criterion_8_oracle_suite() -> tuple[bool, str]:
    """Independent-oracle equivalence checks.

    incomplete Beta vs polynomial antiderivatives and a dense-grid quadrature
    (1e-8); zeta vs a d=2000 Monte Carlo expectation over 1e5 centroids
    (0.01); ramped-schedule moments vs a fine-step ODE integration (1e-4);
    exact scores vs finite-difference gradients of the log-densities (1e-5)."""
    msgs = []

    # (a) incomplete Beta: polynomial antiderivative r^2/2 - 2 r^3/3 + r^4/4
    val = incomplete_beta_definite(2.0, 3.0, 0.2, 0.8)
    poly = lambda r: r * r / 2 - 2 * r**3 / 3 + r**4 / 4
    if abs(val - (poly(0.8) - poly(0.2))) > 1e-8:
        return False, f"Beta(2,3) vs antiderivative: {val}"
    val = incomplete_beta_definite(1.0, 1.0, 0.0, 0.37)
    if abs(val - 0.37) > 1e-8:
        return False, f"Beta(1,1) identity: {val}"
    # singular exponents vs a dense trapezoid on the de-singularised variables
    # r = u^(1/a) on [0, 1/2] and 1-r = u^(1/b) on [1/2, 1]
    a, b = 0.4, 0.6
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    u2 = np.linspace(0.0, 0.5**a, 2_000_001)
    left = float(trapezoid((1.0 - u2 ** (1.0 / a)) ** (b - 1.0) / a, u2))
    u3 = np.linspace(0.0, 0.5**b, 2_000_001)
    right = float(trapezoid((1.0 - u3 ** (1.0 / b)) ** (a - 1.0) / b, u3))
    val = incomplete_beta_definite(a, b, 0.0, 1.0)
    if abs(val - (left + right)) > 1e-8:
        return False, f"Beta({a},{b},0,1) vs dense grid: {val} vs {left + right}"
    # complete Beta vs product of gammas for small integers
    for ia, ib in ((2, 3), (3, 2), (4, 2)):
        exact = math.gamma(ia) * math.gamma(ib) / math.gamma(ia + ib)
        got = incomplete_beta_definite(float(ia), float(ib), 0.0, 1.0)
        if abs(got - exact) > 1e-10:
            return False, f"complete Beta({ia},{ib}) {got} != {exact}"
    msgs.append("beta ok")

    # (b) zeta vs Monte Carlo expectation (weak tilt, concentrating regime)
    d = 2000
    rng = np.random.default_rng(5)
    worst = 0.0
    for lam, a_loc, s_loc, g in ((0.02, 1.3, 0.8, 1.5), (0.04, 0.7, 1.1, 2.5)):
        c1 = rng.standard_normal(d)
        c1 *= math.sqrt(d) / np.linalg.norm(c1)
        x = a_loc * c1 + s_loc * rng.standard_normal(d)
        q1 = float((x - c1) @ (x - c1)) / d
        q2 = float(x @ x) / d
        th = zeta(0.0, lam, g, q1, q2)  # here g plays sigma2+t directly
        mc = _zeta_mc_oracle(x, c1, lam, g, 100000, seed=17)
        worst = max(worst, abs(th - mc))
    if worst > 0.01:
        return False, f"zeta vs MC oracle off by {worst:.4f} (> 0.01)"
    msgs.append(f"zeta MC {worst:.1e}")

    # (c) ramped-schedule moments vs fine-step ODE (a ramp has no switch, so
    # the trajectory is guided-only whatever beta is)
    worst = 0.0
    for sigma2, w0, omega, t in ((0.75, -0.5, 2.0, 0.0), (0.5, -0.25, 1.0, 0.7)):
        sched = Linear(w0, omega)
        (m,), _ = assemble_trajectory(MixtureTheoryParams(sigma2, 1.0, sched), [t])
        a_ode, v_ode = _linear_moment_ode_oracle(sigma2, sched, t)
        worst = max(worst, abs(m.mean_coeff - a_ode), abs(m.variance - v_ode))
    if worst > 1e-4:
        return False, f"ramped moments vs ODE off by {worst:.2e}"
    msgs.append(f"ode {worst:.1e}")

    # (d) scores vs finite differences
    model = random_model(5, seed=2)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(5)
    t = 0.4
    cond, uncond = exact_scores(model, x, t)
    y = model.basis.T @ x
    m = model.basis.T @ model.mu

    def log_cond(z):
        yz = model.basis.T @ z
        return -0.5 * float(((yz - m) ** 2 / (model.s + t)).sum())

    def log_unc(z):
        yz = model.basis.T @ z
        return -0.5 * float((yz**2 / (model.r + t)).sum())

    h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    worst = max(_fd_gap(log_cond, x, cond, h), _fd_gap(log_unc, x, uncond, h))
    if worst > 1e-5:
        return False, f"joint scores vs FD off by {worst:.2e}"

    inst = sample_centroids(3, 4, seed=4, sigma2=0.6)
    xx = rng.standard_normal(3)
    w = 0.8
    t = 0.5
    g = inst.sigma2 + t

    def log_guided(z):
        le = -((z - inst.centroids) ** 2).sum(axis=1) / (2 * g)
        mix = float(le.max() + np.log(np.exp(le - le.max()).sum()))
        return (1.0 + w) * float(le[0]) - w * mix

    sc = make_mixture_score_fn(inst, Constant(w))(xx[None, :], t)[0]
    worst_m = _fd_gap(log_guided, xx, sc, 1e-5)
    if worst_m > 1e-5:
        return False, f"mixture score vs FD off by {worst_m:.2e}"
    msgs.append(f"scores FD {max(worst, worst_m):.1e}")
    return True, ", ".join(msgs)


def criterion_9_determinism() -> tuple[bool, str]:
    """``simulate mixture`` and ``simulate joint`` each write byte-identical
    CSVs across runs and worker counts."""
    commands = {
        "mixture": ["--d", "6", "--beta", "0.4", "--sigma2", "0.5", "--w", "0.7"],
        "joint": ["--d2", "9", "--w", "2"],
    }
    for target, args in commands.items():
        outputs = [_simulate(["--seed", "7", "--workers", str(workers), "simulate", target, *args,
                              "--n", "3000", "--steps", "60"]) for workers in (1, 1, 4)]
        if not outputs[0] == outputs[1] == outputs[2]:
            return False, f"simulate {target} outputs differ"
    return True, "mixture and joint byte-identical across repeats and worker counts {1, 4}"


_CRITERIA: list[tuple[int, str, float, Callable[[], tuple[bool, str]]]] = [
    (1, "zero_guidance_identity", 1.0, criterion_1_zero_guidance),
    (2, "expansion_contraction_law", 5.0, criterion_2_expansion_contraction),
    (3, "mixture_theory_vs_simulation", 180.0, criterion_3_mixture_vs_sim),
    (4, "joint_gaussian_theory_vs_simulation", 120.0, criterion_4_joint_vs_sim),
    (5, "speciation_asymptote", 1.0, criterion_5_speciation_asymptote),
    (6, "sanity_schedule_exactness", 10.0, criterion_6_sanity_schedule),
    (7, "schedule_phase_diagram", 60.0, criterion_7_schedule_phase_diagram),
    (8, "oracle_equivalence_suite", 120.0, criterion_8_oracle_suite),
    (9, "simulation_determinism", 60.0, criterion_9_determinism),
]


def run_criteria(numbers: Optional[list[int]] = None) -> list[CriterionResult]:
    results = []
    for number, name, budget, fn in _CRITERIA:
        if numbers is not None and number not in numbers:
            continue
        started = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        runtime = time.perf_counter() - started
        results.append(CriterionResult(number, name, bool(passed), detail, runtime, budget))
    return results
