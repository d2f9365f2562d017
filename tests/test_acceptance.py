"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them).

Criterion 5's small-horizon bound is implemented as stated and marked as an
expected failure: the fuel-tax regret does not approach 1 as the horizon
shrinks.  A matched-asymptotics analysis of the two fuel-tax conditions (the
taxed cost ratio equal to 1 at a = 0 and as a -> infinity) gives
lambda* -> 1.2876 as T -> 0 (with the solved prior width scaling as
sigma^-2 ~ 0.432 T), and the solver reproduces that limit to four decimals,
so the <= 1.05 bound cannot hold.
"""

import math

import numpy as np
import pytest

import agnostic_control as ac
from agnostic_control import GaussianPrior, ProblemSpec
from agnostic_control.cli import main as cli_main

IMPROPER = GaussianPrior.improper()


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c1_gain_ode_residuals():
    h = 1e-5
    worst = 0.0
    for T in (0.5, 2.0, 10.0):
        for lam in (1.0, 2.0, 4.0):
            spec = ProblemSpec(horizon=T, fuel_weight=lam)
            for t in np.linspace(2 * h, T - 2 * h, 1000):
                gp, gm, g = ac.gains(t + h, spec), ac.gains(t - h, spec), ac.gains(t, spec)
                d = lambda f: (getattr(gp, f) - getattr(gm, f)) / (2 * h)
                pairs = [
                    (-d("e2"), 1.0 - g.e2 ** 2 / lam),
                    (-d("e1"), 2.0 * g.e2 - g.e1 * g.e2 / lam),
                    (-d("e0"), g.e1 - g.e1 ** 2 / (4.0 * lam)),
                    (-d("e_sharp"), g.e2),
                ]
                for lhs, rhs in pairs:
                    rel = abs(lhs - rhs) / max(abs(rhs), 1e-3)
                    worst = max(worst, rel)
    report(1, worst <= 1e-6, f"gain ODE residuals, worst relative error {worst:.2e}")


def test_c2_dual_method_coefficients():
    worst = 0.0
    for T in (1.0, 2.0, 8.0):
        spec = ProblemSpec(horizon=T)
        for prior in (GaussianPrior(0.3), GaussianPrior(1.0), GaussianPrior(3.0), IMPROPER):
            t_lo = 0.1 if prior.is_improper else 0.0
            for t in (t_lo, 0.5 * T, 0.9 * T):
                fq = ac.perf_coeffs(t, prior, spec)
                fr = ac.perf_coeffs_rk4(t, prior, spec)
                for a, b in zip(fq, fr):
                    rel = abs(a - b) / max(abs(b), 1e-12)
                    worst = max(worst, rel)
    report(2, worst <= 1e-8, f"quadrature vs RK4 coefficients, worst relative gap {worst:.2e}")


def test_c3_constant_multiplicative_regret():
    r = ac.solve_sigma_mr(2.0)
    spread = ac.certify_constant_mr(2.0, r.root, a_values=(0.0, 0.5, 1.0, 2.0, 5.0, 10.0))
    report(
        3,
        abs(r.residual) <= 1e-9 and spread <= 1e-6,
        f"sigma*(T=2)={r.root:.6f}, regret spread {spread:.2e} incl. large-drift limit",
    )


def test_c4_worst_case_mr_headline():
    grid = np.logspace(math.log10(0.1), math.log10(20.0), 40)
    mrs = [ac.worst_case_mr(float(T)) for T in grid]
    peak = max(mrs)
    mr_tiny = ac.worst_case_mr(0.05)
    mr_huge = ac.worst_case_mr(50.0)
    ok = 1.10 <= peak <= 1.17 and mr_tiny <= 1.02 and mr_huge <= 1.05
    report(
        4,
        ok,
        f"peak MR*={peak:.4f} in [1.10, 1.17]; MR*(0.05)={mr_tiny:.4f}<=1.02; "
        f"MR*(50)={mr_huge:.4f}<=1.05",
    )


def test_c5_fueltax_reference_and_peak():
    lam2, _ = ac.solve_fueltax(2.0)
    sweep_grid = (0.5, 1.0, 2.0, 4.0, 8.0)
    lams = {T: ac.solve_fueltax(T)[0].root for T in sweep_grid}
    t_peak = max(lams, key=lams.get)
    ok = 1.25 <= lam2.root <= 1.35 and 1.0 <= t_peak <= 4.0
    report(
        5,
        ok,
        f"lambda*(2)={lam2.root:.4f} in [1.25, 1.35]; sweep peak at T={t_peak}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="lambda* tends to ~1.2876 as T->0 (matched asymptotics of the "
    "constancy conditions), so lambda*(0.05) <= 1.05 is unattainable",
)
def test_c5_fueltax_small_horizon_bound():
    lam, _ = ac.solve_fueltax(0.05)
    report(5, lam.root <= 1.05, f"lambda*(0.05)={lam.root:.4f} (bound 1.05)")


def test_c6_additive_regret_constancy_and_divergence():
    spec = ProblemSpec(horizon=2.0, t_start=0.5)
    form = ac.regret_form(IMPROPER, spec, additive=True)
    ar_ref = form(0.0)
    assert ar_ref == form(2.0)  # exact a-independence

    estimates = {}
    for a in (0.0, 2.0):
        cfg = ac.SimConfig(spec=spec, a_true=a, dt=1e-3, n_paths=10_000, seed=20)
        est = ac.monte_carlo_cost(ac.make_strategy("bayes_improper"), cfg)
        opp = ac.simulate.analytic_cost(ac.make_strategy("known_a", a=a), cfg)
        estimates[a] = (est.mean - opp, est.stderr)
    for a, (ar, se) in estimates.items():
        assert abs(ar - ar_ref) <= 3 * se, f"a={a}: AR {ar} vs analytic {ar_ref}, se {se}"
    gap = abs(estimates[0.0][0] - estimates[2.0][0])
    gap_se = math.hypot(estimates[0.0][1], estimates[2.0][1])
    assert gap <= 3 * gap_se

    ars = []
    for t0 in (0.1, 0.01, 0.001):
        ars.append(ac.regret_form(IMPROPER, ProblemSpec(horizon=2.0, t_start=t0), additive=True)(0.0))
    diffs = np.diff(ars)
    ok = np.all(diffs > 0) and abs(diffs[1] / diffs[0] - 1.0) <= 0.2
    report(
        6,
        ok,
        f"improper AR={ar_ref:.4f} matches MC at a=0,2 within 3 SE; "
        f"log-divergence increments {diffs[0]:.4f}, {diffs[1]:.4f}",
    )


def test_c7_monte_carlo_vs_analytic():
    spec = ProblemSpec(horizon=1.0)
    sigma_star = ac.solve_sigma_mr(1.0).root
    strategies = [
        ("known_a", None),
        ("bayes", GaussianPrior(1.0)),
        ("bayes", GaussianPrior(sigma_star)),
    ]
    frozen = 0.672186674527262298907036402295  # known-a value at a=1, T=1
    assert ac.value_known_a(0.0, 0.0, 1.0, spec) == pytest.approx(frozen, rel=1e-14)

    worst_z = 0.0
    for a in (0.0, 1.0):
        cfg = ac.SimConfig(spec=spec, a_true=a, dt=1e-3, n_paths=10_000, seed=30)
        for kind, prior in strategies:
            if kind == "known_a":
                strat = ac.make_strategy("known_a", a=a)
                ref = ac.value_known_a(0.0, 0.0, a, spec)
            else:
                strat = ac.make_strategy("bayes", sigma=prior.sigma)
                ref = ac.bayes_cost(0.0, 0.0, 0.0, a, prior, spec)
            est = ac.monte_carlo_cost(strat, cfg)
            z = abs(est.mean - ref) / est.stderr
            worst_z = max(worst_z, z)
    report(7, worst_z <= 3.0, f"six strategy/drift pairs, worst |z|={worst_z:.2f} (<= 3)")


def test_c8_minimax_spot_check():
    T = 2.0
    spec = ProblemSpec(horizon=T)
    sigma_star = ac.solve_sigma_mr(T).root
    mr_star = ac.worst_case_mr(T)
    a_grid = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
    margins = []
    for factor in (0.9, 1.1, 0.7, 1.3):
        form = ac.regret_form(GaussianPrior(sigma_star * factor), spec)
        sup = max(form(a) for a in a_grid)
        sup = max(sup, form.limit)
        margins.append(sup - mr_star)
    spec_obs = ProblemSpec(horizon=T, t_start=0.1)
    form = ac.regret_form(IMPROPER, spec_obs)
    sup = max(form(a) for a in a_grid)
    sup = max(sup, form.limit)
    margins.append(sup - mr_star)
    report(
        8,
        all(m >= -1e-8 for m in margins),
        f"five perturbed strategies, min excess regret {min(margins):.2e} (>= -1e-8)",
    )


def test_c9_reproducibility(tmp_path, capsys):
    fig_bytes = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(["figures", "--which", "2", "--grid", "0.5,2,8", "--out", str(out)])
        assert code == 0
        fig_bytes.append((out / "fig2.csv").read_bytes())
    sim_out = []
    for _ in range(2):
        code = cli_main(
            ["simulate", "--strategy", "bayes", "--sigma", "1", "--a", "1",
             "--T", "1", "--dt", "0.01", "--paths", "1000", "--seed", "17"]
        )
        assert code == 0
        sim_out.append(capsys.readouterr().out)
    ok = fig_bytes[0] == fig_bytes[1] and sim_out[0] == sim_out[1]
    report(9, ok, "fig2.csv and simulate output byte-identical across runs")
