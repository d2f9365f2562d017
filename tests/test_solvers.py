"""Root-finding layer: sigma* for constant competitive ratio, worst-case MR,
the fuel-tax solve, and horizon sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agnostic_control import (
    A_GRID_DEFAULT,
    GaussianPrior,
    NoRootError,
    ProblemSpec,
    certify_constant_mr,
    find_root,
    gains,
    multiplicative_regret,
    multiplicative_regret_limit,
    perf_coeffs,
    solve_fueltax,
    solve_sigma_mr,
    sweep,
    worst_case_mr,
)
from agnostic_control import solvers
from agnostic_control.performance import mr_general, mr_general_limit


def test_find_root_simple():
    r = find_root(lambda x: x * x - 2.0, (0.5, 1.0, 2.0))
    assert r.converged
    assert r.root == pytest.approx(2 ** 0.5, rel=1e-9)
    assert r.bracket_lo <= r.root <= r.bracket_hi
    assert r.iterations <= 200


def test_find_root_log_space():
    r = find_root(lambda x: np.log10(x) + 2.0, (1e-6, 1.0))
    assert r.root == pytest.approx(1e-2, rel=1e-6)


def test_find_root_requires_sign_change():
    with pytest.raises(NoRootError) as exc:
        find_root(lambda x: x * x + 1.0, (0.5, 1.0))
    assert exc.value.scan == [(0.5, 1.25), (1.0, 2.0)]


def test_find_root_bisects_the_scan_to_the_pair_a_walk_finds():
    xs = [float(x) for x in solvers._SIGMA_SCAN]
    first = next(i for i in range(len(xs)) if xs[i + 1] > 2.5)
    lo, hi = xs[first], xs[first + 1]
    seen = []

    def f(x):
        seen.append(x)
        return math.log(x) - math.log(2.5)

    r = find_root(f, solvers._SIGMA_SCAN)
    assert r.converged and r.root == pytest.approx(2.5, rel=1e-9)
    assert sum(x in xs for x in seen) <= 7  # both ends, then log2(30) bisections
    assert all(lo < x < hi for x in seen if x not in xs)
    assert lo <= r.bracket_lo <= r.root <= r.bracket_hi <= hi


def test_find_root_walks_when_the_ends_agree_in_sign():
    # f > 0 at both ends, with sign changes at 1 and 3: the walk takes the first
    r = find_root(lambda x: (x - 1.0) * (x - 3.0), (0.5, 2.0, 4.0))
    assert r.converged and r.root == pytest.approx(1.0, rel=1e-9)
    assert 0.5 <= r.bracket_lo <= r.root <= r.bracket_hi <= 2.0


def test_find_root_halves_an_end_kept_twice():
    # x^4 - 16 is convex, so the secant keeps the end at 4; regula falsi without
    # the halving takes 126 evaluations
    r = find_root(lambda x: x ** 4 - 16.0, (1.0, 4.0))
    assert r.converged and r.root == pytest.approx(2.0, rel=1e-9)
    assert r.iterations <= 15


def test_find_root_bisects_when_the_secant_is_not_finite():
    r = find_root(lambda x: 2.0 - x if x <= 3.0 else -math.inf, (1.0, 4.0))
    assert r.converged and r.root == pytest.approx(2.0, rel=1e-9)
    assert 1.0 <= r.bracket_lo <= r.root <= r.bracket_hi <= 4.0


def test_solves_quadrature_budget(monkeypatch):
    # one F0/F# quadrature per residual evaluation; bisecting, then Newton on a
    # differenced slope made 19 and 22
    calls = []

    def counted(*args):
        calls.append(args)
        return perf_coeffs(*args)

    monkeypatch.setattr(solvers, "perf_coeffs", counted)
    solve_sigma_mr(2.0)
    assert len(calls) <= 12
    calls.clear()
    solve_fueltax(2.0)
    assert len(calls) <= 17


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_T=st.floats(-2.0, 3.0))
def test_residuals_change_sign_once_over_the_scan(log_T):
    # what lets find_root bisect the scan: its bracket is then the first sign
    # change; the secant steps inside it read the values, so they must be finite
    T = 10.0 ** log_T
    for resid in (solvers._sigma_mr_residual(T), solvers._fueltax_residual(T)):
        values = [resid(float(s)) for s in solvers._SIGMA_SCAN]
        assert all(math.isfinite(v) for v in values), T
        signs = [math.copysign(1.0, v) for v in values]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 1, T


def test_sigma_mr_certified_constant():
    r = solve_sigma_mr(2.0)
    assert r.converged
    assert abs(r.residual) <= 1e-9
    spread = certify_constant_mr(2.0, r.root, a_values=(0.0, 0.5, 1.0, 2.0, 5.0, 10.0))
    assert spread <= 1e-6


def test_sigma_mr_decreasing_in_horizon():
    sig = [solve_sigma_mr(T).root for T in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b < a for a, b in zip(sig, sig[1:]))


def test_mr_near_one_for_tiny_horizon():
    assert worst_case_mr(0.05) <= 1.02


def test_worst_case_mr_fixed_sigma_dominates_optimal():
    sigma_fixed = solve_sigma_mr(4.0).root
    for T in (0.5, 1.0, 2.0, 8.0):
        worst = worst_case_mr(T, sigma=sigma_fixed)
        assert worst >= worst_case_mr(T) - 1e-12
        # the two-point supremum bounds the ratio on the drift grid
        spec = ProblemSpec(horizon=T)
        on_grid = max(multiplicative_regret(a, GaussianPrior(sigma_fixed), spec) for a in A_GRID_DEFAULT)
        assert worst >= on_grid - 1e-15


def test_fueltax_at_reference_horizon():
    lam_r, sig_r = solve_fueltax(2.0)
    assert lam_r.converged and sig_r.converged
    assert 1.25 <= lam_r.root <= 1.35


@pytest.mark.parametrize("T", [0.5, 2.0, 8.0])
def test_fueltax_solution_meets_both_constancy_conditions(T):
    # (sigma_ft, lambda*) solves the nested formulation: the taxed ratio is
    # constant in the drift, (e0 + F0)/e0_lam = F#/e#_lam, and that constant is 1
    lam_r, sig_r = solve_fueltax(T)
    assert lam_r.converged and sig_r.converged
    spec = ProblemSpec(horizon=T)
    e0 = gains(0.0, spec).e0
    g_lam = gains(0.0, spec.with_fuel_weight(lam_r.root))
    f0, f_sharp = perf_coeffs(0.0, GaussianPrior(sig_r.root), spec)
    assert abs((e0 + f0) / g_lam.e0 - f_sharp / g_lam.e_sharp) <= 1e-9
    assert abs(f_sharp / g_lam.e_sharp - 1.0) <= 1e-8
    assert lam_r.bracket_lo <= lam_r.root <= lam_r.bracket_hi


def test_fueltax_takes_a_numpy_horizon():
    # numpy scalars warn on overflow; the widest priors of the scan pass the
    # lambda -> inf limit of e#_lambda at T = 2
    lam_r, sig_r = solve_fueltax(np.float64(2.0))
    assert lam_r.converged and sig_r.converged
    assert lam_r.root == pytest.approx(solve_fueltax(2.0)[0].root, rel=1e-12)


@pytest.mark.parametrize("T", [0.005, 0.01, 0.02, 0.05])
def test_fueltax_lambda_tends_to_its_small_horizon_limit_like_t_squared(T):
    # lambda*(0) = 1.2876026533 from the matched small-T asymptotics (mpmath);
    # the gap closes like T^2, with a coefficient of about 0.0134
    lam_r, sig_r = solve_fueltax(T)
    assert lam_r.converged and sig_r.converged
    assert 0.0133 <= (lam_r.root - 1.2876026533) / T ** 2 <= 0.0135


def test_sweep_records_and_determinism():
    grid = (0.5, 1.0, 2.0)
    t1 = sweep("sigma_mr", grid)
    t2 = sweep("sigma_mr", grid)
    assert t1.grid == grid
    assert len(t1.records) == 3
    assert t1.records == t2.records  # bit-identical
    for rec in t1.records:
        assert "error" not in rec
        assert rec["converged"]


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        sweep("sigma_mr", ())
    with pytest.raises(ValueError):
        sweep("sigma_mr", (2.0, 1.0))
    with pytest.raises(ValueError):
        sweep("sigma_mr", (-1.0, 2.0))
    with pytest.raises(ValueError):
        sweep("nonsense", (1.0,))


def test_minimax_spot_check():
    # perturbed strategies never beat the constant-regret optimum at T=2
    T = 2.0
    spec = ProblemSpec(horizon=T)
    sigma_star = solve_sigma_mr(T).root
    mr_star = worst_case_mr(T)
    a_grid = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)

    for factor in (0.9, 1.1, 0.7, 1.3):
        prior = GaussianPrior(sigma_star * factor)
        sup = max(multiplicative_regret(a, prior, spec) for a in a_grid)
        sup = max(sup, multiplicative_regret_limit(prior, spec))
        assert sup >= mr_star - 1e-8

    spec_obs = ProblemSpec(horizon=T, t_start=0.1)
    prior = GaussianPrior.improper()
    sup = max(mr_general(a, prior, spec_obs) for a in a_grid)
    sup = max(sup, mr_general_limit(prior, spec_obs))
    assert sup >= mr_star - 1e-8
