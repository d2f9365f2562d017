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
    perf_coeffs,
    regret_form,
    solve_fueltax,
    solve_sigma_mr,
    sweep,
    worst_case_mr,
)
from agnostic_control.solvers import F_TOL, T_GRID_DEFAULT
from agnostic_control import solvers


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


def test_find_root_bisects_the_scan_to_the_pair_around_the_sign_change():
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


def test_find_root_refuses_when_the_ends_agree_in_sign():
    # f > 0 at both ends, with sign changes at 1 and 3 between them: the scan
    # refuses, after evaluating the ends, then the point between them
    seen = []

    def f(x):
        seen.append(x)
        return (x - 1.0) * (x - 3.0)

    with pytest.raises(NoRootError, match=r"no sign change over scan \[0.5, 4.0\]") as exc:
        find_root(f, (0.5, 2.0, 4.0))
    assert exc.value.scan == [(0.5, 1.25), (2.0, -1.0), (4.0, 3.0)]
    assert seen == [0.5, 4.0, 2.0]


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


def test_find_root_stops_when_the_bracket_closes():
    # a step has no point with |f| <= F_TOL: once the bracket has closed to
    # adjacent floats around it, the search stops unconverged, not at _MAX_ITER
    for c in (2.0, 0.9, 37.5, 1e-3):
        r = find_root(lambda x: 1.0 if x > c else -1.0, (c / 3.0, 4.0 * c))
        assert not r.converged and r.iterations <= 64, c
        assert r.bracket_lo <= c < r.bracket_hi <= r.bracket_lo + 4.0 * math.ulp(c), c
        assert r.root in (r.bracket_lo, r.bracket_hi), c


def test_fueltax_solve_stops_when_its_residual_floor_is_reached():
    # at T = 1e-3 the residual's rounding floor exceeds F_TOL, so the sigma
    # bracket closes to adjacent floats, after 35 evaluations, well short of _MAX_ITER
    lam_r, sig_r = solve_fueltax(1e-3)
    assert not (lam_r.converged or sig_r.converged)
    assert sig_r.iterations <= 45
    assert lam_r.root == pytest.approx(1.2876026533, rel=1e-7)


def test_solves_quadrature_budget(monkeypatch):
    # one F0/F# quadrature per residual evaluation, none at the root or the
    # bracket ends, which the solve reads back; bisecting, then Newton on a
    # differenced slope made 19 and 22
    calls = []

    def counted(*args):
        calls.append(args)
        return perf_coeffs(*args)

    monkeypatch.setattr(solvers, "perf_coeffs", counted)
    solve_sigma_mr(2.0)
    assert len(calls) <= 11
    calls.clear()
    solve_fueltax(2.0)
    assert len(calls) <= 13


def test_find_root_corrects_a_guess_before_the_scan():
    seen = []

    def f(x):
        seen.append(x)
        return x * x - 2.0

    def solve(guess):
        seen.clear()
        return find_root(f, solvers._SIGMA_SCAN, guess=guess), list(seen)

    cold, cold_seen = solve(None)
    assert cold.converged and cold.slope == pytest.approx(4.0, rel=1e-6)  # df/dlog x = 2x^2
    # a good guess: secant steps from it, no scan; the bracket is the span of the iterates
    r, evals = solve((1.415, 4.0))
    assert r.converged and abs(r.residual) <= F_TOL and r.root == pytest.approx(2 ** 0.5, rel=1e-9)
    assert r.iterations == len(evals) <= 4 and r.root == evals[-1]
    assert (r.bracket_lo, r.bracket_hi) == (min(evals), max(evals))
    assert r.slope == pytest.approx(4.0, rel=1e-3)
    # a NaN guess or slope, a zero or wrong-sign slope, a guess beyond the scan or
    # one whose first step leaves it: the guess's evaluations are dropped, and
    # the solve is the cold one
    for guess in ((math.nan, 4.0), (1.415, math.nan), (1.415, 0.0), (1.415, -4.0),
                  (2e3, 4.0), (900.0, 4.0)):
        r, evals = solve(guess)
        assert r == cold, guess
        assert evals[len(evals) - len(cold_seen):] == cold_seen, guess
        assert len(evals) - len(cold_seen) <= (0 if math.isnan(guess[0]) or guess[0] > 1e3 else 2), guess
        assert r.bracket_lo <= r.root <= r.bracket_hi, guess


def test_find_root_drops_a_guess_that_runs_out_of_steps():
    # secant steps close on a triple root only linearly: after _GUESS_MAX
    # evaluations without |f| <= F_TOL the scan takes over
    seen = []

    def f(x):
        seen.append(x)
        return (math.log(x) - math.log(2.5)) ** 3

    cold = find_root(f, solvers._SIGMA_SCAN)
    n_cold = len(seen)
    seen.clear()
    r = find_root(f, solvers._SIGMA_SCAN, guess=(1.0, 3.0 * math.log(2.5) ** 2))
    assert r == cold and len(seen) == solvers._GUESS_MAX + n_cold


def test_a_failing_guess_raises_the_scan_error():
    # at T = 1e-8 neither residual changes sign over the scan; the fuel-tax
    # residual is 1 at every sigma, so no step from a guess shrinks it
    for solve, guess in ((solve_sigma_mr, (2e3, -1.0)), (solve_fueltax, (0.5, -1.0)),
                         (solve_fueltax, (0.5, 1.0))):
        with pytest.raises(NoRootError) as cold:
            solve(1e-8)
        with pytest.raises(NoRootError) as warm:
            solve(1e-8, guess=guess)
        assert str(warm.value) == str(cold.value) and warm.value.scan == cold.value.scan


@pytest.mark.parametrize("quantity", ["sigma_mr", "fueltax"])
@pytest.mark.parametrize("grid, rescans", [
    (T_GRID_DEFAULT, False),
    ((0.5, 1.0, 2.0, 4.0, 8.0), False),
    (tuple(np.logspace(-2.0, 3.0, 60)), False),
    ((1e-8, 1e-7, 1e-2, 0.1, 1.0, 10.0), None),  # NoRootError at the first two horizons
    ((1e10, float(np.nextafter(1e10, 2e10)), 2e10), None),  # the first two have one log T
    ((0.1, 0.2, 0.4, 0.8, 500.0, 1000.0), True),  # the guess at 500 fails: that point scans
], ids=["default", "readme", "logspace60", "no_root", "equal_log_T", "jump"])
def test_sweep_continuation_matches_cold_solves(monkeypatch, quantity, grid, rescans):
    scans = []
    scan = solvers._scan_bracket
    monkeypatch.setattr(solvers, "_scan_bracket", lambda f, xs: scans.append(1) or scan(f, xs))
    warm = sweep(quantity, grid).records
    # each point scans until one converges; a later one only when its guess fails
    n_cold = next(i for i, w in enumerate(warm) if w.get("converged")) + 1
    if rescans is not None:
        assert (len(scans) > n_cold) == rescans, len(scans)
    # a one-point sweep has no roots to continue from: it is the cold solve
    cold = [sweep(quantity, (T,)).records[0] for T in grid]
    key = "sigma_ft" if quantity == "fueltax" else "sigma_star"
    for w, c in zip(warm, cold):
        T = w["T"]
        assert w.get("error") == c.get("error") and w.get("converged") == c.get("converged"), T
        if not w.get("converged"):
            continue
        sigma = w[key]
        coeffs = solvers._coeffs_at_zero(T)
        if quantity == "fueltax":
            assert abs(solvers._fueltax_residual(T, coeffs)(sigma)) <= F_TOL, T
            form = regret_form(GaussianPrior(sigma), ProblemSpec(horizon=T), w["lambda_star"])
            assert abs(form(0.0) - 1.0) <= F_TOL, T
        else:
            assert abs(solvers._sigma_mr_residual(T, coeffs)(sigma)) <= F_TOL, T
        if grid is T_GRID_DEFAULT:  # F_TOL pins sigma* loosely only below T = 3.5e-2
            assert sigma == pytest.approx(c[key], rel=1e-9 if quantity == "fueltax" else 1e-6), T
    assert any(w.get("converged") for w in warm)
    assert ("error" in warm[0]) == (grid[0] == 1e-8)


def test_sweep_quadrature_budget(monkeypatch):
    # predictor-corrector continuation: 128 quadratures for sigma* (the sweep
    # of figures 1 and 2) and 135 for the fuel tax
    calls = []

    def counted(*args):
        calls.append(args)
        return perf_coeffs(*args)

    monkeypatch.setattr(solvers, "perf_coeffs", counted)
    for quantity, budget in (("sigma_mr", 140), ("fueltax", 150)):
        calls.clear()
        sweep(quantity, T_GRID_DEFAULT)
        assert len(calls) <= budget, quantity


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_T=st.floats(-8.0, 10.0))
def test_residuals_change_sign_once_over_the_scan(log_T):
    # what lets find_root bisect the scan or refuse: a residual whose scan ends
    # agree in sign has no sign change between them, and one whose ends differ
    # has exactly one; the secant steps inside it read the values, so they must
    # be finite
    T = 10.0 ** log_T
    coeffs = solvers._coeffs_at_zero(T)
    for resid in (solvers._sigma_mr_residual(T, coeffs), solvers._fueltax_residual(T, coeffs)):
        values = [resid(float(s)) for s in solvers._SIGMA_SCAN]
        assert all(math.isfinite(v) for v in values), T
        signs = [math.copysign(1.0, v) for v in values]
        changes = sum(a != b for a, b in zip(signs, signs[1:]))
        assert changes <= 1, T
        assert changes == (signs[0] != signs[-1]), T


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
        form = regret_form(GaussianPrior(sigma_fixed), spec)
        on_grid = max(form(a) for a in A_GRID_DEFAULT)
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
    assert [rec["T"] for rec in t1.records] == list(grid)
    assert t1.records == t2.records  # bit-identical
    for rec in t1.records:
        assert "error" not in rec
        assert rec["converged"]
        assert rec["mr_star_optimal"] == rec["form"](0.0)


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
        form = regret_form(GaussianPrior(sigma_star * factor), spec)
        sup = max(form(a) for a in a_grid)
        sup = max(sup, form.limit)
        assert sup >= mr_star - 1e-8

    spec_obs = ProblemSpec(horizon=T, t_start=0.1)
    prior = GaussianPrior.improper()
    form = regret_form(prior, spec_obs)
    sup = max(form(a) for a in a_grid)
    sup = max(sup, form.limit)
    assert sup >= mr_star - 1e-8
