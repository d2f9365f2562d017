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
    QuadratureError,
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
from agnostic_control import performance, solvers


def test_find_root_simple():
    r = find_root(lambda x: x * x - 2.0, 1.0, 1.0)
    assert abs(r.residual) <= F_TOL
    assert r.root == pytest.approx(2 ** 0.5, rel=1e-9)
    assert r.bracket_lo <= r.root <= r.bracket_hi
    assert r.iterations <= 200


def test_find_root_log_space():
    r = find_root(lambda x: np.log10(x) + 2.0, 1.0, 1.0)
    assert r.root == pytest.approx(1e-2, rel=1e-6)


def test_find_root_requires_sign_change():
    # no root: the walk goes downhill by factors of 4 until _MAX_ITER, and the
    # error holds every point it evaluated
    with pytest.raises(NoRootError, match="no root within 200 evaluations from x=1.0") as exc:
        find_root(lambda x: x * x + 1.0, 1.0, 1.0)
    scan = exc.value.scan
    assert len(scan) == solvers._MAX_ITER and scan[:2] == [(1.0, 2.0), (0.25, 1.0625)]
    assert all(b[0] == pytest.approx(a[0] / 4.0, rel=1e-12) for a, b in zip(scan, scan[1:]))
    assert all(fx == x * x + 1.0 for x, fx in scan)
    # a start where f is not finite has nothing to step from
    with pytest.raises(NoRootError, match=r"f\(2.0\) = -inf is not finite") as exc:
        find_root(lambda x: -math.inf, 2.0, 1.0)
    assert exc.value.scan == [(2.0, -math.inf)]


def test_find_root_halves_an_end_kept_twice():
    # x^4 - 16 is convex, so the secant keeps the end at 4; without the halving
    # the search takes 17 evaluations, and on x^10 - 1024 it reaches _MAX_ITER
    r = find_root(lambda x: x ** 4 - 16.0, 1.0, 4.0)
    assert abs(r.residual) <= F_TOL and r.root == pytest.approx(2.0, rel=1e-9)
    assert r.iterations == 14
    r = find_root(lambda x: x ** 10 - 1024.0, 1.0, 10.0)
    assert abs(r.residual) <= F_TOL and r.root == pytest.approx(2.0, rel=1e-9)
    assert r.iterations == 21


def test_find_root_bisects_when_the_secant_is_not_finite():
    # the first step is cut to a factor of 4, onto -inf: the secant through it
    # is not finite, so the bracket [1, 4] is bisected
    r = find_root(lambda x: 2.0 - x if x <= 3.0 else -math.inf, 1.0, -0.1)
    assert abs(r.residual) <= F_TOL and r.root == pytest.approx(2.0, rel=1e-9)
    assert 1.0 <= r.bracket_lo <= r.root <= r.bracket_hi <= 4.0
    assert r.iterations == 3


def test_find_root_stops_when_the_bracket_closes():
    # a step has no point with |f| <= F_TOL: once the bracket has closed to
    # adjacent floats in log x around c, the search raises, not at _MAX_ITER
    for c in (2.0, 0.9, 37.5, 1e-3):
        with pytest.raises(NoRootError, match=r"the bracket closed on \[") as exc:
            find_root(lambda x: 1.0 if x > c else -1.0, c / 3.0, 1.0)
        scan = exc.value.scan
        assert len(scan) <= 64, c
        # the nearest points evaluated on either side of c
        lo = max(x for x, fx in scan if fx < 0.0)
        hi = min(x for x, fx in scan if fx > 0.0)
        assert lo <= c < hi <= lo + 4.0 * math.ulp(c), c
        assert f"[{lo!r}, {hi!r}]" in str(exc.value), c


def test_find_root_walks_from_its_start():
    seen = []

    def f(x):
        seen.append(x)
        return x * x - 2.0

    def solve(x, slope):
        seen.clear()
        return find_root(f, x, slope), list(seen)

    # a good start: secant steps from it, no bracket; the bracket is the span
    # of the iterates, and the slope the last secant's (df/dlog x = 2x^2)
    r, evals = solve(1.415, 4.0)
    assert abs(r.residual) <= F_TOL and r.root == pytest.approx(2 ** 0.5, rel=1e-9)
    assert r.iterations == len(evals) <= 4 and r.root == evals[-1]
    assert (r.bracket_lo, r.bracket_hi) == (min(evals), max(evals))
    assert r.slope == pytest.approx(4.0, rel=1e-3)
    # a far start, or a first step that is not finite: steps downhill of at
    # most a factor of 4 until the sign changes, the first a full one when
    # slope gives no finite step
    for x, slope in ((1e-3, 4.0), (1e3, 4.0), (0.5, math.nan), (0.5, 0.0), (0.5, math.inf)):
        r, evals = solve(x, slope)
        assert abs(r.residual) <= F_TOL and r.root == pytest.approx(2 ** 0.5, rel=1e-9), (x, slope)
        crossed = next((i for i, v in enumerate(evals) if (v > 2 ** 0.5) != (x > 2 ** 0.5)),
                       len(evals) - 1)
        steps = [b / a if x < 1.0 else a / b for a, b in zip(evals, evals[1:crossed + 1])]
        assert all(1.0 < q <= 4.0 * (1.0 + 1e-12) for q in steps), (x, slope)
        if x == 0.5:
            assert steps == [pytest.approx(4.0, rel=1e-12)], slope
    # the sign of slope says which way is downhill: the same start and a slope
    # of the wrong sign walk away from the root until _MAX_ITER
    with pytest.raises(NoRootError):
        solve(0.5, -4.0)


def _count_quadratures(monkeypatch) -> tuple[list, list]:
    """The (table, c) of every coefficient evaluation performance makes and
    the (t, a, T) of every node table it builds, as two lists the caller
    clears."""
    evals, tables = [], []
    coeffs_from, node_table = performance._coeffs_from, performance._node_table

    def counted_eval(table, c):
        evals.append((table, c))
        return coeffs_from(table, c)

    def counted_table(*args):
        tables.append(args)
        return node_table(*args)

    monkeypatch.setattr(performance, "_coeffs_from", counted_eval)
    monkeypatch.setattr(performance, "_node_table", counted_table)
    return evals, tables


def test_solves_quadrature_budget(monkeypatch):
    # one coefficient evaluation per residual evaluation, none at the root or
    # the bracket ends, which the solve reads back, and all from the one node
    # table built at the first sigma; a solve starts at its predicted root,
    # where bisecting a 31-point scan first took 11 (sigma*) and 13 at T = 2
    evals, tables = _count_quadratures(monkeypatch)
    for T in (0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        for solve in (solve_sigma_mr, solve_fueltax):
            evals.clear(), tables.clear()
            solve(T)
            assert len(evals) <= 6 and len(tables) == 1, (solve.__name__, T)
            assert evals[0][1] == tables[0][1], (solve.__name__, T)  # the first at its anchor


def test_large_horizon_solves_stay_on_one_node_table(monkeypatch):
    # past T = 20 a solve starts at K (log10 T)^m, within 1.1 % of its root, so
    # it never leaves the c/a window of its first table; from 2C/5, 1.65-3.7
    # times the root, it took up to 11 quadratures here
    evals, tables = _count_quadratures(monkeypatch)
    for T in np.logspace(1.4, 10.0, 25):
        for solve, start in ((solve_sigma_mr, solvers._SIGMA_MR_START),
                             (solve_fueltax, solvers._FUELTAX_START)):
            evals.clear(), tables.clear()
            r = solve(float(T))
            root = (r[1] if isinstance(r, tuple) else r).root
            assert len(evals) <= 7 and len(tables) == 1, (solve.__name__, T)
            assert solvers._start(start, float(T))[0] == pytest.approx(root, rel=0.011), T


def _coeffs_at_zero(T):
    """performance.coefficients at t = 0 and horizon T, as the solves read it."""
    return performance.coefficients(0.0, ProblemSpec(horizon=T))


@pytest.mark.parametrize("quantity", ["sigma_mr", "fueltax"])
@pytest.mark.parametrize("grid", [
    T_GRID_DEFAULT,
    (0.5, 1.0, 2.0, 4.0, 8.0),
    tuple(np.logspace(-2.0, 3.0, 60)),
    (1e-70, 1e-69, 1e-2, 0.1, 1.0, 10.0),  # F0 underflows to 0: NoRootError at the first two horizons
    (1e10, float(np.nextafter(1e10, 2e10)), 2e10),  # the first two have one log T
    (0.1, 0.2, 0.4, 0.8, 500.0, 1000.0),  # the guess at 500 is far off: it walks
], ids=["default", "readme", "logspace60", "no_root", "equal_log_T", "jump"])
def test_sweep_continuation_matches_cold_solves(quantity, grid):
    warm = sweep(quantity, grid).records
    # a one-point sweep has no roots to continue from: it is the cold solve
    cold = [sweep(quantity, (T,)).records[0] for T in grid]
    key = "sigma_ft" if quantity == "fueltax" else "sigma_star"
    for w, c in zip(warm, cold):
        T = w["T"]
        assert w.get("error") == c.get("error"), T
        if "error" in w:
            continue
        sigma = w[key]
        coeffs = _coeffs_at_zero(T)
        if quantity == "fueltax":
            assert abs(solvers._fueltax_residual(T, coeffs, {})(sigma)) <= F_TOL, T
            form = regret_form(GaussianPrior(sigma), ProblemSpec(horizon=T), w["lambda_star"])
            assert abs(form(0.0) - 1.0) <= F_TOL, T
        else:
            assert abs(solvers._sigma_mr_residual(T, coeffs)(sigma)) <= F_TOL, T
        if grid is T_GRID_DEFAULT:
            assert sigma == pytest.approx(c[key], rel=1e-9 if quantity == "fueltax" else 1e-6), T
    assert any("error" not in w for w in warm)
    assert ("error" in warm[0]) == (grid[0] == 1e-70)


def test_sweep_quadrature_budget(monkeypatch):
    # predictor-corrector continuation: 124 coefficient evaluations for sigma*
    # (the sweep of figures 1 and 2) and 125 for the fuel tax, from one node
    # table per horizon
    evals, tables = _count_quadratures(monkeypatch)
    for quantity, budget in (("sigma_mr", 140), ("fueltax", 150)):
        evals.clear(), tables.clear()
        sweep(quantity, T_GRID_DEFAULT)
        assert len(evals) <= budget, quantity
        assert len(tables) == len(T_GRID_DEFAULT), quantity


def test_off_anchor_rule_disagreement_is_a_sweep_error(monkeypatch):
    # a half-node disagreement off a table's anchor builds a table at that
    # sigma, and the solve converges; one at the anchor raises
    # QuadratureError, which the sweep records as the point's error
    perturbed = performance._WEIGHTS.copy()
    perturbed[performance._N_NODES:] *= 1.0 + 1e-6  # the half-node rule's weights
    reference = solve_sigma_mr(2.0).root
    _, tables = _count_quadratures(monkeypatch)
    counted, refused, everywhere = performance._coeffs_from, [], []

    def perturbed_off_anchor(table, c):
        if c == table.a and not everywhere:
            return counted(table, c)
        refused.append(c)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(performance, "_WEIGHTS", perturbed)
            return counted(table, c)

    monkeypatch.setattr(performance, "_coeffs_from", perturbed_off_anchor)
    sr = solve_sigma_mr(2.0)
    assert abs(sr.residual) <= F_TOL and sr.root == pytest.approx(reference, rel=1e-9)
    # each sigma after the first was refused off the last table and evaluated at its own
    assert len(refused) == sr.iterations - 1 and len(tables) == sr.iterations
    everywhere.append(True)
    with pytest.raises(QuadratureError):
        solve_sigma_mr(2.0)
    for rec in sweep("fueltax", (1.0, 2.0)).records:
        assert set(rec) == {"T", "error"}
        assert rec["error"].startswith("QuadratureError: 48- and 24-node rules disagree at t=0.0")


def test_a_failing_guess_raises_the_scan_error():
    # at T = 1e-70 F0 underflows to 0, so neither residual is finite where a
    # solve starts: with a guess or without, it raises NoRootError whose .scan
    # holds the one point it evaluated
    for solve, start, guess in ((solve_sigma_mr, solvers._SIGMA_MR_START, (2e3, -1.0)),
                                (solve_fueltax, solvers._FUELTAX_START, (0.5, -1.0))):
        for g in (None, guess):
            sigma = (g or solvers._start(start, 1e-70))[0]
            message = f"F0 underflows to 0 at sigma={sigma!r}, T=1e-70, so the residual is not finite"
            with pytest.raises(NoRootError) as exc:
                solve(1e-70, guess=g)
            assert str(exc.value) == message
            assert exc.value.scan == [(sigma, -math.inf)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_T=st.floats(-8.0, 10.0))
def test_residuals_change_sign_once_over_the_scan(log_T):
    # what lets find_root walk downhill by the sign of its slope: over sigma
    # from 4^-4 to 4^4 times each solve's start, each residual is finite and
    # falls from positive to negative, changing sign once
    T = 10.0 ** log_T
    coeffs = _coeffs_at_zero(T)
    for resid, start in ((solvers._sigma_mr_residual(T, coeffs), solvers._SIGMA_MR_START),
                         (solvers._fueltax_residual(T, coeffs, {}), solvers._FUELTAX_START)):
        sigma_0, slope = solvers._start(start, T)
        values = [resid(sigma_0 * 4.0 ** k) for k in range(-4, 5)]
        assert all(math.isfinite(v) for v in values), T
        assert values[0] > 0.0 > values[-1] and slope < 0.0, T
        assert sum((a > 0.0) != (b > 0.0) for a, b in zip(values, values[1:])) == 1, T


def test_solves_converge_from_tiny_to_huge_horizons():
    # the scale-free residuals and the walk from the predicted start: both
    # solves converge over 18 decades of T, none near _MAX_ITER
    for T in np.logspace(-8.0, 10.0, 73):
        sr = solve_sigma_mr(float(T))
        lam_r, sig_r = solve_fueltax(float(T))
        assert max(abs(sr.residual), abs(lam_r.residual), abs(sig_r.residual)) <= F_TOL, T
        assert max(sr.iterations, sig_r.iterations) <= 20, T
    assert solve_sigma_mr(1e10).root == pytest.approx(0.2289502, rel=1e-6)
    assert solve_sigma_mr(1e-4).root == pytest.approx(196.24659, rel=1e-6)


def test_roots_reach_their_small_horizon_limits():
    # sigma* sqrt(T) -> 1.962466, sigma_ft sqrt(T) -> 1.5212 and lambda* ->
    # 1.2876026533, each with a gap of order T; the limits are 1/sqrt(c) for
    # the roots c of 3 c^2 J0(c) = 2 J1(c) (sigma*) and of 3 J1(c) = (15/8)
    # c^2 J0(c) (the fuel tax), derived in the two closed-form tests below
    T = 1e-6
    assert abs(solve_sigma_mr(T).root * math.sqrt(T) - 1.962466) <= 1e-6
    lam_r, sig_r = solve_fueltax(T)
    assert abs(sig_r.root * math.sqrt(T) - 1.5212) <= 1e-4
    assert abs(lam_r.root - 1.2876026533) <= 1e-8


def test_sigma_mr_solve_reaches_its_closed_form_small_horizon_limit():
    # with tau = theta T and p = c T, the balance that makes the cost ratio
    # constant in a reduces at T -> 0 to 3 c^2 J0(c) = 2 J1(c), and sigma*
    # sqrt(T) = 1/sqrt(c), where J_k = int_0^1 theta^k (1 - theta)^4/(theta +
    # c)^2 d theta
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        j = lambda k, c: mpmath.quad(lambda th: th ** k * (1 - th) ** 4 / (th + c) ** 2, [0, 1])
        c = mpmath.findroot(lambda c: 3 * c * c * j(0, c) - 2 * j(1, c), 0.26)
        c_0, sigma_0 = float(c), float(1 / mpmath.sqrt(c))
    assert c_0 == pytest.approx(0.25965445185231, abs=1e-13)
    assert sigma_0 == pytest.approx(1.9624658742865, abs=1e-13)
    for T in (1e-2, 1e-3, 1e-4, 1e-6):
        # the gaps are of order T^2 down to the floor F_TOL sets: 5.7e-6 at
        # T = 1e-2, 5.7e-8 at 1e-3, 5.7e-10 at 1e-4 and 1.8e-10 at 1e-6
        assert abs(solve_sigma_mr(T).root * math.sqrt(T) - sigma_0) <= 0.1 * T * T + 1e-9, T


def test_fueltax_solve_reaches_its_closed_form_small_horizon_limit():
    # with tau = theta T and p = c T, the fuel tax at T -> 0 reduces to
    # 3 J1(c) = (15/8) c^2 J0(c), lambda* = 1/(1 - 3 J1(c)) and sigma_ft sqrt(T)
    # = 1/sqrt(c), where J_k = int_0^1 theta^k (1 - theta)^4/(theta + c)^2 d theta
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        j = lambda k, c: mpmath.quad(lambda th: th ** k * (1 - th) ** 4 / (th + c) ** 2, [0, 1])
        c = mpmath.findroot(lambda c: 3 * j(1, c) - mpmath.mpf(15) / 8 * c * c * j(0, c), 0.43)
        lam_0, sigma_0 = float(1 / (1 - 3 * j(1, c))), float(1 / mpmath.sqrt(c))
    assert lam_0 == pytest.approx(1.2876026532642, abs=1e-13)
    assert sigma_0 == pytest.approx(1.5212028925487, abs=1e-13)
    for T in (1e-3, 1e-4, 1e-6):
        lam_r, sig_r = solve_fueltax(T)
        # the gaps are of order T^2: 1.3e-8 and 4.6e-8 at T = 1e-3
        assert abs(lam_r.root - lam_0) <= 0.1 * T * T + 1e-13, T
        assert abs(sig_r.root * math.sqrt(T) - sigma_0) <= 0.1 * T * T + 1e-13, T


@pytest.mark.parametrize("T", [1e6, 1e8, 1e10])
def test_sigma_mr_solve_reaches_its_lambert_w_large_horizon_limit(T):
    """p* = sigma*^-2 -> W(T/e) and MR* - 1 -> W(T/e)/T as T -> infinity,
    with W Lambert's function.

    At t = 0, with p fixed and T -> infinity, e1/2 = 1 - sech(T - tau) is 1
    but within O(1) of tau = T, so that
        F0 = p^2 int_0^T (e1/2)^2/(tau + p)^2 dtau -> p,
        F# - e# = int_0^T tau (e1/2)^2/(tau + p)^2 dtau -> log(T/p) - 1,
    while e# = log cosh T and e0 = T - tanh T both grow like T: e#/e0 =
    1 + O(1/T).  The balance the solve zeroes, (F# - e#)/e# = F0/e0, becomes
    p = log(T/p) - 1, that is p e^p = T/e, so p* -> W(T/e), and MR* - 1 =
    F0/e0 -> p*/T -> W(T/e)/T.  The terms dropped are of relative order
    log(T)/T: the gaps measured 0.79-0.85 log(T)/T for p* and under 0.11
    log(T)/T for MR* - 1, held here to 2 log(T)/T.  MR* - 1 is taken as
    F0/e0 from the solve's own quadrature and gain: 1 subtracted from the
    float MR* keeps only about 7 digits at T = 1e10, where it is 1.9e-9.
    """
    mpmath = pytest.importorskip("mpmath")
    bound = 2.0 * math.log(T) / T
    spec = ProblemSpec(horizon=T)
    w = float(mpmath.lambertw(T / math.e))
    p = GaussianPrior(solve_sigma_mr(T).root).precision
    assert abs(p / w - 1.0) <= bound
    f0, _ = performance.coefficients(0.0, spec)(p)
    assert abs(f0 / gains(0.0, spec).e0 / (w / T) - 1.0) <= bound


@pytest.mark.parametrize("T", [1e6, 1e8, 1e10])
def test_fueltax_solve_reaches_its_lambert_w_large_horizon_limit(T):
    """p_ft = sigma_ft^-2 -> 2 W(T/(2e)) and lambda* - 1 -> 2 W(T/(2e))/T as
    T -> infinity.

    With lambda = 1 + mu, the taxed opponent's gaps at t = 0 grow as
    e0_lambda - e0 = mu T + O(mu) and e#_lambda - e# = mu T/2 + O(mu)
    (model.e0_gap, model.e_sharp_gap).  With F0 -> p and F# - e# -> log(T/p)
    - 1 as for sigma*, the solve's two conditions, F0 = e0_lambda - e0 and
    F# - e# = e#_lambda - e#, become p = mu T and log(T/p) - 1 = p/2, that
    is (p/2) e^(p/2) = T/(2e): p_ft -> 2 W(T/(2e)) and lambda* - 1 = p_ft/T.
    The gaps measured 1.86-2.05 log(T)/T for p_ft and 0.52-0.54 log(T)/T for
    lambda* - 1 at 1e6 and 1e8, held here to 4 log(T)/T.  lambda* is a float
    near 1, so lambda* - 1 is known to an ulp of lambda* only: at T = 1e10
    that ulp is 5.4e-8 of it (23 log(T)/T), and the gap read 12 log(T)/T
    there.  The bound adds that ulp.
    """
    mpmath = pytest.importorskip("mpmath")
    bound = 4.0 * math.log(T) / T
    w2 = 2.0 * float(mpmath.lambertw(T / (2.0 * math.e)))
    lam_r, sig_r = solve_fueltax(T)
    assert abs(GaussianPrior(sig_r.root).precision / w2 - 1.0) <= bound
    assert abs((lam_r.root - 1.0) - w2 / T) <= bound * w2 / T + math.ulp(lam_r.root)


def test_fueltax_solves_evaluate_the_small_horizon_gaps_only_where_they_are_precise(monkeypatch):
    # below T = 1 model.e_sharp_gap and e0_gap form s = T/sqrt(1 + mu), which
    # is good to about 1e-16/mu relative; lambda* is near 1.29 there, and no
    # solve asks for a mu below 0.22
    seen = []
    for name in ("e_sharp_gap", "e0_gap"):
        gap = getattr(solvers, name)
        monkeypatch.setattr(solvers, name, lambda T, mu, gap=gap: seen.append((T, mu)) or gap(T, mu))
    sweep("fueltax", tuple(np.logspace(-8.0, 10.0, 73)))
    sweep("fueltax", T_GRID_DEFAULT)
    for T in (1e-6, 1e-3, 0.1, 0.5, 0.9):
        solve_fueltax(T)
    small_horizon = [mu for T, mu in seen if T < 1.0]
    assert len(small_horizon) > 700 and min(small_horizon) >= 0.1


def test_fueltax_solve_converges_where_the_differences_cancelled():
    # at T = 1e-3 e#_lambda - e# and e0_lambda - e0 are differences of numbers
    # near T^2/2 and T^3/3; formed from their series, the solve converges
    lam_r, sig_r = solve_fueltax(1e-3)
    assert abs(lam_r.residual) <= F_TOL and abs(sig_r.residual) <= F_TOL
    assert sig_r.iterations <= 6
    assert lam_r.root == pytest.approx(1.2876026533, rel=1e-7)


def test_fueltax_gaps_keep_their_precision_as_lambda_tends_to_1():
    # lambda* - 1 falls like 1/T, to 2e-5 at T = 1e6; the gaps are formed
    # from mu = lambda - 1, where 1 + mu as a float rounded mu to 1e-16
    mpmath = pytest.importorskip("mpmath")
    from agnostic_control.model import e0_gap, e_sharp_gap

    with mpmath.workdps(40):
        for T in (1.0, 1.5, 20.0, 1e3, 1e6, 1e10):
            for mu in (1e-12, 1e-8, 1e-4, 0.3, 3.0, 100.0):
                lam, s = 1 + mpmath.mpf(mu), T / mpmath.sqrt(1 + mpmath.mpf(mu))
                lc = lambda x: mpmath.log(mpmath.cosh(x))
                es_ref = lam * lc(s) - lc(T)
                e0_ref = lam * mpmath.sqrt(lam) * (s - mpmath.tanh(s)) - (T - mpmath.tanh(T))
                assert abs(e_sharp_gap(T, mu) - es_ref) <= 3e-14 * es_ref, (T, mu)
                assert abs(e0_gap(T, mu) - e0_ref) <= 3e-14 * e0_ref, (T, mu)


def test_fueltax_residual_is_smooth_at_long_horizons():
    # with lambda carried as 1 + mu, a float near 1, the residual jumped by
    # 4e-9 > F_TOL between neighbouring sigma at T = 3.7e8, and the solves at
    # T = 1.8e9 and 7.3e9 raised NoRootError when the root fell in a jump
    T = float(np.logspace(1.4, 10.0, 25)[20])
    _, sig_r = solve_fueltax(T)
    resid = solvers._fueltax_residual(T, _coeffs_at_zero(T), {})
    values = [resid(sig_r.root * (1.0 + k * 1e-10)) for k in range(-10, 11)]
    steps = np.diff(values)
    assert np.all(steps < 0.0) and steps.min() >= 2.0 * steps.max(), steps
    for T in np.logspace(6.0, 10.0, 120):
        lam_r, sig_r = solve_fueltax(float(T))
        assert max(abs(lam_r.residual), abs(sig_r.residual)) <= F_TOL, T


def test_fueltax_solve_raises_where_the_ratio_misses_1(monkeypatch):
    # a sigma root whose taxed ratio at a = 0 is off 1 by more than F_TOL is
    # no solve: NoRootError, never a result to check
    form = performance.RegretForm
    monkeypatch.setattr(performance, "RegretForm",
                        lambda alpha, *rest: form(alpha * (1.0 + 1e-6), *rest))
    with pytest.raises(NoRootError, match=r"the taxed cost ratio at sigma_ft=.* is 1 \+ "):
        solve_fueltax(2.0)


def test_sigma_mr_certified_constant():
    r = solve_sigma_mr(2.0)
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
    assert abs(lam_r.residual) <= F_TOL and abs(sig_r.residual) <= F_TOL
    assert 1.25 <= lam_r.root <= 1.35


@pytest.mark.parametrize("T", [0.5, 2.0, 8.0])
def test_fueltax_solution_meets_both_constancy_conditions(T):
    # (sigma_ft, lambda*) solves the nested formulation: the taxed ratio is
    # constant in the drift, (e0 + F0)/e0_lam = F#/e#_lam, and that constant is 1
    lam_r, sig_r = solve_fueltax(T)
    assert abs(lam_r.residual) <= F_TOL and abs(sig_r.residual) <= F_TOL
    spec = ProblemSpec(horizon=T)
    e0 = gains(0.0, spec).e0
    g_lam = gains(0.0, spec.with_fuel_weight(lam_r.root))
    f0, f_sharp = perf_coeffs(0.0, GaussianPrior(sig_r.root), spec)
    assert abs((e0 + f0) / g_lam.e0 - f_sharp / g_lam.e_sharp) <= 1e-9
    assert abs(f_sharp / g_lam.e_sharp - 1.0) <= 1e-8
    assert lam_r.bracket_lo <= lam_r.root <= lam_r.bracket_hi


def test_fueltax_takes_a_numpy_horizon():
    # numpy scalars warn on overflow, which a numpy horizon must not reach
    lam_r, sig_r = solve_fueltax(np.float64(2.0))
    assert abs(lam_r.residual) <= F_TOL and abs(sig_r.residual) <= F_TOL
    assert lam_r.root == pytest.approx(solve_fueltax(2.0)[0].root, rel=1e-12)


@pytest.mark.parametrize("T", [0.005, 0.01, 0.02, 0.05])
def test_fueltax_lambda_tends_to_its_small_horizon_limit_like_t_squared(T):
    # lambda*(0) = 1.2876026533 from the matched small-T asymptotics (mpmath);
    # the gap closes like T^2, with a coefficient of about 0.0134
    lam_r, sig_r = solve_fueltax(T)
    assert abs(lam_r.residual) <= F_TOL and abs(sig_r.residual) <= F_TOL
    assert 0.0133 <= (lam_r.root - 1.2876026533) / T ** 2 <= 0.0135


def test_sweep_records_and_determinism():
    grid = (0.5, 1.0, 2.0)
    t1 = sweep("sigma_mr", grid)
    t2 = sweep("sigma_mr", grid)
    assert [rec["T"] for rec in t1.records] == list(grid)
    assert t1.records == t2.records  # bit-identical
    for rec in t1.records:
        # plain floats, the ratio and its supremum those of the form at sigma*
        assert set(rec) == {"T", "sigma_star", "mr_star_optimal", "mr_star_sup"}
        assert all(type(v) is float for v in rec.values())
        form = regret_form(GaussianPrior(rec["sigma_star"]), ProblemSpec(horizon=rec["T"]))
        assert (rec["mr_star_optimal"], rec["mr_star_sup"]) == (form(0.0), form.sup)


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
