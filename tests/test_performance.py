"""F0/F# coefficients and the three regret functionals."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agnostic_control import (
    DomainError,
    GaussianPrior,
    ProblemSpec,
    QuadratureError,
    SimConfig,
    SingularityError,
    bayes_cost,
    fueltax_ratio,
    gains,
    make_strategy,
    perf_coeffs,
    perf_coeffs_rk4,
    regret_form,
    value_known_a,
)
from agnostic_control import performance
from agnostic_control.model import _check_time, log_cosh
from agnostic_control.simulate import analytic_cost

IMPROPER = GaussianPrior.improper()


def test_terminal_values_vanish():
    spec = ProblemSpec(horizon=1.5)
    for prior in (GaussianPrior(0.5), GaussianPrior(2.0), IMPROPER):
        f0, f_sharp = perf_coeffs(1.5, prior, spec)
        assert f0 == 0.0
        assert f_sharp == 0.0


def test_coeffs_nonnegative_and_dominate_esharp():
    spec = ProblemSpec(horizon=2.0)
    for prior in (GaussianPrior(1.0), IMPROPER):
        for t in (0.1, 0.5, 1.0, 1.9):
            f0, f_sharp = perf_coeffs(t, prior, spec)
            assert f0 >= 0.0
            assert f_sharp >= gains(t, spec).e_sharp


def test_f0_at_zero_matches_direct_quadrature():
    # independent direct evaluation of the defining integral, sigma = 1, T = 1
    mpmath = pytest.importorskip("mpmath")

    spec = ProblemSpec(horizon=1.0)
    e1 = lambda tau: 2.0 * (1.0 - mpmath.sech(1.0 - tau))
    direct = mpmath.quad(lambda tau: e1(tau) ** 2 / (4.0 * (tau + 1.0) ** 2), [0.0, 1.0])
    f0, _ = perf_coeffs(0.0, GaussianPrior(1.0), spec)
    assert f0 == pytest.approx(float(direct), rel=1e-9)


def _coeffs_mpmath(mpmath, t, sigma, T):
    """(F0, F#) from the defining tau-space integrals at 30 digits, split at
    t + (t+p) 10^k (the 1/(tau+p)^2 peak) and at T - 20, T - 5, T - 1 (the
    rise of e1 near the horizon)."""
    with mpmath.workdps(30):
        t, T = mpmath.mpf(t), mpmath.mpf(T)
        p = 0 if math.isinf(sigma) else 1 / mpmath.mpf(sigma) ** 2
        c = t + p
        f = lambda tau: (1 - mpmath.sech(T - tau)) ** 2 / (tau + p) ** 2
        cuts = [t + c * mpmath.mpf(10) ** k for k in range(-2, 8)] + [T - s for s in (20, 5, 1)]
        pts = [t] + sorted(x for x in cuts if t < x < T) + [T]
        f0 = c * c * mpmath.quad(f, pts)
        f_sharp = mpmath.log(mpmath.cosh(T - t)) + mpmath.quad(lambda tau: (tau - t) * f(tau), pts)
        return float(f0), float(f_sharp)


@pytest.mark.parametrize(
    "t, sigma, T",
    [
        (0.0, 1.0, 1.0),
        (0.0, 1e-3, 0.1),
        (0.107, 1e-3, 0.119),
        (0.025, 0.0018, 0.05),
        (0.04995, 1.0, 0.05),
        (0.0, 100.0, 2.0),
        (1.0, math.inf, 8.0),
        (0.0, 1e3, 20.0),
        (15.0, 0.05, 50.0),
        (0.0, 0.3, 5000.0),
        (1500.0, math.inf, 5000.0),
    ],
)
def test_coeffs_match_mpmath(t, sigma, T):
    mpmath = pytest.importorskip("mpmath")
    got = perf_coeffs(t, GaussianPrior(sigma), ProblemSpec(horizon=T))
    for value, ref in zip(got, _coeffs_mpmath(mpmath, t, sigma, T)):
        assert abs(value - ref) <= 1e-12 * ref


def _coeffs_mpmath_w(mpmath, t, sigma, T):
    """(F0, F#) at 30 digits from the integrals in w = log1p((tau - t)/c),
    c = t + p, which stay smooth however small c is; split where tau - t is
    (T - t) 2^-k and at T - 20, T - 5, T - 1."""
    with mpmath.workdps(30):
        t, T = mpmath.mpf(t), mpmath.mpf(T)
        c = t + (0 if math.isinf(sigma) else 1 / mpmath.mpf(sigma) ** 2)
        span = T - t
        e1_sq_4 = lambda w: (1 - mpmath.sech(span - c * mpmath.expm1(w))) ** 2
        xs = [span * 2.0 ** -k for k in range(12)] + [span - s for s in (20, 5, 1) if s < span]
        pts = sorted({mpmath.log1p(x / c) for x in xs} | {0})
        i0 = mpmath.quad(lambda w: e1_sq_4(w) * mpmath.exp(-w), pts)
        tail = mpmath.quad(lambda w: e1_sq_4(w) * -mpmath.expm1(-w), pts)
        return float(c * i0), float(mpmath.log(mpmath.cosh(span)) + tail)


@pytest.mark.parametrize(
    "t, sigma, T",
    [
        (1e-30, math.inf, 2.0),
        (1e-300, math.inf, 0.05),
        (0.0, 1e150, 2.0),  # precision 1e-300
        (1e-300, math.inf, 50.0),
    ],
)
def test_coeffs_match_mpmath_for_tiny_t_plus_p(t, sigma, T):
    # t + p far below T - t: the first panels span w ~ log(T/(t + p)), up to 690
    mpmath = pytest.importorskip("mpmath")
    got = perf_coeffs(t, GaussianPrior(sigma), ProblemSpec(horizon=T))
    for value, ref in zip(got, _coeffs_mpmath_w(mpmath, t, sigma, T)):
        assert abs(value - ref) <= 1e-12 * ref


@pytest.mark.parametrize(
    "t, sigma, T",
    [(0.0, 100.0, 2.0), (0.0, 1e3, 2.0), (0.0, 10.0, 50.0), (0.05, math.inf, 50.0)],
)
def test_rk4_matches_mpmath_where_equal_steps_were_unstable(t, sigma, T):
    # 8000 equal steps left RK4's stability interval near tau = t, where
    # 2h/(tau + p) > 2.8: they were off by 2.9e-3, 1e2, 4.7e-6 and 1.8e-8 here
    mpmath = pytest.importorskip("mpmath")
    got = perf_coeffs_rk4(t, GaussianPrior(sigma), ProblemSpec(horizon=T))
    for value, ref in zip(got, _coeffs_mpmath(mpmath, t, sigma, T)):
        assert abs(value - ref) <= 1e-11 * ref


def test_rk4_grid_runs_exactly_from_T_to_t():
    assert perf_coeffs_rk4(2.0, GaussianPrior(1.0), ProblemSpec(horizon=2.0)) == (0.0, 0.0)
    for t, p, T in ((0.0, 1e-6, 2.0), (0.05, 0.0, 50.0), (0.107, 1e6, 0.119), (1500.0, 0.0, 5000.0)):
        nodes = performance._rk4_nodes(t, p, T)
        assert nodes.size == performance._RK4_STEPS + 1
        assert nodes[0] == T and nodes[-1] == t
        assert np.all(np.diff(nodes) < 0.0), (t, p, T)
    # a subnormal precision, 1e-320: (T - t)/(t + p) overflows, and the grid
    # refuses it as the quadrature does (equal steps returned F0 = 225)
    with pytest.raises(SingularityError, match="overflows"):
        perf_coeffs_rk4(0.0, GaussianPrior(1e160), ProblemSpec(horizon=2.0))


@pytest.mark.parametrize("t, sigma, T", [(0.0, 1e150, 2.0), (1e-300, math.inf, 50.0)])
def test_rk4_refuses_where_the_square_of_t_plus_p_underflows(t, sigma, T):
    # (t + p)^2 = 1e-600 underflows to 0, and F0 / (tau + p)^2 gave F# = inf
    # (the quadrature gives 372.76 and 742.95 here)
    with pytest.raises(SingularityError, match="underflows"):
        perf_coeffs_rk4(t, GaussianPrior(sigma), ProblemSpec(horizon=T))


def test_disagreeing_half_node_rule_raises(monkeypatch):
    perturbed = performance._WEIGHTS.copy()
    perturbed[performance._N_NODES :] *= 1.0 + 1e-6  # the half-node rule's weights
    monkeypatch.setattr(performance, "_WEIGHTS", perturbed)
    with pytest.raises(QuadratureError):
        perf_coeffs(0.0, GaussianPrior(1.25), ProblemSpec(horizon=1.75))


def test_import_loads_no_dependency_but_numpy():
    # numpy is the one run-time dependency; nothing else outside the standard
    # library may load with the package
    src = os.path.dirname(os.path.dirname(performance.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; before = set(sys.modules); import agnostic_control; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names)))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['agnostic_control', 'numpy']"


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, prior: perf_coeffs(math.nan, prior, spec),
        lambda spec, prior: perf_coeffs_rk4(math.nan, prior, spec),
        lambda spec, prior: bayes_cost(0.1, 0.2, 0.5, math.nan, prior, spec),
        lambda spec, prior: regret_form(prior, ProblemSpec(horizon=2.0, t_start=0.5), additive=True)(math.inf),
        lambda spec, prior: regret_form(prior, spec)(math.nan),
        lambda spec, prior: fueltax_ratio(-math.inf, prior, 2.0, spec),
        # the opponent's cost is the known-a strategy's; SimConfig refuses a NaN drift
        lambda spec, prior: analytic_cost(make_strategy("known_a", a=1.0), SimConfig(spec, a_true=math.nan)),
        # finite, but a^2 overflows
        lambda spec, prior: regret_form(prior, spec)(1e200),
        lambda spec, prior: fueltax_ratio(-1e200, prior, 2.0, spec),
        lambda spec, prior: analytic_cost(make_strategy("known_a", a=1e200), SimConfig(spec, a_true=1e200)),
        # a^2 is finite, the opponent's cost e0 a^2 is not
        lambda spec, prior: regret_form(prior, ProblemSpec(horizon=1e250))(1e100),
    ],
    ids=["perf_coeffs-t", "perf_coeffs_rk4-t", "bayes_cost-a", "additive_regret-a",
         "multiplicative_regret-a", "fueltax_ratio-a", "opponent_cost-a",
         "multiplicative_regret-1e200", "fueltax_ratio-1e200", "opponent_cost-1e200",
         "multiplicative_regret-cost-overflow"],
)
def test_non_finite_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call(ProblemSpec(horizon=2.0), GaussianPrior(1.0))


def test_improper_singular_at_zero():
    spec = ProblemSpec(horizon=1.0)
    with pytest.raises(SingularityError):
        perf_coeffs(0.0, IMPROPER, spec)


def test_improper_fsharp_log_divergence_trend():
    spec = ProblemSpec(horizon=2.0)
    vals = [perf_coeffs(t0, IMPROPER, spec)[1] for t0 in (0.1, 0.01, 0.001)]
    diffs = np.diff(vals)
    assert np.all(diffs > 0)
    # log-like growth: equal increments per decade of t0
    assert diffs[1] == pytest.approx(diffs[0], rel=0.2)


def test_bayes_cost_examples():
    spec = ProblemSpec(horizon=1.0)
    prior = GaussianPrior(1.0)
    assert bayes_cost(0.3, 0.7, 1.0, 2.0, prior, spec) == 0.0
    f_sharp = perf_coeffs(0.0, prior, spec)[1]
    assert bayes_cost(0.0, 0.0, 0.0, 0.0, prior, spec) == pytest.approx(f_sharp)


def test_bayes_cost_dominates_informed_value():
    spec = ProblemSpec(horizon=2.0)
    prior = GaussianPrior(1.0)
    rng = np.random.default_rng(4)
    for _ in range(30):
        q, xi, a = rng.normal(size=3)
        t = rng.uniform(0, 1.9)
        assert bayes_cost(q, xi, t, a, prior, spec) >= value_known_a(q, t, a, spec) - 1e-12


def test_cost_gap_identity():
    # bayes_cost - value == F0 (a_bar - a)^2 + F# - e_sharp, term by term
    spec = ProblemSpec(horizon=2.0)
    prior = GaussianPrior(0.8)
    rng = np.random.default_rng(6)
    for _ in range(30):
        q, xi, a = rng.normal(size=3)
        t = rng.uniform(0, 1.9)
        f0, f_sharp = perf_coeffs(t, prior, spec)
        a_bar = xi / (t + prior.precision)
        expected = f0 * (a_bar - a) ** 2 + f_sharp - gains(t, spec).e_sharp
        gap = bayes_cost(q, xi, t, a, prior, spec) - value_known_a(q, t, a, spec)
        assert gap == pytest.approx(expected, abs=1e-12)


def test_additive_regret_improper_is_constant():
    form = regret_form(IMPROPER, ProblemSpec(horizon=2.0, t_start=0.5), additive=True)
    assert form(0.0) == form(7.0)


@pytest.mark.parametrize("T", [2.0, 20.0])
@pytest.mark.parametrize("T0", [1e-6, 1e-8])
def test_additive_regret_grows_by_one_minus_sech_squared_per_e_fold_of_1_over_t0(T, T0):
    """The improper prior's additive regret grows like (1 - sech T)^2
    log(1/T0) as T0 -> 0.

    With p = 0 and h(tau) = (e1/2)^2 = (1 - sech(T - tau))^2, the regret at
    t = T0 is F0/T0 + (F# - e#), where F0/T0 = T0 int h/tau^2 dtau and F# -
    e# = int (tau - T0) h/tau^2 dtau, both over [T0, T]: so AR(T0) =
    int_T0^T h(tau)/tau dtau, and its increment over the decade [T0/10, T0],
    divided by log 10, is the mean of h over that decade in d log tau.  h
    falls from h(0) = (1 - sech T)^2 with a slope at most 1/2 in size
    (2 (1 - sech s) sech s tanh s), and the mean of tau over the decade in
    d log tau is 0.9 T0/log 10 < T0/2, so the increment is within T0/4 of
    (1 - sech T)^2.  Measured: 0.147 T0 at T = 2, rounding (1e-15) at T = 20.
    """
    def regret(t0):
        spec = ProblemSpec(horizon=T, t_start=t0)
        return regret_form(GaussianPrior.improper(), spec, additive=True)(0.0)

    slope = (regret(T0 / 10.0) - regret(T0)) / math.log(10.0)
    assert abs(slope - (1.0 - 1.0 / math.cosh(T)) ** 2) <= T0 / 4.0


def test_additive_regret_finite_sigma_formula():
    spec = ProblemSpec(horizon=2.0, t_start=0.5)
    prior = GaussianPrior(1.3)
    f0, f_sharp = perf_coeffs(0.5, prior, spec)
    e_sharp = gains(0.5, spec).e_sharp
    p = prior.precision
    form = regret_form(prior, spec, additive=True)
    expected = f0 * 0.5 / (0.5 + p) ** 2 + f_sharp - e_sharp
    assert form(0.0) == pytest.approx(expected, rel=1e-12)
    # a^2 p^2 overflows at a = 1e154, the regret (about a^2 f0 p^2/(t0+p)^2) does not
    a = 1e154
    expected = f0 * (p / (0.5 + p)) ** 2 * (a * a)
    assert form(a) == pytest.approx(expected, rel=1e-12)


def test_additive_regret_without_cancellation():
    # the regret is 1.2e-11 of F# here: formed as F# - e#, it was 1e-5 off
    mpmath = pytest.importorskip("mpmath")
    T, t0, sigma, a = 0.0133, 0.0131, 0.882, 2.69
    with mpmath.workdps(40):
        t, p = mpmath.mpf(t0), 1 / mpmath.mpf(sigma) ** 2
        f = lambda tau: (1 - mpmath.sech(T - tau)) ** 2 / (tau + p) ** 2
        f0 = (t + p) ** 2 * mpmath.quad(f, [t, T])
        f_sharp_minus_e_sharp = mpmath.quad(lambda tau: (tau - t) * f(tau), [t, T])
        ref = f0 * (t + a * a * p * p) / (t + p) ** 2 + f_sharp_minus_e_sharp
    got = regret_form(GaussianPrior(sigma), ProblemSpec(horizon=T, t_start=t0), additive=True)(a)
    assert abs(got - ref) <= 1e-12 * ref


def test_additive_form_limit():
    # delta = 0: the additive regret grows like a^2 unless the prior is improper
    spec = ProblemSpec(horizon=2.0, t_start=0.5)
    assert regret_form(GaussianPrior(1.3), spec, additive=True).sup == math.inf
    form = regret_form(IMPROPER, spec, additive=True)
    assert form.limit == form.sup == form(3.0)


def test_additive_regret_nonnegative_on_grid():
    spec = ProblemSpec(horizon=2.0, t_start=0.5)
    for prior in (GaussianPrior(1.0), IMPROPER):
        form = regret_form(prior, spec, additive=True)
        for a in np.linspace(-10, 10, 21):
            assert form(a) >= 0.0


def test_additive_regret_requires_observation_phase():
    spec = ProblemSpec(horizon=2.0)
    with pytest.raises(DomainError):
        regret_form(IMPROPER, spec, additive=True)


@pytest.mark.parametrize("args, kwargs", [
    ((4.0,), {}),  # a taxed opponent
    ((), {"lambda_opp": 0.5}),  # below 1, which the ratio form rejects too
], ids=["lambda_opp-4", "lambda_opp-0.5"])
def test_additive_regret_rejects_ratio_only_arguments(args, kwargs):
    # the additive form is against the untaxed opponent
    spec = ProblemSpec(horizon=2.0, t_start=0.5)
    with pytest.raises(DomainError, match="takes no lambda_opp"):
        regret_form(GaussianPrior(1.0), spec, *args, additive=True, **kwargs)


def test_regret_form_takes_the_coefficients_it_would_evaluate():
    # coeffs is (F0, F# - e#) at t_start in both modes: the form from the
    # evaluator's own pair is the form regret_form evaluates itself
    for t0, lam in ((0.0, 1.0), (0.0, 1.7), (0.5, 1.0), (0.5, 1.7)):
        spec, prior = ProblemSpec(horizon=2.0, t_start=t0), GaussianPrior(1.3)
        coeffs = performance.coefficients(t0, spec)(prior.precision)
        assert regret_form(prior, spec, lam, coeffs=coeffs) == regret_form(prior, spec, lam)
        if t0 > 0.0 and lam == 1.0:
            assert (regret_form(prior, spec, additive=True, coeffs=coeffs)
                    == regret_form(prior, spec, additive=True))


def test_multiplicative_regret_endpoints():
    spec = ProblemSpec(horizon=1.0)
    prior = GaussianPrior(1.0)
    g = gains(0.0, spec)
    f0, f_sharp = perf_coeffs(0.0, prior, spec)
    form = regret_form(prior, spec)
    assert form(0.0) == pytest.approx(f_sharp / g.e_sharp)
    assert form.limit == pytest.approx((g.e0 + f0) / g.e0)


def test_multiplicative_regret_at_least_one():
    spec = ProblemSpec(horizon=1.0)
    form = regret_form(GaussianPrior(1.0), spec)
    for a in np.linspace(-10, 10, 41):
        assert form(a) >= 1.0
    assert form.limit >= 1.0


def test_fueltax_reduces_to_mr_at_lambda_one():
    spec = ProblemSpec(horizon=2.0)
    prior = GaussianPrior(1.5)
    form = regret_form(prior, spec)
    for a in (0.0, 0.5, 2.0):
        assert fueltax_ratio(a, prior, 1.0, spec) == pytest.approx(form(a), rel=1e-12)


def test_fueltax_at_zero_drift():
    spec = ProblemSpec(horizon=2.0)
    prior = GaussianPrior(1.0)
    lam = 2.0
    g_lam = gains(0.0, spec.with_fuel_weight(lam))
    f_sharp = perf_coeffs(0.0, prior, spec)[1]
    assert fueltax_ratio(0.0, prior, lam, spec) == pytest.approx(f_sharp / g_lam.e_sharp)


def test_heavily_taxed_opponent_is_beatable():
    spec = ProblemSpec(horizon=2.0)
    prior = GaussianPrior(1.0)
    for a in np.linspace(-10, 10, 21):
        assert fueltax_ratio(a, prior, 10.0, spec) < 1.0


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_LOG_SIGMA = st.floats(-2.0, 2.0)
_HORIZON = st.floats(0.01, 50.0)
_DRIFT = st.floats(-20.0, 20.0)


@_PROPERTY
@given(a=_DRIFT, log_sigma=_LOG_SIGMA, T=_HORIZON)
def test_multiplicative_regret_at_least_one_property(a, log_sigma, T):
    prior, spec = GaussianPrior(10.0 ** log_sigma), ProblemSpec(horizon=T)
    assert regret_form(prior, spec)(a) >= 1.0
    assert fueltax_ratio(a, prior, 1.0, spec) >= 1.0


@_PROPERTY
@given(a=_DRIFT, log_sigma=st.one_of(_LOG_SIGMA, st.just(math.inf)), T=_HORIZON,
       frac=st.floats(0.01, 0.99))
def test_additive_regret_nonnegative_property(a, log_sigma, T, frac):
    prior = GaussianPrior(10.0 ** log_sigma)
    assert regret_form(prior, ProblemSpec(horizon=T, t_start=frac * T), additive=True)(a) >= 0.0


@_PROPERTY
@given(a=_DRIFT, log_sigma=st.one_of(_LOG_SIGMA, st.just(math.inf)), T=_HORIZON,
       frac=st.one_of(st.just(0.0), st.floats(0.01, 0.99)), lam=st.floats(1.0, 10.0))
def test_regret_form_matches_the_cost_ratio_property(a, log_sigma, T, frac, lam):
    # the form's r(a) against the ratio of the two expected costs, each from its
    # own function: bayes_cost for ours, value_known_a for the opponent's.  Before
    # control starts xi = q, and both are quadratic in q(t0) ~ N(a t0, t0), so the
    # two-point rule q = a t0 +- sqrt(t0) is exact (q = 0 when t0 = 0)
    prior = GaussianPrior(10.0 ** log_sigma)
    assume(frac > 0.0 or not prior.is_improper)
    spec = ProblemSpec(horizon=T, t_start=frac * T)
    t0, taxed = spec.t_start, spec.with_fuel_weight(lam)
    points = [a * t0 + s * math.sqrt(t0) for s in (1.0, -1.0)]
    opp = 0.5 * sum(value_known_a(q, t0, a, taxed) for q in points)
    ours = 0.5 * sum(bayes_cost(q, q, t0, a, prior, spec) for q in points)
    form = regret_form(prior, spec, lam)
    assert form(a) == pytest.approx(ours / opp, rel=1e-12, abs=0.0)
    # monotone in a^2: every drift lies between r(0) and the limit
    lo, hi = sorted((form(0.0), form.limit))
    for b in (0.01, 0.3, 1.0, 3.0, 30.0, 1e4):
        assert lo * (1.0 - 1e-14) <= form(b) <= hi * (1.0 + 1e-14)
    assert form.sup == hi


def test_opponent_cost_reduces_to_value_at_zero_start():
    # the informed opponent's cost is the known-a strategy's analytic cost: from
    # rest the value at (0, 0), and at any t0 the ratio form's denominator
    for t0 in (0.0, 0.5):
        spec = ProblemSpec(horizon=2.0, t_start=t0)
        form = regret_form(GaussianPrior(1.0), spec)
        for a in (0.0, 1.0, -3.0):
            cost = analytic_cost(make_strategy("known_a", a=a), SimConfig(spec, a_true=a, dt=0.1))
            assert cost == pytest.approx(form.gamma + form.delta * a * a, rel=1e-14)
            if t0 == 0.0:
                assert cost == pytest.approx(value_known_a(0.0, 0.0, a, spec))


def _f0_and_tail_reference(t, prior, spec):
    """performance._f0_and_tail as it stood before its node pass was formed in
    place: the same panels, nodes and rules, with e1^2/4 as 0.25 e1_unit(s)^2
    and both sums through np.stack."""
    _check_time(t, spec)
    if prior.is_improper and t <= 0.0:
        raise SingularityError("F# diverges (logarithmically) as t -> 0 for the improper prior")
    t, precision, horizon = float(t), prior.precision, spec.horizon
    span = horizon - t
    if span == 0.0:
        return 0.0, 0.0
    c = t + precision
    if c == 0.0 or span / c == math.inf:
        raise SingularityError("F# diverges")
    s_near = min(span, performance._S_EDGE)
    panels = np.log1p((span - s_near + s_near * performance._PANEL_EDGES) / c)
    if span > performance._S_EDGE:
        panels = np.concatenate([panels[0] * performance._PANEL_EDGES[:-1], panels])
    widths = np.diff(panels)
    if widths.max() > performance._W_MAX:
        parts = np.ceil(widths / performance._W_MAX).astype(int)
        panels = np.concatenate(
            [np.linspace(a, b, k, endpoint=False) for a, b, k in zip(panels[:-1], panels[1:], parts)]
            + [panels[-1:]]
        )
    half = 0.5 * np.diff(panels)
    x = np.expm1(panels[:-1, None] + half[:, None] * (1.0 + performance._NODES))
    s = span - c * x
    g = 0.25 * (2.0 * np.tanh(s) * np.tanh(0.5 * s)) ** 2 / (1.0 + x)
    terms = half @ np.stack([g, g * x]) * performance._WEIGHTS
    n = performance._N_NODES
    (i0, tail), (i0_half, tail_half) = terms[:, :n].sum(1), terms[:, n:].sum(1)
    f_sharp = log_cosh(span) + tail
    rtol = performance._EST_RTOL
    if not (abs(i0 - i0_half) <= rtol * i0 and abs(tail - tail_half) <= rtol * f_sharp):
        raise QuadratureError("rules disagree")
    return float(c * i0), float(tail)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the type is the outcome
        return type(exc)


def _kernel_points():
    """(t, sigma, T) over T in [1e-6, 1e4]: fixed corners, then draws with t
    anywhere in [0, T] (near T too) and sigma from 1e-3 to 1e160 or improper."""
    points = [
        (0.0, 1.3, 50.0),  # span > 20: 16 panels
        (0.0, 100.0, 1e4),
        (1e-300, math.inf, 50.0),  # t + p tiny: split panels
        (1e-30, math.inf, 2.0),
        (0.0, 1e150, 2.0),
        (0.0, math.inf, 2.0),  # improper at t = 0: SingularityError
        (0.5, math.inf, 2.0),
        (0.0, 0.01, 1e-6),
        (2.0, 1.0, 2.0),  # span 0
        (1.7 - 1e-12, 0.9, 1.7),
        (0.3, 0.9, 1.7),
    ]
    rng = np.random.default_rng(13)
    for _ in range(300):
        T = float(10.0 ** rng.uniform(-6.0, 4.0))
        u = rng.choice([0.0, rng.uniform(), 1.0 - 10.0 ** rng.uniform(-15.0, 0.0)])
        sigma = math.inf if rng.uniform() < 0.3 else float(10.0 ** rng.uniform(-3.0, 160.0))
        points.append((min(float(T * u), T), sigma, T))
    return points


def test_kernel_is_bit_identical_to_reference():
    # every output, exceptions included, equals the reference's to the bit,
    # and a second call returns the same floats
    for t, sigma, T in _kernel_points():
        prior = IMPROPER if sigma == math.inf else GaussianPrior(sigma)
        args = (t, prior, ProblemSpec(horizon=T))
        got = _outcome(performance._f0_and_tail, *args)
        assert got == _outcome(_f0_and_tail_reference, *args), (t, sigma, T)
        assert got == _outcome(performance._f0_and_tail, *args)


@pytest.mark.parametrize("ratio", [0.5, 0.7, 1.3, 2.0])
def test_off_anchor_coefficients_match_a_fresh_quadrature(ratio):
    # a node table anchored at a, evaluated at c = ratio a, gives the floats of
    # a table anchored at c within 1e-13.  The factor ((1 + x)/(x + c/a))^2
    # moves from (a/c)^2 to 1 over w ~ 1, so the half-node check may refuse
    # it, but only where a small t + precision has made the first panel wider
    # than 8 in w (at T = 2 and t = 0 that is sigma > 190; around the roots of
    # both solves it is at most 2.6 wide)
    compared = 0
    for t, sigma, T in _kernel_points():
        prior = IMPROPER if sigma == math.inf else GaussianPrior(sigma)
        fresh = _outcome(performance._f0_and_tail, t, prior, ProblemSpec(horizon=T))
        if isinstance(fresh, type):
            continue
        c = float(t) + prior.precision
        table = _outcome(performance._node_table, float(t), c / ratio, T)
        if isinstance(table, type):  # (T - t)/(c/2) overflows
            assert table is SingularityError and ratio == 2.0, (t, sigma, T)
            continue
        got = _outcome(performance._coeffs_from, table, c)
        if isinstance(got, type):
            assert got is QuadratureError and 2.0 * table.half[0] > 8.0, (t, sigma, T)
            continue
        for value, ref in zip(got, fresh):
            assert abs(value - ref) <= 1e-13 * abs(ref), (t, sigma, T)
        compared += 1
    assert compared >= 200


def test_coefficients_re_anchor_where_the_re_weighted_rule_refuses():
    # at T = 2, t = 0 and c/a = 1/2, a table re-weighted to sigma >= 195 fails
    # the half-node check, as its first panel is over 8 wide in w; the
    # evaluator then builds a table at c and returns a fresh quadrature's floats
    spec = ProblemSpec(horizon=2.0)
    for sigma in (195.0, 300.0, 1e3):
        prior = GaussianPrior(sigma)
        c = prior.precision
        with pytest.raises(QuadratureError):
            performance._coeffs_from(performance._node_table(0.0, 2.0 * c, 2.0), c)
        evaluate = performance.coefficients(0.0, spec)
        evaluate(2.0 * c)  # anchors its table at 2c
        assert evaluate(c) == performance._f0_and_tail(0.0, prior, spec), sigma
