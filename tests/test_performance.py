"""F0/F# coefficients and the three regret functionals."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agnostic_control import (
    DomainError,
    GaussianPrior,
    ProblemSpec,
    QuadratureError,
    SingularityError,
    additive_regret,
    bayes_cost,
    fueltax_ratio,
    gains,
    multiplicative_regret,
    multiplicative_regret_limit,
    opponent_cost,
    perf_coeffs,
    perf_coeffs_rk4,
    value_known_a,
)
from agnostic_control import performance

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
        lambda spec, prior: additive_regret(math.inf, prior, ProblemSpec(horizon=2.0, t_start=0.5)),
        lambda spec, prior: multiplicative_regret(math.nan, prior, spec),
        lambda spec, prior: fueltax_ratio(-math.inf, prior, 2.0, spec),
        lambda spec, prior: opponent_cost(math.nan, spec),
        # finite, but a^2 overflows
        lambda spec, prior: multiplicative_regret(1e200, prior, spec),
        lambda spec, prior: fueltax_ratio(-1e200, prior, 2.0, spec),
        lambda spec, prior: opponent_cost(1e200, spec),
        # a^2 is finite, the opponent's cost e0 a^2 is not
        lambda spec, prior: multiplicative_regret(1e100, prior, ProblemSpec(horizon=1e250)),
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
    spec = ProblemSpec(horizon=2.0, t_start=0.5)
    assert additive_regret(0.0, IMPROPER, spec) == additive_regret(7.0, IMPROPER, spec)


def test_additive_regret_finite_sigma_formula():
    spec = ProblemSpec(horizon=2.0, t_start=0.5)
    prior = GaussianPrior(1.3)
    f0, f_sharp = perf_coeffs(0.5, prior, spec)
    e_sharp = gains(0.5, spec).e_sharp
    p = prior.precision
    expected = f0 * 0.5 / (0.5 + p) ** 2 + f_sharp - e_sharp
    assert additive_regret(0.0, prior, spec) == pytest.approx(expected, rel=1e-12)
    # a^2 p^2 overflows at a = 1e154, the regret (about a^2 f0 p^2/(t0+p)^2) does not
    a = 1e154
    expected = f0 * (p / (0.5 + p)) ** 2 * (a * a)
    assert additive_regret(a, prior, spec) == pytest.approx(expected, rel=1e-12)


def test_additive_regret_nonnegative_on_grid():
    spec = ProblemSpec(horizon=2.0, t_start=0.5)
    for prior in (GaussianPrior(1.0), IMPROPER):
        for a in np.linspace(-10, 10, 21):
            assert additive_regret(a, prior, spec) >= 0.0


def test_additive_regret_requires_observation_phase():
    spec = ProblemSpec(horizon=2.0)
    with pytest.raises(DomainError):
        additive_regret(0.0, IMPROPER, spec)


def test_multiplicative_regret_endpoints():
    spec = ProblemSpec(horizon=1.0)
    prior = GaussianPrior(1.0)
    g = gains(0.0, spec)
    f0, f_sharp = perf_coeffs(0.0, prior, spec)
    assert multiplicative_regret(0.0, prior, spec) == pytest.approx(f_sharp / g.e_sharp)
    assert multiplicative_regret_limit(prior, spec) == pytest.approx((g.e0 + f0) / g.e0)


def test_multiplicative_regret_at_least_one():
    spec = ProblemSpec(horizon=1.0)
    prior = GaussianPrior(1.0)
    for a in np.linspace(-10, 10, 41):
        assert multiplicative_regret(a, prior, spec) >= 1.0
    assert multiplicative_regret_limit(prior, spec) >= 1.0


def test_fueltax_reduces_to_mr_at_lambda_one():
    spec = ProblemSpec(horizon=2.0)
    prior = GaussianPrior(1.5)
    for a in (0.0, 0.5, 2.0):
        assert fueltax_ratio(a, prior, 1.0, spec) == pytest.approx(
            multiplicative_regret(a, prior, spec), rel=1e-12
        )


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
    assert multiplicative_regret(a, prior, spec) >= 1.0
    assert fueltax_ratio(a, prior, 1.0, spec) >= 1.0


@_PROPERTY
@given(a=_DRIFT, log_sigma=st.one_of(_LOG_SIGMA, st.just(math.inf)), T=_HORIZON,
       frac=st.floats(0.01, 0.99))
def test_additive_regret_nonnegative_property(a, log_sigma, T, frac):
    prior = GaussianPrior(10.0 ** log_sigma)
    assert additive_regret(a, prior, ProblemSpec(horizon=T, t_start=frac * T)) >= 0.0


def test_opponent_cost_reduces_to_value_at_zero_start():
    spec = ProblemSpec(horizon=2.0)
    for a in (0.0, 1.0, -3.0):
        assert opponent_cost(a, spec) == pytest.approx(value_known_a(0.0, 0.0, a, spec))


def test_memoization_is_value_identical():
    spec = ProblemSpec(horizon=1.7)
    prior = GaussianPrior(0.9)
    first = perf_coeffs(0.3, prior, spec)
    again = perf_coeffs(0.3, prior, spec)
    assert first == again
