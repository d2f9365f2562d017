"""Closed-form gain schedule and known-drift value/control."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agnostic_control import (
    DomainError,
    ProblemSpec,
    SimConfig,
    control_known_a,
    gains,
    value_known_a,
)
from agnostic_control.model import own_gains

# frozen 30-digit evaluations of the closed forms at s=1
TANH1 = 0.761594155955764888119458282605
TWO_ONE_MINUS_SECH1 = 0.703891452672229200850045293548
ONE_MINUS_TANH1 = 0.238405844044235111880541717395
LOGCOSH1 = 0.4337808304830271870264946849


def test_terminal_condition_all_zero():
    for lam in (1.0, 2.0, 4.0):
        g = gains(1.0, ProblemSpec(horizon=1.0, fuel_weight=lam))
        assert g.e2 == 0.0 and g.e1 == 0.0 and g.e0 == 0.0 and g.e_sharp == 0.0


def test_gains_at_unit_remaining_time():
    g = gains(0.0, ProblemSpec(horizon=1.0))
    assert g.e2 == pytest.approx(TANH1, rel=1e-14)
    assert g.e1 == pytest.approx(TWO_ONE_MINUS_SECH1, rel=1e-14)
    assert g.e0 == pytest.approx(ONE_MINUS_TANH1, rel=1e-14)
    assert g.e_sharp == pytest.approx(LOGCOSH1, rel=1e-14)


def test_gains_lambda4_is_scaled_s1():
    # T=2, lambda=4 gives s=1: values are lambda-scaled copies of the s=1 forms
    g = gains(0.0, ProblemSpec(horizon=2.0, fuel_weight=4.0))
    assert g.e2 == pytest.approx(2.0 * TANH1, rel=1e-14)
    assert g.e1 == pytest.approx(4.0 * TWO_ONE_MINUS_SECH1, rel=1e-14)
    assert g.e0 == pytest.approx(8.0 * ONE_MINUS_TANH1, rel=1e-14)
    assert g.e_sharp == pytest.approx(4.0 * LOGCOSH1, rel=1e-14)


def test_gains_nonnegative_and_nonincreasing():
    for lam in (1.0, 3.0):
        spec = ProblemSpec(horizon=5.0, fuel_weight=lam)
        ts = np.linspace(0.0, 5.0, 200)
        vals = np.array([[getattr(gains(t, spec), f) for f in ("e2", "e1", "e0", "e_sharp")] for t in ts])
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals, axis=0) <= 1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    T=st.floats(1e-3, 1e3),
    lam=st.floats(1.0, 100.0),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
)
def test_gains_nonnegative_and_nonincreasing_property(T, lam, u, v):
    spec = ProblemSpec(horizon=T, fuel_weight=lam)
    t1, t2 = sorted((u * T, v * T))
    g1, g2 = gains(t1, spec), gains(t2, spec)
    for f in ("e2", "e1", "e0", "e_sharp"):
        early, late = getattr(g1, f), getattr(g2, f)
        assert 0.0 <= late <= early, (f, t1, t2)


def test_large_remaining_time_no_overflow():
    # s = 1e4: log cosh and sech must not overflow
    g = gains(0.0, ProblemSpec(horizon=1e4))
    assert g.e2 == pytest.approx(1.0, rel=1e-12)
    assert g.e_sharp == pytest.approx(1e4 - math.log(2.0), rel=1e-12)
    assert math.isfinite(g.e0)


def test_gain_ode_residuals():
    # central differences against the coefficient ODEs, lambda-generalized:
    # -e2' = 1 - e2^2/lam, -e1' = 2 e2 - e1 e2 / lam,
    # -e0' = e1 - e1^2/(4 lam), -e_sharp' = e2
    h = 1e-5
    for T in (0.5, 2.0, 10.0):
        for lam in (1.0, 2.0, 4.0):
            spec = ProblemSpec(horizon=T, fuel_weight=lam)
            ts = np.linspace(2 * h, T - 2 * h, 1000)
            for t in ts:
                gp = gains(t + h, spec)
                gm = gains(t - h, spec)
                g = gains(t, spec)
                d = lambda f: (getattr(gp, f) - getattr(gm, f)) / (2 * h)
                checks = [
                    (-d("e2"), 1.0 - g.e2 ** 2 / lam),
                    (-d("e1"), 2.0 * g.e2 - g.e1 * g.e2 / lam),
                    (-d("e0"), g.e1 - g.e1 ** 2 / (4.0 * lam)),
                    (-d("e_sharp"), g.e2),
                ]
                for lhs, rhs in checks:
                    assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)


def test_lambda_one_matches_plain_forms():
    spec = ProblemSpec(horizon=3.0, fuel_weight=1.0)
    for t in np.linspace(0.0, 3.0, 50):
        g = gains(t, spec)
        s = 3.0 - t
        assert abs(g.e2 - math.tanh(s)) <= 1e-12
        assert abs(g.e1 - 2.0 * (1.0 - 1.0 / math.cosh(s))) <= 1e-12
        assert abs(g.e0 - (s - math.tanh(s))) <= 1e-12
        assert abs(g.e_sharp - math.log(math.cosh(s))) <= 1e-12


def test_own_gains_on_a_taxed_spec_are_the_untaxed_gains_without_a_spec_per_call(monkeypatch):
    spec = ProblemSpec(horizon=3.0, t_start=0.5, fuel_weight=4.0)
    untaxed = ProblemSpec(horizon=3.0, t_start=0.5)
    built = []
    original = ProblemSpec.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ProblemSpec, "__post_init__", counted)
    for t in np.linspace(0.0, 3.0, 50):
        assert own_gains(t, spec) == gains(t, untaxed)  # bit for bit
    assert len(built) == 1  # the weight-1 spec, once for the taxed spec


@pytest.mark.parametrize("s", [1e-8, 1e-5, 1e-2, 1.0, 30.0])
def test_e1_and_esharp_keep_relative_precision_near_horizon(s):
    # 1 - sech s, s - tanh s and log cosh s cancel as s -> 0; the absolute
    # checks above cannot see it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        e1_ref = float(2 * (1 - mpmath.sech(s)))
        e0_ref = float(s - mpmath.tanh(s))
        e_sharp_ref = float(mpmath.log(mpmath.cosh(s)))
    g = gains(0.0, ProblemSpec(horizon=s))
    assert abs(g.e1 - e1_ref) <= 1e-14 * e1_ref
    assert abs(g.e0 - e0_ref) <= 1e-14 * e0_ref
    assert abs(g.e_sharp - e_sharp_ref) <= 1e-14 * e_sharp_ref


def test_value_examples():
    spec = ProblemSpec(horizon=1.0)
    assert value_known_a(3.7, 1.0, -2.0, spec) == 0.0
    assert value_known_a(0.0, 0.0, 0.0, spec) == pytest.approx(LOGCOSH1, rel=1e-14)
    assert value_known_a(0.0, 0.0, 1.0, spec) == pytest.approx(
        ONE_MINUS_TANH1 + LOGCOSH1, rel=1e-14
    )


def test_value_positive_before_horizon():
    spec = ProblemSpec(horizon=2.0)
    for t in (0.0, 0.5, 1.9):
        assert value_known_a(0.0, t, 0.0, spec) > 0.0


def test_value_sign_flip_symmetry():
    spec = ProblemSpec(horizon=2.0, fuel_weight=2.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        q, a = rng.normal(size=2) * 3
        t = rng.uniform(0, 2)
        assert value_known_a(q, t, a, spec) == value_known_a(-q, t, -a, spec)


def test_control_examples():
    spec = ProblemSpec(horizon=1.0)
    assert control_known_a(0.0, 0.3, 0.0, spec) == 0.0
    assert control_known_a(1.0, 1.0, 5.0, spec) == 0.0
    assert control_known_a(1.0, 0.0, 1.0, spec) == pytest.approx(
        -1.11353988229187948854448092938, rel=1e-14
    )


def test_control_is_half_value_gradient():
    # u = -(1/2) dJ/dq by finite differences
    spec = ProblemSpec(horizon=2.0)
    h = 1e-6
    rng = np.random.default_rng(2)
    for _ in range(30):
        q, a = rng.normal(size=2) * 2
        t = rng.uniform(0, 1.9)
        grad = (value_known_a(q + h, t, a, spec) - value_known_a(q - h, t, a, spec)) / (2 * h)
        assert control_known_a(q, t, a, spec) == pytest.approx(-0.5 * grad, rel=1e-6, abs=1e-8)


def test_domain_errors():
    spec = ProblemSpec(horizon=1.0, t_start=0.2)
    with pytest.raises(DomainError):
        gains(-0.1, spec)
    with pytest.raises(DomainError):
        gains(1.1, spec)
    with pytest.raises(DomainError):
        value_known_a(0.0, 2.0, 0.0, spec)
    with pytest.raises(DomainError):
        control_known_a(0.0, 0.1, 0.0, spec)  # inside observation phase
    with pytest.raises(DomainError):
        control_known_a(0.0, 1.5, 0.0, spec)  # past the horizon


def test_spec_validation():
    with pytest.raises(DomainError):
        ProblemSpec(horizon=0.0)
    with pytest.raises(DomainError):
        ProblemSpec(horizon=1.0, t_start=1.0)
    with pytest.raises(DomainError):
        ProblemSpec(horizon=1.0, t_start=-0.1)
    with pytest.raises(DomainError):
        ProblemSpec(horizon=1.0, fuel_weight=0.5)
    with pytest.raises(DomainError):  # e0 ~ T^3/3 underflows
        ProblemSpec(horizon=1e-110)
    with pytest.raises(DomainError):  # subnormal
        ProblemSpec(horizon=1.0, t_start=5e-324)


@settings(deadline=None)
@given(
    field=st.sampled_from(["horizon", "t_start", "fuel_weight", "t", "dt", "a_true"]),
    x=st.floats(),  # NaN and +-inf included
)
def test_any_float_is_accepted_with_finite_gains_or_rejected(field, x):
    kw = dict(horizon=2.0, t_start=0.5, fuel_weight=1.5, t=0.0, dt=0.01, a_true=1.0)
    kw[field] = x
    try:
        spec = ProblemSpec(kw["horizon"], kw["t_start"], kw["fuel_weight"])
        g = gains(kw["t"], spec)
    except DomainError:
        return
    assert all(math.isfinite(v) for v in (g.e2, g.e1, g.e0, g.e_sharp))
    with contextlib.suppress(DomainError):
        SimConfig(spec=spec, a_true=kw["a_true"], dt=kw["dt"])
