"""Closed-form solution of the scalar control problem with known drift.

The system is dq = (a + u) dt + dW with quadratic running cost
q^2 + lambda * u^2 on [T0, T].  For known drift a the value function is a
quadratic in (q, a) whose time-varying coefficients (the gain schedule)
have exact hyperbolic closed forms, here generalized to an arbitrary fuel
weight lambda via the rescaled remaining time s = (T - t) / sqrt(lambda).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import DomainError

_LOG2 = math.log(2.0)
_FLOAT_MIN = sys.float_info.min  # the smallest normal float
#: 2n/(2n+1)! for n = 1..7: the Taylor coefficients of (s cosh s - sinh s)/s^3
#: in powers of s^2.  At s < 0.5 the terms left out add under 1e-17 relative.
_S_COSH_MINUS_SINH = tuple(2 * n / math.factorial(2 * n + 1) for n in range(1, 8))
#: Taylor coefficients of cosh(s) exp(-s^2/2) - 1 in powers of s^2, from s^4,
#: whose log1p is log cosh s - s^2/2.  At s < 0.5 the terms left out add under
#: 2e-17 relative.
_COSH_GAUSS = (-1 / 12, 1 / 45, -11 / 3360, 19 / 56700, -311 / 11975040, 719 / 454053600,
               -14297 / 186810624000, 35369 / 12504636144000, -562273 / 8447576417280000)
#: 8 (k+1)(k+2)(k+3) / (3 (2k+5)!) for k = 0..8: the Taylor coefficients, all
#: of one sign, of (s^3/3) cosh s + sinh s - s cosh s in powers of s^2, from
#: s^5.  At s < 1 the terms left out add under 1e-17 relative.
_H_NUMERATOR = tuple(8 * (k + 1) * (k + 2) * (k + 3) / (3 * math.factorial(2 * k + 5))
                     for k in range(9))


@dataclass(frozen=True)
class ProblemSpec:
    """Cost/horizon configuration: observe-only until t_start, control until horizon."""

    horizon: float
    t_start: float = 0.0
    fuel_weight: float = 1.0

    def __post_init__(self):
        # written as `not lo <= x` so that NaN fails every check
        if not self.horizon > 0.0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 <= self.t_start < self.horizon:
            raise DomainError(
                f"t_start must satisfy 0 <= t_start < horizon, got {self.t_start}"
            )
        # the regrets divide by t_start, and 1/t_start overflows below the normal range
        if 0.0 < self.t_start < _FLOAT_MIN:
            raise DomainError(f"t_start={self.t_start} is subnormal; use 0 or a normal float")
        if not self.fuel_weight >= 1.0:
            raise DomainError(f"fuel_weight must be >= 1, got {self.fuel_weight}")
        # e1 <= 2 lambda and e0 <= lambda^{3/2} s = lambda T; this also rejects inf
        lam = self.fuel_weight
        if not math.isfinite(2.0 * lam * math.sqrt(lam) * max(1.0, self.horizon)):
            raise DomainError(f"horizon={self.horizon} and fuel_weight={lam} overflow the gains")
        # e0 ~ T^3/3 at t = 0 divides the regret ratios.  It is a normal float
        # for every T >= 1e-100 and leaves that range near T = 4.1e-103.
        if self.horizon < 1e-100:
            e0 = lam * math.sqrt(lam) * _s_minus_tanh_small(self.horizon / math.sqrt(lam))
            if not e0 >= _FLOAT_MIN:
                raise DomainError(f"horizon={self.horizon} is too short: the gain e0 underflows")

    def with_fuel_weight(self, lam: float) -> "ProblemSpec":
        return replace(self, fuel_weight=lam)

    @cached_property
    def _untaxed(self) -> "ProblemSpec":
        # built and validated once per spec: cached_property stores it in the
        # instance dict, which the frozen __setattr__ does not guard
        return self.with_fuel_weight(1.0)


@dataclass(frozen=True)
class GainSchedule:
    """Values of the four value-function coefficients at a single time."""

    e2: float
    e1: float
    e0: float
    e_sharp: float


def log_cosh(x: float) -> float:
    # cosh x = 1 + 2 sinh^2(x/2) keeps full precision for small |x|;
    # |x| - log 2 + log1p(e^{-2|x|}) avoids overflow of cosh for large |x|
    ax = abs(x)
    if ax < 1.0:
        return math.log1p(2.0 * math.sinh(0.5 * ax) ** 2)
    return ax - _LOG2 + math.log1p(math.exp(-2.0 * ax))


def _s_minus_tanh_small(s: float) -> float:
    """s - tanh s for 0 <= s < 0.5, where the difference loses digits: formed
    as (s cosh s - sinh s) / cosh s, the numerator from its Taylor series,
    whose terms are all positive."""
    c1, c2, c3, c4, c5, c6, c7 = _S_COSH_MINUS_SINH
    z = s * s
    numerator = s * z * (c1 + z * (c2 + z * (c3 + z * (c4 + z * (c5 + z * (c6 + z * c7))))))
    return numerator / math.cosh(s)


def e1_unit(s: float) -> float:
    """E1 at fuel weight 1 and remaining time s: 2 (1 - sech s) = 2 tanh s tanh(s/2).

    The product form keeps full relative precision as s -> 0, where
    1 - sech s cancels.
    """
    return 2.0 * math.tanh(s) * math.tanh(0.5 * s)


def e0_unit(s: float) -> float:
    """E0 at fuel weight 1 and remaining time s: s - tanh s, which below
    s = 0.5 comes from the series of _s_minus_tanh_small (the subtraction
    cancels there; at s >= 0.5 it is within 3e-15 relative)."""
    return s - math.tanh(s) if s >= 0.5 else _s_minus_tanh_small(s)


def _taylor(coeffs: tuple[float, ...], z: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _g_unit(s: float) -> float:
    """(log cosh s - s^2/2) / s^2 for 0 <= s < 1: below s = 0.5 from the series
    of _COSH_GAUSS, where the difference cancels; 0 at s = 0."""
    z = s * s
    if s >= 0.5:
        return log_cosh(s) / z - 0.5
    q = z * _taylor(_COSH_GAUSS, z)
    y = z * q  # log1p(y)/y is 1 where y is too small to change log1p
    return q * (math.log1p(y) / y) if y else q


def _h_unit(s: float) -> float:
    """(s - tanh s - s^3/3) / s^3 for 0 <= s < 1, from the series of _H_NUMERATOR."""
    z = s * s
    return -z * _taylor(_H_NUMERATOR, z) / math.cosh(s)


def _exp_terms(T: float, mu: float, r: float) -> tuple[float, float]:
    """(e^{-2s}, 1 - e^{-2(T - s)}) for s = T/r, r = sqrt(1 + mu), with T - s
    = T mu/(r (1 + r)) formed from mu, so that it keeps its relative precision
    as mu -> 0."""
    return math.exp(-2.0 * T / r), -math.expm1(-2.0 * T * mu / (r * (1.0 + r)))


def e_sharp_gap(horizon: float, mu: float) -> float:
    """e#_lam - e# at t = 0: what a fuel weight lam = 1 + mu, mu >= 0 (inf
    included), adds to the known-a opponent's cost at a = 0.

    With s = T/sqrt(lam) and g(s) = log cosh s - s^2/2 it is lam g(s) - g(T):
    the T^2/2 that both costs hold cancels exactly.  Below T = 1 it is formed
    so, as T^2 (g(s)/s^2 - g(T)/T^2), and keeps its relative precision as
    T -> 0, but s rounds a small mu: it is good to about 1e-16/mu relative
    (3.5e-3 at T = 0.837, mu = 1.2e-12).  The fuel-tax solve, where lambda*
    is near 1.29, evaluates it below T = 1 only at mu >= 0.22 (over the 73
    horizons of logspace(-8, 10) and the default grid; a test holds it to
    mu >= 0.1 there).  From T = 1 up, where T^2/2 outgrows the gap, it is
    taken in mu, which 1 + mu would round away as T grows and lambda* -> 1:
    with log cosh x = x - log 2 + l(x), l(x) = log1p(e^{-2x}), it is
        mu (T/(1 + sqrt lam) - log 2 + l(s)) + l(s) - l(T),
    l(s) - l(T) = log1p(e^{-2s} (1 - e^{-2(T - s)})/(1 + e^{-2T})).  Below
    s = 0.5, where those terms cancel and mu is large, it is lam log cosh s -
    log cosh T.
    """
    T = horizon
    r = math.sqrt(1.0 + mu)
    s = T / r  # 0 at mu = inf
    if T < 1.0:
        return T * T * (_g_unit(s) - _g_unit(T))
    if s < 0.5:
        return ((1.0 + mu) * log_cosh(s) if s else 0.5 * T * T) - log_cosh(T)
    es, ds = _exp_terms(T, mu, r)
    l_gap = math.log1p(es * ds / (1.0 + math.exp(-2.0 * T)))
    return mu * (T / (1.0 + r) - _LOG2 + math.log1p(es)) + l_gap


def e0_gap(horizon: float, mu: float) -> float:
    """e0_lam - e0 at t = 0, lam = 1 + mu, what the fuel weight adds to the a^2
    term, formed as in e_sharp_gap from h(s) = s - tanh s - s^3/3: T^3 (h(s)/s^3
    - h(T)/T^3) below T = 1, which is good to about 1e-16/mu relative and,
    like e_sharp_gap, evaluated there only at mu >= 0.22.  From T = 1 up, as
    lam^{3/2} s = lam T, it is
        mu T - ((1 + mu)^{3/2} - 1) tanh s + tanh T - tanh s,
    tanh T - tanh s = 2 e^{-2s} (1 - e^{-2(T - s)})/((1 + e^{-2T}) (1 + e^{-2s})),
    and below s = 0.5 lam^{3/2} (s - tanh s) - (T - tanh T)."""
    T = horizon
    r = math.sqrt(1.0 + mu)
    s = T / r
    if T < 1.0:
        return T * T * T * (_h_unit(s) - _h_unit(T))
    if s < 0.5:
        return ((1.0 + mu) * r * e0_unit(s) if s else T * T * T / 3.0) - e0_unit(T)
    es, ds = _exp_terms(T, mu, r)
    th_gap = 2.0 * es * ds / ((1.0 + math.exp(-2.0 * T)) * (1.0 + es))
    return mu * T - math.expm1(1.5 * math.log1p(mu)) * math.tanh(s) + th_gap


def _check_time(t: float, spec: ProblemSpec) -> None:
    if not 0.0 <= t <= spec.horizon:
        raise DomainError(f"t={t} outside [0, {spec.horizon}]")


def gains(t: float, spec: ProblemSpec) -> GainSchedule:
    """Gain schedule at time t for the spec's fuel weight.

    With s = (T - t)/sqrt(lambda):
        e2 = sqrt(lambda) tanh s
        e1 = 2 lambda (1 - sech s)
        e0 = lambda^{3/2} (s - tanh s)
        e_sharp = lambda log cosh s
    All four vanish at t = T and are nonincreasing in t.
    """
    _check_time(t, spec)
    lam = spec.fuel_weight
    sqrt_lam = math.sqrt(lam)
    s = (spec.horizon - t) / sqrt_lam
    return GainSchedule(
        e2=sqrt_lam * math.tanh(s),
        e1=lam * e1_unit(s),
        e0=lam * sqrt_lam * e0_unit(s),
        e_sharp=lam * log_cosh(s),
    )


def own_gains(t: float, spec: ProblemSpec) -> GainSchedule:
    """Gain schedule at fuel weight 1 (our side never pays the fuel tax)."""
    return gains(t, spec if spec.fuel_weight == 1.0 else spec._untaxed)


def value_known_a(q: float, t: float, a: float, spec: ProblemSpec) -> float:
    """Expected cost-to-go from (q, t) under the optimal known-a control."""
    g = gains(t, spec)
    return g.e2 * q * q + g.e1 * q * a + g.e0 * a * a + g.e_sharp


def control_known_a(q: float, t: float, a: float, spec: ProblemSpec) -> float:
    """Optimal control u = -e2 q - (e1/2) a, at fuel weight 1; DomainError
    outside the control window [t_start, T].

    Every strategy applies this law with its own drift estimate in place of a
    (the posterior mean for the Bayesian strategies); the simulator applies it
    from Strategy.gain_table, one row of coefficients per step.  q and a may
    be arrays of paths.
    """
    if not spec.t_start <= t <= spec.horizon:
        raise DomainError(f"t={t} outside [{spec.t_start}, {spec.horizon}]")
    g = own_gains(t, spec)
    return -g.e2 * q - 0.5 * g.e1 * a
