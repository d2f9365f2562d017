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

import numpy as np

from .errors import DomainError

_LOG2 = math.log(2.0)
_FLOAT_MIN = sys.float_info.min  # the smallest normal float
#: 2n/(2n+1)! for n = 1..7: the Taylor coefficients of (s cosh s - sinh s)/s^3
#: in powers of s^2.  At s < 0.5 the terms left out add under 1e-17 relative.
_S_COSH_MINUS_SINH = tuple(2 * n / math.factorial(2 * n + 1) for n in range(1, 8))


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


def e1_unit(s):
    """E1 at fuel weight 1 and remaining time s: 2 (1 - sech s) = 2 tanh s tanh(s/2).

    The product form keeps full relative precision as s -> 0, where
    1 - sech s cancels.  s may be a float or a numpy array.
    """
    tanh = math.tanh if isinstance(s, float) else np.tanh
    return 2.0 * tanh(s) * tanh(0.5 * s)


def e0_unit(s: float) -> float:
    """E0 at fuel weight 1 and remaining time s: s - tanh s, which below
    s = 0.5 comes from the series of _s_minus_tanh_small (the subtraction
    cancels there; at s >= 0.5 it is within 3e-15 relative)."""
    return s - math.tanh(s) if s >= 0.5 else _s_minus_tanh_small(s)


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
    if spec.fuel_weight == 1.0:
        return gains(t, spec)
    return gains(t, spec.with_fuel_weight(1.0))


def value_known_a(q: float, t: float, a: float, spec: ProblemSpec) -> float:
    """Expected cost-to-go from (q, t) under the optimal known-a control."""
    g = gains(t, spec)
    return g.e2 * q * q + g.e1 * q * a + g.e0 * a * a + g.e_sharp


def control_known_a(q: float, t: float, a: float, spec: ProblemSpec) -> float:
    """Optimal control u = -e2 q - (e1/2) a, at fuel weight 1.

    The one place the control law is written: every strategy applies it
    with its own drift estimate in place of a (the posterior mean for the
    Bayesian strategies).  q and a may be arrays of paths.
    """
    if not spec.t_start <= t <= spec.horizon:
        raise DomainError(f"t={t} outside [{spec.t_start}, {spec.horizon}]")
    g = own_gains(t, spec)
    return -g.e2 * q - 0.5 * g.e1 * a
