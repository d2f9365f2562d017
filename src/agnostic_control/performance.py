"""Performance of the Bayesian strategy for a fixed true drift.

The expected cost-to-go of the Bayesian controller when the true drift is a
adds two time-dependent corrections F0, F# to the known-a value function:

    cost = e2 q^2 + e1 q a + e0 a^2 + F0(t) (a_bar - a)^2 + F#(t)

with (writing p = sigma^-2, p = 0 for the improper prior)

    F0(t) = (t + p)^2 * I0(t),   I0(t) = int_t^T e1(tau)^2 / (4 (tau+p)^2) dtau
    F#(t) = e_sharp(t) + int_t^T (tau - t) e1(tau)^2 / (4 (tau+p)^2) dtau.

The F# form follows from swapping the order of integration in its defining
double integral.  perf_coeffs evaluates both by Gauss-Legendre quadrature;
the independent cross-check perf_coeffs_rk4 integrates the coefficient ODEs.

From these come the three regret functionals: additive regret (requires an
observation phase t_start > 0), multiplicative regret (competitive ratio,
t_start = 0), and the fuel-tax cost ratio against an opponent whose control
effort is taxed at weight lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bayes import GaussianPrior, posterior
from .errors import DomainError, QuadratureError, SingularityError
from .model import ProblemSpec, _check_time, e1_unit, gains, log_cosh, own_gains

#: Default symmetric drift grid: covers both the small-a (F#-dominated) and
#: large-a (F0-dominated) regimes; all regret formulas depend on a^2 only.
A_GRID_DEFAULT = (0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 10.0, -10.0)

#: Nodes and weights on [-1, 1] of the 48-point Gauss-Legendre rule followed by
#: those of the 24-point rule: one evaluation of an integrand at _NODES gives
#: both sums, and their difference is the error estimate.
_N_NODES = 48
_NODES, _WEIGHTS = (np.concatenate(v) for v in zip(leggauss(_N_NODES), leggauss(_N_NODES // 2)))
_PANEL_EDGES = np.linspace(0.0, 1.0, 9)  # 8 equal panels per segment
#: Remaining time s = T - tau beyond which e1 is flat (1 - sech 20 = 1 - 4e-9).
_S_EDGE = 20.0
#: Widest panel in w: wider ones arise only for t + p far below s_near (the
#: widest any figure, cross-check or Monte Carlo point reaches is 14.7).
_W_MAX = 16.0
#: Relative disagreement of the two rules above which the result is refused.
_EST_RTOL = 1e-10
#: Fixed RK4 steps from T down to t in the perf_coeffs_rk4 cross-check.
_RK4_STEPS = 8000


@dataclass(frozen=True)
class RegretReport:
    """Per-drift regret values plus worst-case summaries for one strategy."""

    a_values: tuple[float, ...]
    additive: tuple[float, ...] | None
    multiplicative: tuple[float, ...] | None
    ar_worst: float | None
    mr_worst: float | None
    strategy: dict
    additive_se: tuple[float, ...] | None = None
    multiplicative_se: tuple[float, ...] | None = None


@lru_cache(maxsize=64)
def _coeffs_cached(t: float, precision: float, horizon: float) -> tuple[float, float]:
    # In w = log1p((tau - t)/c), c = t + p, with x = expm1(w) = (tau - t)/c (no
    # cancellation) and d tau / (tau + p)^2 = dw / (c (1 + x)), the integrands
    #     F0 = c int e1^2/4 / (1 + x) dw,   F# - e_sharp = int e1^2/4 x / (1 + x) dw
    # are smooth in w for every prior width.
    span = horizon - t
    if span == 0.0:
        return 0.0, 0.0
    c = t + precision
    # F# ~ log(span / c) diverges at c = 0; `c == 0.0 or` keeps the division from raising
    if c == 0.0 or span / c == math.inf:
        raise SingularityError(
            f"F# diverges: (T - t)/(t + precision) overflows at t={t}, precision={precision}"
        )
    # Near the horizon e1 rises over s ~ 1, so the panels there are equal in
    # tau (mapped to w) up to s = 20; beyond, e1 is flat and they are equal in w.
    s_near = min(span, _S_EDGE)
    panels = np.log1p((span - s_near + s_near * _PANEL_EDGES) / c)
    if span > _S_EDGE:
        panels = np.concatenate([panels[0] * _PANEL_EDGES[:-1], panels])
    # A tiny c stretches the first panels over w ~ log(s_near / c); split any
    # panel wider than _W_MAX into equal parts.
    widths = np.diff(panels)
    if widths.max() > _W_MAX:
        parts = np.ceil(widths / _W_MAX).astype(int)
        panels = np.concatenate(
            [np.linspace(a, b, k, endpoint=False) for a, b, k in zip(panels[:-1], panels[1:], parts)]
            + [panels[-1:]]
        )
    half = 0.5 * np.diff(panels)
    x = np.expm1(panels[:-1, None] + half[:, None] * (1.0 + _NODES))
    g = 0.25 * e1_unit(span - c * x) ** 2 / (1.0 + x)
    terms = half @ np.stack([g, g * x]) * _WEIGHTS
    (i0, tail), (i0_half, tail_half) = terms[:, :_N_NODES].sum(1), terms[:, _N_NODES:].sum(1)
    f_sharp = log_cosh(span) + tail
    # written as `not x <= tol` so that NaN fails the check
    if not (abs(i0 - i0_half) <= _EST_RTOL * i0 and abs(tail - tail_half) <= _EST_RTOL * f_sharp):
        raise QuadratureError(
            f"{_N_NODES}- and {_N_NODES // 2}-node rules disagree at t={t}, precision="
            f"{precision}, T={horizon}: I0 {i0} vs {i0_half}, tail {tail} vs {tail_half}"
        )
    return float(c * i0), float(f_sharp)


def perf_coeffs(t: float, prior: GaussianPrior, spec: ProblemSpec) -> tuple[float, float]:
    """(F0(t), F#(t)) for the given prior, by composite Gauss-Legendre quadrature;
    QuadratureError when the rule at half the nodes disagrees by over 1e-10 relative,
    SingularityError when t + precision is 0 or (T - t)/(t + precision) overflows."""
    _check_time(t, spec)
    if prior.is_improper and t <= 0.0:
        raise SingularityError("F# diverges (logarithmically) as t -> 0 for the improper prior")
    return _coeffs_cached(float(t), prior.precision, spec.horizon)


def perf_coeffs_rk4(t: float, prior: GaussianPrior, spec: ProblemSpec) -> tuple[float, float]:
    """Independent evaluation of (F0, F#): backward RK4 on the coefficient ODEs.

        dF0/dt = 2 F0 / (t + p) - e1^2 / 4
        dF#/dt = -e2 - F0 / (t + p)^2

    integrated from t=T (where both vanish) down to t.  Used to cross-check
    perf_coeffs; the two agree to ~1e-8 relative only where the fixed step
    h = (T - t)/_RK4_STEPS keeps 2h/(tau + p) inside RK4's stability interval
    (below about 2.8) down to tau = t.  At sigma = 100, t = 0, T = 2 that
    ratio is 5, and F0 is 2.9e-3 off.
    """
    _check_time(t, spec)
    if prior.is_improper and t <= 0.0:
        raise SingularityError("improper-prior coefficients undefined at t=0")
    p = prior.precision
    T = spec.horizon

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        # rounding in the step loop can push tau a hair outside [0, T]
        g = own_gains(min(max(tau, 0.0), T), spec)
        d = tau + p
        return np.array(
            [2.0 * y[0] / d - 0.25 * g.e1 * g.e1, -g.e2 - y[0] / (d * d)]
        )

    h = (t - T) / _RK4_STEPS  # negative: integrating backwards
    y = np.zeros(2)
    tau = T
    for _ in range(_RK4_STEPS):
        k1 = rhs(tau, y)
        k2 = rhs(tau + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(tau + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(tau + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tau += h
    return float(y[0]), float(y[1])


def _check_drift(a: float) -> None:
    # the regret formulas take a^2, which overflows for |a| > 1.3e154
    if not math.isfinite(a * a):
        raise DomainError(f"drift a must be finite and its square too, got {a}")


def bayes_cost(
    q: float, xi: float, t: float, a: float, prior: GaussianPrior, spec: ProblemSpec
) -> float:
    """Expected cost-to-go of the Bayesian strategy when the true drift is a."""
    _check_drift(a)
    g = own_gains(t, spec)
    if t == spec.horizon:
        return 0.0
    f0, f_sharp = perf_coeffs(t, prior, spec)
    a_bar, _ = posterior(xi, t, prior)
    d = a_bar - a
    return g.e2 * q * q + g.e1 * q * a + g.e0 * a * a + f0 * d * d + f_sharp


def additive_regret(a: float, prior: GaussianPrior, spec: ProblemSpec) -> float:
    """Expected additive regret of the Bayesian strategy started from q(0)=0.

    Requires an observation phase t_start > 0 (the regret diverges as
    t_start -> 0).  For the improper prior the result is independent of a.
    """
    _check_drift(a)
    t0 = spec.t_start
    if t0 <= 0.0:
        raise DomainError("additive regret requires t_start > 0 (it diverges at 0)")
    f0, f_sharp = perf_coeffs(t0, prior, spec)
    e_sharp = own_gains(t0, spec).e_sharp
    if prior.is_improper:
        return f0 / t0 + f_sharp - e_sharp
    p = prior.precision
    # (t0 + a^2 p^2) / (t0 + p)^2, arranged so that no intermediate overflows
    d = t0 + p
    weight = t0 / d / d + (a * p / d) ** 2
    return f0 * weight + f_sharp - e_sharp


def multiplicative_regret(a: float, prior: GaussianPrior, spec: ProblemSpec) -> float:
    """Competitive ratio of the Bayesian strategy vs the informed opponent, t_start=0:
    the fuel-tax ratio against an untaxed opponent."""
    if prior.is_improper:
        raise DomainError("multiplicative regret needs a proper prior (t_start = 0)")
    return fueltax_ratio(a, prior, 1.0, spec)


def multiplicative_regret_limit(prior: GaussianPrior, spec: ProblemSpec) -> float:
    """The a -> infinity limit of the competitive ratio (t_start = 0)."""
    if spec.t_start != 0.0:
        raise DomainError("multiplicative regret is defined for t_start = 0")
    g = own_gains(0.0, spec)
    f0, _ = perf_coeffs(0.0, prior, spec)
    return (g.e0 + f0) / g.e0


def fueltax_ratio(
    a: float, prior: GaussianPrior, lambda_opp: float, spec: ProblemSpec
) -> float:
    """Ratio of our (untaxed) Bayesian cost to the informed opponent's cost
    at fuel weight lambda_opp >= 1 (checked by ProblemSpec), both from (q=0, t=0)."""
    _check_drift(a)
    if spec.t_start != 0.0:
        raise DomainError("fuel-tax and multiplicative ratios are defined for t_start = 0")
    g1 = own_gains(0.0, spec)
    f0, f_sharp = perf_coeffs(0.0, prior, spec)
    g_lam = gains(0.0, spec.with_fuel_weight(lambda_opp))
    a2 = a * a
    opp = g_lam.e0 * a2 + g_lam.e_sharp
    if not math.isfinite(opp):  # e0 ~ T grows with the horizon
        raise DomainError(f"the opponent's cost overflows at a={a}, T={spec.horizon}")
    return ((g1.e0 + f0) * a2 + f_sharp) / opp


def opponent_cost(a: float, spec: ProblemSpec) -> float:
    """Expected total cost of the informed opponent started from q(0)=0.

    The opponent also observes only on [0, t_start]; its cost is the
    expectation of the known-a value function over q(t_start) ~ N(a t0, t0).
    """
    _check_drift(a)
    t0 = spec.t_start
    g = own_gains(t0, spec)
    return (
        g.e2 * (a * a * t0 * t0 + t0)
        + g.e1 * a * a * t0
        + g.e0 * a * a
        + g.e_sharp
    )


def mr_general(a: float, prior: GaussianPrior, spec: ProblemSpec) -> float:
    """Competitive ratio allowing an observation phase t_start > 0."""
    if spec.t_start == 0.0:
        return multiplicative_regret(a, prior, spec)
    return 1.0 + additive_regret(a, prior, spec) / opponent_cost(a, spec)


def mr_general_limit(prior: GaussianPrior, spec: ProblemSpec) -> float:
    """The a -> infinity limit of mr_general."""
    if spec.t_start == 0.0:
        return multiplicative_regret_limit(prior, spec)
    t0 = spec.t_start
    g = own_gains(t0, spec)
    denom = g.e2 * t0 * t0 + g.e1 * t0 + g.e0
    if prior.is_improper:
        return 1.0
    f0, _ = perf_coeffs(t0, prior, spec)
    p = prior.precision
    return 1.0 + f0 * p * p / (t0 + p) ** 2 / denom
