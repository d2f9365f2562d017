"""Performance of the Bayesian strategy for a fixed true drift.

The expected cost-to-go of the Bayesian controller when the true drift is a
adds two time-dependent corrections F0, F# to the known-a value function:

    cost = e2 q^2 + e1 q a + e0 a^2 + F0(t) (a_bar - a)^2 + F#(t)

with (writing p = sigma^-2, p = 0 for the improper prior)

    F0(t) = (t + p)^2 * I0(t),   I0(t) = int_t^T e1(tau)^2 / (4 (tau+p)^2) dtau
    F#(t) = e_sharp(t) + int_t^T (tau - t) e1(tau)^2 / (4 (tau+p)^2) dtau.

The F# form follows from swapping the order of integration in its defining
double integral.  coefficients(t, spec) evaluates both, for every caller, by
Gauss-Legendre quadrature; perf_coeffs_rk4 integrates the coefficient ODEs as
an independent cross-check.  The prior enters the integrands only through
1/(tau + p)^2, so _node_table builds the nodes, e1^2/4 and panel widths for t,
T and an anchor a once, and _coeffs_from evaluates them at any c = t + p,
re-weighting each node by ((1 + x)/(x + c/a))^2 off the anchor.

From q(0) = 0 our expected cost and the informed opponent's are even
quadratics in a, so every regret is one Mobius function of a^2, monotone from
a = 0 to a -> infinity: r(a) = (alpha + beta a^2) / (gamma + delta a^2).
regret_form returns it per prior as a RegretForm: the cost ratio against an
opponent taxed at weight lambda (at lambda = 1 the competitive ratio), or the
additive regret (gamma = 1, delta = 0).  Callers read every regret from it:
r(a), its a -> infinity .limit and its .sup.  The ratio form's numerator
beta a^2 + alpha is our expected cost, and at lambda = 1 its denominator
gamma + delta a^2 is the opponent's.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bayes import GaussianPrior, posterior
from .errors import DomainError, QuadratureError, SingularityError
from .model import ProblemSpec, _check_time, gains, log_cosh, own_gains

#: Default symmetric drift grid: covers both the small-a (F#-dominated) and
#: large-a (F0-dominated) regimes; all regret formulas depend on a^2 only.
A_GRID_DEFAULT = (0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 10.0, -10.0)

#: Nodes and weights on [-1, 1] of the 48-point Gauss-Legendre rule followed by
#: those of the 24-point rule: one evaluation of an integrand at _NODES gives
#: both sums, and their difference is the error estimate.
_N_NODES = 48
_NODES, _WEIGHTS = (np.concatenate(v) for v in zip(leggauss(_N_NODES), leggauss(_N_NODES // 2)))
_ONE_PLUS_NODES = 1.0 + _NODES  # node w = panel start + half-width * (1 + node)
_PANEL_EDGES = np.linspace(0.0, 1.0, 9)  # 8 equal panels per segment
#: Remaining time s = T - tau beyond which e1 is flat (1 - sech 20 = 1 - 4e-9).
_S_EDGE = 20.0
#: Widest panel in w: wider ones arise only for t + p far below s_near (the
#: widest any figure, cross-check or Monte Carlo point reaches is 14.7).
_W_MAX = 16.0
#: Relative disagreement of the two rules above which the result is refused.
_EST_RTOL = 1e-10
#: Range of c/a, a prior's t + precision c over a node table's anchor a, over
#: which coefficients evaluates the table it has instead of building one at c.
_REANCHOR = (0.5, 2.0)
#: RK4 steps from T down to t in the perf_coeffs_rk4 cross-check.
_RK4_STEPS = 6000
#: Cap on the Newton passes that invert the RK4 grid map (at most 14 were
#: needed for T from 1e-100 to 1e10).
_RK4_NEWTON_MAX = 50


def perf_coeffs(t: float, prior: GaussianPrior, spec: ProblemSpec) -> tuple[float, float]:
    """(F0(t), F#(t)) for the given prior, by composite Gauss-Legendre quadrature;
    QuadratureError when the rule at half the nodes disagrees by over 1e-10 relative,
    SingularityError when t + precision is 0 or (T - t)/(t + precision) overflows."""
    f0, tail = _f0_and_tail(t, prior, spec)
    return f0, log_cosh(spec.horizon - float(t)) + tail


def _f0_and_tail(t: float, prior: GaussianPrior, spec: ProblemSpec) -> tuple[float, float]:
    """(F0(t), F#(t) - e#(t)): perf_coeffs with the quadrature's tail apart
    from e#(t) = log cosh(T - t), so that F# - e# carries no cancellation; one
    evaluation of coefficients(t, spec), at its own anchor."""
    evaluate = coefficients(t, spec)
    if prior.is_improper and t <= 0.0:
        raise SingularityError("F# diverges (logarithmically) as t -> 0 for the improper prior")
    return evaluate(prior.precision)


def coefficients(t: float, spec: ProblemSpec) -> Callable[[float], tuple[float, float]]:
    """precision p -> (F0(t), F#(t) - e#(t)), each p evaluated once; DomainError
    unless t lies in [0, T].  The first p builds a node table anchored at c =
    t + p, and a later p is evaluated from it while c/a stays in _REANCHOR.
    Past that, or where the re-weighted half-node check refuses (a small c/a
    can leave the first panel too wide for it), it builds one anchored at c,
    where _node_table and _coeffs_from raise as they do."""
    _check_time(t, spec)
    t, horizon, seen, table = float(t), spec.horizon, {}, None

    def evaluate(precision: float) -> tuple[float, float]:
        nonlocal table
        if precision not in seen:
            c = t + precision
            if table is None or not _REANCHOR[0] <= c / table.a <= _REANCHOR[1]:
                table = _node_table(t, c, horizon)
            try:
                seen[precision] = _coeffs_from(table, c)
            except QuadratureError:
                if c == table.a:
                    raise
                table = _node_table(t, c, horizon)
                seen[precision] = _coeffs_from(table, c)
        return seen[precision]

    return evaluate


class _NodeTable(NamedTuple):
    """Quadrature nodes at time t for horizon T, anchored at a: the half-width
    of each panel in w, and per node x = (tau - t)/a, 1 + x, and in one array
    g = e1^2/4 / (1 + x) and g x."""

    t: float
    a: float
    horizon: float
    half: np.ndarray
    x: np.ndarray
    one_plus_x: np.ndarray
    g_and_gx: np.ndarray


def _node_table(t: float, a: float, horizon: float) -> _NodeTable:
    """The nodes of the F0/F# quadrature from t to T in w = log1p((tau - t)/a),
    the part of it that does not depend on the prior; _coeffs_from evaluates
    it at any c = t + precision near the anchor a.  SingularityError when a is
    0 or (T - t)/a overflows."""
    # With x = expm1(w) = (tau - t)/a (no cancellation) and d tau = a (1 + x) dw,
    # the integrands are smooth in w for every prior width.
    span = horizon - t
    if span == 0.0:  # no panels: every sum is 0
        empty = np.empty((0, _NODES.size))
        return _NodeTable(t, a, horizon, np.empty(0), empty, empty, np.empty((2,) + empty.shape))
    # F# ~ log(span / a) diverges at a = 0; `a == 0.0 or` keeps the division from raising
    if a == 0.0 or span / a == math.inf:
        raise SingularityError(
            f"F# diverges: (T - t)/(t + precision) overflows at t={t}, t + precision={a}"
        )
    # Near the horizon e1 rises over s ~ 1, so the panels there are equal in
    # tau (mapped to w) up to s = 20; beyond, e1 is flat and they are equal in w.
    s_near = min(span, _S_EDGE)
    panels = np.log1p((span - s_near + s_near * _PANEL_EDGES) / a)
    if span > _S_EDGE:
        panels = np.concatenate([panels[0] * _PANEL_EDGES[:-1], panels])
    # A tiny a stretches the first panels over w ~ log(s_near / a); split any
    # panel wider than _W_MAX into equal parts.
    widths = panels[1:] - panels[:-1]
    if widths.max() > _W_MAX:
        parts = np.ceil(widths / _W_MAX).astype(int)
        panels = np.concatenate(
            [np.linspace(lo, hi, k, endpoint=False) for lo, hi, k in zip(panels[:-1], panels[1:], parts)]
            + [panels[-1:]]
        )
        widths = panels[1:] - panels[:-1]
    # One row of nodes per panel, each array formed in place: x, s = T - tau,
    # 1 + x in the s array, and g and g x.
    half = 0.5 * widths
    x = np.multiply(half[:, None], _ONE_PLUS_NODES)
    x += panels[:-1, None]
    np.expm1(x, out=x)
    g_and_gx = np.empty((2,) + x.shape)
    g, gx = g_and_gx
    s = np.multiply(x, a)
    np.subtract(span, s, out=s)
    np.tanh(s, out=g)
    s *= 0.5
    np.tanh(s, out=s)
    # (tanh s tanh(s/2))^2 is e1_unit(s)^2 / 4 to the bit: scaling by 2 and by
    # 0.25 is exact while the square is a normal float
    g *= s
    g *= g
    one_plus_x = np.add(x, 1.0, out=s)
    g /= one_plus_x
    np.multiply(g, x, out=gx)
    return _NodeTable(t, a, horizon, half, x, one_plus_x, g_and_gx)


def _coeffs_from(table: _NodeTable, c: float) -> tuple[float, float]:
    """(F0, F# - e_sharp) at table.t for the prior with t + precision = c.

    With tau - t = a x and tau + p = a (x + c/a), d tau / (tau + p)^2 is
    ((1 + x)/(x + c/a))^2 dw / (a (1 + x)), so off the anchor a, g and g x
    take that factor at each node, and at c = a, where it is 1, none.  Then
        F0 = (c/a) c int g dw,   F# - e_sharp = int g x dw.
    The factor is smooth and near 1 for c/a in [1/2, 2], where the result
    stays within 1e-13 of a table anchored at c.  QuadratureError when the
    rule at half the nodes disagrees by over 1e-10 relative."""
    g_and_gx = table.g_and_gx
    if c != table.a:
        factor = table.x + c / table.a
        np.divide(table.one_plus_x, factor, out=factor)
        factor *= factor
        g, gx = g_and_gx = np.empty_like(g_and_gx)
        np.multiply(table.g_and_gx[0], factor, out=g)
        np.multiply(g, table.x, out=gx)
    # both integrands' terms at once: row 0 for I0 = int g dw, row 1 for the tail
    terms = table.half @ g_and_gx
    terms *= _WEIGHTS
    i0, tail = np.add.reduce(terms[:, :_N_NODES], axis=1).tolist()
    i0_half, tail_half = np.add.reduce(terms[:, _N_NODES:], axis=1).tolist()
    f_sharp = log_cosh(table.horizon - table.t) + tail
    # written as `not x <= tol` so that NaN fails the check
    if not (abs(i0 - i0_half) <= _EST_RTOL * i0 and abs(tail - tail_half) <= _EST_RTOL * f_sharp):
        raise QuadratureError(
            f"{_N_NODES}- and {_N_NODES // 2}-node rules disagree at t={table.t}, t + precision="
            f"{c}, T={table.horizon}: I0 {i0} vs {i0_half}, tail {tail} vs {tail_half}"
        )
    return c / table.a * c * i0, tail


def perf_coeffs_rk4(t: float, prior: GaussianPrior, spec: ProblemSpec) -> tuple[float, float]:
    """Independent evaluation of (F0, F#): backward RK4 on the coefficient ODEs.

        dF0/dt = 2 F0 / (t + p) - e1^2 / 4
        dF#/dt = -e2 - F0 / (t + p)^2

    integrated from t=T (where both vanish) down to t, over the _RK4_STEPS
    steps of _rk4_nodes.  Used to cross-check perf_coeffs: the steps shrink
    with tau + p near t, where 2 F0/(t + p) is stiff, and with the remaining
    time near T, where e1 rises, so the steps stay well inside RK4's
    stability interval for every prior width.  SingularityError where (t +
    p)^2 falls below the smallest normal float, where the second equation
    would divide by an underflowed square.
    """
    _check_time(t, spec)
    if prior.is_improper and t <= 0.0:
        raise SingularityError("improper-prior coefficients undefined at t=0")
    p = prior.precision
    T = spec.horizon
    if t == T:
        return 0.0, 0.0

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        # rounding in the step loop can push tau a hair outside [0, T]
        g = own_gains(min(max(tau, 0.0), T), spec)
        d = tau + p
        return np.array(
            [2.0 * y[0] / d - 0.25 * g.e1 * g.e1, -g.e2 - y[0] / (d * d)]
        )

    nodes = _rk4_nodes(float(t), p, T).tolist()
    if (t + p) * (t + p) < sys.float_info.min:  # rhs divides by (tau + p)^2
        raise SingularityError(f"(t + precision)^2 underflows at t={t}, t + precision={t + p}")
    y = np.zeros(2)
    for tau, end in zip(nodes[:-1], nodes[1:]):
        h = end - tau  # negative: integrating backwards
        k1 = rhs(tau, y)
        k2 = rhs(tau + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(tau + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(end, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(y[0]), float(y[1])


def _rk4_nodes(t: float, p: float, T: float) -> np.ndarray:
    """The _RK4_STEPS + 1 nodes of perf_coeffs_rk4, from T down to t (both
    exact), equally spaced in
        v(tau) = tau + L log(tau + p) - L log(T - tau + 1),   L = (T - t)/8,
    so that the steps shrink in proportion to tau + p near t and to T - tau + 1
    near T.  SingularityError when (T - t)/(t + p) overflows.

    Each node is inverted from v by Newton in y = log1p((tau - t)/c), c =
    t + p, where tau - t = c expm1(y) keeps its precision however small c is.
    In y, v is increasing and convex, so Newton from the right end falls
    monotonically to each root; it stops once no node moves by 1e-12 in y."""
    span, c = T - t, t + p
    L = span / 8.0
    y_end = math.log1p(span / c)
    if y_end == math.inf:
        raise SingularityError(f"(T - t)/(t + precision) overflows at t={t}, t + precision={c}")
    # v - t - L log c in y, where x = tau - t = c expm1(y): x + L y - L log1p(span - x)
    target = np.linspace(span + L * y_end, -L * math.log1p(span), _RK4_STEPS + 1)[1:-1]
    y = np.full(target.shape, y_end)
    for _ in range(_RK4_NEWTON_MAX):
        ey = np.expm1(y)
        rest = 1.0 + (span - c * ey)  # T - tau + 1
        step = c * ey + L * y - L * np.log(rest) - target
        step /= c * (1.0 + ey) * (1.0 + L / rest) + L  # dv/dy
        y -= step
        if np.abs(step).max() <= 1e-12:
            break
    return np.concatenate(([T], t + c * np.expm1(y), [t]))


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


@dataclass(frozen=True)
class RegretForm:
    """A regret as a function of the drift a: (alpha + beta a^2) / (gamma + delta a^2),
    with nonnegative coefficients and gamma > 0, so monotone in a^2."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __call__(self, a: float) -> float:
        _check_drift(a)
        a2 = a * a
        den = self.delta * a2 + self.gamma
        if not math.isfinite(den):  # e0 ~ T grows with the horizon
            raise DomainError(f"the opponent's cost overflows at a={a}")
        return (self.beta * a2 + self.alpha) / den

    @property
    def limit(self) -> float:
        """The a -> infinity limit: beta/delta, or inf for an additive regret growing in a."""
        if self.delta == 0.0:
            return math.inf if self.beta > 0.0 else self.alpha / self.gamma
        return self.beta / self.delta

    @property
    def sup(self) -> float:
        """The supremum over every drift, attained at a = 0 or as a -> infinity."""
        return max(self(0.0), self.limit)


def regret_form(
    prior: GaussianPrior, spec: ProblemSpec, lambda_opp: float = 1.0, *,
    additive: bool = False, coeffs: tuple[float, float] | None = None,
) -> RegretForm:
    """The regret of the Bayesian strategy against the informed opponent, both from
    q(0) = 0 and observing only until t0 = t_start: the ratio of our (untaxed)
    expected cost to the opponent's at fuel weight lambda_opp >= 1 (checked by
    ProblemSpec), or with additive=True our cost minus the untaxed opponent's.
    q(t0) ~ N(a t0, t0) and E (a_bar - a)^2 = (t0 + a^2 p^2)/(t0 + p)^2 give the
    coefficients.  coeffs is (F0, F# - e#) at t0, as coefficients returns it,
    when the caller holds it already.  The additive form is against the
    untaxed opponent, so it takes no lambda_opp."""
    t0 = spec.t_start
    if additive:
        if lambda_opp != 1.0:
            raise DomainError("additive regret takes no lambda_opp: its opponent is untaxed")
        if t0 <= 0.0:
            raise DomainError("additive regret requires t_start > 0 (it diverges at 0)")
    f0, tail = _f0_and_tail(t0, prior, spec) if coeffs is None else coeffs
    g = own_gains(t0, spec)
    p = prior.precision
    d = t0 + p
    # F0 times the two weights of E (a_bar - a)^2, formed so that no intermediate overflows
    f0_w0, f0_w2 = f0 / d * (t0 / d), f0 * (p / d) ** 2
    if additive:
        return RegretForm(f0_w0 + tail, f0_w2, 1.0, 0.0)
    o = g if lambda_opp == 1.0 else gains(t0, spec.with_fuel_weight(lambda_opp))
    return RegretForm(
        g.e2 * t0 + (g.e_sharp + tail) + f0_w0,  # F# = e# + tail
        (g.e2 * t0 + g.e1) * t0 + g.e0 + f0_w2,
        o.e2 * t0 + o.e_sharp,
        (o.e2 * t0 + o.e1) * t0 + o.e0,
    )


def fueltax_ratio(a: float, prior: GaussianPrior, lambda_opp: float, spec: ProblemSpec) -> float:
    """Ratio of our (untaxed) Bayesian cost to the informed opponent's cost at fuel
    weight lambda_opp >= 1, both from (q=0, t=0): ((e0 + F0) a^2 + F#)/(e0_lam a^2 + e#_lam)."""
    if spec.t_start != 0.0:
        raise DomainError("fuel-tax and multiplicative ratios are defined for t_start = 0")
    return regret_form(prior, spec, lambda_opp)(a)
