"""Root-finding and sweep layer for the agnostic control strategies.

Every regret is a performance.regret_form, monotone in a^2, so its supremum
is max(r(0), r(inf)), and the competitive ratio is constant in a exactly when
r(0) = F#/e# equals the limit (e0 + F0)/e0.  solve_sigma_mr finds the prior
width sigma* achieving that balance, and the form there; worst_case_mr
evaluates the resulting ratio.  The fuel-tax variant asks both of those
ratios to equal 1 against an opponent taxed at lambda: the a=0 condition
gives lambda(sigma) in closed form, so solve_fueltax is again one root in
sigma.  A solve integrates F0/F# once for each sigma it tries.

Both solves use one search, find_root, over a log-spaced scan of sigma.  The
scan bisects or refuses: when the residual differs in sign at the scan's two
ends, bisecting the scan's indices finds the adjacent pair around a sign
change in about log2 of the scan's length evaluations; when the ends agree,
find_root raises NoRootError, since neither residual changes sign more than
once over the scan.  The Illinois method (Dowell & Jarratt, BIT 11, 1971), a
regula falsi in log sigma that halves the value of an end kept twice in a
row, then narrows that pair until |residual| <= F_TOL.

A sweep continues along the curve it solves (Allgower & Georg, Numerical
Continuation Methods, 1990), as a predictor-corrector: sigma moves smoothly
with the horizon, so each point's solve starts from a guess of log sigma
extrapolated, in (log T, log sigma), from the roots converged before it, and
corrects it by secant steps from the residual's slope in log sigma that the
last solve measured.  About three quadratures settle a point; only when the
guess fails does the point scan as a single solve does, and single solves
always scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bayes import GaussianPrior
from .errors import DomainError, NoRootError
from .model import ProblemSpec, e0_unit, log_cosh, own_gains
from .performance import A_GRID_DEFAULT, RegretForm, perf_coeffs, regret_form

#: The 31 prior widths, log-spaced over [1e-3, 1e3], scanned for a sign change.
_SIGMA_SCAN = np.logspace(-3.0, 3.0, 31)
#: Most Newton steps _taxed_opponent takes for the fuel weight.
_NEWTON_MAX = 64
#: Residual magnitude at which every root solve counts as converged.
F_TOL = 1e-9
#: Most evaluations find_root makes inside the bracket.
_MAX_ITER = 200
#: Most evaluations find_root spends on a guess before it scans.
_GUESS_MAX = 7

#: Default horizon grid behind the figure sweeps: 40 log-spaced points
#: covering all qualitative features (regret peak near T=2, both tails).
T_GRID_DEFAULT = tuple(np.logspace(math.log10(0.1), math.log10(20.0), 40))


@dataclass(frozen=True)
class SolveResult:
    """One root solve.  bracket_lo and bracket_hi hold the root between a sign
    change of the residual, except after a solve from a guess, where they are
    the span of its iterates.  slope is d(residual)/d(log root) through the
    last two points evaluated (None where nothing measured it)."""

    root: float
    residual: float
    iterations: int
    bracket_lo: float
    bracket_hi: float
    converged: bool
    #: the regret form at the root, where the root is a prior width (None from find_root)
    form: RegretForm | None = None
    slope: float | None = None


@dataclass(frozen=True)
class SweepTable:
    """Per-horizon solved quantities, each record's 'T' in grid order; failed
    points carry an 'error' entry."""

    records: tuple[dict, ...]


def _scan_bracket(f: Callable[[float], float], xs) -> tuple[float, float, float, float]:
    """(a, f(a), b, f(b)): the adjacent pair of xs around a sign change of f
    that bisecting the indices of xs closes on when f differs in sign at the
    ends of xs.  When the ends agree it refuses with NoRootError, .scan holding
    every (x, f(x)) pair, the points between the ends evaluated in index order."""
    xs = [float(x) for x in xs]
    values: dict[int, float] = {}

    def sign(i: int) -> float:
        if i not in values:
            values[i] = f(xs[i])
        return math.copysign(1.0, values[i])

    lo, hi = 0, len(xs) - 1
    if sign(lo) == sign(hi):
        err = NoRootError(f"no sign change over scan [{xs[0]}, {xs[-1]}]")
        err.scan = [(x, values[i] if i in values else f(x)) for i, x in enumerate(xs)]
        raise err
    while hi - lo > 1:
        m = (lo + hi) // 2
        if sign(m) == sign(lo):
            lo = m
        else:
            hi = m
    return xs[lo], values[lo], xs[hi], values[hi]


def _from_guess(f: Callable[[float], float], xs, x: float, slope: float) -> SolveResult | None:
    """Secant steps in u = log x from x, the first along slope = df/du, each
    later one along the secant of the last two points, until |f| <= F_TOL.
    None, for find_root to scan, when x or a step leaves [xs[0], xs[-1]] or
    is not finite, when a step leads away from the root (f keeps its sign and
    grows, as after a wrong-sign slope) or when _GUESS_MAX evaluations pass."""
    lo, hi = math.log(xs[0]), math.log(xs[-1])
    # written as `not lo <= x` so that a NaN guess or step falls back
    if not xs[0] <= x <= xs[-1]:
        return None
    u, fx = math.log(x), f(x)
    iters, x_lo, x_hi = 1, x, x
    while not abs(fx) <= F_TOL:  # a NaN residual steps to NaN and falls back
        if iters == _GUESS_MAX or slope == 0.0:
            return None
        u_next = u - fx / slope
        if not lo <= u_next <= hi:
            return None
        x_next = math.exp(u_next)
        f_next = f(x_next)
        iters += 1
        if abs(f_next) >= abs(fx) and math.copysign(1.0, f_next) == math.copysign(1.0, fx):
            return None  # the step led away from the root
        slope = (f_next - fx) / (u_next - u)
        u, x, fx = u_next, x_next, f_next
        x_lo, x_hi = min(x_lo, x), max(x_hi, x)
    return SolveResult(x, fx, iters, x_lo, x_hi, True, slope=slope)


def find_root(f: Callable[[float], float], xs, *, guess=None) -> SolveResult:
    """Root of f in a sign change over the positive, increasing xs
    (NoRootError, with the (x, f(x)) pairs as .scan, when f has one sign at
    both ends of xs).

    guess, a pair (x, df/dlog x), starts a secant solve at x (_from_guess);
    the scan runs only when that fails, and then exactly as without a guess.
    A guessed solve's bracket is the span of its iterates, not a sign change,
    and like a scan end it is accepted on |f| <= F_TOL alone: where f stays
    within F_TOL of 0 over all of xs, as the sigma* residual does below
    T = 4e-6, it converges where the scan finds no sign change.

    The scan's bracket is the pair of xs that _scan_bracket finds around a
    sign change when f differs in sign at the ends of xs, the only one when f
    changes sign once; when the ends agree the scan refuses with NoRootError,
    even if f changes sign twice in between.  The Illinois method narrows
    that bracket in u = log x: each step takes the secant point of the
    bracket's ends, or their midpoint when that point is not strictly inside,
    and replaces the end whose value has its sign; an end kept twice in a row
    has its stored value halved, which stops a convex f from holding one end
    fixed.  When the next point would equal an end, the bracket has closed to
    adjacent floats: the last point evaluated is returned unconverged.
    iterations counts the evaluations inside the bracket, ends included, or
    from the guess.
    """
    if guess is not None:
        sr = _from_guess(f, xs, *(float(v) for v in guess))
        if sr is not None:
            return sr
    a, fa, b, fb = _scan_bracket(f, xs)
    ua, ub = math.log(a), math.log(b)
    # the last point evaluated, with its value as evaluated, not as halved
    u_last, f_last = ub, fb
    slope = (fb - fa) / (ub - ua)
    iters = 2
    for x, fx in ((a, fa), (b, fb)):
        if abs(fx) <= F_TOL:
            return SolveResult(x, fx, iters, a, b, True, slope=slope)

    kept = 0  # the end kept by the last step: -1 for a, +1 for b
    while iters < _MAX_ITER:
        u = ub - fb * (ub - ua) / (fb - fa)
        # written as `not lo < u` so that a NaN point, from an end value that
        # is not finite, takes the midpoint
        if not ua < u < ub:
            u = 0.5 * (ua + ub)
        x_next = math.exp(u)
        if x_next in (a, b):  # no float is left strictly inside the bracket
            break
        x, fx = x_next, f(x_next)
        iters += 1
        slope, u_last, f_last = (fx - f_last) / (u - u_last), u, fx
        if abs(fx) <= F_TOL:
            return SolveResult(x, fx, iters, a, b, True, slope=slope)
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, ua, fa = x, u, fx
            if kept == 1:
                fb *= 0.5
            kept = 1
        else:
            b, ub, fb = x, u, fx
            if kept == -1:
                fa *= 0.5
            kept = -1
    return SolveResult(x, fx, iters, a, b, False, slope=slope)


def _coeffs_at_zero(T: float) -> Callable[[float], tuple[float, float]]:
    """sigma -> (F0, F#) at t = 0 and horizon T, integrated once per sigma: one
    solve keeps its own, to read its root and bracket ends back."""
    spec, seen = ProblemSpec(horizon=T), {}

    def coeffs(sigma: float) -> tuple[float, float]:
        if sigma not in seen:
            seen[sigma] = perf_coeffs(0.0, GaussianPrior(sigma), spec)
        return seen[sigma]

    return coeffs


def _sigma_mr_residual(T: float, coeffs) -> Callable[[float], float]:
    """sigma -> (e0 + F0)/e0 - F#/e# at horizon T, F0/F# read from coeffs, a
    _coeffs_at_zero(T) table: the residual solve_sigma_mr zeroes."""
    g = own_gains(0.0, ProblemSpec(horizon=T))
    e0, e_sharp = g.e0, g.e_sharp

    def resid(sigma: float) -> float:
        f0, f_sharp = coeffs(sigma)
        return (e0 + f0) / e0 - f_sharp / e_sharp

    return resid


def solve_sigma_mr(T: float, *, guess=None) -> SolveResult:
    """Prior width sigma* making the competitive ratio independent of the drift:
    its a=0 value F#/e# equals its a->inf limit (e0 + F0)/e0; .form is the ratio
    there.  guess, a sigma and the residual's slope in log sigma to start
    from before the scan, is find_root's."""
    coeffs = _coeffs_at_zero(T)
    sr = find_root(_sigma_mr_residual(T, coeffs), _SIGMA_SCAN, guess=guess)
    form = regret_form(GaussianPrior(sr.root), ProblemSpec(horizon=T), coeffs=coeffs(sr.root))
    return replace(sr, form=form)


def worst_case_mr(T: float, sigma: float | None = None) -> float:
    """Worst-case competitive ratio at horizon T: at a fixed sigma the supremum
    of its form; with sigma=None the constant ratio F#/e# at sigma*(T)."""
    if sigma is None:
        sr = solve_sigma_mr(T)
        if not sr.converged:
            raise NoRootError(f"sigma* solve did not converge at T={T}")
        return sr.form(0.0)
    return regret_form(GaussianPrior(sigma), ProblemSpec(horizon=T)).sup


def _taxed_opponent(T: float, f_sharp: float) -> tuple[float, float]:
    """(lambda, e0_lambda) at t = 0, where the opponent's e#_lambda =
    lambda log cosh(T/sqrt(lambda)) equals f_sharp.

    de#/dlambda = log cosh s - (s/2) tanh s, s = T/sqrt(lambda), is positive
    and falls as lambda grows, so Newton from lambda = 1 climbs to the root
    without overshooting.  e#_lambda stays below its lambda -> inf limit T^2/2,
    so when f_sharp is at or past it there is no root: lambda is inf and e0 its
    limit T^3/3.  e0_lambda = T^3 (s - tanh s)/s^3 comes from its series
    T^3 (1/3 - 2 s^2/15) below s = 1e-4, where lambda^{3/2} may overflow and
    s - tanh s underflow.
    """
    if f_sharp >= 0.5 * T * T:
        return math.inf, T ** 3 / 3.0
    lam = 1.0
    for _ in range(_NEWTON_MAX):
        s = T / math.sqrt(lam)
        th, lc, z = math.tanh(s), log_cosh(s), s * s
        # the difference cancels below s = 1e-3, where the series is exact to 1e-13
        slope = lc - 0.5 * s * th if s >= 1e-3 else z * z * (1.0 / 12.0 - z * (2.0 / 45.0))
        gap = f_sharp - lam * lc
        if not (gap > 4e-16 * f_sharp and slope > 0.0):
            break
        lam += gap / slope
    s = T / math.sqrt(lam)
    if s < 1e-4:
        return lam, T ** 3 * (1.0 / 3.0 - s * s * (2.0 / 15.0))
    return lam, lam * math.sqrt(lam) * e0_unit(s)


def _fueltax_residual(T: float, coeffs) -> Callable[[float], float]:
    """sigma -> 1 - (e0_lambda - e0)/F0 at horizon T, lambda = lambda(sigma), with
    F0/F# read as in _sigma_mr_residual: the residual solve_fueltax zeroes."""
    e0 = own_gains(0.0, ProblemSpec(horizon=T)).e0

    def resid(sigma: float) -> float:
        f0, f_sharp = coeffs(sigma)
        extra = _taxed_opponent(T, f_sharp)[1] - e0
        return 1.0 - extra / f0 if f0 > 0.0 else -math.inf

    return resid


def solve_fueltax(T: float, *, guess=None) -> tuple[SolveResult, SolveResult]:
    """Fuel-tax regret at horizon T: the fuel weight lambda* of the informed
    opponent at which a prior, of width sigma_ft, makes the taxed cost ratio
    equal to 1 for every drift.  Returns (lambda result, sigma result); the
    lambda bracket is lambda(sigma) at the ends of the sigma result's bracket,
    and the lambda result's form is the taxed ratio at (sigma_ft, lambda*).

    Our side pays no tax, so F0 and F# at t = 0 depend on sigma only.  Ratio 1
    at a = 0, F#(sigma) = e#_lambda, gives lambda(sigma) in closed form; ratio
    1 as a -> inf, F0(sigma) = e0_lambda - e0, is one bracketed root in sigma,
    with the residual taken relative to F0.  guess is as in solve_sigma_mr.
    """
    coeffs = _coeffs_at_zero(T)
    sr = find_root(_fueltax_residual(T, coeffs), _SIGMA_SCAN, guess=guess)
    lam, lam_lo, lam_hi = (
        _taxed_opponent(T, coeffs(s)[1])[0] for s in (sr.root, sr.bracket_lo, sr.bracket_hi)
    )
    form = regret_form(GaussianPrior(sr.root), ProblemSpec(horizon=T), lam, coeffs=coeffs(sr.root))
    r = form(0.0) - 1.0
    converged = sr.converged and abs(r) <= F_TOL
    return SolveResult(lam, r, sr.iterations, lam_lo, lam_hi, converged, form), sr


def certify_constant_mr(T: float, sigma: float, a_values=A_GRID_DEFAULT) -> float:
    """Spread of the competitive ratio over the drift grid, each drift evaluated, plus its
    infinite-drift limit.  It evaluates the same RegretForm that solve_sigma_mr returns
    as .form, rebuilt from a fresh quadrature at sigma."""
    form = regret_form(GaussianPrior(sigma), ProblemSpec(horizon=T))
    vals = [form(a) for a in a_values] + [form.limit]
    return max(vals) - min(vals)


def _guess(log_T: float, roots: list[tuple[float, float]], slope: float):
    """The (sigma, slope) a sweep point at log_T starts from, None before any
    root has converged.  roots are the (log T, log sigma) converged before it:
    log sigma is the polynomial through the last three at distinct log T,
    quadratic through three, linear through two, and through one the small-T
    scaling sigma sqrt(T) -> const that both residuals share.  slope is the
    last solve's.  A guess outside the scan's range, NaN or overflowing
    included, makes find_root scan."""
    pts = []  # newest first; grid order makes log T non-decreasing
    for u, v in reversed(roots):
        if len(pts) == 3:
            break
        if not pts or u != pts[-1][0]:
            pts.append((u, v))
    if not pts:
        return None
    if len(pts) == 1:
        (u1, v1), = pts
        g = v1 - 0.5 * (log_T - u1)
    else:  # Lagrange form; products overflow to inf, never raise
        g = 0.0
        for i, (ui, vi) in enumerate(pts):
            w = vi
            for j, (uj, _) in enumerate(pts):
                if j != i:
                    w *= (log_T - uj) / (ui - uj)
            g += w
    # math.exp raises past 709.78; find_root scans for any guess beyond the scan's range
    return math.exp(min(g, 709.0)), slope


def _solve_point(quantity: str, T: float, guess) -> tuple[dict, SolveResult]:
    """The sweep record at T and the sigma solve behind it."""
    if quantity == "fueltax":
        lam_r, sig_r = solve_fueltax(T, guess=guess)
        return {"T": T, "lambda_star": lam_r.root, "sigma_ft": sig_r.root,
                "converged": lam_r.converged and sig_r.converged}, sig_r
    sr = solve_sigma_mr(T, guess=guess)
    # the form lets figure 2 reuse sigma* without a quadrature
    return {"T": T, "sigma_star": sr.root, "mr_star_optimal": sr.form(0.0), "form": sr.form,
            "converged": sr.converged}, sr


def sweep(quantity: str, t_grid) -> SweepTable:
    """Solve one quantity over a horizon grid, point by point in grid order;
    per-point failures are recorded, never interpolated.

    Each point continues from the converged points before it, as a predictor-
    corrector: _guess predicts its sigma from their roots, and find_root
    corrects that by secant steps, from the slope the last converged solve
    measured, until |residual| <= F_TOL.  A point scans as a single solve
    does when none has converged yet or when the guess fails; either way it
    integrates F0/F# once for each sigma it tries.
    """
    if quantity not in ("sigma_mr", "fueltax"):
        raise ValueError(f"unknown sweep quantity {quantity!r}")
    grid = tuple(float(t) for t in t_grid)
    if not grid:
        raise DomainError("empty horizon grid")
    # written as `not lo < x` so that NaN fails the check
    if not all(0.0 < t < math.inf for t in grid) or not all(
        a < b for a, b in zip(grid, grid[1:])
    ):
        raise DomainError("horizon grid must be positive, finite and strictly increasing")

    records, roots, slope = [], [], None
    for T in grid:
        log_T = math.log(T)
        try:
            rec, sr = _solve_point(quantity, T, _guess(log_T, roots, slope))
        except Exception as exc:  # recorded, sweep continues
            rec = {"T": T, "error": f"{type(exc).__name__}: {exc}"}
        if rec.get("converged"):
            roots.append((log_T, math.log(sr.root)))
            slope = sr.slope
        records.append(rec)
    return SweepTable(records=tuple(records))
