"""Root-finding and sweep layer for the agnostic control strategies.

Every regret is a performance.regret_form, monotone in a^2, so its supremum
is max(r(0), r(inf)), and the competitive ratio is constant in a exactly when
r(0) = F#/e# equals the limit (e0 + F0)/e0.  solve_sigma_mr finds the prior
width sigma* achieving that balance, and the form there; worst_case_mr
evaluates the resulting ratio.  The fuel-tax variant asks both of those
ratios to equal 1 against an opponent taxed at lambda: the a=0 condition
gives lambda(sigma) by a short Newton iteration, so solve_fueltax is again one
root in sigma.  A solve reads F0 and F# - e# at every sigma it tries from
one performance.coefficients evaluator, which integrates each sigma once.

Both residuals are scale-free.  The sigma* balance, F0/e0 = (F# - e#)/e#, is
zeroed as 1 - ((F# - e#)/e#)/(F0/e0); the fuel-tax one as 1 - (e0_lambda -
e0)/F0, with lambda(sigma) read from F# - e# = e#_lambda - e#.  Both sides of
each vanish like T^2 as T -> 0, and each difference is formed without
cancellation, so |residual| <= F_TOL means the same thing at every horizon.

Both solves use one search, find_root: one loop of secant steps in log sigma
from a predicted start until |residual| <= F_TOL.  Each step is at most a
factor of 4 in sigma until two evaluated points straddle a sign change; from
then on it stays inside that bracket, falling back to the Illinois method
(Dowell & Jarratt, BIT 11, 1971), a regula falsi in log sigma that halves the
value of an end kept twice in a row.  A solve returns a converged root or
raises NoRootError.  As T -> 0 the roots follow sigma sqrt(T) -> C, 1.962466
for sigma* and 1.5212 for sigma_ft; a single solve starts at sigma_0(T) =
C (1 + T/25)/sqrt(T), within 4 % of both roots over [0.1, 20], and past T =
20 at K (log10 T)^m, a fit within 1.1 % of each root up to T = 1e10 (0.916
(log10 T)^-0.602 for sigma*, 0.726 (log10 T)^-0.647 for sigma_ft).  It takes
its first step along the residual's small-T slope in log sigma.

A sweep continues along the curve it solves (Allgower & Georg, Numerical
Continuation Methods, 1990), as a predictor-corrector: sigma moves smoothly
with the horizon, so each point's solve starts from a guess of log sigma
extrapolated, in (log T, log sigma), from the roots converged before it, and
corrects it by secant steps from the residual's slope in log sigma that the
last solve measured.  About three evaluations settle a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bayes import GaussianPrior
from .errors import DomainError, NoRootError
from .model import ProblemSpec, e0_gap, e_sharp_gap, log_cosh, own_gains
from .performance import A_GRID_DEFAULT, RegretForm, coefficients, regret_form

#: Most Newton steps _taxed_opponent takes for the fuel weight.
_NEWTON_MAX = 64
#: Residual magnitude at which every root solve counts as converged.
F_TOL = 1e-9
#: Most evaluations find_root makes.
_MAX_ITER = 200
#: Widest step find_root takes before a sign change: a factor of 4 in x.
_STEP_MAX = math.log(4.0)
#: (C, slope, K, m) of each solve's start: sigma sqrt(T) at the root and the
#: residual's slope in log sigma there, both as T -> 0; past T = 20 the roots
#: follow K (log10 T)^m, within 1.1 % up to T = 1e10.  C is 1/sqrt(c),
#: rounded, where c solves the T -> 0 balance of each residual with tau =
#: theta T, p = c T and J_k(c) = int_0^1 theta^k (1 - theta)^4/(theta + c)^2
#: d theta: 3 c^2 J0 = 2 J1 for sigma* (1/sqrt(c) = 1.9624658742865), 3 J1 =
#: (15/8) c^2 J0 for sigma_ft (1.5212028925487); tests/test_solvers.py checks
#: both.  C stays as written: another start moves the roots' last digits,
#: and with them the golden outputs.
_SIGMA_MR_START = (1.962466, -3.37, 0.916, -0.602)
_FUELTAX_START = (1.5212, -3.5, 0.726, -0.647)

#: Default horizon grid behind the figure sweeps: 40 log-spaced points
#: covering all qualitative features (regret peak near T=2, both tails).
T_GRID_DEFAULT = tuple(np.logspace(math.log10(0.1), math.log10(20.0), 40))


@dataclass(frozen=True)
class SolveResult:
    """One converged root solve: |residual| <= F_TOL at root.  bracket_lo and
    bracket_hi hold the root between a sign change of the residual, except
    after a solve that converged before any sign change, where they are the
    span of its iterates.  slope is d(residual)/d(log root) through the last
    two points evaluated, or the slope the solve started from where it
    evaluated one."""

    root: float
    residual: float
    iterations: int
    bracket_lo: float
    bracket_hi: float
    #: the regret form at the root, where the root is a prior width (None from find_root)
    form: RegretForm | None = None
    slope: float | None = None


@dataclass(frozen=True)
class SweepTable:
    """Per-horizon solved quantities, each record's 'T' in grid order: a record
    holds floats only, its solved quantities or, where its solve raised, an
    'error' string in their place."""

    records: tuple[dict, ...]


def _no_root(scan: list[tuple[float, float]], why: str | None = None) -> NoRootError:
    err = NoRootError(why or f"no root within {_MAX_ITER} evaluations from x={scan[0][0]}")
    err.scan = scan
    return err


def find_root(f: Callable[[float], float], x: float, slope: float) -> SolveResult:
    """Root of f over x > 0, searched from x in u = log x.  slope estimates
    df/du at x; its sign is taken as that of df/du on the way to the root.

    One loop of steps in u, each to the secant point through the last two
    points evaluated (the first along slope), until |f| <= F_TOL.  Until two
    points differ in sign, a step that is not finite, that leads away from
    the root (uphill in |f| by the sign of slope) or that is wider than a
    factor of 4 in x is a factor of 4 downhill instead.  Once they do, they
    bracket the root, and a secant point not strictly inside the bracket gives
    way to the Illinois point (Dowell & Jarratt 1971): the secant point of the
    bracket's ends, or their midpoint when that is not strictly inside either.
    Each point replaces the end whose value has its sign, and an end kept
    twice in a row has its stored value halved, which stops a convex f from
    holding one end fixed.

    NoRootError, with every (x, f(x)) pair evaluated as .scan, when f is not
    finite at x, when the bracket has closed on two points with no exp(u)
    strictly between them, or after _MAX_ITER evaluations.  iterations counts
    every evaluation.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"find_root starts from a positive, finite x, got {x}")
    fx = f(x)
    scan = [(x, fx)]
    if not math.isfinite(fx):
        raise _no_root(scan, f"f({x!r}) = {fx} is not finite")
    u, m = math.log(x), slope
    ends = None  # once two points differ in sign: [[a, log a, f(a)], [b, log b, f(b)]], a < b
    kept = None  # the index of the end replaced by the last step
    while not abs(fx) <= F_TOL:
        if len(scan) == _MAX_ITER:
            raise _no_root(scan)
        d = -fx / m if m else math.nan
        if not ends:
            downhill = math.copysign(_STEP_MAX, -fx * slope)
            # written as `not 0 < d` so that a NaN step goes downhill
            if not 0.0 < d / downhill <= 1.0:
                d = downhill
        u_next = u + d
        if ends:
            (a, ua, fa), (b, ub, fb) = ends
            # written as `not ua < u_next` so that a NaN point, from a value
            # that is not finite, falls back
            if not ua < u_next < ub:
                u_next = ub - fb * (ub - ua) / (fb - fa)
                if not ua < u_next < ub:
                    u_next = 0.5 * (ua + ub)
            d = u_next - u
        x_next = math.exp(u_next)
        if ends and x_next in (a, b):  # no exp(u) is left strictly inside the bracket
            raise _no_root(scan, f"the bracket closed on [{a!r}, {b!r}] with no |f| <= {F_TOL}")
        f_next = f(x_next)
        scan.append((x_next, f_next))
        m = (f_next - fx) / d
        if abs(f_next) <= F_TOL:
            pass  # converged: the bracket stays as it was
        elif ends:
            i = int(math.copysign(1.0, f_next) != math.copysign(1.0, fa))  # the end of its sign
            ends[i] = [x_next, u_next, f_next]
            if kept == i:  # the other end kept twice in a row
                ends[1 - i][2] *= 0.5
            kept = i
        elif math.copysign(1.0, f_next) != math.copysign(1.0, fx):
            ends = [[p, math.log(p), fp] for p, fp in sorted(scan[-2:])]
            u_next = math.log(x_next)
        u, fx = u_next, f_next
    xs = [p[0] for p in scan]
    lo, hi = (ends[0][0], ends[1][0]) if ends else (min(xs), max(xs))  # else the iterates' span
    return SolveResult(scan[-1][0], fx, len(scan), lo, hi, slope=m)


def _start(start: tuple[float, float, float, float], T: float) -> tuple[float, float]:
    """(sigma_0(T), slope) for a single solve from start = (C, slope, K, m):
    sigma_0(T) = C (1 + T/25)/sqrt(T) up to T = 20, and K (log10 T)^m past it,
    where the first fit turns up while the roots keep falling."""
    c, slope, k, m = start
    if T > 20.0:
        return k * math.log10(T) ** m, slope
    return c * (1.0 + T / 25.0) / math.sqrt(T), slope


def _sigma_mr_residual(T: float, coeffs) -> Callable[[float], float]:
    """sigma -> 1 - ((F# - e#)/e#)/(F0/e0) at horizon T, F0 and F# - e# read
    from coeffs, performance.coefficients at t = 0: the residual
    solve_sigma_mr zeroes, -inf where F0/e0 underflows."""
    g = own_gains(0.0, ProblemSpec(horizon=T))
    e0, e_sharp = g.e0, g.e_sharp

    def resid(sigma: float) -> float:
        f0, tail = coeffs(GaussianPrior(sigma).precision)
        q = f0 / e0
        return 1.0 - tail / e_sharp / q if q > 0.0 else -math.inf

    return resid


def _root_in_sigma(T: float, resid, coeffs, start, guess) -> SolveResult:
    """find_root of resid from guess, or else from start's predicted sigma,
    which it cannot leave where F0 underflows to 0 and resid is not finite."""
    sigma, slope = guess or _start(start, T)
    if coeffs(GaussianPrior(sigma).precision)[0] == 0.0:
        raise _no_root([(sigma, resid(sigma))], f"F0 underflows to 0 at sigma={sigma!r}, "
                                                 f"T={T!r}, so the residual is not finite")
    return find_root(resid, sigma, slope)


def solve_sigma_mr(T: float, *, guess=None) -> SolveResult:
    """Prior width sigma* making the competitive ratio independent of the drift:
    its a=0 value F#/e# equals its a->inf limit (e0 + F0)/e0; .form is the ratio
    there.  guess, a sigma and the residual's slope in log sigma, replaces the
    predicted start."""
    spec = ProblemSpec(horizon=T)
    coeffs = coefficients(0.0, spec)
    sr = _root_in_sigma(T, _sigma_mr_residual(T, coeffs), coeffs, _SIGMA_MR_START, guess)
    prior = GaussianPrior(sr.root)
    return replace(sr, form=regret_form(prior, spec, coeffs=coeffs(prior.precision)))


def worst_case_mr(T: float, sigma: float | None = None) -> float:
    """Worst-case competitive ratio at horizon T: at a fixed sigma the supremum
    of its form; with sigma=None the constant ratio F#/e# at sigma*(T)."""
    if sigma is None:
        return solve_sigma_mr(T).form(0.0)
    return regret_form(GaussianPrior(sigma), ProblemSpec(horizon=T)).sup


def _taxed_opponent(T: float, tail: float) -> tuple[float, float]:
    """(lambda, e0_lambda - e0) at t = 0, where the opponent's e#_lambda - e#
    equals tail = F# - e#, both gaps from model.

    d e#_lambda/d lambda = log cosh s - (s/2) tanh s, s = T/sqrt(lambda), is
    positive and falls as lambda grows, so Newton from lambda = 1 climbs to the
    root without overshooting; it stops within 1e-15 of tail, or at the
    rounding floor, where the gap stops falling.  It steps mu = lambda - 1,
    since lambda* -> 1 as T grows and 1 + mu would move e0_lambda - e0 in
    steps of one rounding of lambda.  e#_lambda stays below its lambda -> inf
    limit, so when tail is at or past it there is no root: lambda is inf.
    """
    if tail >= e_sharp_gap(T, math.inf):
        return math.inf, e0_gap(T, math.inf)
    mu, gap = 0.0, tail
    for _ in range(_NEWTON_MAX):
        s = T / math.sqrt(1.0 + mu)
        th, lc, z = math.tanh(s), log_cosh(s), s * s
        # the difference cancels below s = 1e-3, where the series is exact to 1e-13
        slope = lc - 0.5 * s * th if s >= 1e-3 else z * z * (1.0 / 12.0 - z * (2.0 / 45.0))
        if not (gap > 0.0 and slope > 0.0):
            break
        mu += gap / slope
        gap, last = tail - e_sharp_gap(T, mu), gap
        if not 1e-15 * tail < gap < last:
            break
    return 1.0 + mu, e0_gap(T, mu)


def _fueltax_residual(T: float, coeffs, lams: dict) -> Callable[[float], float]:
    """sigma -> 1 - (e0_lambda - e0)/F0 at horizon T, lambda = lambda(sigma), with
    F0 and F# - e# read as in _sigma_mr_residual: the residual solve_fueltax
    zeroes.  It keeps each lambda(sigma) in lams."""

    def resid(sigma: float) -> float:
        f0, tail = coeffs(GaussianPrior(sigma).precision)
        lams[sigma], d0 = _taxed_opponent(T, tail)
        return 1.0 - d0 / f0 if f0 > 0.0 else -math.inf

    return resid


def solve_fueltax(T: float, *, guess=None) -> tuple[SolveResult, SolveResult]:
    """Fuel-tax regret at horizon T: the fuel weight lambda* of the informed
    opponent at which a prior, of width sigma_ft, makes the taxed cost ratio
    equal to 1 for every drift.  Returns (lambda result, sigma result); the
    lambda bracket is lambda(sigma) at the ends of the sigma result's bracket,
    and the lambda result's form is the taxed ratio at (sigma_ft, lambda*).

    Our side pays no tax, so F0 and F# at t = 0 depend on sigma only.  Ratio 1
    at a = 0, F#(sigma) = e#_lambda, gives lambda(sigma); ratio 1 as a -> inf,
    F0(sigma) = e0_lambda - e0, is one root in sigma, with the residual taken
    relative to F0.  guess is as in solve_sigma_mr.
    """
    spec, lams = ProblemSpec(horizon=T), {}
    coeffs = coefficients(0.0, spec)
    sr = _root_in_sigma(T, _fueltax_residual(T, coeffs, lams), coeffs, _FUELTAX_START, guess)
    lam, lam_lo, lam_hi = (lams[s] for s in (sr.root, sr.bracket_lo, sr.bracket_hi))
    prior = GaussianPrior(sr.root)
    form = regret_form(prior, spec, lam, coeffs=coeffs(prior.precision))
    r = form(0.0) - 1.0
    if not abs(r) <= F_TOL:
        raise NoRootError(f"the taxed cost ratio at sigma_ft={sr.root!r}, lambda*={lam!r} "
                          f"is 1 + {r!r}, not 1 within {F_TOL}, at T={T!r}")
    return SolveResult(lam, r, sr.iterations, lam_lo, lam_hi, form), sr


def certify_constant_mr(T: float, sigma: float, a_values=A_GRID_DEFAULT) -> float:
    """Spread of the competitive ratio over the drift grid, each drift evaluated, plus its
    infinite-drift limit.  It evaluates the same RegretForm that solve_sigma_mr returns
    as .form, rebuilt from a fresh quadrature at sigma."""
    form = regret_form(GaussianPrior(sigma), ProblemSpec(horizon=T))
    vals = [form(a) for a in a_values] + [form.limit]
    return max(vals) - min(vals)


def _guess(log_T: float, roots: list[tuple[float, float]], slope: float):
    """The (sigma, slope) a sweep point at log_T starts from, None, for the
    solve's predicted start, before any root has converged or when the
    extrapolated sigma is not positive and finite or slope not finite and
    negative, as both residuals fall in sigma.  roots are the (log T, log
    sigma) converged before it: log sigma is the polynomial through the last
    three at distinct log T, quadratic through three, linear through two, and
    through one the small-T scaling sigma sqrt(T) -> const that both residuals
    share.  slope is the last solve's."""
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
    # math.exp raises past 709.78
    sigma = math.exp(min(g, 709.0))
    return (sigma, slope) if 0.0 < sigma and -math.inf < slope < 0.0 else None


def _solve_point(quantity: str, T: float, guess) -> tuple[dict, SolveResult]:
    """The sweep record at T and the sigma solve behind it."""
    if quantity == "fueltax":
        lam_r, sig_r = solve_fueltax(T, guess=guess)
        return {"T": T, "lambda_star": lam_r.root, "sigma_ft": sig_r.root}, sig_r
    sr = solve_sigma_mr(T, guess=guess)
    # the ratio's supremum at sigma* spares figure 2 a quadrature at its peak
    return {"T": T, "sigma_star": sr.root, "mr_star_optimal": sr.form(0.0),
            "mr_star_sup": sr.form.sup}, sr


def sweep(quantity: str, t_grid) -> SweepTable:
    """Solve one quantity over a horizon grid, point by point in grid order;
    per-point failures are recorded, never interpolated.

    Each point continues from the converged points before it, as a predictor-
    corrector: _guess predicts its sigma from their roots, and find_root
    corrects that by secant steps, from the slope the last converged solve
    measured, until |residual| <= F_TOL.  A point before any has converged
    starts where a single solve does.
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
        else:
            roots.append((log_T, math.log(sr.root)))
            slope = sr.slope
        records.append(rec)
    return SweepTable(records=tuple(records))
