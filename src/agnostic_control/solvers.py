"""Root-finding and sweep layer for the agnostic control strategies.

The competitive ratio of the Bayesian strategy is a Mobius function of a^2,
so it is constant in a exactly when the ratio at a=0 equals the a->infinity
limit.  solve_sigma_mr finds the prior width sigma* achieving that balance;
worst_case_mr evaluates the resulting (constant) ratio.  The fuel-tax
variant asks both of those ratios to equal 1 against an opponent taxed at
lambda: the a=0 condition gives lambda(sigma) in closed form, so
solve_fueltax is again one root in sigma.

Both solves use one search, find_root, over a log-spaced scan of sigma.  When
the residual differs in sign at the scan's two ends, bisecting the scan's
indices finds the adjacent pair around the sign change in about log2 of the
scan's length evaluations; when the ends agree, the scan is walked from the
start for the first change.  Bisection in log sigma then narrows that pair,
and a bracket-guarded Newton polish on a numerically differenced residual
takes it to |residual| <= F_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bayes import GaussianPrior
from .errors import DomainError, NoRootError
from .model import ProblemSpec, e0_unit, log_cosh, own_gains
from .performance import (
    A_GRID_DEFAULT,
    fueltax_ratio,
    multiplicative_regret,
    multiplicative_regret_limit,
    perf_coeffs,
)

#: The 31 prior widths, log-spaced over [1e-3, 1e3], scanned for a sign change.
_SIGMA_SCAN = np.logspace(-3.0, 3.0, 31)
#: Newton steps for the fuel weight; where no root exists each one doubles lambda.
_NEWTON_MAX = 64
#: Residual magnitude at which every root solve counts as converged.
F_TOL = 1e-9
#: Width in log x below which find_root stops bisecting and starts Newton.
_BRACKET_WIDTH = 1e-2
#: Relative step of the central difference that gives the Newton slope.
_NEWTON_REL_STEP = 1e-6
#: Most evaluations find_root makes inside the bracket.
_MAX_ITER = 200

#: Default horizon grid behind the figure sweeps: 40 log-spaced points
#: covering all qualitative features (regret peak near T=2, both tails).
T_GRID_DEFAULT = tuple(np.logspace(math.log10(0.1), math.log10(20.0), 40))


@dataclass(frozen=True)
class SolveResult:
    root: float
    residual: float
    iterations: int
    bracket_lo: float
    bracket_hi: float
    converged: bool


@dataclass(frozen=True)
class SweepTable:
    """Per-horizon solved quantities; failed points carry an 'error' entry."""

    quantity: str
    grid: tuple[float, ...]
    records: tuple[dict, ...]


def find_root(f: Callable[[float], float], xs) -> SolveResult:
    """Root of f in a sign change over the positive, increasing xs
    (NoRootError, with the (x, f(x)) pairs as .scan, if there is none).

    f is evaluated at both ends of xs first.  When their signs differ, the
    bracket is the adjacent pair of xs that bisection over the indices of xs
    closes on: the first sign change whenever f changes sign once over xs.
    When they agree, xs is walked from the start for the first sign change.
    Bisection in log x narrows that bracket to _BRACKET_WIDTH, then Newton with
    a differenced slope takes over, bisecting when a step leaves the bracket.
    iterations counts the evaluations inside the bracket, its ends included.
    """
    xs = [float(x) for x in xs]
    values: dict[int, float] = {}

    def sign(i: int) -> float:
        if i not in values:
            values[i] = f(xs[i])
        return math.copysign(1.0, values[i])

    lo, hi = 0, len(xs) - 1
    if sign(lo) != sign(hi):
        while hi - lo > 1:
            m = (lo + hi) // 2
            if sign(m) == sign(lo):
                lo = m
            else:
                hi = m
    else:
        lo = next((i for i in range(hi) if sign(i) != sign(i + 1)), None)
        if lo is None:
            err = NoRootError(f"no sign change over scan [{xs[0]}, {xs[-1]}]")
            err.scan = [(x, values[i]) for i, x in enumerate(xs)]
            raise err
        hi = lo + 1

    a, fa, b = xs[lo], values[lo], xs[hi]
    iters = 2
    for x, fx in ((a, fa), (b, values[hi])):
        if abs(fx) <= F_TOL:
            return SolveResult(x, fx, iters, a, b, True)

    def update(x: float, fx: float) -> None:
        nonlocal a, b, fa
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, fa = x, fx
        else:
            b = x

    def mid() -> float:
        return math.exp(0.5 * (math.log(a) + math.log(b)))

    # bisection phase
    while math.log(b) - math.log(a) > _BRACKET_WIDTH and iters < _MAX_ITER:
        x = mid()
        fx = f(x)
        iters += 1
        if abs(fx) <= F_TOL:
            return SolveResult(x, fx, iters, a, b, True)
        update(x, fx)

    # Newton phase with bracket guard
    x = mid()
    fx = f(x)
    iters += 1
    while iters < _MAX_ITER:
        if abs(fx) <= F_TOL:
            return SolveResult(x, fx, iters, a, b, True)
        update(x, fx)
        h = max(abs(x), 1e-8) * _NEWTON_REL_STEP
        df = (f(x + h) - f(x - h)) / (2.0 * h)
        iters += 2
        x_new = x - fx / df if df != 0.0 else math.nan
        x = x_new if a < x_new < b else mid()
        fx = f(x)
        iters += 1
    return SolveResult(x, fx, iters, a, b, abs(fx) <= F_TOL)


def _sigma_mr_residual(T: float) -> Callable[[float], float]:
    """sigma -> (e0 + F0)/e0 - F#/e# at horizon T, the residual solve_sigma_mr zeroes."""
    spec = ProblemSpec(horizon=T)
    g = own_gains(0.0, spec)
    e0, e_sharp = g.e0, g.e_sharp

    def resid(sigma: float) -> float:
        f0, f_sharp = perf_coeffs(0.0, GaussianPrior(sigma), spec)
        return (e0 + f0) / e0 - f_sharp / e_sharp

    return resid


def solve_sigma_mr(T: float) -> SolveResult:
    """Prior width sigma* making the competitive ratio independent of the drift:
    its a=0 value F#/e# equals its a->inf limit (e0 + F0)/e0."""
    return find_root(_sigma_mr_residual(T), _SIGMA_SCAN)


def _solve_mr_star(T: float) -> tuple[SolveResult, float]:
    """The sigma* solve at horizon T and the constant competitive ratio F#/e# there."""
    sr = solve_sigma_mr(T)
    spec = ProblemSpec(horizon=T)
    _, f_sharp = perf_coeffs(0.0, GaussianPrior(sr.root), spec)
    return sr, f_sharp / own_gains(0.0, spec).e_sharp


def worst_case_mr(T: float, sigma: float | None = None) -> float:
    """Worst-case competitive ratio at horizon T.

    With sigma=None the optimal sigma*(T) is solved first and the (constant)
    ratio is returned.  For a fixed sigma the ratio is a monotone Mobius
    function of a^2, so the supremum is the larger of the a=0 value and the
    analytic a->infinity limit.
    """
    if sigma is None:
        sr, mr = _solve_mr_star(T)
        if not sr.converged:
            raise NoRootError(f"sigma* solve did not converge at T={T}")
        return mr
    spec = ProblemSpec(horizon=T)
    prior = GaussianPrior(sigma)
    return max(multiplicative_regret(0.0, prior, spec), multiplicative_regret_limit(prior, spec))


def _taxed_opponent(T: float, f_sharp: float) -> tuple[float, float]:
    """(lambda, e0_lambda) at t = 0, where the opponent's e#_lambda =
    lambda log cosh(T/sqrt(lambda)) equals f_sharp.

    de#/dlambda = log cosh s - (s/2) tanh s, s = T/sqrt(lambda), is positive
    and falls as lambda grows, so Newton from lambda = 1 climbs to the root
    without overshooting.  When f_sharp is at or past the lambda -> inf limit
    T^2/2, each step at least doubles lambda, and after _NEWTON_MAX of them
    e0 is its limit T^3/3 to float precision.
    """
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
    return lam, lam * math.sqrt(lam) * e0_unit(T / math.sqrt(lam))


def _fueltax_residual(T: float) -> Callable[[float], float]:
    """sigma -> 1 - (e0_lambda - e0)/F0 at horizon T, lambda = lambda(sigma):
    the residual solve_fueltax zeroes."""
    spec = ProblemSpec(horizon=T)
    e0 = own_gains(0.0, spec).e0

    def resid(sigma: float) -> float:
        f0, f_sharp = perf_coeffs(0.0, GaussianPrior(sigma), spec)
        extra = _taxed_opponent(T, f_sharp)[1] - e0
        return 1.0 - extra / f0 if f0 > 0.0 else -math.inf

    return resid


def solve_fueltax(T: float) -> tuple[SolveResult, SolveResult]:
    """Fuel-tax regret at horizon T: the fuel weight lambda* of the informed
    opponent at which a prior, of width sigma_ft, makes the taxed cost ratio
    equal to 1 for every drift.  Returns (lambda result, sigma result); the
    lambda bracket is lambda(sigma) at the ends of the final sigma bracket.

    Our side pays no tax, so F0 and F# at t = 0 depend on sigma only.  Ratio 1
    at a = 0, F#(sigma) = e#_lambda, gives lambda(sigma) in closed form; ratio
    1 as a -> inf, F0(sigma) = e0_lambda - e0, is one bracketed root in sigma,
    with the residual taken relative to F0.
    """
    spec = ProblemSpec(horizon=T)

    def lam_of(sigma: float) -> float:
        return _taxed_opponent(T, perf_coeffs(0.0, GaussianPrior(sigma), spec)[1])[0]

    sr = find_root(_fueltax_residual(T), _SIGMA_SCAN)
    lam = lam_of(sr.root)
    r = fueltax_ratio(0.0, GaussianPrior(sr.root), lam, spec) - 1.0
    converged = sr.converged and abs(r) <= F_TOL
    lam_lo, lam_hi = lam_of(sr.bracket_lo), lam_of(sr.bracket_hi)
    return SolveResult(lam, r, sr.iterations, lam_lo, lam_hi, converged), sr


def certify_constant_mr(
    T: float, sigma: float, a_values=A_GRID_DEFAULT
) -> float:
    """Spread of the competitive ratio over the drift grid plus its infinite-drift
    limit; the independent check that a solved sigma* really gives constant regret."""
    spec = ProblemSpec(horizon=T)
    prior = GaussianPrior(sigma)
    vals = [multiplicative_regret(a, prior, spec) for a in a_values]
    vals.append(multiplicative_regret_limit(prior, spec))
    return max(vals) - min(vals)


def _solve_point(quantity: str, T: float) -> dict:
    if quantity == "mr_star":
        sr, mr = _solve_mr_star(T)
        return {"T": T, "sigma_star": sr.root, "mr_star_optimal": mr, "converged": sr.converged}
    if quantity == "fueltax":
        lam_r, sig_r = solve_fueltax(T)
        return {
            "T": T,
            "lambda_star": lam_r.root,
            "sigma_ft": sig_r.root,
            "converged": lam_r.converged and sig_r.converged,
        }
    sr = solve_sigma_mr(T)
    return {"T": T, "sigma_star": sr.root, "converged": sr.converged}


def sweep(quantity: str, t_grid) -> SweepTable:
    """Solve one quantity over a horizon grid, point by point in grid order;
    per-point failures are recorded, never interpolated."""
    if quantity not in ("sigma_mr", "mr_star", "fueltax"):
        raise ValueError(f"unknown sweep quantity {quantity!r}")
    grid = tuple(float(t) for t in t_grid)
    if not grid:
        raise DomainError("empty horizon grid")
    # written as `not lo < x` so that NaN fails the check
    if not all(0.0 < t < math.inf for t in grid) or not all(
        a < b for a, b in zip(grid, grid[1:])
    ):
        raise DomainError("horizon grid must be positive, finite and strictly increasing")

    def solve_one(T: float) -> dict:
        try:
            return _solve_point(quantity, T)
        except Exception as exc:  # recorded, sweep continues
            return {"T": T, "error": f"{type(exc).__name__}: {exc}"}

    return SweepTable(quantity=quantity, grid=grid, records=tuple(solve_one(T) for T in grid))
