"""Root-finding and sweep layer for the agnostic control strategies.

The competitive ratio of the Bayesian strategy is a Mobius function of a^2,
so it is constant in a exactly when the ratio at a=0 equals the a->infinity
limit.  solve_sigma_mr finds the prior width sigma* achieving that balance;
worst_case_mr evaluates the resulting (constant) ratio.  The fuel-tax
variant nests the same construction: an inner sigma-solve makes the cost
ratio against a lambda-taxed opponent constant in a, and an outer solve
finds the lambda at which that constant ratio equals 1.

All solves use the same recipe: scan for a sign change, bisect the bracket
down, then polish with a bracket-guarded Newton iteration using a numerically
differenced residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bayes import GaussianPrior
from .errors import DomainError, NoRootError
from .model import ProblemSpec, gains, own_gains
from .performance import (
    A_GRID_DEFAULT,
    multiplicative_regret,
    multiplicative_regret_limit,
    perf_coeffs,
)

SIGMA_SCAN_LO = 1e-3
SIGMA_SCAN_HI = 1e3
LAMBDA_MAX = 10.0

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
    metadata: dict = field(default_factory=dict)


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    f_tol: float,
    log_space: bool = False,
    bracket_width: float = 1e-2,
    newton_rel_step: float = 1e-6,
    max_iter: int = 200,
) -> SolveResult:
    """Bracketed bisection + Newton polish; requires f(lo), f(hi) of opposite sign.

    Bisection runs (in x or log x) until the bracket is narrower than
    bracket_width, then Newton iterates on the residual with a numerically
    differenced derivative; any Newton step leaving the bracket falls back
    to bisection.  Converges when |f| <= f_tol.
    """
    xform = math.log if log_space else (lambda x: x)
    inv = math.exp if log_space else (lambda x: x)

    f_lo, f_hi = f(lo), f(hi)
    iters = 2
    for val, x in ((f_lo, lo), (f_hi, hi)):
        if abs(val) <= f_tol:
            return SolveResult(x, val, iters, lo, hi, True)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoRootError(f"no sign change on [{lo}, {hi}]: f={f_lo}, {f_hi}")

    a, b, fa, fb = lo, hi, f_lo, f_hi

    def update(x: float, fx: float) -> None:
        nonlocal a, b, fa, fb
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, fa = x, fx
        else:
            b, fb = x, fx

    # bisection phase
    while xform(b) - xform(a) > bracket_width and iters < max_iter:
        mid = inv(0.5 * (xform(a) + xform(b)))
        fm = f(mid)
        iters += 1
        if abs(fm) <= f_tol:
            return SolveResult(mid, fm, iters, a, b, True)
        update(mid, fm)

    # Newton phase with bracket guard
    x = inv(0.5 * (xform(a) + xform(b)))
    fx = f(x)
    iters += 1
    while iters < max_iter:
        if abs(fx) <= f_tol:
            return SolveResult(x, fx, iters, a, b, True)
        update(x, fx)
        h = max(abs(x), 1e-8) * newton_rel_step
        df = (f(x + h) - f(x - h)) / (2.0 * h)
        iters += 2
        x_new = x - fx / df if df != 0.0 else math.nan
        if not (a < x_new < b):
            x_new = inv(0.5 * (xform(a) + xform(b)))
        x = x_new
        fx = f(x)
        iters += 1
    return SolveResult(x, fx, iters, a, b, abs(fx) <= f_tol)


def _scan_bracket(
    f: Callable[[float], float], xs: np.ndarray
) -> tuple[float, float, list[tuple[float, float]]]:
    """First sign-change interval over the scan points; raises with the scan attached."""
    scan = []
    prev_x, prev_f = None, None
    for x in xs:
        fx = f(float(x))
        scan.append((float(x), fx))
        if prev_f is not None and math.copysign(1.0, fx) != math.copysign(1.0, prev_f):
            return prev_x, float(x), scan
        prev_x, prev_f = float(x), fx
    err = NoRootError(f"no sign change over scan [{xs[0]}, {xs[-1]}]")
    err.scan = scan
    raise err


def solve_sigma_mr(T: float, *, f_tol: float = 1e-9) -> SolveResult:
    """Prior width sigma* making the competitive ratio independent of the drift:
    the fuel-tax constancy condition against an untaxed opponent (lambda = 1)."""
    return _solve_sigma_fueltax(T, 1.0, f_tol=f_tol)


def worst_case_mr(T: float, sigma: float | None = None) -> float:
    """Worst-case competitive ratio at horizon T.

    With sigma=None the optimal sigma*(T) is solved first and the (constant)
    ratio is returned.  For a fixed sigma the ratio is a monotone Mobius
    function of a^2, so the supremum is the larger of the a=0 value and the
    analytic a->infinity limit.
    """
    spec = ProblemSpec(horizon=T)
    if sigma is None:
        sr = solve_sigma_mr(T)
        if not sr.converged:
            raise NoRootError(f"sigma* solve did not converge at T={T}")
        sigma = sr.root
        prior = GaussianPrior(sigma)
        g = own_gains(0.0, spec)
        _, f_sharp = perf_coeffs(0.0, prior, spec)
        return f_sharp / g.e_sharp
    prior = GaussianPrior(sigma)
    return max(multiplicative_regret(0.0, prior, spec), multiplicative_regret_limit(prior, spec))


def _fueltax_residual(sigma: float, lam: float, spec: ProblemSpec) -> float:
    # constancy of the taxed ratio: (e0 + F0)/e0_lam == F#/e_sharp_lam
    g1 = own_gains(0.0, spec)
    g_lam = gains(0.0, spec.with_fuel_weight(lam))
    f0, f_sharp = perf_coeffs(0.0, GaussianPrior(sigma), spec)
    return (g1.e0 + f0) / g_lam.e0 - f_sharp / g_lam.e_sharp


def _solve_sigma_fueltax(T: float, lam: float, *, f_tol: float = 1e-9) -> SolveResult:
    spec = ProblemSpec(horizon=T)
    resid = lambda s: _fueltax_residual(s, lam, spec)
    xs = np.logspace(math.log10(SIGMA_SCAN_LO), math.log10(SIGMA_SCAN_HI), 31)
    lo, hi, _ = _scan_bracket(resid, xs)
    return find_root(resid, lo, hi, f_tol=f_tol, log_space=True)


def solve_fueltax(
    T: float, *, f_tol: float = 1e-8, lambda_max: float = LAMBDA_MAX
) -> tuple[SolveResult, SolveResult]:
    """Fuel-tax regret: nested solve for (lambda*, sigma) at horizon T.

    Inner: sigma making the taxed cost ratio constant in the drift.
    Outer: the lambda at which that constant ratio equals 1.
    Returns (lambda result, sigma result at lambda*).
    """
    spec = ProblemSpec(horizon=T)

    def const_ratio_minus_one(lam: float) -> float:
        sr = _solve_sigma_fueltax(T, lam)
        if not sr.converged:
            raise NoRootError(f"inner sigma solve failed at T={T}, lambda={lam}")
        g_lam = gains(0.0, spec.with_fuel_weight(lam))
        _, f_sharp = perf_coeffs(0.0, GaussianPrior(sr.root), spec)
        return f_sharp / g_lam.e_sharp - 1.0

    r1 = const_ratio_minus_one(1.0)
    if abs(r1) <= f_tol:
        lam_result = SolveResult(1.0, r1, 1, 1.0, 1.0, True)
    else:
        # The constant ratio decreases in lambda but the inner constancy
        # equation stops having a solution for lambda far past the root, so
        # expand the upper bracket gradually instead of probing lambda_max.
        lo, r_lo = 1.0, r1
        hi = 1.0
        r_hi = r1
        while r_hi > 0.0:
            step = max(0.1, 0.3 * (hi - 1.0))
            hi = hi + step
            if hi > lambda_max:
                raise NoRootError(
                    f"constant ratio still exceeds 1 at lambda={lambda_max}; "
                    "no fuel-tax root in range"
                )
            try:
                r_hi = const_ratio_minus_one(hi)
            except NoRootError as exc:
                raise NoRootError(
                    f"inner sigma solve failed at lambda={hi} before the "
                    f"ratio dropped below 1 (last residual {r_lo} at {lo})"
                ) from exc
            if r_hi > 0.0:
                lo, r_lo = hi, r_hi
        lam_result = find_root(
            const_ratio_minus_one, lo, hi, f_tol=f_tol, bracket_width=1e-2
        )
    sigma_result = _solve_sigma_fueltax(T, lam_result.root)
    return lam_result, sigma_result


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
    if quantity == "sigma_mr":
        sr = solve_sigma_mr(T)
        return {"T": T, "sigma_star": sr.root, "converged": sr.converged}
    if quantity == "mr_star":
        sr = solve_sigma_mr(T)
        spec = ProblemSpec(horizon=T)
        _, f_sharp = perf_coeffs(0.0, GaussianPrior(sr.root), spec)
        mr = f_sharp / own_gains(0.0, spec).e_sharp
        return {"T": T, "sigma_star": sr.root, "mr_star": mr, "converged": sr.converged}
    if quantity == "fueltax":
        lam_r, sig_r = solve_fueltax(T)
        return {
            "T": T,
            "lambda_star": lam_r.root,
            "sigma_ft": sig_r.root,
            "converged": lam_r.converged and sig_r.converged,
        }
    raise ValueError(f"unknown sweep quantity {quantity!r}")


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

    return SweepTable(
        quantity=quantity,
        grid=grid,
        records=tuple(solve_one(T) for T in grid),
        metadata={"f_tol": 1e-9 if quantity != "fueltax" else 1e-8},
    )
