"""Reference values computed apart from the program, with mpmath.

Nothing here imports agnostic_control.  The gains are the closed forms
    e2 = sqrt(lam) tanh s,  e1 = 2 lam (1 - sech s),
    e0 = lam^(3/2) (s - tanh s),  e_sharp = lam log cosh s,   s = (T - t)/sqrt(lam),
evaluated at 30 digits.  The coefficients F0, F# are the integrals
    F0 = (t+p)^2 int_t^T e1^2 / (4 (tau+p)^2) dtau
    F# = e_sharp(t) + int_t^T (tau - t) e1^2 / (4 (tau+p)^2) dtau
(p = sigma^-2, 0 for the improper prior), evaluated by 30-digit tanh-sinh
quadrature in w = log((tau+p)/(t+p)), so that tau = t + (t+p) expm1(w)
carries no cancellation however small sigma is.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 30
#: The quadrature's own error estimate, relative, above which a reference is
#: refused rather than trusted.
MAX_REF_ERROR = 1e-15


class InexactReference(RuntimeError):
    """A reference value could not be computed to the required accuracy."""


def _precision(sigma: float):
    return mp.mpf(0) if math.isinf(sigma) else 1 / mp.mpf(sigma) ** 2


def _gains_mp(t, T, lam):
    rl = mp.sqrt(lam)
    s = (T - t) / rl
    th = mp.tanh(s)
    return rl * th, 2 * lam * (1 - mp.sech(s)), lam * rl * (s - th), lam * mp.log(mp.cosh(s))


def gains(t: float, T: float, lam: float = 1.0) -> tuple[float, float, float, float]:
    """(E2, E1, E0, Esharp) at time t, horizon T, fuel weight lam."""
    with mp.workdps(DPS):
        return tuple(float(v) for v in _gains_mp(mp.mpf(t), mp.mpf(T), mp.mpf(lam)))


def _coeffs_mp(t, sigma, T):
    p = _precision(sigma)
    c = t + p
    w_hi = mp.log((T + p) / c)

    def e1_sq_4(w):
        e1 = 2 * (1 - mp.sech((T - t) - c * mp.expm1(w)))
        return e1 * e1 / 4

    i0, err0 = mp.quad(lambda w: e1_sq_4(w) * mp.exp(-w), [0, w_hi], error=True)
    tail, err1 = mp.quad(lambda w: e1_sq_4(w) * -mp.expm1(-w), [0, w_hi], error=True)
    f_sharp = mp.log(mp.cosh(T - t)) + tail
    if err0 > MAX_REF_ERROR * abs(i0) or err1 > MAX_REF_ERROR * abs(f_sharp):
        raise InexactReference(f"mpmath quadrature not converged at t={t}, sigma={sigma}, T={T}")
    return c * i0, f_sharp


def coeffs(t: float, sigma: float, T: float) -> tuple[float, float]:
    """(F0(t), F#(t)) for the prior width sigma (inf: improper) and horizon T."""
    with mp.workdps(DPS):
        f0, f_sharp = _coeffs_mp(mp.mpf(t), sigma, mp.mpf(T))
        return float(f0), float(f_sharp)


def analytic_cost(strategy: str, a: float, T: float, T0: float = 0.0,
                  sigma: float | None = None) -> float:
    """Expected cost on [T0, T] from q(0) = 0 of one simulated strategy."""
    with mp.workdps(DPS):
        a, T, T0 = mp.mpf(a), mp.mpf(T), mp.mpf(T0)
        a2 = a * a
        if strategy == "zero_control":
            # E q(t)^2 = a^2 t^2 + t under drift plus noise alone
            return float(a2 * (T ** 3 - T0 ** 3) / 3 + (T * T - T0 * T0) / 2)
        e2, e1, e0, e_sharp = _gains_mp(T0, T, mp.mpf(1))
        # the informed controller's cost: its value function averaged over
        # q(T0) ~ N(a T0, T0), the state left by the observe-only phase
        informed = e2 * (a2 * T0 * T0 + T0) + e1 * a2 * T0 + e0 * a2 + e_sharp
        if strategy == "known_a":
            return float(informed)
        if strategy not in ("bayes", "bayes_improper"):
            raise ValueError(f"no reference for strategy {strategy!r}")
        sigma = math.inf if strategy == "bayes_improper" else sigma
        f0, f_sharp = _coeffs_mp(T0, sigma, T)
        if T0 == 0:
            return float((e0 + f0) * a2 + f_sharp)
        # the Bayesian controller starts at T0 with a posterior-mean error whose
        # second moment is (T0 + a^2 p^2)/(T0 + p)^2
        p = _precision(sigma)
        return float(informed + f0 * (T0 + a2 * p * p) / (T0 + p) ** 2 + f_sharp - e_sharp)


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)
