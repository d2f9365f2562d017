"""Gaussian-prior filtering for the unknown drift.

All history relevant to inferring the drift a is compressed into the single
statistic xi(t) = q(t) - q(0) - integral of u, which evolves as
d(xi) = a dt + dW regardless of the control applied.  Under a mean-zero
Gaussian prior with standard deviation sigma the posterior on a is Gaussian
with mean xi / (t + sigma^-2) and variance 1 / (t + sigma^-2).  The improper
(sigma -> infinity) prior gives posterior mean xi / t, which requires t > 0.

The Bayesian control is the known-drift law model.control_known_a with a
replaced by the posterior mean; the simulator applies it that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SingularityError


@dataclass(frozen=True)
class GaussianPrior:
    """Mean-zero Gaussian prior on the drift; sigma = inf is the improper prior."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive (or inf), got {self.sigma}")
        try:
            self.sigma ** -4  # the squared precision, which the additive regret forms
        except OverflowError:
            raise DomainError(f"sigma={self.sigma} is too small: sigma^-4 overflows") from None

    @classmethod
    def improper(cls) -> "GaussianPrior":
        return cls(math.inf)

    @property
    def is_improper(self) -> bool:
        return math.isinf(self.sigma)

    @property
    def precision(self) -> float:
        return 0.0 if self.is_improper else self.sigma ** -2


def posterior(xi, t: float, prior: GaussianPrior) -> tuple:
    """Posterior (mean, variance) of the drift given xi at time t.

    xi may be an array of paths; the mean xi / (t + sigma^-2) is the drift
    estimate the Bayesian strategies plug into the known-drift control law.
    """
    w = t + prior.precision
    if not w > 0.0:
        raise SingularityError(
            "posterior undefined: t + sigma^-2 must be positive "
            f"(t={t}, improper={prior.is_improper})"
        )
    return xi / w, 1.0 / w


__all__ = ["GaussianPrior", "posterior"]
