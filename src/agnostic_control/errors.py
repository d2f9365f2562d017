"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain where the operation is defined."""


class SingularityError(DomainError):
    """The requested quantity is singular (e.g. improper prior at t=0)."""


class QuadratureError(RuntimeError):
    """The F0/F# quadrature rule and its half-node check disagree beyond tolerance."""


class NoRootError(RuntimeError):
    """No sign change found, or the root iteration failed to converge."""


class BudgetError(RuntimeError):
    """A simulation exceeded its step budget."""


class NonFiniteError(RuntimeError):
    """A simulated state or cost became NaN or infinite: the drift or the
    horizon is too large for q^2 and u^2 to stay finite in floating point."""
