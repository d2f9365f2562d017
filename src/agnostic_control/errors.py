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
    """A simulated state became NaN or infinite; indicates a bug."""
