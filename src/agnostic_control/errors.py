"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain where the operation is defined."""


class SingularityError(DomainError):
    """The requested quantity is singular (e.g. improper prior at t=0)."""


class QuadratureError(RuntimeError):
    """The F0/F# quadrature rule and its half-node check disagree beyond tolerance."""


class NoRootError(RuntimeError):
    """A root solve failed: no solve returns an unconverged root.  find_root
    raises it when its function is not finite at the start, when its bracket
    closes with no root found or after its last evaluation, with every
    (x, f(x)) it made as .scan."""


class BudgetError(RuntimeError):
    """A simulation exceeded its step budget."""


class NonFiniteError(RuntimeError):
    """A simulated state or cost became NaN or infinite: the drift or the
    horizon is too large for q^2 and u^2 to stay finite in floating point."""
