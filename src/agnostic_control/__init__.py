"""Optimal and regret-minimizing control of the scalar drift-learning system
dq = (a + u) dt + dW: closed-form known-drift control, Gaussian-prior
Bayesian control, the additive / multiplicative / fuel-tax regret solvers,
and a Monte Carlo simulator that validates every analytic formula."""

__version__ = "0.1.0"

from .bayes import GaussianPrior, posterior
from .errors import (
    BudgetError,
    DomainError,
    NoRootError,
    NonFiniteError,
    QuadratureError,
    SingularityError,
)
from .model import (
    GainSchedule,
    ProblemSpec,
    control_known_a,
    gains,
    value_known_a,
)
from .performance import (
    A_GRID_DEFAULT,
    RegretForm,
    bayes_cost,
    fueltax_ratio,
    perf_coeffs,
    perf_coeffs_rk4,
    regret_form,
)
from .simulate import (
    CostEstimate,
    SimConfig,
    Strategy,
    make_strategy,
    monte_carlo_cost,
    simulate_path,
)
from .solvers import (
    SolveResult,
    SweepTable,
    certify_constant_mr,
    find_root,
    solve_fueltax,
    solve_sigma_mr,
    sweep,
    worst_case_mr,
)
