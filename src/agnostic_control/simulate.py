"""Euler-Maruyama Monte Carlo simulation of dq = (a + u) dt + dW.

Paths are driven by counter-based Philox streams keyed on (seed, path index),
so results are bit-identical regardless of how paths are chunked.  Every
strategy is the known-drift law model.control_known_a with a plug-in drift
estimate (the true a, the posterior mean of a, or no control at all).  The
control is evaluated at the left endpoint of each step and is forced to zero
during the observation phase [0, t_start), whose end SimConfig keeps on the
dt grid; the realized cost is the left-endpoint Riemann sum of q^2 + u^2
over [t_start, T].  Tests may inject a deterministic noise array in place of
the generator.

monte_carlo_cost works through the paths in blocks of _CHUNK.  The calling
thread draws the first block's noise; while it steps block c, one helper
thread draws block c + 1 (numpy's normal sampler releases the GIL).  So at
most two blocks are in memory, and the noise and the step order are those
of a serial run.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .bayes import GaussianPrior, posterior
from .errors import BudgetError, DomainError, NonFiniteError
from .model import ProblemSpec, control_known_a, value_known_a
from .performance import RegretReport, additive_regret, bayes_cost, opponent_cost

MAX_TOTAL_STEPS = 10 ** 9
_CHUNK = 2048


@dataclass(frozen=True)
class SimConfig:
    spec: ProblemSpec
    a_true: float
    dt: float = 1e-3
    n_paths: int = 10_000
    seed: int = 0

    def __post_init__(self):
        # written as `not ...` so that NaN fails every check
        if not (self.dt > 0.0 and math.isfinite(self.spec.horizon / self.dt)):
            raise DomainError(f"dt must be positive with a finite step count, got {self.dt}")
        if not self.n_paths >= 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if not math.isfinite(self.a_true):
            raise DomainError(f"a_true must be finite, got {self.a_true}")
        if not 0 <= self.seed < 2 ** 64:  # the first word of every path's Philox key
            raise DomainError(f"seed must be in [0, 2**64), got {self.seed}")
        horizon, t_start = self.spec.horizon, self.spec.t_start
        tol = 1e-9 * max(1.0, horizon)
        if self.n_steps < 1 or abs(self.n_steps * self.dt - horizon) > tol:
            raise DomainError(f"dt={self.dt} does not divide horizon {horizon}")
        if abs(self.k_start * self.dt - t_start) > tol:
            raise DomainError(f"t_start={t_start} is not on the dt={self.dt} grid")

    @property
    def n_steps(self) -> int:
        return round(self.spec.horizon / self.dt)

    @property
    def k_start(self) -> int:
        """Index of the first controlled step, the grid point at t_start."""
        return round(self.spec.t_start / self.dt)


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    stderr: float
    n_paths: int
    costs: np.ndarray | None = None


@dataclass(frozen=True)
class Strategy:
    """A feedback strategy; build it with make_strategy.

    Every strategy applies the one known-drift law model.control_known_a and
    differs only in the drift estimate it plugs in: known_a the true drift a,
    bayes and bayes_improper the posterior mean of a under their prior.
    zero_control applies no control.
    """

    name: str
    a: float | None = None
    prior: GaussianPrior | None = None

    def control(self, q, xi, t: float, spec: ProblemSpec):
        """Control at time t for positions q and statistics xi (arrays of paths)."""
        if self.name == "zero_control":
            return np.zeros_like(q)
        m = self.a if self.prior is None else posterior(xi, t, self.prior)[0]
        return control_known_a(q, t, m, spec)

    def describe(self) -> dict:
        d = {"variant": self.name}
        if self.a is not None:
            d["a"] = self.a
        if self.prior is not None and not self.prior.is_improper:
            d["sigma"] = self.prior.sigma
        return d

    def check_config(self, config: SimConfig) -> None:
        if self.name == "bayes_improper" and config.spec.t_start <= 0.0:
            raise DomainError("improper-prior strategy requires t_start > 0")


def make_strategy(
    variant: str, *, a: float | None = None, sigma: float | None = None
) -> Strategy:
    if variant == "zero_control":
        return Strategy(variant)
    if variant == "known_a":
        if a is None or not math.isfinite(a):
            raise DomainError(f"known_a strategy needs a finite true drift a, got {a}")
        return Strategy(variant, a=a)
    if variant == "bayes":
        if sigma is None:
            raise DomainError("bayes strategy needs a prior width sigma")
        return Strategy(variant, prior=GaussianPrior(sigma))
    if variant == "bayes_improper":
        return Strategy(variant, prior=GaussianPrior.improper())
    raise DomainError(f"unknown strategy variant {variant!r}")


def _fill_noise(out: np.ndarray, seed: int, first: int) -> None:
    """Fill row r of out with the standard-normal increments of path first + r.

    Each path has its own Philox stream, keyed on (seed, path index) with the
    counter at 0.  One generator serves every row: resetting its state to the
    row's key gives the draws of a fresh generator without building one.
    """
    bitgen = np.random.Philox(key=np.array([seed, first], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0 and an empty buffer
    key = state["state"]["key"]
    for r, row in enumerate(out):
        key[1] = first + r
        bitgen.state = state
        rng.standard_normal(out=row)


def path_noise(seed: int, path_index: int, n_steps: int) -> np.ndarray:
    """Standard-normal increments for one path from its own Philox stream."""
    out = np.empty((1, n_steps))
    _fill_noise(out, seed, path_index)
    return out[0]


def _run_block(
    strategy: Strategy,
    config: SimConfig,
    noise: np.ndarray,
    record: bool = False,
):
    """Advance a block of paths; returns (costs, trajectory or None).

    noise has shape (n_paths_in_block, n_steps).  The trajectory, recorded
    only for single-path runs, has rows (t, q, xi, u) at each step start.
    """
    dt = config.dt
    sqrt_dt = math.sqrt(dt)
    m = noise.shape[0]
    # Control switches on at the grid index of t_start.  k0 * dt may fall an
    # ulp short of t_start (11 * 0.03 < 0.33), so the law gets the spec
    # without its observation phase; the gains do not depend on t_start.
    k0 = config.k_start
    law_spec = replace(config.spec, t_start=0.0)

    q = np.zeros(m)
    xi = np.zeros(m)
    cost = np.zeros(m)
    rows = [] if record else None

    for k in range(config.n_steps):
        t = k * dt
        if k >= k0:
            u = strategy.control(q, xi, t, law_spec)
            cost += (q * q + u * u) * dt
        else:
            u = np.zeros(m)
        if record:
            rows.append((t, float(q[0]), float(xi[0]), float(u[0])))
        dq = (config.a_true + u) * dt + sqrt_dt * noise[:, k]
        q = q + dq
        xi = xi + dq - u * dt

    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(cost))):
        raise NonFiniteError("simulation produced non-finite state")
    traj = np.array(rows) if record else None
    return cost, traj, q, xi


def simulate_path(
    strategy: Strategy,
    config: SimConfig,
    noise: np.ndarray | None = None,
    path_index: int = 0,
) -> tuple[np.ndarray, float]:
    """One path; returns (trajectory with columns t,q,xi,u, realized cost).

    A caller-supplied noise array (n_steps standard normals, e.g. all zeros)
    replaces the path's random stream.
    """
    strategy.check_config(config)
    _check_budget(config, n_paths=1)
    if noise is None:
        noise = path_noise(config.seed, path_index, config.n_steps)
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (config.n_steps,):
        raise DomainError(
            f"noise must have shape ({config.n_steps},), got {noise.shape}"
        )
    cost, traj, _, _ = _run_block(strategy, config, noise[None, :], record=True)
    return traj, float(cost[0])


def _check_budget(config: SimConfig, n_paths: int | None = None) -> None:
    n = config.n_paths if n_paths is None else n_paths
    total = n * config.n_steps
    if total > MAX_TOTAL_STEPS:
        raise BudgetError(
            f"{n} paths x {config.n_steps} steps = {total} exceeds budget {MAX_TOTAL_STEPS}"
        )


def monte_carlo_cost(
    strategy: Strategy, config: SimConfig, keep_costs: bool = False
) -> CostEstimate:
    """Mean realized cost and its standard error over independent paths."""
    from concurrent.futures import ThreadPoolExecutor  # here: the package import stays lean

    strategy.check_config(config)
    _check_budget(config)
    n_paths = config.n_paths
    costs = np.empty(n_paths)
    # Two block buffers, reused: the helper fills one while this thread steps the other.
    shape = (min(_CHUNK, n_paths), config.n_steps)
    buffers = (np.empty(shape), np.empty(shape) if n_paths > _CHUNK else None)

    def draw(start: int) -> np.ndarray:
        noise = buffers[start // _CHUNK % 2][:n_paths - start]
        _fill_noise(noise, config.seed, start)
        return noise

    # The helper thread starts with the second block; leaving the with-block,
    # on success or error, waits for it.
    with ThreadPoolExecutor(max_workers=1) as helper:
        noise = draw(0)
        for start in range(0, n_paths, _CHUNK):
            following = start + _CHUNK
            pending = helper.submit(draw, following) if following < n_paths else None
            block_costs, _, _, _ = _run_block(strategy, config, noise)
            costs[start:following] = block_costs
            if pending is not None:
                noise = pending.result()
    mean = float(np.mean(costs))
    se = float(np.std(costs, ddof=1) / math.sqrt(config.n_paths)) if config.n_paths > 1 else math.inf
    return CostEstimate(mean, se, config.n_paths, costs if keep_costs else None)


def analytic_cost(strategy: Strategy, config: SimConfig) -> float:
    """Closed-form expected cost matching a simulated strategy, from q(0)=0."""
    spec = config.spec
    a = config.a_true
    t0 = spec.t_start
    if strategy.name == "zero_control":
        # E[q(t)^2] = a^2 t^2 + t under pure drift-plus-noise
        T = spec.horizon
        return a * a * (T ** 3 - t0 ** 3) / 3.0 + (T * T - t0 * t0) / 2.0
    if strategy.name == "known_a":
        if strategy.a != a:
            raise DomainError("analytic cost for known_a assumes the strategy knows a_true")
        if t0 == 0.0:
            return value_known_a(0.0, 0.0, a, spec)
        return opponent_cost(a, spec)
    if t0 == 0.0:
        return bayes_cost(0.0, 0.0, 0.0, a, strategy.prior, spec)
    return opponent_cost(a, spec) + additive_regret(a, strategy.prior, spec)


def regret_empirical(
    strategy: Strategy, a_values, config: SimConfig
) -> RegretReport:
    """Empirical additive/multiplicative regret over a drift grid.

    Our cost comes from Monte Carlo; the informed opponent's cost is exact
    (expectation of the known-a value function).  Standard errors propagate
    directly: se(AR) = se, se(MR) = se / opponent cost.
    """
    a_values = tuple(float(a) for a in a_values)
    ar, mr, ar_se, mr_se = [], [], [], []
    for a in a_values:
        est = monte_carlo_cost(strategy, replace(config, a_true=a))
        opp = opponent_cost(a, config.spec)
        ar.append(est.mean - opp)
        mr.append(est.mean / opp)
        ar_se.append(est.stderr)
        mr_se.append(est.stderr / opp)
    return RegretReport(
        a_values=a_values,
        additive=tuple(ar),
        multiplicative=tuple(mr),
        ar_worst=max(ar),
        mr_worst=max(mr),
        strategy={**strategy.describe(), "T": config.spec.horizon,
                  "T0": config.spec.t_start, "dt": config.dt,
                  "n_paths": config.n_paths, "seed": config.seed},
        additive_se=tuple(ar_se),
        multiplicative_se=tuple(mr_se),
    )


def dump_trajectory(path, trajectory: np.ndarray) -> None:
    """Write one trajectory as CSV with header t,q,xi,u."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "q", "xi", "u"])
        for row in trajectory:
            writer.writerow([format(v, ".17g") for v in row])
