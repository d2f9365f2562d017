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

The law has one form here, Strategy.gain_table: a row of coefficients for
each controlled step k >= k_start, built once per run (-e2, e1/2 and
w = t + sigma^-2 for the Bayesian strategies; -e2 and (e1/2) a for
known_a), which _control applies to a block of paths in place.  _run_block
steps a block on six preallocated vectors with the float operations
u = -e2 q - (e1/2)(xi / w), cost += (q^2 + u^2) dt, dq = (a + u) dt +
sqrt(dt) n and xi = (xi + dq) - u dt, in this order, so every cost is
bit-identical to calling model.control_known_a at each step.

One engine, run_paths, steps every path: monte_carlo_cost's paths 0, ...,
n_paths - 1, and simulate_path's one path keyed (seed, path_index), whose
cost is the one monte_carlo_cost gets for it.  It works through the paths in
blocks of _CHUNK, and through each block's steps in windows of _WINDOW, in
one step-major buffer of min(_WINDOW, n_steps) x min(_CHUNK, n_paths) on a
mapping of its own (_window_buffer): column r holds the noise of path
start + r, so that each step reads its noise as one contiguous row.  Each
window is first filled, then stepped, and the block's state (q, xi, u, cost)
carries into the next.  So the noise takes 8 B x _WINDOW x min(_CHUNK,
n_paths), 16.4 MB at most, at any horizon; the gain table, about 130 B a
step, still grows with it.  A run with a sink copies each step's (t, q, xi, u)
of its block's first path, where _run_block yields, into the window's rows
and hands them to the sink: acl simulate --dump-paths writes them as they
come, one window in memory at any horizon, and simulate_path joins them.

A run of more than _WINDOW steps keeps one generator per column for the call
(about 0.6 kB each), built up front on the calling thread and keyed afresh at
each block's first window, so that each path's stream goes on where the last
window stopped; a shorter run draws each block's noise from each path's key.
From _THREAD_MIN_STEPS steps in a window on (below, the two threads spent
longer passing the GIL between them than the second one saved), a helper
thread fills the window beside the calling thread, which for the first
window first builds the gain table.  Both take tiles of _TILE paths from one
shared iterator until it runs dry: numpy's normal sampler and the scaling
multiply release the GIL, and next() on a range iterator is atomic under it
on every supported CPython (3.10 to 3.12, none free-threaded), so each tile
is drawn exactly once, into its own columns, by whichever thread has time to
spare.  Filling never overlaps stepping: the fill and the stepping loop's
small ufunc calls pass the GIL back and forth and slow each other about
two-fold, and an overlap would keep a second window in memory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bayes import GaussianPrior, posterior_precision
from .errors import BudgetError, DomainError, NonFiniteError
from .model import ProblemSpec, own_gains, value_known_a
from .performance import _check_drift, regret_form

MAX_TOTAL_STEPS = 10 ** 9
_CHUNK = 2048
#: Paths drawn per tile into the step-major block.
_TILE = 64
#: Steps per window: monte_carlo_cost draws and steps a block this many steps at a time.
_WINDOW = 1000
#: Fewest steps in a window at which monte_carlo_cost draws noise on a helper thread.
_THREAD_MIN_STEPS = 600


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
        if not isinstance(self.n_paths, numbers.Integral):
            raise DomainError(f"n_paths must be an integer, got {self.n_paths!r}")
        if not self.n_paths >= 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if not math.isfinite(self.a_true):
            raise DomainError(f"a_true must be finite, got {self.a_true}")
        _check_philox_word("seed", self.seed)  # the first word of every path's Philox key
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
    zero_control applies no control.  gain_table is the law's only form here.
    """

    name: str
    a: float | None = None
    prior: GaussianPrior | None = None

    def gain_table(self, config: SimConfig) -> list[tuple] | None:
        """The law's coefficients at each controlled step k = k_start, ...,
        n_steps - 1, at t = k dt: (-e2, e1/2, t + sigma^-2) for the Bayesian
        strategies, (-e2, e1/2 * a, None) for known_a; None for zero_control,
        which applies no control.  k_start * dt may fall an ulp short of
        t_start (11 * 0.03 < 0.33); the gains do not depend on t_start."""
        if self.name == "zero_control":
            return None
        spec, dt = config.spec, config.dt
        rows = []
        for k in range(config.k_start, config.n_steps):
            t = k * dt
            g = own_gains(t, spec)
            if self.prior is None:
                rows.append((-g.e2, 0.5 * g.e1 * self.a, None))
            else:
                rows.append((-g.e2, 0.5 * g.e1, posterior_precision(t, self.prior)))
        return rows

    def describe(self) -> dict:
        d = {"variant": self.name}
        if self.a is not None:
            d["a"] = self.a
        if self.prior is not None and not self.prior.is_improper:
            d["sigma"] = self.prior.sigma
        return d

    def check_config(self, config: SimConfig) -> None:
        # control starts at the grid point k_start dt nearest t_start, where
        # the improper posterior needs t > 0
        if self.name == "bayes_improper" and config.k_start == 0:
            raise DomainError(
                f"improper-prior strategy requires t_start (T0) >= dt: T0={config.spec.t_start} "
                f"rounds to step 0 of the dt={config.dt} grid"
            )


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


def _check_philox_word(name: str, value) -> None:
    """DomainError unless value, a word of a path's Philox key, is an integer in [0, 2**64)."""
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value < 2 ** 64:
        raise DomainError(f"{name} must be in [0, 2**64), got {value}")


def _fill_noise(
    out: np.ndarray,
    seed: int,
    first: int,
    scale: float = 1.0,
    tiles=None,
    rngs: list | None = None,
    restart: bool = True,
) -> None:
    """Fill column r of the step-major out (steps x paths) with standard-normal
    increments of path first + r times scale, in tiles of _TILE paths: for
    each tile start that tiles yields (default: every tile).

    Each path has its own Philox stream, keyed on (seed, path index) with the
    counter at 0.  Without rngs one generator serves every path: resetting its
    state to the path's key gives the draws of a fresh generator without
    building one, so out gets the first rows of each stream.  With rngs,
    rngs[r] is column r's own generator, kept across calls: with restart it is
    reset to its path's key first, and without it goes on where its last draw
    stopped, so that consecutive windows of steps get consecutive draws.
    Either way a path's bits do not depend on which paths, or which thread,
    came before.  The sampler writes only contiguous rows, so a tile's paths
    are drawn as rows of a scratch of this call's own and scaled into out in
    one multiply.
    """
    n_steps, n_paths = out.shape
    scratch = np.empty((min(_TILE, n_paths), n_steps))
    bitgen = np.random.Philox(key=np.array([seed, first], dtype=np.uint64))
    if rngs is None:
        rngs = [np.random.Generator(bitgen)] * n_paths
    state = bitgen.state  # counter 0 and an empty buffer
    # as lists, which the state setter reads in a third of the time arrays take
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]
    for r in range(0, n_paths, _TILE) if tiles is None else tiles:
        tile = scratch[:n_paths - r]
        for i, row in enumerate(tile):
            rng = rngs[r + i]
            if restart:
                key[1] = first + r + i
                rng.bit_generator.state = state
            rng.standard_normal(out=row)
        np.multiply(tile.T, scale, out=out[:, r:r + len(tile)])


def path_noise(seed: int, path_index: int, n_steps: int) -> np.ndarray:
    """Standard-normal increments for one path from its own Philox stream."""
    out = np.empty((n_steps, 1))
    _fill_noise(out, seed, path_index)
    return out[:, 0]


def _control(row: tuple, q: np.ndarray, xi: np.ndarray, u: np.ndarray, scratch: np.ndarray) -> None:
    """Write u = -e2 q - (e1/2) m into u from one gain-table row (-e2, e1/2, w):
    the law of model.control_known_a, with m = xi / w, the posterior mean, or
    with a known drift already folded into the row when w is None.  scratch
    is overwritten."""
    neg_e2, half_e1, w = row
    np.multiply(q, neg_e2, out=u)
    if w is None:
        np.subtract(u, half_e1, out=u)
    else:
        np.divide(xi, w, out=scratch)
        scratch *= half_e1
        u -= scratch


def _run_block(table: list[tuple] | None, config: SimConfig, noise: np.ndarray,
               state: np.ndarray, k_first: int):
    """Advance a block of paths over steps k_first, ..., k_first +
    noise.shape[1] - 1: a generator that yields each step's k once u holds
    the step's control and the cost its term, before q and xi move on, and
    at its end checks that q and the cost are finite.  table is the strategy's gain_table(config);
    noise (paths x steps) holds the increments sqrt(dt) * N(0, 1).  The
    paths step in place on the six rows of state, q, xi, u, cost and two
    scratch rows (zeros at step 0), so that a later call on the same state
    goes on where this one stopped.  u stays 0 until the first controlled
    step k_start, and for zero_control throughout."""
    dt, a, k0 = config.dt, config.a_true, config.k_start
    q, xi, u, cost, dq, tmp = state
    for k, increment in zip(range(k_first, k_first + noise.shape[1]), noise.T):
        if k >= k0:
            if table is not None:
                _control(table[k - k0], q, xi, u, tmp)
            np.multiply(q, q, out=tmp)
            np.multiply(u, u, out=dq)
            tmp += dq
            tmp *= dt
            cost += tmp
        yield k
        np.add(u, a, out=dq)
        dq *= dt
        dq += increment
        q += dq
        xi += dq
        np.multiply(u, dt, out=tmp)
        xi -= tmp

    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(cost))):
        raise NonFiniteError("simulation produced non-finite state")


def simulate_path(
    strategy: Strategy,
    config: SimConfig,
    noise: np.ndarray | None = None,
    path_index: int = 0,
) -> tuple[np.ndarray, float]:
    """One path; returns (trajectory with columns t,q,xi,u, realized cost).

    run_paths on the one path keyed (seed, path_index), with the rows of its
    windows joined.  A caller-supplied noise array (n_steps standard normals,
    e.g. all zeros) replaces the path's random stream.
    """
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (config.n_steps,):
            raise DomainError(f"noise must have shape ({config.n_steps},), got {noise.shape}")
        noise = noise[:, None]
    windows = []
    cost = run_paths(strategy, config, path_index, 1, noise, windows.append)[0]
    return np.concatenate(windows), float(cost)


def _window_buffer(rows: int, cols: int) -> np.ndarray:
    """An uninitialised rows x cols float array on an anonymous mapping of its
    own, whose pages go back to the system when the last view of it is freed.
    A malloc'd buffer of this size sits on glibc's heap from the second call
    on (its mmap threshold rises to the size of the last large block freed),
    where the caller's allocations between calls can split the freed block,
    so that the next call's buffer adds its whole size to the process."""
    import mmap  # here: the package import stays lean

    return np.ndarray((rows, cols), buffer=mmap.mmap(-1, 8 * rows * cols))


def run_paths(strategy: Strategy, config: SimConfig, first: int, n_paths: int,
              noise: np.ndarray | None = None, sink=None) -> np.ndarray:
    """The realized costs of paths first, ..., first + n_paths - 1.  noise,
    standard normals of shape (n_steps, n_paths), fills the windows in place
    of the paths' streams; sink, if given, gets each window's rows
    (t, q, xi, u) of the first path of each block, in an array of its own."""
    _check_philox_word("path_index", first)  # the second word of its Philox key
    strategy.check_config(config)
    n_steps, dt, sqrt_dt = config.n_steps, config.dt, math.sqrt(config.dt)
    if n_paths * n_steps > MAX_TOTAL_STEPS:
        raise BudgetError(f"{n_paths} paths x {n_steps} steps = {n_paths * n_steps} "
                          f"exceeds budget {MAX_TOTAL_STEPS}")
    costs = np.empty(n_paths)
    steps = _window_buffer(min(_WINDOW, n_steps), min(_CHUNK, n_paths))  # column r: path start + r
    rngs = None
    if noise is None and n_steps > _WINDOW:
        # a generator per column, keyed at each block's first window; one SeedSequence
        # for all, as Philox(key=...) builds its own from system entropy (9 vs 6 us)
        seed_seq = np.random.SeedSequence(0)
        rngs = [np.random.Generator(np.random.Philox(seed_seq)) for _ in range(steps.shape[1])]
    from concurrent.futures import ThreadPoolExecutor  # here: the package import stays lean

    # Leaving the with-block, on success or error, waits for the helper.
    with ThreadPoolExecutor(max_workers=1) as helper:
        for start in range(0, n_paths, _CHUNK):
            state = np.zeros((6, min(_CHUNK, n_paths - start)))
            for k in range(0, n_steps, _WINDOW):
                window = steps[:n_steps - k, :state.shape[1]]
                tiles = iter(range(0, window.shape[1], _TILE))
                args = (window, config.seed, first + start, sqrt_dt, tiles, rngs, k == 0)
                threaded = noise is None and len(window) >= _THREAD_MIN_STEPS
                pending = helper.submit(_fill_noise, *args) if threaded else None
                if start == k == 0:
                    table = strategy.gain_table(config)
                if noise is None:
                    _fill_noise(*args)
                else:
                    block = noise[k:k + len(window), start:start + window.shape[1]]
                    np.multiply(block, sqrt_dt, out=window)
                if pending is not None:
                    pending.result()
                stepping = _run_block(table, config, window.T, state, k)
                if sink is None:
                    for _ in stepping:
                        pass
                else:
                    rows = np.empty((len(window), 4))
                    for j, step in enumerate(stepping):
                        rows[j] = step * dt, *state[:3, 0]
                    sink(rows)
            costs[start:start + _CHUNK] = state[3]
    return costs


def monte_carlo_cost(
    strategy: Strategy, config: SimConfig, keep_costs: bool = False
) -> CostEstimate:
    """Mean realized cost and its standard error over independent paths."""
    costs = run_paths(strategy, config, 0, config.n_paths)
    mean = float(np.mean(costs))
    se = float(np.std(costs, ddof=1) / math.sqrt(config.n_paths)) if config.n_paths > 1 else math.inf
    return CostEstimate(mean, se, config.n_paths, costs if keep_costs else None)


def analytic_cost(strategy: Strategy, config: SimConfig) -> float:
    """Closed-form expected cost matching a simulated strategy, from q(0)=0;
    neither strategy pays a taxed spec's fuel weight."""
    spec = config.spec
    a = config.a_true
    t0 = spec.t_start
    if strategy.name == "zero_control":
        # E[q(t)^2] = a^2 t^2 + t under pure drift-plus-noise
        T = spec.horizon
        return a * a * (T ** 3 - t0 ** 3) / 3.0 + (T * T - t0 * t0) / 2.0
    _check_drift(a)
    if strategy.name == "known_a":
        if strategy.a != a:
            raise DomainError("analytic cost for known_a assumes the strategy knows a_true")
        # the known-a value is quadratic in q(t0) ~ N(a t0, t0): the two-point rule is exact
        points = (a * t0 + math.sqrt(t0), a * t0 - math.sqrt(t0))
        return 0.5 * sum(value_known_a(q, t0, a, spec.with_fuel_weight(1.0)) for q in points)
    # the numerator of the Bayesian strategy's cost ratio is its expected cost
    form = regret_form(strategy.prior, spec)
    return form.beta * (a * a) + form.alpha

