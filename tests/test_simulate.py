"""Euler-Maruyama simulator: exact degenerate cases, statistics, reproducibility."""

import gc
import itertools
import math
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from agnostic_control import (
    BudgetError,
    DomainError,
    GaussianPrior,
    NonFiniteError,
    ProblemSpec,
    SimConfig,
    bayes_cost,
    control_known_a,
    make_strategy,
    monte_carlo_cost,
    posterior,
    regret_form,
    simulate_path,
    value_known_a,
)
from agnostic_control import model, simulate
from agnostic_control.simulate import analytic_cost, path_noise


def small_config(**kw):
    defaults = dict(
        spec=ProblemSpec(horizon=1.0), a_true=0.0, dt=1e-2, n_paths=2000, seed=0
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def _stepped(table, cfg, noise):
    """The state (q, xi, u, cost and two scratch rows) of paths stepped from
    zero over the increments noise (paths x steps) in one run of _run_block."""
    state = np.zeros((6, noise.shape[0]))
    for _ in simulate._run_block(table, cfg, noise, state, 0):
        pass
    return state


def test_config_validation():
    spec = ProblemSpec(horizon=1.0)
    with pytest.raises(DomainError):
        SimConfig(spec=spec, a_true=0.0, dt=0.0)
    with pytest.raises(DomainError):
        SimConfig(spec=spec, a_true=0.0, n_paths=0)
    with pytest.raises(DomainError):
        SimConfig(spec=spec, a_true=0.0, dt=0.3)  # does not divide the horizon
    with pytest.raises(DomainError):  # t_start between grid points
        SimConfig(spec=ProblemSpec(horizon=1.0, t_start=0.55), a_true=0.0, dt=0.1)
    for seed in (-1, 2 ** 64, 1.5, 1.0, "1", None):  # not an integer Philox key word
        with pytest.raises(DomainError, match="seed must be"):
            SimConfig(spec=spec, a_true=0.0, seed=seed)
    for n_paths in (2.5, 1.0, "2", None):  # not an integer, which monte_carlo_cost needs
        with pytest.raises(DomainError, match="n_paths must be an integer"):
            SimConfig(spec=spec, a_true=0.0, n_paths=n_paths)
    SimConfig(spec=spec, a_true=0.0, n_paths=np.int64(2), seed=np.uint64(2 ** 64 - 1))


def test_simulate_path_rejects_a_path_index_off_the_philox_key():
    cfg = small_config(n_paths=1)
    strategy = make_strategy("zero_control")
    for path_index in (-1, 2 ** 64, 1.5, 1.0, None):
        with pytest.raises(DomainError, match="path_index must be"):
            simulate_path(strategy, cfg, path_index=path_index)
    # the last key word runs, on its own stream
    last = simulate_path(strategy, cfg, path_index=np.uint64(2 ** 64 - 1))[0]
    assert not np.array_equal(last[:, 1], simulate_path(strategy, cfg)[0][:, 1])


def test_budget_enforced():
    cfg = small_config(dt=1e-3, n_paths=10 ** 7)
    with pytest.raises(BudgetError):
        monte_carlo_cost(make_strategy("zero_control"), cfg)


def test_zero_noise_zero_drift_path_is_exactly_zero():
    cfg = small_config(n_paths=1)
    traj, cost = simulate_path(make_strategy("zero_control"), cfg, noise=np.zeros(cfg.n_steps))
    assert cost == 0.0
    assert np.all(traj[:, 1] == 0.0)  # q
    assert np.all(traj[:, 2] == 0.0)  # xi
    assert np.all(traj[:, 3] == 0.0)  # u


def test_trajectory_format():
    cfg = small_config(n_paths=1)
    traj, _ = simulate_path(make_strategy("known_a", a=0.5), small_config(a_true=0.5), path_index=3)
    assert traj.shape == (cfg.n_steps, 4)
    assert traj[0, 0] == 0.0
    assert traj[-1, 0] == pytest.approx(cfg.spec.horizon - cfg.dt)


def test_zero_control_drift_statistics():
    # q(T) under zero control is Brownian motion with drift: mean aT, var T
    a, T = 1.0, 1.0
    cfg = small_config(a_true=a, n_paths=10_000)
    qs = np.empty(cfg.n_paths)
    for start in range(0, cfg.n_paths, 2000):
        stop = min(start + 2000, cfg.n_paths)
        noise = np.stack([path_noise(cfg.seed, i, cfg.n_steps) for i in range(start, stop)])
        qs[start:stop] = _stepped(make_strategy("zero_control").gain_table(cfg), cfg,
                                  math.sqrt(cfg.dt) * noise)[0]
    se = qs.std(ddof=1) / math.sqrt(cfg.n_paths)
    assert abs(qs.mean() - a * T) <= 4 * se
    assert abs(qs.var(ddof=1) - T) <= 0.1 * T


def test_known_a_cost_matches_analytic():
    cfg = small_config(a_true=1.0, dt=1e-3, n_paths=4000)
    est = monte_carlo_cost(make_strategy("known_a", a=1.0), cfg)
    ref = value_known_a(0.0, 0.0, 1.0, cfg.spec)
    assert ref == pytest.approx(0.672186674527262298907, rel=1e-12)
    assert abs(est.mean - ref) <= 3 * est.stderr


def test_bayes_cost_matches_analytic():
    prior = GaussianPrior(1.0)
    cfg = small_config(a_true=0.0, dt=1e-3, n_paths=4000)
    est = monte_carlo_cost(make_strategy("bayes", sigma=prior.sigma), cfg)
    ref = bayes_cost(0.0, 0.0, 0.0, 0.0, prior, cfg.spec)
    assert abs(est.mean - ref) <= 3 * est.stderr


def test_weak_order_one_bias_shrinks():
    # halving a coarse step shrinks the discretization bias roughly linearly
    ref = value_known_a(0.0, 0.0, 1.0, ProblemSpec(horizon=1.0))
    biases = []
    for dt in (1e-2, 2e-3):
        cfg = small_config(a_true=1.0, dt=dt, n_paths=40_000, seed=9)
        est = monte_carlo_cost(make_strategy("known_a", a=1.0), cfg)
        biases.append(est.mean - ref)
    assert abs(biases[1]) < abs(biases[0])


def test_cost_excludes_observation_phase_exactly():
    # same deterministic path with and without an observation phase: the cost
    # difference is exactly the excluded left-endpoint sum over [0, t_start)
    a, dt = 2.0, 1e-2
    cfg_full = SimConfig(spec=ProblemSpec(horizon=1.0), a_true=a, dt=dt, n_paths=1)
    cfg_obs = SimConfig(
        spec=ProblemSpec(horizon=1.0, t_start=0.5), a_true=a, dt=dt, n_paths=1
    )
    zeros = np.zeros(cfg_full.n_steps)
    _, cost_full = simulate_path(make_strategy("zero_control"), cfg_full, noise=zeros)
    _, cost_obs = simulate_path(make_strategy("zero_control"), cfg_obs, noise=zeros)
    excluded = sum((a * k * dt) ** 2 * dt for k in range(50))  # t_k in [0, 0.5)
    assert cost_full - cost_obs == pytest.approx(excluded, rel=1e-12)

    # pushing t_start to the last grid point leaves a single costed step
    spec = ProblemSpec(horizon=1.0, t_start=1.0 - dt)
    cfg = SimConfig(spec=spec, a_true=a, dt=dt, n_paths=1)
    _, cost = simulate_path(make_strategy("zero_control"), cfg, noise=zeros)
    assert cost == pytest.approx((a * (1.0 - dt)) ** 2 * dt, rel=1e-12)


@pytest.mark.parametrize("strategy", [
    make_strategy("known_a", a=1.0), make_strategy("bayes", sigma=1.0),
])
def test_control_starts_at_grid_index_of_t_start(strategy):
    # 11 * 0.03 = 0.32999999999999996 falls an ulp short of t_start = 0.33
    spec = ProblemSpec(horizon=0.99, t_start=0.33)
    cfg = SimConfig(spec=spec, a_true=1.0, dt=0.03, n_paths=1, seed=2)
    traj, cost = simulate_path(strategy, cfg)
    assert np.all(traj[:11, 3] == 0.0)
    assert np.all(traj[11:, 3] != 0.0)
    window = sum((q * q + u * u) * cfg.dt for _, q, _, u in traj[11:])
    assert cost == pytest.approx(window, rel=1e-12)


def test_improper_strategy_requires_observation_phase():
    cfg = small_config()
    with pytest.raises(DomainError):
        monte_carlo_cost(make_strategy("bayes_improper"), cfg)


def test_reproducibility_bit_exact():
    cfg = small_config(n_paths=500, seed=123)
    e1 = monte_carlo_cost(make_strategy("known_a", a=0.0), cfg, keep_costs=True)
    e2 = monte_carlo_cost(make_strategy("known_a", a=0.0), cfg, keep_costs=True)
    assert e1.mean == e2.mean
    assert e1.stderr == e2.stderr
    assert np.array_equal(e1.costs, e2.costs)


def test_path_streams_independent_of_chunking():
    # stream for path i depends only on (seed, i)
    n1 = path_noise(7, 11, 100)
    n2 = path_noise(7, 11, 100)
    assert np.array_equal(n1, n2)
    assert not np.array_equal(path_noise(7, 12, 100), n1)
    assert not np.array_equal(path_noise(8, 11, 100), n1)


@pytest.mark.parametrize("strategy", [
    make_strategy("bayes", sigma=1.5), make_strategy("zero_control"),
    make_strategy("known_a", a=0.5), make_strategy("bayes_improper"),
])
def test_costs_do_not_depend_on_chunking(monkeypatch, strategy):
    # from _THREAD_MIN_STEPS steps on, both threads fill each window from
    # one tile iterator; below, the calling thread fills it alone.  The costs
    # must be those of a serial path-by-path run, whatever the block size and
    # window length, and wherever the tile, block and window edges fall (7
    # and 100 are not multiples of _TILE; 2 * chunk + 1 paths end on a
    # one-path block; 99 steps a window leave a one-step window), on both
    # paths (the improper prior needs an observation phase, which ends at
    # step 50: on a window edge at 50 steps a window, inside one at 7)
    t_start = 0.5 if strategy.name == "bayes_improper" else 0.0
    cfg = small_config(spec=ProblemSpec(horizon=1.0, t_start=t_start), a_true=0.5, n_paths=201, seed=4)
    noise = np.stack([path_noise(cfg.seed, i, cfg.n_steps) for i in range(cfg.n_paths)])
    table, scaled = strategy.gain_table(cfg), math.sqrt(cfg.dt) * noise
    serial = np.concatenate([_stepped(table, cfg, scaled[i:i + 1])[3]
                             for i in range(cfg.n_paths)])
    cases = [(chunk, 50) for chunk in (7, 50, 4096)]
    cases += [(chunk, n) for chunk in (7, 100) for n in (63, 64, 65, 2 * chunk + 1)]
    for min_steps, window in itertools.product(
        (0, cfg.n_steps + 1), (1, 7, 50, cfg.n_steps - 1, cfg.n_steps, 4096)
    ):
        monkeypatch.setattr(simulate, "_THREAD_MIN_STEPS", min_steps)
        monkeypatch.setattr(simulate, "_WINDOW", window)
        # every block and tile edge in one window; in many, one-path last blocks
        for chunk, n_paths in cases if window >= cfg.n_steps else [(7, 15), (100, 201)]:
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            costs = monte_carlo_cost(strategy, replace(cfg, n_paths=n_paths), keep_costs=True).costs
            assert costs.tobytes() == serial[:n_paths].tobytes(), (min_steps, window, chunk, n_paths)
    for i in range(50):
        assert simulate_path(strategy, cfg, path_index=i)[1] == serial[i]


def test_tiles_drawn_from_a_shared_iterator_match_a_serial_fill():
    # any split of the tiles, between calls or between threads, draws each
    # path once with its own bits into its own column; a skipped tile would
    # keep its NaN (in a run, the previous block's noise)
    seed, first, scale = 9, 1000, math.sqrt(0.01)
    serial = np.stack([path_noise(seed, first + r, 50) for r in range(150)], axis=1)
    scaled = serial * scale
    tile_starts = range(0, serial.shape[1], simulate._TILE)

    split = np.full_like(serial, np.nan)
    todo = iter(tile_starts)
    simulate._fill_noise(split, seed, first, 1.0, itertools.islice(todo, 1))
    simulate._fill_noise(split, seed, first, 1.0, todo)
    assert split.tobytes() == serial.tobytes()

    # more threads than cores, switching as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for tile_scale, expected in ((1.0, serial), (scale, scaled)):
            shared = np.full_like(serial, np.nan)
            todo = iter(tile_starts)
            helpers = [threading.Thread(target=simulate._fill_noise,
                                        args=(shared, seed, first, tile_scale, todo))
                       for _ in range(4)]
            for helper in helpers:
                helper.start()
            simulate._fill_noise(shared, seed, first, tile_scale, todo)
            for helper in helpers:
                helper.join(timeout=30)
                assert not helper.is_alive()
            assert not np.isnan(shared).any()
            assert shared.tobytes() == expected.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_a_path_drawn_window_by_window_matches_path_noise():
    # generators kept per column go on where their last window stopped, so
    # the windows of each path join into its path_noise, byte for byte, for
    # any window lengths and tile splits; keyed afresh for a second, narrower
    # block, the same generators draw that block's paths from their start
    seed, n_steps = 9, 50
    rngs = [np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
            for _ in range(150)]
    for first, n_paths in ((1000, 150), (1150, 70)):
        serial = np.stack([path_noise(seed, first + r, n_steps) for r in range(n_paths)], axis=1)
        windowed = np.full_like(serial, np.nan)
        for k, stop in ((0, 7), (7, 8), (8, 49), (49, 50)):
            todo = iter(range(0, n_paths, simulate._TILE))
            for tiles in (itertools.islice(todo, 1), todo):
                simulate._fill_noise(windowed[k:stop], seed, first, 1.0, tiles, rngs, k == 0)
        assert windowed.tobytes() == serial.tobytes(), first


def test_fill_error_on_the_helper_propagates_and_leaves_no_thread(monkeypatch):
    # the helper takes one tile, then fails on its second; the calling
    # thread draws the rest and must raise the helper's error, not hang
    monkeypatch.setattr(simulate, "_THREAD_MIN_STEPS", 0)
    monkeypatch.setattr(simulate, "_CHUNK", 100)
    fill, errors = simulate._fill_noise, []

    def helper_fails_on_second_tile(out, seed, first, scale, tiles, *rest):
        if threading.current_thread() is caller:
            return fill(out, seed, first, scale, tiles, *rest)
        fill(out, seed, first, scale, itertools.islice(tiles, 1), *rest)
        raise RuntimeError("helper's second tile")

    def run():
        try:
            monte_carlo_cost(make_strategy("bayes", sigma=1.5), small_config(n_paths=250))
        except RuntimeError as exc:
            errors.append(exc)

    monkeypatch.setattr(simulate, "_fill_noise", helper_fails_on_second_tile)
    before = threading.active_count()
    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert [str(exc) for exc in errors] == ["helper's second tile"]
    assert threading.active_count() == before


def _memory_over(monkeypatch, call):
    """Run call() twice under tracemalloc with the collector off, the first
    time for lazy imports, first-call caches and free lists; return (peak,
    left) of the second: the traced peak over it plus the bytes of every
    mapped window buffer it made, which tracemalloc does not see, and the
    traced memory left after it.  Every mapped buffer must be freed when
    call() returns: a reference cycle that kept one alive would outlive the
    call with the collector off.  A full collection first empties CPython's
    free lists, which keep up to 2 000 freed tuples of a size: a gain table
    of fewer than 4 000 rows would reuse those freed before tracing began,
    which tracemalloc does not see, leave traced ones of its own there after
    the first call, and show up to 64 B a tuple in left."""
    buffers, window_buffer = [], simulate._window_buffer

    def recorded(rows, cols):
        out = window_buffer(rows, cols)
        buffers.append((out.nbytes, weakref.ref(out)))
        return out

    monkeypatch.setattr(simulate, "_window_buffer", recorded)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        call()
        buffers.clear()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        after, peak = tracemalloc.get_traced_memory()
        freed = [ref() is None for _, ref in buffers]  # before the collector runs again
    finally:
        tracemalloc.stop()
        gc.enable()
    assert all(freed)
    return peak - before + sum(nbytes for nbytes, _ in buffers), after - before


def test_one_block_in_memory_and_freed_after_the_call(monkeypatch):
    # the threaded path at the default block size, ending on a one-path
    # block; a reference cycle that kept the block alive would show in the
    # memory left after the call
    cfg = small_config(spec=ProblemSpec(horizon=0.6), dt=1e-3, n_paths=2 * simulate._CHUNK + 1)
    assert cfg.n_steps >= simulate._THREAD_MIN_STEPS
    block_bytes = simulate._CHUNK * cfg.n_steps * 8
    strategy = make_strategy("bayes", sigma=1.5)
    peak, left = _memory_over(monkeypatch, lambda: monte_carlo_cost(strategy, cfg))
    assert peak < 1.25 * block_bytes
    assert abs(left) < 0.01 * block_bytes


def test_noise_memory_set_by_the_window_not_the_horizon(monkeypatch):
    # 3 000 steps in windows of _WINDOW steps: the peak stays within the
    # window's buffer, the two threads' tile scratches and the gain table,
    # with a quarter to spare; a buffer of the whole horizon would be three
    # windows
    cfg = small_config(spec=ProblemSpec(horizon=3.0), dt=1e-3, n_paths=300)
    assert cfg.n_steps >= 3 * simulate._WINDOW
    strategy = make_strategy("bayes", sigma=1.5)
    tracemalloc.start()
    try:
        table = strategy.gain_table(cfg)
        table_bytes = tracemalloc.get_traced_memory()[0]
        del table
    finally:
        tracemalloc.stop()
    peak, left = _memory_over(monkeypatch, lambda: monte_carlo_cost(strategy, cfg))
    window_bytes = 8 * simulate._WINDOW * (min(simulate._CHUNK, cfg.n_paths) + 2 * simulate._TILE)
    assert peak < 1.25 * (window_bytes + table_bytes)
    assert abs(left) < 0.01 * window_bytes


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_error_in_first_block_leaves_no_helper_thread(monkeypatch):
    monkeypatch.setattr(simulate, "_THREAD_MIN_STEPS", 0)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    cfg = small_config(a_true=1e200, n_paths=50)
    before = threading.active_count()
    with pytest.raises(NonFiniteError):
        monte_carlo_cost(make_strategy("known_a", a=1e200), cfg)
    assert threading.active_count() == before


def test_error_in_a_later_block_leaves_no_helper_thread(monkeypatch):
    # the helper is drawing block 2 when block 1 fails to step
    monkeypatch.setattr(simulate, "_THREAD_MIN_STEPS", 0)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    run_block, blocks = simulate._run_block, []

    def failing_second(table, config, noise, *args, **kwargs):
        blocks.append(len(noise))
        if len(blocks) == 2:
            raise NonFiniteError("second block")
        return run_block(table, config, noise, *args, **kwargs)

    monkeypatch.setattr(simulate, "_run_block", failing_second)
    before = threading.active_count()
    with pytest.raises(NonFiniteError, match="second block"):
        monte_carlo_cost(make_strategy("bayes", sigma=1.5), small_config(n_paths=50))
    assert blocks == [7, 7]
    assert threading.active_count() == before


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_error_in_a_later_window_leaves_no_helper_thread(monkeypatch):
    # q = a t overflows q^2 near step 45 (q = 1.35e154), past the first
    # 30-step window's check; the error must come from the second window
    monkeypatch.setattr(simulate, "_THREAD_MIN_STEPS", 0)
    monkeypatch.setattr(simulate, "_WINDOW", 30)
    run_block, windows = simulate._run_block, []

    def counted(table, config, noise, state, k_first):
        windows.append(k_first)
        return run_block(table, config, noise, state, k_first)

    monkeypatch.setattr(simulate, "_run_block", counted)
    before = threading.active_count()
    with pytest.raises(NonFiniteError):
        monte_carlo_cost(make_strategy("zero_control"), small_config(a_true=3e154, n_paths=50))
    assert windows == [0, 30]
    assert threading.active_count() == before


def test_fill_error_in_a_later_window_propagates_and_leaves_no_thread(monkeypatch):
    # the helper takes one tile of the second window, then fails on its
    # next; the calling thread draws the rest and must raise the helper's
    # error, not hang
    monkeypatch.setattr(simulate, "_THREAD_MIN_STEPS", 0)
    monkeypatch.setattr(simulate, "_WINDOW", 30)
    fill, errors = simulate._fill_noise, []

    def helper_fails_in_second_window(out, seed, first, scale, tiles, rngs, restart):
        if threading.current_thread() is caller or restart:
            return fill(out, seed, first, scale, tiles, rngs, restart)
        fill(out, seed, first, scale, itertools.islice(tiles, 1), rngs, restart)
        raise RuntimeError("helper's second window")

    def run():
        try:
            monte_carlo_cost(make_strategy("bayes", sigma=1.5), small_config(n_paths=250))
        except RuntimeError as exc:
            errors.append(exc)

    monkeypatch.setattr(simulate, "_fill_noise", helper_fails_in_second_window)
    before = threading.active_count()
    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert [str(exc) for exc in errors] == ["helper's second window"]
    assert threading.active_count() == before


def test_make_strategy():
    assert make_strategy("zero_control").name == "zero_control"
    assert make_strategy("known_a", a=1.0).name == "known_a"
    assert make_strategy("bayes", sigma=2.0).describe()["sigma"] == 2.0
    assert make_strategy("bayes_improper").name == "bayes_improper"
    with pytest.raises(DomainError):
        make_strategy("bayes")
    with pytest.raises(DomainError):
        make_strategy("known_a")
    with pytest.raises(DomainError):
        make_strategy("nope")


def test_analytic_cost_zero_control():
    cfg = small_config(a_true=1.0)
    expected = 1.0 / 3.0 + 0.5
    assert analytic_cost(make_strategy("zero_control"), cfg) == pytest.approx(expected)


@pytest.mark.parametrize("variant, t_start", [("bayes", 0.0), ("bayes", 0.5), ("bayes_improper", 0.5)])
def test_analytic_cost_bayes_is_the_expected_cost_to_go(variant, t_start):
    # before control starts xi = q, and bayes_cost is quadratic in q(t0) ~ N(a t0, t0),
    # so the two-point rule q = a t0 +- sqrt(t0) gives its expectation exactly
    a = -1.3
    cfg = small_config(spec=ProblemSpec(horizon=2.0, t_start=t_start), a_true=a)
    strategy = make_strategy(variant, sigma=0.8)
    points = [a * t_start + s * math.sqrt(t_start) for s in (1.0, -1.0)]
    expected = 0.5 * sum(bayes_cost(q, q, t_start, a, strategy.prior, cfg.spec) for q in points)
    assert analytic_cost(strategy, cfg) == pytest.approx(expected, rel=1e-13)


def test_empirical_regret_self_comparison():
    # the Monte Carlo cost against the informed opponent's exact cost: the
    # additive regret within 3 standard errors of 0, the ratio of 1
    cfg = small_config(dt=1e-3, n_paths=3000)
    known = make_strategy("known_a", a=0.0)
    est = monte_carlo_cost(known, cfg)
    opp = analytic_cost(known, cfg)
    assert abs(est.mean - opp) <= 3 * est.stderr
    assert est.mean / opp == pytest.approx(1.0, abs=3 * est.stderr / opp)


def test_empirical_regret_matches_analytic_mr():
    prior = GaussianPrior(1.0)
    cfg = small_config(dt=1e-3, n_paths=4000)
    form = regret_form(prior, cfg.spec)
    for a in (0.0, 1.0):
        cfg_a = replace(cfg, a_true=a)
        est = monte_carlo_cost(make_strategy("bayes", sigma=prior.sigma), cfg_a)
        opp = analytic_cost(make_strategy("known_a", a=a), cfg_a)
        mr = form(a)
        assert abs(est.mean / opp - mr) <= 3 * est.stderr / opp


def _per_step_reference(strategy, cfg, noise):
    """The Euler scheme as a plain loop that calls the law at every step:
    returns (costs, trajectory of path 0 with rows t, q, xi, u, q(T), xi(T))."""
    dt, sqrt_dt, m = cfg.dt, math.sqrt(cfg.dt), noise.shape[0]
    law_spec = replace(cfg.spec, t_start=0.0)
    q, xi, cost, rows = np.zeros(m), np.zeros(m), np.zeros(m), []
    for k in range(cfg.n_steps):
        t = k * dt
        u = np.zeros(m)
        if k >= cfg.k_start:
            if strategy.name != "zero_control":
                a_hat = strategy.a if strategy.prior is None else posterior(xi, t, strategy.prior)[0]
                u = control_known_a(q, t, a_hat, law_spec)
            cost += (q * q + u * u) * dt
        rows.append((t, q[0], xi[0], u[0]))
        dq = (cfg.a_true + u) * dt + sqrt_dt * noise[:, k]
        q = q + dq
        xi = xi + dq - u * dt
    return cost, np.array(rows), q, xi


#: Every strategy at t_start 0 and 0.5 (the improper prior needs t_start > 0),
#: and the grid where k_start * dt = 11 * 0.03 falls an ulp short of 0.33.
_STRATEGY_CASES = [
    (variant, T, t_start, dt)
    for variant in ("bayes", "known_a", "zero_control", "bayes_improper")
    for T, t_start, dt in ((1.0, 0.0, 0.01), (1.0, 0.5, 0.01), (0.99, 0.33, 0.03))
    if not (variant == "bayes_improper" and t_start == 0.0)
]


@pytest.mark.parametrize("variant, T, t_start, dt", _STRATEGY_CASES)
def test_gain_table_steps_bit_identical_to_per_step_law(monkeypatch, variant, T, t_start, dt):
    strategy = make_strategy(variant, a=0.7, sigma=1.5)
    cfg = SimConfig(spec=ProblemSpec(horizon=T, t_start=t_start), a_true=0.7, dt=dt,
                    n_paths=30, seed=3)
    noise = np.stack([path_noise(cfg.seed, i, cfg.n_steps) for i in range(cfg.n_paths)])
    costs, traj, q, xi = _per_step_reference(strategy, cfg, noise)
    got = _stepped(strategy.gain_table(cfg), cfg, math.sqrt(dt) * noise)
    assert got[0].tobytes() == q.tobytes()
    assert got[1].tobytes() == xi.tobytes()
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    # in one window, then in 7-step windows that the trajectory spans
    for window in (simulate._WINDOW, 7):
        monkeypatch.setattr(simulate, "_WINDOW", window)
        mc_costs = monte_carlo_cost(strategy, cfg, keep_costs=True).costs
        assert mc_costs.tobytes() == costs.tobytes(), window
        got_traj, cost = simulate_path(strategy, cfg)
        assert got_traj.tobytes() == traj.tobytes(), window
        assert cost == costs[0]
        for i in (7, cfg.n_paths - 1):  # the first path of the second block, and the last
            assert simulate_path(strategy, cfg, path_index=i)[1] == mc_costs[i], (window, i)


@pytest.mark.parametrize("variant, T, t_start, dt", _STRATEGY_CASES)
def test_fuel_weight_changes_neither_simulation_nor_reference(variant, T, t_start, dt):
    # our side never pays the fuel tax: a taxed spec only prices the opponent
    strategy = make_strategy(variant, a=0.7, sigma=1.5)
    results = []
    for lam in (1.0, 4.0):
        spec = ProblemSpec(horizon=T, t_start=t_start, fuel_weight=lam)
        cfg = SimConfig(spec=spec, a_true=0.7, dt=dt, n_paths=30, seed=3)
        costs = monte_carlo_cost(strategy, cfg, keep_costs=True).costs
        results.append((analytic_cost(strategy, cfg), costs.tobytes()))
    assert results[1] == results[0]


def test_gains_evaluated_once_per_controlled_step(monkeypatch):
    # one gain table per run, not one per block of paths
    calls = []
    original = model.gains

    def counted(t, spec):
        calls.append(t)
        return original(t, spec)

    monkeypatch.setattr(model, "gains", counted)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    cfg = small_config(spec=ProblemSpec(horizon=1.0, t_start=0.3), a_true=0.5, n_paths=50)
    monte_carlo_cost(make_strategy("bayes", sigma=1.5), cfg)
    assert len(calls) == cfg.n_steps - cfg.k_start


def _euler_moments(table, cfg):
    """Exact expected cost of the Euler scheme stepped by _run_block.

    With u = g_q q + g_xi xi + g_0 the scheme is linear in x = (q, xi):
    x' = A x + b + sqrt(dt) n (1, 1), so the mean and the 2x2 covariance
    recurse exactly, and E[q^2 + u^2] follows from them at each step."""
    dt, a = cfg.dt, cfg.a_true
    mean, cov = np.zeros(2), np.zeros((2, 2))
    cost = 0.0
    for k in range(cfg.n_steps):
        g = np.zeros(2)
        g_0 = 0.0
        if k >= cfg.k_start:
            if table is not None:
                neg_e2, half_e1, w = table[k - cfg.k_start]
                g = np.array([neg_e2, 0.0 if w is None else -half_e1 / w])
                g_0 = -half_e1 if w is None else 0.0
            e_q2 = mean[0] ** 2 + cov[0, 0]
            e_u2 = (g @ mean + g_0) ** 2 + g @ cov @ g
            cost += (e_q2 + e_u2) * dt
        A = np.eye(2) + dt * np.array([g, [0.0, 0.0]])
        b = np.array([(a + g_0) * dt, a * dt])
        mean = A @ mean + b
        cov = A @ cov @ A.T + dt * np.ones((2, 2))
    return cost


@pytest.mark.parametrize("variant, t_start", [(v, t0) for v, _, t0, dt in _STRATEGY_CASES if dt == 0.01])
def test_monte_carlo_matches_exact_euler_moments(variant, t_start):
    # no discretization bias in the reference: at dt = 0.1 the scheme's cost is
    # 0.03-0.1 below the continuous-time one, over 4 standard errors here
    strategy = make_strategy(variant, a=1.0, sigma=1.5)
    cfg = SimConfig(spec=ProblemSpec(horizon=1.0, t_start=t_start), a_true=1.0, dt=0.1,
                    n_paths=12_000, seed=8)
    est = monte_carlo_cost(strategy, cfg)
    exact = _euler_moments(strategy.gain_table(cfg), cfg)
    assert abs(est.mean - exact) <= 4 * est.stderr
