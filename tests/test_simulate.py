"""Euler-Maruyama simulator: exact degenerate cases, statistics, reproducibility."""

import math

import numpy as np
import pytest

from agnostic_control import (
    BudgetError,
    DomainError,
    GaussianPrior,
    ProblemSpec,
    SimConfig,
    bayes_cost,
    make_strategy,
    monte_carlo_cost,
    opponent_cost,
    regret_empirical,
    simulate_path,
    value_known_a,
)
from agnostic_control.simulate import analytic_cost, dump_trajectory, path_noise


def small_config(**kw):
    defaults = dict(
        spec=ProblemSpec(horizon=1.0), a_true=0.0, dt=1e-2, n_paths=2000, seed=0
    )
    defaults.update(kw)
    return SimConfig(**defaults)


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
    from agnostic_control.simulate import _run_block

    qs = np.empty(cfg.n_paths)
    for start in range(0, cfg.n_paths, 2000):
        stop = min(start + 2000, cfg.n_paths)
        noise = np.stack([path_noise(cfg.seed, i, cfg.n_steps) for i in range(start, stop)])
        _, _, q, _ = _run_block(make_strategy("zero_control"), cfg, noise)
        qs[start:stop] = q
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


def test_regret_empirical_self_comparison():
    cfg = small_config(dt=1e-3, n_paths=3000)
    report = regret_empirical(make_strategy("known_a", a=0.0), [0.0], cfg)
    assert abs(report.additive[0]) <= 3 * report.additive_se[0]
    assert report.multiplicative[0] == pytest.approx(1.0, abs=3 * report.multiplicative_se[0])


def test_regret_empirical_matches_analytic_mr():
    from agnostic_control import multiplicative_regret

    prior = GaussianPrior(1.0)
    cfg = small_config(dt=1e-3, n_paths=4000)
    a_grid = (0.0, 1.0)
    report = regret_empirical(make_strategy("bayes", sigma=prior.sigma), a_grid, cfg)
    for a, mr, se in zip(a_grid, report.multiplicative, report.multiplicative_se):
        assert abs(mr - multiplicative_regret(a, prior, cfg.spec)) <= 3 * se


def test_dump_trajectory(tmp_path):
    cfg = small_config(n_paths=1)
    traj, _ = simulate_path(make_strategy("zero_control"), cfg)
    out = tmp_path / "path.csv"
    dump_trajectory(out, traj)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,q,xi,u"
    assert len(lines) == cfg.n_steps + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first == pytest.approx(list(traj[0]))
