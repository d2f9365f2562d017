"""Sufficient statistic, Gaussian posterior, Bayesian control law."""

import math

import numpy as np
import pytest

from agnostic_control import (
    DomainError,
    GaussianPrior,
    ProblemSpec,
    SimConfig,
    SingularityError,
    control_known_a,
    make_strategy,
    perf_coeffs,
    posterior,
    simulate_path,
)

ONE_MINUS_SECH1 = 0.351945726336114600425022646774


def test_prior_validation():
    with pytest.raises(DomainError):
        GaussianPrior(0.0)
    with pytest.raises(DomainError):
        GaussianPrior(-1.0)
    for sigma in (1e-200, 1e-100):  # the precision, or its square, overflows
        with pytest.raises(DomainError):
            GaussianPrior(sigma)
    for sigma in (1e200, 1e300):  # the precision underflows to that of the improper prior
        with pytest.raises(DomainError, match="use improper"):
            GaussianPrior(sigma)
    p = GaussianPrior(2.0)
    assert p.precision == 0.25
    assert not p.is_improper
    imp = GaussianPrior.improper()
    assert imp.is_improper and imp.precision == 0.0


def test_numpy_scalar_width_acts_as_a_float():
    # numpy scalars would overflow with a RuntimeWarning (an error in this
    # test run) where a Python float raises or gives inf
    prior = GaussianPrior(np.float64(1e160))
    assert type(prior.sigma) is float and prior.sigma == 1e160
    with pytest.raises(SingularityError):
        perf_coeffs(0.0, prior, ProblemSpec(2.0))
    with pytest.raises(DomainError):  # sigma^-4 overflows
        GaussianPrior(np.float64(1e-100))


def test_xi_tracks_q_under_zero_control():
    cfg = SimConfig(spec=ProblemSpec(horizon=5.0), a_true=0.3, dt=0.01, n_paths=1)
    traj, _ = simulate_path(make_strategy("zero_control"), cfg, path_index=4)
    assert np.all(traj[:, 2] == traj[:, 1])


def test_xi_telescoping_identity():
    # xi(t) == q(t) - q(0) - sum(u dt) along a controlled path (q(0) = 0)
    cfg = SimConfig(spec=ProblemSpec(horizon=10.0), a_true=1.5, dt=0.01, n_paths=1, seed=3)
    traj, _ = simulate_path(make_strategy("bayes", sigma=1.0), cfg)
    u_sum = 0.0
    for _, q, xi, u in traj:
        assert abs(xi - (q - u_sum)) <= 1e-12
        u_sum += u * cfg.dt


def test_posterior_examples():
    assert posterior(0.0, 2.3, GaussianPrior(0.7))[0] == 0.0
    mean, var = posterior(1.0, 1.0, GaussianPrior(1.0))
    assert mean == pytest.approx(0.5)
    assert var == pytest.approx(0.5)
    mean, _ = posterior(2.0, 4.0, GaussianPrior.improper())
    assert mean == pytest.approx(0.5)


def test_posterior_improper_singular_at_zero():
    with pytest.raises(SingularityError):
        posterior(0.0, 0.0, GaussianPrior.improper())


def test_posterior_limits():
    wide, _ = posterior(1.3, 0.7, GaussianPrior(1e6))
    assert wide == pytest.approx(1.3 / 0.7, rel=1e-5)
    narrow, _ = posterior(1.3, 0.7, GaussianPrior(1e-6))
    assert abs(narrow) <= 1e-5


def _control_bayes(q, xi, t, prior, spec):
    """The Bayesian control: the known-drift law with the posterior mean as drift."""
    return control_known_a(q, t, posterior(xi, t, prior)[0], spec)


def test_control_bayes_examples():
    spec = ProblemSpec(horizon=1.0)
    prior = GaussianPrior(1.0)
    assert _control_bayes(0.0, 0.0, 0.5, prior, spec) == 0.0
    u = _control_bayes(1.0, 0.0, 0.0, prior, spec)
    assert u == pytest.approx(-math.tanh(1.0), rel=1e-14)

    spec2 = ProblemSpec(horizon=2.0, t_start=0.5)
    u = _control_bayes(0.0, 1.0, 1.0, GaussianPrior.improper(), spec2)
    assert u == pytest.approx(-ONE_MINUS_SECH1, rel=1e-14)


def test_dirac_prior_matches_known_zero_drift():
    # a near-certain prior at 0 reproduces the known-a control with a=0
    spec = ProblemSpec(horizon=2.0)
    prior = GaussianPrior(1e-8)
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = rng.normal() * 2
        xi = rng.normal()
        t = rng.uniform(0, 1.9)
        u = _control_bayes(q, xi, t, prior, spec)
        assert u == pytest.approx(control_known_a(q, t, 0.0, spec), abs=1e-6)


def test_xi_diffuses_like_drifted_brownian_motion():
    # d(xi) = a dt + dW regardless of the control: simulate under a strategy
    # built on a deliberately wrong drift model and check the xi(T) statistics
    import agnostic_control as ac
    from agnostic_control.simulate import _run_block, path_noise

    spec = ProblemSpec(horizon=1.0)
    a = 0.7
    cfg = ac.SimConfig(spec=spec, a_true=a, dt=1e-2, n_paths=10_000, seed=11)
    strategy = ac.make_strategy("known_a", a=-1.3)

    n_steps = cfg.n_steps
    xis = np.empty(cfg.n_paths)
    for start in range(0, cfg.n_paths, 2000):
        stop = min(start + 2000, cfg.n_paths)
        noise = np.stack([path_noise(cfg.seed, i, n_steps) for i in range(start, stop)])
        state = np.zeros((6, len(noise)))
        for _ in _run_block(strategy.gain_table(cfg), cfg, math.sqrt(cfg.dt) * noise, state, 0):
            pass
        xis[start:stop] = state[1]
    se = xis.std(ddof=1) / math.sqrt(cfg.n_paths)
    assert abs(xis.mean() - a * spec.horizon) <= 4 * se
    assert abs(xis.var(ddof=1) - spec.horizon) <= 0.1 * spec.horizon
