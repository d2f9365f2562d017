"""Root-finding layer: sigma* for constant competitive ratio, worst-case MR,
the fuel-tax nested solve, and horizon sweeps."""

import numpy as np
import pytest

from agnostic_control import (
    A_GRID_DEFAULT,
    GaussianPrior,
    NoRootError,
    ProblemSpec,
    certify_constant_mr,
    find_root,
    multiplicative_regret,
    multiplicative_regret_limit,
    solve_fueltax,
    solve_sigma_mr,
    sweep,
    worst_case_mr,
)
from agnostic_control.performance import mr_general, mr_general_limit
from agnostic_control.solvers import _solve_sigma_fueltax


def test_find_root_simple():
    r = find_root(lambda x: x * x - 2.0, 0.0, 2.0, f_tol=1e-12)
    assert r.converged
    assert r.root == pytest.approx(2 ** 0.5, rel=1e-9)
    assert r.bracket_lo <= r.root <= r.bracket_hi
    assert r.iterations <= 200


def test_find_root_log_space():
    r = find_root(lambda x: np.log10(x) + 2.0, 1e-6, 1.0, f_tol=1e-12, log_space=True)
    assert r.root == pytest.approx(1e-2, rel=1e-6)


def test_find_root_requires_sign_change():
    with pytest.raises(NoRootError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0, f_tol=1e-12)


def test_sigma_mr_certified_constant():
    r = solve_sigma_mr(2.0)
    assert r.converged
    assert abs(r.residual) <= 1e-9
    spread = certify_constant_mr(2.0, r.root, a_values=(0.0, 0.5, 1.0, 2.0, 5.0, 10.0))
    assert spread <= 1e-6


def test_sigma_mr_decreasing_in_horizon():
    sig = [solve_sigma_mr(T).root for T in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b < a for a, b in zip(sig, sig[1:]))


def test_mr_near_one_for_tiny_horizon():
    assert worst_case_mr(0.05) <= 1.02


def test_worst_case_mr_fixed_sigma_dominates_optimal():
    sigma_fixed = solve_sigma_mr(4.0).root
    for T in (0.5, 1.0, 2.0, 8.0):
        worst = worst_case_mr(T, sigma=sigma_fixed)
        assert worst >= worst_case_mr(T) - 1e-12
        # the two-point supremum bounds the ratio on the drift grid
        spec = ProblemSpec(horizon=T)
        on_grid = max(multiplicative_regret(a, GaussianPrior(sigma_fixed), spec) for a in A_GRID_DEFAULT)
        assert worst >= on_grid - 1e-15


def test_fueltax_at_reference_horizon():
    lam_r, sig_r = solve_fueltax(2.0)
    assert lam_r.converged and sig_r.converged
    assert 1.25 <= lam_r.root <= 1.35


def test_fueltax_inner_at_lambda_one_is_sigma_mr():
    r_mr = solve_sigma_mr(2.0)
    r_ft = _solve_sigma_fueltax(2.0, 1.0)
    assert r_ft.root == pytest.approx(r_mr.root, rel=1e-6)


def test_sweep_records_and_determinism():
    grid = (0.5, 1.0, 2.0)
    t1 = sweep("sigma_mr", grid)
    t2 = sweep("sigma_mr", grid)
    assert t1.grid == grid
    assert len(t1.records) == 3
    assert t1.records == t2.records  # bit-identical
    for rec in t1.records:
        assert "error" not in rec
        assert rec["converged"]


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        sweep("sigma_mr", ())
    with pytest.raises(ValueError):
        sweep("sigma_mr", (2.0, 1.0))
    with pytest.raises(ValueError):
        sweep("sigma_mr", (-1.0, 2.0))
    with pytest.raises(ValueError):
        sweep("nonsense", (1.0,))


def test_minimax_spot_check():
    # perturbed strategies never beat the constant-regret optimum at T=2
    T = 2.0
    spec = ProblemSpec(horizon=T)
    sigma_star = solve_sigma_mr(T).root
    mr_star = worst_case_mr(T)
    a_grid = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)

    for factor in (0.9, 1.1, 0.7, 1.3):
        prior = GaussianPrior(sigma_star * factor)
        sup = max(multiplicative_regret(a, prior, spec) for a in a_grid)
        sup = max(sup, multiplicative_regret_limit(prior, spec))
        assert sup >= mr_star - 1e-8

    spec_obs = ProblemSpec(horizon=T, t_start=0.1)
    prior = GaussianPrior.improper()
    sup = max(mr_general(a, prior, spec_obs) for a in a_grid)
    sup = max(sup, mr_general_limit(prior, spec_obs))
    assert sup >= mr_star - 1e-8
