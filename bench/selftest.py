"""Self-tests of the benchmark.  Run them explicitly (the name keeps them out
of the package's own test suite, since the tiny runs take about half a minute):

    python3 -m pytest bench/selftest.py

They run each workload at a tiny size and check that every metric in
BENCHMARK.json is printed with its unit, and that each output check fails
when handed a wrong value.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import agnostic_control as ac  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, Exit, KnownFault  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _known_fault_share(workload: str, tmp_path) -> float:
    ops = workloads.WORKLOADS[workload](3, workloads.Context(ROOT, str(tmp_path), tiny=True)).round(0)
    return sum(op.known_fault is not None for op in ops) / len(ops)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace, tmp_path):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # only the known faults fail, and they fail in every round
    assert result["failed"] / result["attempted"] == _known_fault_share(workload, tmp_path)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_op_times_are_scaled_by_the_reference_loop(tmp_path, monkeypatch):
    # a host at half the reference speed: the loop takes twice its reference time
    monkeypatch.setattr(worker, "reference_loop_s", lambda threads: 2 * threads * worker.REFERENCE_LOOP_S)
    monkeypatch.setattr(worker, "time_op", lambda op, tracer: (None, None, 0.01))
    for name, wl in workloads.WORKLOADS.items():
        result = worker.run(name, 3, 0.0, False, workloads.Context(ROOT, str(tmp_path), tiny=True))
        expected = 0.005 if wl.reference_threads else 0.01
        assert result["op_s"] and all(t == pytest.approx(expected) for t in result["op_s"])
    assert workloads.MonteCarlo.reference_threads is None
    assert workloads.Crosscheck.reference_threads == 1


# ------------------------------------------------ references against the program


def test_references_agree_with_the_program():
    spec = ac.ProblemSpec(horizon=2.0, fuel_weight=2.0)
    g = ac.gains(0.5, spec)
    for value, ref in zip((g.e2, g.e1, g.e0, g.e_sharp), reference.gains(0.5, 2.0, 2.0)):
        assert reference.rel_err(value, ref) < 1e-13
    for t, sigma in ((0.0, 1.5), (0.7, 0.4), (0.5, math.inf)):
        program = ac.perf_coeffs(t, ac.GaussianPrior(sigma), ac.ProblemSpec(horizon=2.0))
        for value, ref in zip(program, reference.coeffs(t, sigma, 2.0)):
            assert reference.rel_err(value, ref) < 1e-12


@pytest.mark.parametrize("strategy,T0,sigma", [
    ("zero_control", 0.0, None), ("known_a", 0.0, None), ("known_a", 0.5, None),
    ("bayes", 0.0, 1.5), ("bayes", 0.5, 0.8), ("bayes_improper", 0.5, None)])
def test_analytic_cost_reference(strategy, T0, sigma):
    config = ac.SimConfig(spec=ac.ProblemSpec(horizon=2.0, t_start=T0), a_true=1.0)
    program = ac.simulate.analytic_cost(ac.make_strategy(strategy, a=1.0, sigma=sigma), config)
    assert reference.rel_err(program, reference.analytic_cost(strategy, 1.0, 2.0, T0, sigma)) < 1e-12


# ------------------------------------------------ each check refuses a wrong value


def test_gains_check():
    T, t, lam = 2.0, 0.5, 1.5
    g = ac.gains(t, ac.ProblemSpec(horizon=T, fuel_weight=lam))
    printed = {"E2": g.e2, "E1": g.e1, "E0": g.e0, "Esharp": g.e_sharp}
    workloads.check_gains(T, t, lam, printed)
    for key in printed:
        with pytest.raises(CheckFailed):
            workloads.check_gains(T, t, lam, {**printed, key: printed[key] * (1 + 1e-6)})


def test_z_score_check():
    workloads.check_estimate(10.0 + 1.0 * 0.1, 0.1, 10.0)
    with pytest.raises(CheckFailed):
        workloads.check_estimate(10.0 + 6.0 * 0.1, 0.1, 10.0)


def test_constant_regret_and_taxed_ratio_checks():
    sigma = ac.solve_sigma_mr(2.0).root
    workloads.check_mr_constant(2.0, sigma)
    with pytest.raises(CheckFailed):
        workloads.check_mr_constant(2.0, sigma * (1 + 1e-5))
    lam, sig = ac.solve_fueltax(2.0)
    workloads.check_taxed_ratio_one(2.0, sig.root, lam.root)
    with pytest.raises(CheckFailed):
        workloads.check_taxed_ratio_one(2.0, sig.root, lam.root * (1 + 1e-5))


def test_crosscheck_check(tmp_path):
    wl = workloads.Crosscheck(1, workloads.Context(ROOT, str(tmp_path), tiny=True))
    t, sigma, T = 0.3, 1.2, 2.0
    f0, f_sharp = reference.coeffs(t, sigma, T)
    wl._check(t, sigma, T, ((f0, f_sharp), (f0, f_sharp)))
    with pytest.raises(CheckFailed):  # quadrature off by 1e-6
        wl._check(t, sigma, T, ((f0 * (1 + 1e-6), f_sharp), (f0, f_sharp)))
    with pytest.raises(CheckFailed):  # RK4 off by 1e-6
        wl._check(t, sigma, T, ((f0, f_sharp), (f0, f_sharp * (1 + 1e-6))))


def test_regret_checks(tmp_path):
    wl = workloads.Cli(1, workloads.Context(ROOT, str(tmp_path), tiny=True))
    T, T0 = 2.0, 0.5
    f0, f_sharp = reference.coeffs(T0, math.inf, T)
    ar = f0 / T0 + f_sharp - reference.gains(T0, T)[3]
    wl._check_additive(T, T0, {"additive_regret": [ar, ar, ar]})
    with pytest.raises(CheckFailed):  # depends on a
        wl._check_additive(T, T0, {"additive_regret": [ar, ar * (1 + 1e-6), ar]})
    with pytest.raises(CheckFailed):
        wl._check_fueltax(T, {"lambda": 1.2, "sigma": 1.0, "cost_ratio": [1.0, 1.0 + 1e-6]})
    with pytest.raises(CheckFailed):
        wl._check_multiplicative(T, {"multiplicative_regret": [1.2, 1.2 + 1e-6], "limit_large_a": 1.2,
                                     "spread": 1e-6, "sigma": 1.0})


def test_figure_checks(tmp_path):
    grid = [1.0, 2.0]
    sigmas = [ac.solve_sigma_mr(T).root for T in grid]
    mr = [ac.worst_case_mr(T) for T in grid]

    def write(name, header, rows):
        with open(tmp_path / name, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(repr(v) for v in row) + "\n" for row in rows)

    write("fig1.csv", ["T", "sigma_star"], zip(grid, sigmas))
    workloads.check_figure(ac, 1, str(tmp_path), grid, 0)
    write("fig1.csv", ["T", "sigma_star"], zip(grid, [sigmas[0], sigmas[1] * (1 + 1e-4)]))
    with pytest.raises(CheckFailed):
        workloads.check_figure(ac, 1, str(tmp_path), grid, 0)
    fixed = [ac.worst_case_mr(T, sigma=sigmas[1]) for T in grid]
    write("fig2.csv", ["T", "mr_star_optimal", "mr_star_fixed_sigma"], zip(grid, mr, fixed))
    workloads.check_figure(ac, 2, str(tmp_path), grid, 0)
    write("fig2.csv", ["T", "mr_star_optimal", "mr_star_fixed_sigma"],
          zip(grid, mr, [fixed[0], mr[1] * (1 - 1e-6)]))
    with pytest.raises(CheckFailed):
        workloads.check_figure(ac, 2, str(tmp_path), grid, 0)


def test_monte_carlo_checks(tmp_path):
    wl = workloads.MonteCarlo(5, workloads.Context(ROOT, str(tmp_path), tiny=True))
    op = wl.round(0)[0]
    est, program_ref = op.run()
    op.check((est, program_ref))
    with pytest.raises(CheckFailed):  # analytic reference off by 1e-6
        op.check((est, program_ref * (1 + 1e-6)))
    est.costs[:] = [math.nextafter(c, math.inf) for c in est.costs]  # costs off by one ulp
    with pytest.raises(CheckFailed):
        op.check((est, program_ref))


def test_bad_grid_counts_as_failed_until_mended(tmp_path):
    wl = workloads.Cli(1, workloads.Context(ROOT, str(tmp_path), tiny=True))
    op = wl.round(0)[-1]
    assert op.known_fault is not None
    known = op.run()  # as the program stands: exit 1 with the sweep's ValueError
    with pytest.raises(KnownFault):
        op.check(known)
    op.check(Exit(2, "", "error: horizon grid must be increasing\n"))
    # any other way of failing is not the known fault
    for other in (Exit(2, "", known.stderr), Exit(1, "", "Traceback ...\nKeyError: 'T'\n"),
                  Exit(0, "", "")):
        with pytest.raises(CheckFailed) as info:
            op.check(other)
        assert not isinstance(info.value, KnownFault)


def test_crosscheck_known_faults_are_narrow(tmp_path):
    wl = workloads.Crosscheck(1, workloads.Context(ROOT, str(tmp_path), tiny=True))
    ops = [op for op in wl.round(0) if op.known_fault is not None]
    assert len(ops) == len(wl.KNOWN_FAULTS)
    for op, ((t, sigma, T), method, fields, _) in zip(ops, wl.KNOWN_FAULTS):
        f0, f_sharp = reference.coeffs(t, sigma, T)
        good = (f0, f_sharp)
        bad = tuple(v * (1 + 1e-3) if name in fields else v for name, v in zip(("F0", "F#"), good))
        op.check((good, good))  # mended
        faulty = (bad, good) if method == "quadrature" else (good, bad)
        with pytest.raises(KnownFault):
            op.check(faulty)
        other = (good, bad) if method == "quadrature" else (bad, good)
        with pytest.raises(CheckFailed) as info:  # the other method is still checked strictly
            op.check(other)
        assert not isinstance(info.value, KnownFault)


# ------------------------------------------------ tracer


def test_tracer_wraps_and_restores():
    import agnostic_control.solvers as solvers

    original = solvers.perf_coeffs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solvers.perf_coeffs is not original and ac.perf_coeffs is solvers.perf_coeffs
        ac.solve_sigma_mr(3.3)
    finally:
        tracer.uninstall()
    assert solvers.perf_coeffs is original and ac.perf_coeffs is original
    summary = tracer.summary()
    assert summary["spans"]["solvers.solve_sigma_mr"]["calls"] == 1
    calls = summary["spans"]["performance.perf_coeffs"]["calls"]
    assert calls > 10
    assert 0 < summary["counters"]["performance.perf_coeffs.distinct"] <= calls
    assert summary["counters"]["solvers.solve_sigma_mr.iterations"] > 0
    sigma = summary["spans"]["solvers.solve_sigma_mr"]
    assert sigma["self_s"] < sigma["s"]
