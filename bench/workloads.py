"""The benchmark's four workloads: their inputs, their operations and the
checks on every output.

A workload hands out rounds of operations (ops).  Round k is made from
(seed, k) alone, and every round holds the same kinds of op, so a run of
whole rounds always has the same mix.  The horizons, which set most of an
op's cost, follow seeded golden-ratio sequences (_even), so that runs of
different seeds are about equally costly.  An op's run() is the timed call into
the program; its check() runs afterwards, untimed, against values computed
apart from the program (reference.py) or against properties the method
must have, and raises CheckFailed on a wrong output.  An op with a
known_fault is expected to fail until the named fault is mended: its check
raises KnownFault for that failure alone, and CheckFailed for any other.
A workload whose ops run mostly in the interpreter has `reference_threads`:
the worker scales its op times by the speed of a reference loop run on that
many threads at once, as many as the ops keep busy (worker.py).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable

import reference

#: log10 of the README figure grid's end points.
GRID_LO, GRID_HI = math.log10(0.1), math.log10(20.0)
#: Horizons at which sigma*(T) is solved once per run; the crosscheck points
#: are placed near the interpolated curve.
SIGMA_CURVE_T = [10 ** (math.log10(0.05) + i * 3.0 / 12) for i in range(13)]

MR_SPREAD_TOL = 1e-7       # constant multiplicative regret at sigma*
RATIO_TOL = 1e-7           # taxed cost ratio equal to 1 at (sigma_ft, lambda*)
GAIN_TOL = 1e-9            # printed gains against the 30-digit closed forms
ANALYTIC_TOL = 1e-9        # program's analytic costs and regrets against mpmath
QUAD_TOL = 1e-9            # perf_coeffs against mpmath
RK4_TOL = 1e-8             # perf_coeffs_rk4 against mpmath
Z_MAX = 4.0                # Monte Carlo mean against the analytic cost


class CheckFailed(Exception):
    """An output of the program is wrong."""


class KnownFault(CheckFailed):
    """An output is wrong in the way a known, not yet mended, fault makes it."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    work: int = 1
    known_fault: str | None = None


@dataclass
class Context:
    """Where the program lives, where a run may write, and whether inputs are
    tiny (self-tests)."""

    root: str
    out: str
    tiny: bool = False


def _rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


def _even(seed: int, k: int, j: int) -> float:
    """Round k's value in [0, 1) of input stream j: a golden-ratio sequence
    from a seeded start, so that every run of rounds covers [0, 1) about
    evenly whatever the seed, and runs differ less by chance in how costly
    their inputs are."""
    start = random.Random(seed * 1_000_003 - 1 - j).random()
    return (start + k * 0.6180339887498949) % 1.0


def _log_between(u: float, lo: float, hi: float) -> float:
    return 10 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def _num(x: float) -> str:
    return repr(float(x))


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(rows: list[dict], column: str) -> list[float]:
    values = [r[column] for r in rows]
    expect(all(v != "" for v in values), f"{column}: a sweep point has no value")
    return [float(v) for v in values]


def check_gains(T: float, t: float, lam: float, printed: dict) -> None:
    ref = reference.gains(t, T, lam)
    for key, r in zip(("E2", "E1", "E0", "Esharp"), ref):
        expect(reference.rel_err(printed[key], r) <= GAIN_TOL,
               f"gains {key}={printed[key]!r}, closed form {r!r} at T={T}, t={t}, lambda={lam}")


def check_mr_constant(T: float, sigma: float) -> None:
    """The competitive ratio at sigma is constant in the drift: its a=0 value
    F#/e# equals its a->inf limit (e0+F0)/e0, by the mpmath coefficients."""
    f0, f_sharp = reference.coeffs(0.0, sigma, T)
    _, _, e0, e_sharp = reference.gains(0.0, T)
    spread = abs((e0 + f0) / e0 - f_sharp / e_sharp)
    expect(spread <= MR_SPREAD_TOL, f"MR spread {spread:.3g} at T={T}, sigma*={sigma}")


def check_taxed_ratio_one(T: float, sigma: float, lam: float) -> None:
    """At (sigma_ft, lambda*) the taxed ratio is 1 at a=0 and as a->inf."""
    f0, f_sharp = reference.coeffs(0.0, sigma, T)
    _, _, e0, _ = reference.gains(0.0, T)
    _, _, e0_lam, e_sharp_lam = reference.gains(0.0, T, lam)
    for ratio in (f_sharp / e_sharp_lam, (e0 + f0) / e0_lam):
        expect(abs(ratio - 1.0) <= RATIO_TOL,
               f"taxed ratio {ratio!r} at T={T}, sigma={sigma}, lambda={lam}")


def check_figure(ac, which: int, fig_dir: str, grid: list[float], row: int) -> None:
    """Check fig<which>.csv over the horizon grid; the mpmath check runs on one row."""
    rows = _read_csv(os.path.join(fig_dir, f"fig{which}.csv"))
    expect(_floats(rows, "T") == grid, f"figures {which}: horizons differ from the grid")
    if which == 1:
        sigmas = _floats(rows, "sigma_star")
        for T, s in zip(grid, sigmas):
            spread = ac.certify_constant_mr(T, s)
            expect(spread <= MR_SPREAD_TOL, f"figures 1: MR spread {spread:.3g} at T={T}")
        check_mr_constant(grid[row], sigmas[row])
    elif which == 2:
        optimal = _floats(rows, "mr_star_optimal")
        fixed = _floats(rows, "mr_star_fixed_sigma")
        expect(min(optimal) >= 1.0, "figures 2: an optimal MR* below 1")
        for T, o, f in zip(grid, optimal, fixed):
            expect(f >= o * (1.0 - 1e-12), f"figures 2: fixed-sigma MR* {f!r} < optimal {o!r} at T={T}")
        # the fixed sigma is sigma* of the peak row, where the two coincide
        gap = min(f - o for o, f in zip(optimal, fixed))
        expect(gap <= MR_SPREAD_TOL, f"figures 2: fixed-sigma MR* meets the optimum nowhere ({gap:.3g})")
    else:
        sigmas = _floats(rows, "sigma_ft")
        lams = _floats(rows, "lambda_star")
        for T, s, lam in zip(grid, sigmas, lams):
            expect(lam >= 1.0, f"figures 3: lambda*={lam} < 1 at T={T}")
            spec = ac.ProblemSpec(horizon=T)
            prior = ac.GaussianPrior(s)
            for a in ac.A_GRID_DEFAULT:
                r = ac.fueltax_ratio(a, prior, lam, spec)
                expect(abs(r - 1.0) <= RATIO_TOL, f"figures 3: taxed ratio {r!r} at T={T}, a={a}")
        check_taxed_ratio_one(grid[row], sigmas[row], lams[row])


def check_estimate(mean: float, stderr: float, ref: float) -> None:
    z = (mean - ref) / stderr
    expect(abs(z) <= Z_MAX, f"Monte Carlo mean {mean!r} is {z:.2f} standard errors from {ref!r}")


# ---------------------------------------------------------------- cli


@dataclass
class Exit:
    """What an acl command leaves: its exit code, stdout and stderr."""

    returncode: int
    stdout: str
    stderr: str


def run_acl(cli, argv: list[str]) -> Exit:
    """cli.main(argv) in this process, as `acl ARGV` would end: an exception
    that escapes main ends the command with exit 1 and a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            code = 1
            traceback.print_exc()
    return Exit(code, out.getvalue(), err.getvalue())


def check_bad_grid(res: Exit) -> None:
    """A grid that does not increase is a usage error: exit 2, no traceback."""
    if res.returncode == 2 and "Traceback" not in res.stderr:
        return
    last = res.stderr.rstrip().rsplit("\n", 1)[-1]
    if (res.returncode == 1 and ", in sweep\n" in res.stderr
            and last.startswith("ValueError: horizon grid must be")):
        raise KnownFault(f"non-increasing --grid: exit 1, {last!r}")
    raise CheckFailed(f"non-increasing --grid: exit {res.returncode}, stderr {res.stderr[-300:]!r}")


#: The README's simulate example (bayes, sigma 1.5, a 1, seed 0) at a
#: hundredth of its size, the same in every round and every run.  At dt 0.01
#: and 1000 paths the simulated mean sits about 0.3 standard errors below the
#: continuous-time cost (Euler bias), with a heavy lower tail: over 2 000
#: seeds z reached -3.96, so with a fresh seed per round the |z| <= 4 check
#: would fail now and then.  A fixed input passes it, or fails it, every time.
SIMULATE = dict(sigma=1.5, a=1.0, T=1.0, dt=0.01, paths=1000, seed=0)


class Cli:
    """The README's acl commands, each through cli.main in this process."""

    name = "cli"
    reference_threads = 1

    def __init__(self, seed: int, ctx: Context):
        import agnostic_control
        from agnostic_control import cli

        self.ac = agnostic_control
        self.cli = cli
        self.seed = seed
        self.fig_dir = os.path.join(ctx.out, "cli-figures")
        self._simulate_ref = None

    def _op(self, kind, argv, check, known_fault=None) -> Op:
        def check_ok(res: Exit):
            expect(res.returncode == 0, f"{kind}: exit {res.returncode}: {res.stderr[-400:]}")
            check(res)

        return Op(kind, lambda: run_acl(self.cli, argv),
                  check_ok if known_fault is None else check, known_fault=known_fault)

    def round(self, k: int) -> list[Op]:
        rng = _rng(self.seed, k)
        ops = []

        T = _log_between(_even(self.seed, k, 0), 0.2, 20.0)
        t = rng.uniform(0.0, 0.9) * T
        lam = rng.uniform(1.0, 4.0)
        ops.append(self._op(
            "gains", ["gains", "--T", _num(T), "--t", _num(t), "--lambda", _num(lam)],
            lambda e, T=T, t=t, lam=lam: check_gains(T, t, lam, json.loads(e.stdout))))

        T = _log_between(_even(self.seed, k, 1), 0.2, 20.0)
        ops.append(self._op(
            "regret-multiplicative", ["regret", "--mode", "multiplicative", "--T", _num(T)],
            lambda e, T=T: self._check_multiplicative(T, json.loads(e.stdout))))

        T = _log_between(_even(self.seed, k, 2), 0.5, 20.0)
        T0 = rng.uniform(0.1, 0.5) * T
        ops.append(self._op(
            "regret-additive",
            ["regret", "--mode", "additive", "--T", _num(T), "--T0", _num(T0), "--sigma", "improper"],
            lambda e, T=T, T0=T0: self._check_additive(T, T0, json.loads(e.stdout))))

        T = _log_between(_even(self.seed, k, 3), 0.2, 20.0)
        ops.append(self._op(
            "regret-fueltax", ["regret", "--mode", "fueltax", "--T", _num(T)],
            lambda e, T=T: self._check_fueltax(T, json.loads(e.stdout))))

        shift = rng.uniform(-0.05, 0.05)
        grid = [10 ** (GRID_LO + shift + i * (GRID_HI - GRID_LO) / 3) for i in range(4)]
        ops.append(self._op(
            "figures-1",
            ["figures", "--which", "1", "--grid", ",".join(map(_num, grid)), "--out", self.fig_dir],
            partial(lambda grid, row, e: check_figure(self.ac, 1, self.fig_dir, grid, row),
                    grid, rng.randrange(len(grid)))))

        sim = SIMULATE
        argv = ["simulate", "--strategy", "bayes", "--sigma", _num(sim["sigma"]),
                "--a", _num(sim["a"]), "--T", _num(sim["T"]), "--dt", _num(sim["dt"]),
                "--paths", str(sim["paths"]), "--seed", str(sim["seed"])]
        ops.append(self._op("simulate", argv,
                            lambda e, path=rng.randrange(sim["paths"]):
                            self._check_simulate(path, json.loads(e.stdout))))

        ops.append(self._op(
            "figures-bad-grid", ["figures", "--which", "1", "--grid", "2,1", "--out", self.fig_dir],
            check_bad_grid,
            known_fault="non-increasing --grid: solvers.sweep raises ValueError, "
                        "cli.main does not catch it (exit 1, traceback)"))
        return ops

    def _check_multiplicative(self, T: float, out: dict) -> None:
        values = out["multiplicative_regret"] + [out["limit_large_a"]]
        spread = max(values) - min(values)
        expect(spread <= MR_SPREAD_TOL and out["spread"] <= MR_SPREAD_TOL,
               f"regret multiplicative: spread {spread:.3g} at sigma*, T={T}")
        expect(min(values) >= 1.0, f"regret multiplicative: ratio below 1 at T={T}")
        check_mr_constant(T, out["sigma"])

    def _check_additive(self, T: float, T0: float, out: dict) -> None:
        values = out["additive_regret"]
        f0, f_sharp = reference.coeffs(T0, math.inf, T)
        ref = f0 / T0 + f_sharp - reference.gains(T0, T)[3]
        for v in values:
            expect(v == values[0], f"regret additive (improper): depends on a: {values}")
            expect(reference.rel_err(v, ref) <= ANALYTIC_TOL,
                   f"regret additive (improper): {v!r}, reference {ref!r} at T={T}, T0={T0}")

    def _check_fueltax(self, T: float, out: dict) -> None:
        expect(out["lambda"] >= 1.0, f"regret fueltax: lambda*={out['lambda']} < 1 at T={T}")
        for r in out["cost_ratio"]:
            expect(abs(r - 1.0) <= RATIO_TOL, f"regret fueltax: cost ratio {r!r} at T={T}")
        check_taxed_ratio_one(T, out["sigma"], out["lambda"])

    def _check_simulate(self, path: int, out: dict) -> None:
        ac, sim = self.ac, SIMULATE
        strategy = ac.make_strategy("bayes", sigma=sim["sigma"])
        config = ac.SimConfig(spec=ac.ProblemSpec(horizon=sim["T"]), a_true=sim["a"],
                              dt=sim["dt"], n_paths=sim["paths"], seed=sim["seed"])
        if self._simulate_ref is None:  # the input is the same every round
            self._simulate_ref = (
                reference.analytic_cost("bayes", sim["a"], sim["T"], sigma=sim["sigma"]),
                ac.monte_carlo_cost(strategy, config, keep_costs=True).costs)
        ref, costs = self._simulate_ref
        expect(reference.rel_err(out["analytic_reference"], ref) <= ANALYTIC_TOL,
               f"simulate: analytic reference {out['analytic_reference']!r}, mpmath {ref!r}")
        check_estimate(out["mean"], out["stderr"], ref)
        # the printed mean is the mean of per-path costs that simulate_path reproduces
        expect(float(costs.mean()) == out["mean"], "simulate: mean differs from the library's")
        _, cost = ac.simulate_path(strategy, config, path_index=path)
        expect(cost == costs[path], f"simulate: path {path} cost differs")


# ---------------------------------------------------------------- figures


class Figures:
    """cli.main in-process for figures --which 1, 2, 3, each on a fresh grid.

    One op is the three calls, the data of all three figures.  A single
    --which 3 call costs about five times a --which 1 or 2 call, so with one
    op per call the median op would sit in the upper quarter of the cheap
    calls' times and jump with their tail from run to run."""

    name = "figures"
    #: the sweep pool's default size; a loop on one thread tracked the
    #: two-thread pool less well (bench/README.md, Scaled times)
    reference_threads = os.cpu_count() or 1

    def __init__(self, seed: int, ctx: Context):
        import agnostic_control
        from agnostic_control import cli

        self.ac = agnostic_control
        self.cli = cli
        self.seed = seed
        self.n_points = 4 if ctx.tiny else 40
        self.out = os.path.join(ctx.out, "figures")

    def _grid(self, rng: random.Random) -> list[float]:
        # a fresh horizon set per call, so the coefficient cache starts each
        # call as cold as in a fresh acl call
        shift = rng.uniform(-0.02, 0.02)
        step = (GRID_HI - GRID_LO) / (self.n_points - 1)
        return [10 ** (GRID_LO + shift + i * step) for i in range(self.n_points)]

    def round(self, k: int) -> list[Op]:
        rng = _rng(self.seed, k)
        calls = []
        for which in (1, 2, 3):
            grid = self._grid(rng)
            argv = ["figures", "--which", str(which), "--grid", ",".join(map(_num, grid)),
                    "--out", self.out]
            calls.append((which, grid, argv, rng.randrange(len(grid))))
        return [Op("figures-1-2-3", lambda: [self.cli.main(argv) for _, _, argv, _ in calls],
                   partial(self._check, calls), work=sum(len(grid) for _, grid, _, _ in calls))]

    def _check(self, calls, exit_codes: list[int]) -> None:
        for (which, grid, _, row), rc in zip(calls, exit_codes):
            expect(rc == 0, f"figures {which}: exit {rc}")
            check_figure(self.ac, which, self.out, grid, row)


# ---------------------------------------------------------------- montecarlo


class MonteCarlo:
    """monte_carlo_cost at the README simulate size, cycling the strategies
    and a few drifts; the analytic reference is part of each op, as in acl."""

    name = "montecarlo"
    #: numpy does the stepping; its speed does not follow the interpreter's
    #: spells, and scaling by the reference loop made the runs spread more
    reference_threads = None
    STRATEGIES = ("bayes", "known_a", "zero_control", "bayes_improper")
    DRIFTS = (0.0, 0.5, 1.0, 2.0)

    def __init__(self, seed: int, ctx: Context):
        import agnostic_control

        self.ac = agnostic_control
        self.seed = seed
        # README: --T 2 --dt 0.001 --paths 10000
        self.T, self.dt, self.n_paths = (0.2, 0.01, 200) if ctx.tiny else (2.0, 1e-3, 10_000)

    def round(self, k: int) -> list[Op]:
        rng = _rng(self.seed, k)
        ops = []
        for i, strat in enumerate(self.STRATEGIES):
            case = dict(strategy=strat, a=self.DRIFTS[(k + i) % len(self.DRIFTS)],
                        sigma=rng.uniform(0.5, 3.0) if strat == "bayes" else None,
                        T0=self.T / 4 if strat == "bayes_improper" else 0.0,
                        seed=rng.randrange(2 ** 31), path=rng.randrange(self.n_paths))
            ops.append(Op(f"mc-{strat}", lambda case=case: self._run(case),
                          lambda out, case=case: self._check(case, out),
                          work=self.n_paths * round(self.T / self.dt)))
        return ops

    def _setup(self, case):
        ac = self.ac
        strategy = ac.make_strategy(case["strategy"], a=case["a"], sigma=case["sigma"])
        config = ac.SimConfig(spec=ac.ProblemSpec(horizon=self.T, t_start=case["T0"]),
                              a_true=case["a"], dt=self.dt, n_paths=self.n_paths,
                              seed=case["seed"])
        return strategy, config

    def _run(self, case):
        strategy, config = self._setup(case)
        est = self.ac.monte_carlo_cost(strategy, config, keep_costs=True)
        return est, self.ac.simulate.analytic_cost(strategy, config)

    def _check(self, case, out) -> None:
        est, program_ref = out
        ref = reference.analytic_cost(case["strategy"], case["a"], self.T, case["T0"], case["sigma"])
        expect(reference.rel_err(program_ref, ref) <= ANALYTIC_TOL,
               f"{case['strategy']}: analytic cost {program_ref!r}, mpmath {ref!r}")
        check_estimate(est.mean, est.stderr, ref)
        strategy, config = self._setup(case)
        _, cost = self.ac.simulate_path(strategy, config, path_index=case["path"])
        expect(cost == est.costs[case["path"]],
               f"{case['strategy']}: path {case['path']} cost differs from simulate_path")


# ---------------------------------------------------------------- crosscheck


class Crosscheck:
    """F0/F# at one (t, sigma, T) by quadrature and by RK4, against mpmath."""

    name = "crosscheck"
    reference_threads = 1
    #: Points whose check fails at the time the benchmark was written: (t,
    #: sigma, T), the method and the coefficients the fault puts out of
    #: tolerance, and the fault.  Each round attempts them, so the failed
    #: share is the same in every run; every other comparison at these points
    #: is still checked strictly.
    KNOWN_FAULTS = (
        ((0.0, 1e-3, 0.1), "quadrature", ("F0",),
         "perf_coeffs: F0 off by 5.7e-8 with no QuadratureError "
         "(performance._quad scales epsabs=1e-14 by (t+p)^2)"),
        ((0.0, 100.0, 2.0), "RK4", ("F0", "F#"),
         "perf_coeffs_rk4: F0 off by 2.9e-3 (fixed step h=(T-t)/8000 "
         "unstable where 2/(tau+p) is large)"),
    )

    def __init__(self, seed: int, ctx: Context):
        import agnostic_control

        self.ac = agnostic_control
        self.seed = seed
        self.n_proper, self.n_improper = (1, 1) if ctx.tiny else (6, 2)
        self.log_t = [math.log(T) for T in SIGMA_CURVE_T]
        self.log_sigma = [math.log(agnostic_control.solve_sigma_mr(T).root) for T in SIGMA_CURVE_T]

    def sigma_star(self, T: float) -> float:
        """sigma*(T), interpolated linearly in log-log between solved horizons."""
        x = math.log(T)
        i = min(max(sum(lt <= x for lt in self.log_t) - 1, 0), len(self.log_t) - 2)
        w = (x - self.log_t[i]) / (self.log_t[i + 1] - self.log_t[i])
        return math.exp(self.log_sigma[i] + w * (self.log_sigma[i + 1] - self.log_sigma[i]))

    def round(self, k: int) -> list[Op]:
        rng = _rng(self.seed, k)
        points = []
        for i in range(self.n_proper + self.n_improper):
            T = _log_between(_even(self.seed, k, i), 0.05, 50.0)
            if i < self.n_proper:
                # t stays below 0.9 T: nearer T, 1 - sech(T - t) cancels (see CHANGES.md)
                points.append((rng.uniform(0.0, 0.9) * T,
                               self.sigma_star(T) * 10 ** rng.uniform(-0.5, 0.5), T))
            else:
                # improper prior: t above 0.02 T keeps RK4's step h below t/160
                points.append((rng.uniform(0.02, 0.9) * T, math.inf, T))
        ops = [Op("point", lambda p=p: self._run(*p), lambda out, p=p: self._check(*p, out))
               for p in points]
        for p, method, fields, fault in self.KNOWN_FAULTS:
            ops.append(Op("point", lambda p=p: self._run(*p),
                          lambda out, p=p, known=(method, fields, fault): self._check(*p, out, known),
                          known_fault=fault))
        return ops

    def _run(self, t, sigma, T):
        spec = self.ac.ProblemSpec(horizon=T)
        prior = self.ac.GaussianPrior(sigma)
        return self.ac.perf_coeffs(t, prior, spec), self.ac.perf_coeffs_rk4(t, prior, spec)

    def _check(self, t, sigma, T, out, known=None) -> None:
        """known: (method, coefficients, fault) whose failure is a KnownFault."""
        ref = reference.coeffs(t, sigma, T)
        known_errors = []
        for method, values, tol in (("quadrature", out[0], QUAD_TOL), ("RK4", out[1], RK4_TOL)):
            for name, v, r in zip(("F0", "F#"), values, ref):
                err = reference.rel_err(v, r)
                message = f"{method} {name} off by {err:.3g} at t={t}, sigma={sigma}, T={T}"
                if known and method == known[0] and name in known[1]:
                    if not err <= tol:
                        known_errors.append(message)
                else:
                    expect(err <= tol, message)
        if known_errors:
            raise KnownFault(f"{known[2]}: {'; '.join(known_errors)}")


WORKLOADS = {w.name: w for w in (Cli, Figures, MonteCarlo, Crosscheck)}
