"""Command-line front end.

Subcommands:
    gains     print the value-function coefficients at (t, T, lambda) as JSON
    figures   write the CSV data behind the sigma*, worst-case-MR, and
              fuel-tax curves, with a manifest sidecar
    simulate  Monte Carlo cost estimate for a strategy, with analytic reference
    regret    analytic regret tables (additive / multiplicative / fueltax)

Every number printed is produced by a library call; the CLI only parses
flags and serializes results.  Floats are serialized with 17 significant
digits so output round-trips exactly.  Exit codes: 0 success, 2 usage or
domain error, 3 budget exceeded, 4 solver or quadrature failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bayes import GaussianPrior
from .errors import BudgetError, DomainError, NoRootError, QuadratureError
from .model import ProblemSpec, gains
from .performance import (
    A_GRID_DEFAULT,
    additive_regret,
    fueltax_ratio,
    multiplicative_regret,
    multiplicative_regret_limit,
)
from .simulate import (
    SimConfig,
    analytic_cost,
    dump_trajectory,
    make_strategy,
    monte_carlo_cost,
    simulate_path,
)
from .solvers import T_GRID_DEFAULT, solve_fueltax, solve_sigma_mr, sweep, worst_case_mr

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _to_json(obj, indent: int = 0) -> str:
    """JSON serializer with fixed 17-significant-digit floats."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(k)}: {_to_json(v, indent + 2).lstrip()}'
            for k, v in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        items = ", ".join(_to_json(v).lstrip() for v in obj)
        return f"{pad}[{items}]"
    if isinstance(obj, bool) or obj is None:
        return pad + json.dumps(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return pad + json.dumps(str(obj))
        return pad + _fmt(obj)
    return pad + json.dumps(obj)


def _write_manifest(path: str, subcommand: str, params: dict) -> None:
    manifest = {
        "subcommand": subcommand,
        "parameters": params,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(path, "w", newline="\n") as fh:
        fh.write(_to_json(manifest) + "\n")


def _parse_floats(text: str, flag: str) -> list[float]:
    """Comma-separated finite numbers; anything else is a usage error."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise DomainError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"{flag} values must be finite, got {text!r}")
    return values


def _parse_grid(text: str) -> list[float]:
    """'start:stop:n' -> n log-spaced points; or a comma-separated list."""
    if ":" in text:
        try:
            start, stop, n = text.split(":")
            return list(np.logspace(math.log10(float(start)), math.log10(float(stop)), int(n)))
        except ValueError:
            raise DomainError(
                f"--grid must be 'start:stop:n' with positive start and stop, got {text!r}"
            ) from None
    return _parse_floats(text, "--grid")


def _parse_sigma(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(
            f"--sigma must be a number, 'auto' or 'improper', got {text!r}"
        ) from None


def _cmd_gains(args) -> int:
    spec = ProblemSpec(horizon=args.T, fuel_weight=args.lam)
    g = gains(args.t, spec)
    print(_to_json({"E2": g.e2, "E1": g.e1, "E0": g.e0, "Esharp": g.e_sharp}))
    return EXIT_OK


#: --which: the sweep quantity behind the figure and the columns of its CSV,
#: each the key of a sweep record (figure 2 adds its fixed-sigma column).
_FIGURES = {
    1: ("sigma_mr", ("T", "sigma_star")),
    2: ("mr_star", ("T", "mr_star_optimal", "mr_star_fixed_sigma")),
    3: ("fueltax", ("T", "sigma_ft", "lambda_star")),
}


def _cmd_figures(args) -> int:
    quantity, columns = _FIGURES[args.which]
    grid = _parse_grid(args.grid)
    records = sweep(quantity, grid).records
    # only once sweep has accepted the grid, so that a rejected call writes nothing
    os.makedirs(args.out, exist_ok=True)
    solved = [rec for rec in records if "error" not in rec]

    if args.which == 2:
        if not solved:
            print("error: every sweep point failed", file=sys.stderr)
            return EXIT_SOLVER
        sigma_fixed = max(solved, key=lambda r: r["mr_star_optimal"])["sigma_star"]
        for rec in solved:
            rec["mr_star_fixed_sigma"] = worst_case_mr(rec["T"], sigma=sigma_fixed)

    out = os.path.join(args.out, f"fig{args.which}.csv")
    with open(out, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for rec in records:
            if "error" in rec:
                print(f"warning: T={rec['T']}: {rec['error']}", file=sys.stderr)
            fh.write(",".join(_fmt(rec[c]) if c in rec else "" for c in columns) + "\n")
    _write_manifest(
        out.replace(".csv", ".manifest.json"),
        "figures",
        {"which": args.which, "grid": grid},
    )
    failures = len(records) - len(solved)
    if failures > 0.1 * len(grid):
        print(f"error: {failures}/{len(grid)} sweep points failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = ProblemSpec(horizon=args.T, t_start=args.T0)
    strategy = make_strategy(args.strategy, a=args.a, sigma=args.sigma)
    config = SimConfig(spec=spec, a_true=args.a, dt=args.dt, n_paths=args.paths, seed=args.seed)
    est = monte_carlo_cost(strategy, config)
    ref = analytic_cost(strategy, config)
    se = est.stderr if math.isfinite(est.stderr) else None  # inf from a single path
    z = (est.mean - ref) / se if se else None
    result = {
        "mean": est.mean,
        "stderr": se,
        "n_paths": est.n_paths,
        "analytic_reference": ref,
        "z_score": z,
    }
    text = _to_json(result)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "result.json"), "w", newline="\n") as fh:
            fh.write(text + "\n")
        for i in range(args.dump_paths):
            traj, _ = simulate_path(strategy, config, path_index=i)
            dump_trajectory(os.path.join(args.out, f"path_{i:05d}.csv"), traj)
        _write_manifest(
            os.path.join(args.out, "result.manifest.json"),
            "simulate",
            {
                "strategy": strategy.describe(),
                "a": args.a, "T": args.T, "T0": args.T0, "dt": args.dt,
                "paths": args.paths, "seed": args.seed, "dump_paths": args.dump_paths,
            },
        )
    return EXIT_OK


def _cmd_regret(args) -> int:
    a_grid = _parse_floats(args.a_grid, "--a-grid") if args.a_grid else list(A_GRID_DEFAULT)
    result: dict = {"mode": args.mode, "T": args.T, "T0": args.T0, "a": a_grid}

    if args.mode == "additive":
        spec = ProblemSpec(horizon=args.T, t_start=args.T0)
        if args.sigma == "improper":
            prior = GaussianPrior.improper()
        elif args.sigma == "auto":
            raise DomainError("--sigma auto is not defined for additive regret")
        else:
            prior = GaussianPrior(_parse_sigma(args.sigma))
        vals = [additive_regret(a, prior, spec) for a in a_grid]
        result["sigma"] = "improper" if prior.is_improper else prior.sigma
        result["additive_regret"] = vals
        result["worst_case"] = max(vals)
    elif args.mode == "multiplicative":
        spec = ProblemSpec(horizon=args.T)
        if args.T0 != 0.0:
            raise DomainError("multiplicative regret requires --T0 0")
        if args.sigma == "auto":
            sr = solve_sigma_mr(args.T)
            if not sr.converged:
                raise NoRootError(f"sigma* solve did not converge at T={args.T}")
            sigma = sr.root
        else:
            sigma = _parse_sigma(args.sigma)
        prior = GaussianPrior(sigma)
        vals = [multiplicative_regret(a, prior, spec) for a in a_grid]
        limit = multiplicative_regret_limit(prior, spec)
        result["sigma"] = sigma
        result["multiplicative_regret"] = vals
        result["limit_large_a"] = limit
        result["worst_case"] = max(max(vals), limit)
        result["spread"] = max(max(vals), limit) - min(min(vals), limit)
    else:  # fueltax
        spec = ProblemSpec(horizon=args.T)
        if args.T0 != 0.0:
            raise DomainError("fuel-tax regret requires --T0 0")
        if args.sigma != "auto":
            raise DomainError("fuel-tax mode solves sigma itself; use --sigma auto")
        lam_r, sig_r = solve_fueltax(args.T)
        if not (lam_r.converged and sig_r.converged):
            raise NoRootError(f"fuel-tax solve did not converge at T={args.T}")
        prior = GaussianPrior(sig_r.root)
        vals = [fueltax_ratio(a, prior, lam_r.root, spec) for a in a_grid]
        result["sigma"] = sig_r.root
        result["lambda"] = lam_r.root
        result["cost_ratio"] = vals
        result["worst_case"] = max(vals)

    text = _to_json(result)
    print(text)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text + "\n")
        _write_manifest(
            args.out + ".manifest.json",
            "regret",
            {"mode": args.mode, "T": args.T, "T0": args.T0,
             "sigma": args.sigma, "a_grid": a_grid},
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acl", description="Drift-learning control: gains, regret, figures, Monte Carlo"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gains", help="value-function coefficients at (t, T, lambda)")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.set_defaults(func=_cmd_gains)

    p = sub.add_parser("figures", help="CSV data for the sigma*/MR*/fuel-tax curves")
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.add_argument(
        "--grid",
        default=f"0.1:20:{len(T_GRID_DEFAULT)}",
        help="'start:stop:n' log-spaced, or comma-separated horizons",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("simulate", help="Monte Carlo cost estimate for a strategy")
    p.add_argument(
        "--strategy",
        choices=("zero_control", "known_a", "bayes", "bayes_improper"),
        required=True,
    )
    p.add_argument("--a", type=float, default=0.0, help="true drift")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--T0", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional output directory")
    p.add_argument("--dump-paths", type=int, default=0, help="trajectories to write")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("regret", help="analytic regret tables")
    p.add_argument("--mode", choices=("additive", "multiplicative", "fueltax"), required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--T0", type=float, default=0.0)
    p.add_argument("--sigma", default="auto", help="prior width, 'auto', or 'improper'")
    p.add_argument("--a-grid", default=None, help="comma-separated drift values")
    p.add_argument("--out", default=None, help="optional output file")
    p.set_defaults(func=_cmd_regret)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NoRootError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
