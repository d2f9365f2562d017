"""Command-line front end.

Subcommands:
    gains     print the value-function coefficients at (t, T, lambda) as JSON
    figures   write the CSV data behind the sigma*, worst-case-MR, and
              fuel-tax curves, with a manifest sidecar
    simulate  Monte Carlo cost estimate for a strategy, with analytic reference
    regret    analytic regret tables (additive / multiplicative / fueltax)

Every number printed is produced by a library call; the CLI only parses
flags and serializes results.  Floats are serialized with 17 significant
digits so output round-trips exactly, and every file is written by _write,
with lines ending in "\n".  Exit codes: 0 success, 1 stdout closed by its
reader (a broken pipe, which prints nothing more), 2 usage or domain error
(an output path or stdout that cannot be written included), 3 budget
exceeded, 4 solver or quadrature failure, 130 interrupted by Ctrl-C (one
line on stderr, as every error).

main(argv) runs one command in-process and returns its exit code.  It
builds the argument parser on its first call and reuses it for every later
one in the process: argparse keeps no state between parses, and --help,
--version and usage errors print to sys.stdout/sys.stderr as they are then.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bayes import GaussianPrior
from .errors import BudgetError, DomainError, NoRootError, NonFiniteError, QuadratureError
from .model import ProblemSpec, gains
from .performance import A_GRID_DEFAULT, regret_form
from .simulate import SimConfig, analytic_cost, make_strategy, monte_carlo_cost, run_paths
from .solvers import T_GRID_DEFAULT, solve_fueltax, solve_sigma_mr, sweep, worst_case_mr

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4
EXIT_INTERRUPT = 130


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _to_json(obj, indent: int = 0) -> str:
    """JSON serializer with fixed 17-significant-digit floats, non-finite ones
    as strings.  A dict's lines are indented by indent plus two, its closing
    brace by indent; a list stays on one line."""
    if isinstance(obj, dict):
        pad = " " * indent
        items = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_to_json(v, indent + 2)}" for k, v in obj.items()
        )
        return f"{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_to_json, obj)) + "]"
    if isinstance(obj, float) and math.isfinite(obj):
        return _fmt(obj)
    return json.dumps(str(obj) if isinstance(obj, float) else obj)


def _csv(rows) -> str:
    """CSV lines, one a row, every cell through _fmt."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError on path as a DomainError: exit 2, one line, no traceback."""
    try:
        yield
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _write(path: str):
    """Open path and yield the function that writes its text, piece by piece."""
    with _writing(path), open(path, "w", newline="\n") as fh:
        yield fh.write


def _write_manifest(stem: str, subcommand: str, params: dict) -> None:
    """Write stem + '.manifest.json', the sidecar of the run's output."""
    manifest = {
        "subcommand": subcommand,
        "parameters": params,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with _write(stem + ".manifest.json") as write:
        write(_to_json(manifest) + "\n")


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
        error = DomainError(
            f"--grid must be 'start:stop:n' with positive, finite start and stop, got {text!r}"
        )
        try:
            start, stop, n = text.split(":")
            ends = float(start), float(stop)
            n = int(n)
        except ValueError:
            raise error from None
        # written as `not lo < x` so that NaN fails the check
        if not all(0.0 < end < math.inf for end in ends) or n < 0:
            raise error
        # a stop near the largest float may round up to inf, which sweep rejects
        with np.errstate(over="ignore"):
            return list(np.logspace(math.log10(ends[0]), math.log10(ends[1]), n))
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
    2: ("sigma_mr", ("T", "mr_star_optimal", "mr_star_fixed_sigma")),
    3: ("fueltax", ("T", "sigma_ft", "lambda_star")),
}


def _cmd_figures(args) -> int:
    quantity, columns = _FIGURES[args.which]
    grid = _parse_grid(args.grid)
    records = sweep(quantity, grid).records
    # only once sweep has accepted the grid, so that a rejected call writes nothing
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    # a point that failed gets a warning and empty cells
    solved = [rec for rec in records if "error" not in rec]
    for rec in records:
        if "error" in rec:
            print(f"warning: T={rec['T']}: {rec['error']}", file=sys.stderr)

    if args.which == 2 and solved:
        peak = max(solved, key=lambda r: r["mr_star_optimal"])
        for rec in solved:
            # at the peak, the fixed sigma is the row's own sigma*
            rec["mr_star_fixed_sigma"] = (rec["mr_star_sup"] if rec is peak
                                          else worst_case_mr(rec["T"], sigma=peak["sigma_star"]))

    stem = os.path.join(args.out, f"fig{args.which}")
    rows = [[rec["T"], *(rec.get(c, "") for c in columns[1:])] for rec in records]
    with _write(stem + ".csv") as write:
        write(_csv([columns, *rows]))
    _write_manifest(stem, "figures", {"which": args.which, "grid": grid})
    failures = len(records) - len(solved)
    if failures > 0.1 * len(grid):
        print(f"error: {failures}/{len(grid)} sweep points failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = ProblemSpec(horizon=args.T, t_start=args.T0)
    strategy = make_strategy(args.strategy, a=args.a, sigma=args.sigma)
    config = SimConfig(spec=spec, a_true=args.a, dt=args.dt, n_paths=args.paths, seed=args.seed)
    # the dumped trajectories are the first ones the estimate averaged
    if not 0 <= args.dump_paths <= args.paths:
        raise DomainError(
            f"--dump-paths must lie in [0, --paths={args.paths}], got {args.dump_paths}"
        )
    if args.dump_paths and not args.out:
        raise DomainError("--dump-paths needs --out")
    # a drift near the square root of the largest float overflows q^2, u^2 or their mean
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            est = monte_carlo_cost(strategy, config)
        except NonFiniteError:
            est = None
    if est is None or not math.isfinite(est.mean):
        raise DomainError(f"the simulated cost overflows at a={args.a}, T={args.T}")
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
        with _writing(args.out):
            os.makedirs(args.out, exist_ok=True)
        with _write(os.path.join(args.out, "result.json")) as write:
            write(text + "\n")
        for i in range(args.dump_paths):
            # each window's rows as they come: one window in memory at any T
            with _write(os.path.join(args.out, f"path_{i:05d}.csv")) as write:
                write("t,q,xi,u\n")
                run_paths(strategy, config, i, 1, sink=lambda rows: write(_csv(rows)))
        _write_manifest(os.path.join(args.out, "result"), "simulate", {
            "strategy": strategy.describe(),
            "a": args.a, "T": args.T, "T0": args.T0, "dt": args.dt,
            "paths": args.paths, "seed": args.seed, "dump_paths": args.dump_paths,
        })
    return EXIT_OK


def _cmd_regret(args) -> int:
    a_grid = list(A_GRID_DEFAULT) if args.a_grid is None else _parse_floats(args.a_grid, "--a-grid")
    result: dict = {"mode": args.mode, "T": args.T, "T0": args.T0, "a": a_grid}

    if args.mode == "additive":
        spec = ProblemSpec(horizon=args.T, t_start=args.T0)
        if args.sigma == "improper":
            prior = GaussianPrior.improper()
        elif args.sigma == "auto":
            raise DomainError("--sigma auto is not defined for additive regret")
        else:
            prior = GaussianPrior(_parse_sigma(args.sigma))
        form = regret_form(prior, spec, additive=True)
        vals = [form(a) for a in a_grid]
        result["sigma"] = "improper" if prior.is_improper else prior.sigma
        result["additive_regret"] = vals
        result["worst_case"] = max(vals)
    elif args.mode == "multiplicative":
        spec = ProblemSpec(horizon=args.T)
        if args.T0 != 0.0:
            raise DomainError("multiplicative regret requires --T0 0")
        if args.sigma == "improper":
            raise DomainError("the improper prior has no multiplicative regret from t = 0: "
                              "F# diverges")
        if args.sigma == "auto":
            sr = solve_sigma_mr(args.T)
            sigma, form = sr.root, sr.form
        else:
            sigma = _parse_sigma(args.sigma)
            form = regret_form(GaussianPrior(sigma), spec)
        vals = [form(a) for a in a_grid]
        limit = form.limit
        result["sigma"] = sigma
        result["multiplicative_regret"] = vals
        result["limit_large_a"] = limit
        result["worst_case"] = max(max(vals), limit)
        result["spread"] = max(max(vals), limit) - min(min(vals), limit)
    else:  # fueltax
        ProblemSpec(horizon=args.T)  # rejects a bad horizon before the other checks
        if args.T0 != 0.0:
            raise DomainError("fuel-tax regret requires --T0 0")
        if args.sigma != "auto":
            raise DomainError("fuel-tax mode solves sigma itself; use --sigma auto")
        lam_r, sig_r = solve_fueltax(args.T)
        vals = [lam_r.form(a) for a in a_grid]
        result["sigma"] = sig_r.root
        result["lambda"] = lam_r.root
        result["cost_ratio"] = vals
        result["worst_case"] = max(vals)

    text = _to_json(result)
    print(text)
    if args.out:
        with _write(args.out) as write:
            write(text + "\n")
        _write_manifest(args.out, "regret", {"mode": args.mode, "T": args.T, "T0": args.T0,
                                             "sigma": args.sigma, "a_grid": a_grid})
    return EXIT_OK


@functools.cache
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


def _run(argv) -> int:
    # argparse drops an OSError from its own write of --help or --version:
    # written from here, one reaches main
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        sys.stdout.write(printed.getvalue())
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (BudgetError, DomainError, NoRootError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DomainError):  # SingularityError included
            return EXIT_USAGE
        return EXIT_BUDGET if isinstance(exc, BudgetError) else EXIT_SOLVER


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at devnull, so that the flush at exit
    writes what is left there (the signal module's "Note on SIGPIPE")."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):  # a stdout with no file descriptor, as in a capture
        pass


def main(argv=None) -> int:
    try:
        code = _run(argv)
        # inside the try, so that a stdout that cannot be written fails here
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:  # Ctrl-C
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except BrokenPipeError:  # the reader closed stdout, as `acl ... | head -1` does
        _stdout_to_devnull()
        return EXIT_PIPE
    except OSError as exc:  # every file acl opens reports its own (_writing)
        _stdout_to_devnull()
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
