"""CLI surface: schemas, exit codes, reproducibility, thin-shell guarantee."""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agnostic_control import (
    BudgetError,
    DomainError,
    NoRootError,
    ProblemSpec,
    QuadratureError,
    SingularityError,
    SimConfig,
    __version__,
    cli,
    gains,
    make_strategy,
    simulate_path,
)
from agnostic_control import performance, simulate, solvers
from agnostic_control.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gains_terminal(capsys):
    code, out, _ = run_cli(capsys, "gains", "--T", "1", "--t", "1")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"E2", "E1", "E0", "Esharp"}
    assert all(v == 0.0 for v in data.values())


def test_gains_match_library(capsys):
    code, out, _ = run_cli(capsys, "gains", "--T", "2", "--t", "0", "--lambda", "4")
    assert code == 0
    data = json.loads(out)
    g = gains(0.0, ProblemSpec(horizon=2.0, fuel_weight=4.0))
    assert data["E2"] == g.e2
    assert data["E1"] == g.e1
    assert data["E0"] == g.e0
    assert data["Esharp"] == g.e_sharp


def test_gains_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "gains", "--T", "1", "--t", "2")
    assert code == 2
    assert "outside" in err


def test_figures_1_monotone(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "figures", "--which", "1", "--grid", "0.5,1,2,4", "--out", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "fig1.csv").read_text().splitlines()
    assert lines[0] == "T,sigma_star"
    sigma = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b < a for a, b in zip(sigma, sigma[1:]))
    manifest = json.loads((tmp_path / "fig1.manifest.json").read_text())
    assert manifest["subcommand"] == "figures"


def test_figures_2_schema_and_bound(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "figures", "--which", "2", "--grid", "1,2,4", "--out", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "fig2.csv").read_text().splitlines()
    assert lines[0] == "T,mr_star_optimal,mr_star_fixed_sigma"
    for line in lines[1:]:
        _, opt, fixed = (float(x) for x in line.split(","))
        assert opt <= 1.17
        assert fixed >= opt - 1e-12


def test_figures_3_lambda_near_reference(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "figures", "--which", "3", "--grid", "2", "--out", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    assert lines[0] == "T,sigma_ft,lambda_star"
    _, _, lam = (float(x) for x in lines[1].split(","))
    assert 1.25 <= lam <= 1.35


def test_figures_2_says_why_every_point_failed(tmp_path, capsys):
    # F0 underflows to 0 at these horizons, so the residual is -inf at the start
    code, _, err = run_cli(
        capsys, "figures", "--which", "2", "--grid", "1e-70,1e-69", "--out", str(tmp_path)
    )
    assert code == 4
    assert err.splitlines() == [
        "warning: T=1e-70: NoRootError: F0 underflows to 0 at sigma=1.962466e+35, T=1e-70, "
        "so the residual is not finite",
        "warning: T=1e-69: NoRootError: F0 underflows to 0 at sigma=6.205862390639999e+34, "
        "T=1e-69, so the residual is not finite",
        "error: 2/2 sweep points failed",
    ]
    lines = (tmp_path / "fig2.csv").read_text().splitlines()
    assert lines[0] == "T,mr_star_optimal,mr_star_fixed_sigma"
    assert [line.split(",")[1:] for line in lines[1:]] == [["", ""], ["", ""]]


def test_figures_leave_a_failed_point_empty(tmp_path, capsys, monkeypatch):
    # the fuel-tax solve at T = 1e-3 made to raise NoRootError
    solve = solvers.solve_fueltax

    def failing_at_1e_3(T, **kwargs):
        if T == 1e-3:
            raise NoRootError("no root at 1e-3")
        return solve(T, **kwargs)

    monkeypatch.setattr(solvers, "solve_fueltax", failing_at_1e_3)
    code, _, err = run_cli(
        capsys, "figures", "--which", "3", "--grid", "1e-3,2", "--out", str(tmp_path)
    )
    assert code == 4
    assert err.splitlines() == [
        "warning: T=0.001: NoRootError: no root at 1e-3",
        "error: 1/2 sweep points failed",
    ]
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    assert lines[1] == "0.001,,"
    assert all(lines[2].split(","))


def test_simulate_known_a(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--strategy", "known_a", "--a", "1", "--T", "1",
        "--dt", "0.01", "--paths", "2000", "--seed", "5",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"mean", "stderr", "n_paths", "analytic_reference", "z_score"}
    assert abs(data["z_score"]) <= 3.5


@pytest.mark.parametrize("argv", [
    ["--strategy", "known_a", "--a", "1", "--T", "2"],
    ["--strategy", "known_a", "--a", "1", "--T", "2", "--T0", "0.5"],
    ["--strategy", "bayes_improper", "--a", "1", "--T", "2", "--T0", "0.5"],
    ["--strategy", "zero_control", "--a", "1", "--T", "2"],
], ids=["known_a", "known_a-T0", "bayes_improper", "zero_control"])
def test_simulate_every_other_strategy(capsys, argv):
    # each strategy's gain table and analytic cost, at 500 paths of 200 steps
    code, out, _ = run_cli(capsys, "simulate", *argv, "--dt", "0.01", "--paths", "500")
    assert code == 0
    assert math.isfinite(json.loads(out)["z_score"])


def test_simulate_reproducible(capsys):
    argv = ["simulate", "--strategy", "bayes", "--sigma", "1", "--a", "0",
            "--T", "1", "--dt", "0.01", "--paths", "500", "--seed", "7"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_simulate_improper_without_t0_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--strategy", "bayes_improper", "--T", "1", "--T0", "0"
    )
    assert code == 2
    assert "t_start" in err


def test_simulate_improper_t0_off_the_first_step_names_t0_and_dt(capsys):
    # T0 = 1e-10 is within the grid tolerance of step 0, where the improper
    # posterior is undefined
    code, _, err = run_cli(
        capsys, "simulate", "--strategy", "bayes_improper", "--a", "1", "--T", "1",
        "--T0", "1e-10", "--dt", "0.01", "--paths", "10",
    )
    assert code == 2
    assert "T0=1e-10" in err and "dt=0.01" in err
    assert "posterior undefined" not in err


def test_simulate_budget_exceeded_exit_3(capsys):
    code, _, _ = run_cli(
        capsys,
        "simulate", "--strategy", "zero_control", "--T", "1",
        "--dt", "0.0000001", "--paths", "10000000",
    )
    assert code == 3


def test_simulate_dumps_paths(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "simulate", "--strategy", "zero_control", "--T", "1", "--dt", "0.1",
        "--paths", "10", "--out", str(tmp_path), "--dump-paths", "2",
    )
    assert code == 0
    assert (tmp_path / "result.json").exists()
    assert (tmp_path / "result.manifest.json").exists()
    lines = (tmp_path / "path_00000.csv").read_text().splitlines()
    assert lines[0] == "t,q,xi,u"
    assert len(lines) == 11


def test_dump_trajectory(tmp_path, capsys):
    cfg = SimConfig(spec=ProblemSpec(horizon=1.0), a_true=0.0, dt=1e-2, n_paths=1, seed=0)
    traj, _ = simulate_path(make_strategy("zero_control"), cfg)
    code, _, _ = run_cli(
        capsys,
        "simulate", "--strategy", "zero_control", "--T", "1", "--dt", "0.01",
        "--paths", "1", "--out", str(tmp_path), "--dump-paths", "1",
    )
    assert code == 0
    # _write, the one writer of every file acl makes, ends lines in "\n" alone
    for name in ("path_00000.csv", "result.json", "result.manifest.json"):
        assert b"\r" not in (tmp_path / name).read_bytes(), name
    text = (tmp_path / "path_00000.csv").read_bytes().decode()
    lines = text.splitlines()
    assert lines[0] == "t,q,xi,u"
    assert len(lines) == cfg.n_steps + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first == pytest.approx(list(traj[0]))


def test_dump_memory_set_by_the_window_not_the_horizon(tmp_path, capsys, monkeypatch):
    # 400 steps in 20 windows of 20: the dump holds one window's rows and
    # their CSV text at a time, about 250 B a step of the window, so the
    # traced peak of a second, warm call stays within the gain table and
    # 1.5 kB a step of one window, the rest of the call included; the whole
    # path held as rows took 400 B a step of the horizon, 160 kB here
    monkeypatch.setattr(simulate, "_WINDOW", 20)
    argv = ["simulate", "--strategy", "bayes", "--sigma", "1.5", "--a", "1", "--T", "0.4",
            "--dt", "0.001", "--paths", "1", "--out", str(tmp_path), "--dump-paths", "1"]
    cfg = SimConfig(spec=ProblemSpec(horizon=0.4), a_true=1.0, dt=0.001, n_paths=1)
    assert cfg.n_steps >= 20 * simulate._WINDOW
    tracemalloc.start()
    try:
        table = make_strategy("bayes", sigma=1.5).gain_table(cfg)
        table_bytes = tracemalloc.get_traced_memory()[0]
        del table
        assert main(argv) == 0  # lazy imports and first-call caches
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert len((tmp_path / "path_00000.csv").read_text().splitlines()) == cfg.n_steps + 1
    assert peak < table_bytes + 1500 * simulate._WINDOW


#: (argv, the path the error names); OUT is a directory, FILE a file in it
_UNWRITABLE = [
    (["figures", "--which", "1", "--grid", "1", "--out", "FILE"], "FILE"),
    (["simulate", "--strategy", "zero_control", "--T", "1", "--dt", "0.1", "--paths", "2",
      "--out", "FILE"], "FILE"),
    (["regret", "--mode", "multiplicative", "--T", "2", "--out", "OUT"], "OUT"),
    (["regret", "--mode", "multiplicative", "--T", "2", "--out", "OUT/missing/x.json"],
     "OUT/missing/x.json"),
]


@pytest.mark.parametrize("argv, path", _UNWRITABLE, ids=["figures", "simulate", "regret-dir",
                                                         "regret-missing"])
def test_unwritable_output_exit_2_without_traceback(tmp_path, capsys, argv, path):
    def place(a):
        return a.replace("FILE", str(tmp_path / "file")).replace("OUT", str(tmp_path))

    (tmp_path / "file").write_text("")
    code, _, err = run_cli(capsys, *map(place, argv))
    assert code == 2
    assert err.startswith(f"error: cannot write {place(path)}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]  # no directory made


@pytest.mark.parametrize("argv", [
    ["--paths", "3", "--dump-paths", "5", "--out", "OUT"],  # paths the estimate never used
    ["--paths", "3", "--dump-paths", "-1", "--out", "OUT"],
    ["--paths", "3", "--dump-paths", "2"],  # nowhere to write them
])
def test_simulate_bad_dump_paths_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, stdout, err = run_cli(
        capsys,
        "simulate", "--strategy", "zero_control", "--T", "1", "--dt", "0.1",
        *[str(out) if a == "OUT" else a for a in argv],
    )
    assert code == 2
    assert stdout == "" and err.startswith("error: --dump-paths")
    assert not out.exists()


def test_regret_multiplicative_auto_flat(capsys):
    code, out, _ = run_cli(capsys, "regret", "--mode", "multiplicative", "--T", "2")
    assert code == 0
    data = json.loads(out)
    assert data["spread"] <= 1e-6
    vals = data["multiplicative_regret"]
    assert max(vals) - min(vals) <= 1e-6


def test_regret_additive_improper_constant(capsys):
    code, out, _ = run_cli(
        capsys,
        "regret", "--mode", "additive", "--T", "2", "--T0", "0.5",
        "--sigma", "improper", "--a-grid", "0,1,5",
    )
    assert code == 0
    data = json.loads(out)
    vals = data["additive_regret"]
    assert max(vals) == min(vals)


def test_regret_fueltax(capsys):
    code, out, _ = run_cli(capsys, "regret", "--mode", "fueltax", "--T", "2")
    assert code == 0
    data = json.loads(out)
    assert 1.25 <= data["lambda"] <= 1.35
    assert max(data["cost_ratio"]) == pytest.approx(1.0, abs=1e-6)


def test_regret_fueltax_off_ratio_exits_4(capsys, monkeypatch):
    # the taxed ratio at the sigma root made to miss 1: the solve raises
    form = performance.RegretForm
    monkeypatch.setattr(performance, "RegretForm",
                        lambda alpha, *rest: form(alpha * (1.0 + 1e-6), *rest))
    code, out, err = run_cli(capsys, "regret", "--mode", "fueltax", "--T", "1e-3")
    assert (code, out) == (4, "")
    assert err.startswith("error: the taxed cost ratio at sigma_ft=") and err.count("\n") == 1
    assert err.endswith(", not 1 within 1e-09, at T=0.001\n")


def test_regret_at_small_horizons(capsys):
    # the solves converge where the sigma scan used to miss the root
    code, out, _ = run_cli(capsys, "regret", "--mode", "fueltax", "--T", "1e-3")
    assert code == 0
    assert json.loads(out)["lambda"] == pytest.approx(1.2876026533, abs=1e-7)
    code, out, _ = run_cli(capsys, "regret", "--mode", "multiplicative", "--T", "1e-4")
    assert code == 0
    assert json.loads(out)["sigma"] == pytest.approx(196.24659, rel=1e-6)


@pytest.mark.parametrize("argv", [
    ["regret", "--mode", "multiplicative", "--T", "2"],
    ["regret", "--mode", "multiplicative", "--T", "2", "--sigma", "0.7"],
    ["regret", "--mode", "additive", "--T", "2", "--T0", "0.5", "--sigma", "improper"],
    ["regret", "--mode", "fueltax", "--T", "2"],
    ["figures", "--which", "1", "--grid", "0.5,1,2,4,8", "--out", "OUT"],
    ["figures", "--which", "2", "--grid", "0.5,1,2,4,8", "--out", "OUT"],
    ["figures", "--which", "3", "--grid", "0.5,1,2,4,8", "--out", "OUT"],
])
def test_no_coefficients_integrated_twice(monkeypatch, capsys, tmp_path, argv):
    # a solve reads the coefficients at its root and bracket ends back, a
    # regret table evaluates one form, and figure 2 reuses its peak row's form;
    # every coefficient evaluation, the solves', perf_coeffs' and the additive
    # regret's, passes through performance._coeffs_from
    keys = []
    original = performance._coeffs_from

    def counted(table, c):
        keys.append((table.t, c, table.horizon))
        return original(table, c)

    monkeypatch.setattr(performance, "_coeffs_from", counted)
    code, _, _ = run_cli(capsys, *[str(tmp_path) if a == "OUT" else a for a in argv])
    assert code == 0
    assert keys and len(keys) == len(set(keys))


def test_entry_point_names_cli_main():
    # the acl script that pip installs calls what [project.scripts] names
    # (a regex: Python 3.10 has no tomllib)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", fh.read(), re.M | re.S)
    module, name = re.fullmatch(r'acl = "([\w.]+):(\w+)"\s*', section.group(1)).groups()
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry) and entry is main


def _acl_process(argv, stdout) -> subprocess.CompletedProcess:
    """acl as its own process, through python -m, with stdout given."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "agnostic_control.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


def test_a_closed_stdout_ends_quietly():
    # as `acl ... | head -3` once the reader has gone: exit 1, no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = _acl_process(["regret", "--mode", "multiplicative", "--T", "1e-4"], write_end)
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_full_stdout_is_exit_2_in_one_line():
    with open("/dev/full", "wb") as full:
        res = _acl_process(["gains", "--T", "2", "--t", "0.5"], full)
    assert res.returncode == 2
    assert res.stderr == b"error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["regret", "--help"]])
def test_help_and_version_to_a_full_stdout_exit_2(argv):
    # argparse drops the OSError of its own write; acl reports it as for any output
    with open("/dev/full", "wb") as full:
        res = _acl_process(argv, full)
    assert res.returncode == 2
    assert res.stderr == b"error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("target, argv", [
    ("monte_carlo_cost", ["simulate", "--strategy", "bayes", "--sigma", "1.5", "--a", "1",
                          "--T", "2", "--dt", "0.001", "--paths", "100"]),
    ("sweep", ["figures", "--which", "1", "--out", "OUT"]),
    ("solve_sigma_mr", ["regret", "--mode", "multiplicative", "--T", "2"]),
    ("gains", ["gains", "--T", "2", "--t", "0.5"]),
])
def test_ctrl_c_is_exit_130_in_one_line(monkeypatch, capsys, tmp_path, target, argv):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, target, interrupted)
    argv = [str(tmp_path) if a == "OUT" else a for a in argv]
    try:
        result = run_cli(capsys, *argv)
    except KeyboardInterrupt:  # failed here, not as an interrupt of the test session
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert result == (130, "", "error: interrupted\n")
    assert not os.listdir(tmp_path)


def test_regret_additive_requires_t0(capsys):
    code, _, _ = run_cli(
        capsys, "regret", "--mode", "additive", "--T", "2", "--sigma", "improper"
    )
    assert code == 2


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_main_builds_its_parser_once(monkeypatch, request):
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    # the acl parser and its 4 subcommand parsers: 5 a build
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    request.addfinalizer(cli.build_parser.cache_clear)
    calls = [
        ["gains", "--T", "2", "--t", "0.5", "--lambda", "1"],
        ["gains", "--T", "1"],
        ["--help"],
        ["--version"],
        ["regret", "--mode", "multiplicative", "--T", "2"],
        ["gains", "--T", "2", "--t", "0.5", "--lambda", "1"],
    ]
    reused = [_run_captured(argv) for argv in calls]
    assert 0 < len(built) <= 5
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_run_captured(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 0, 0, 0]
    assert reused[2][1].startswith("usage: acl")
    assert reused[3][1] == __version__ + "\n"


def test_usage_error_exit_2(capsys):
    code, _, _ = run_cli(capsys, "gains", "--T", "1")  # missing --t
    assert code == 2


# a finite prior width whose precision underflows to 0, the improper prior's
_SIGMA_UNDERFLOWS = "error: sigma=1e+300 is too large: sigma^-2 underflows to 0; use improper"
#: (argv, a line of stderr or part of one; "" where the exit code is the check)
_BAD_INPUT = [
    (["figures", "--which", "1", "--grid", "2,1", "--out", "OUT"], ""),
    (["figures", "--which", "1", "--grid", "abc", "--out", "OUT"], ""),
    (["figures", "--which", "1", "--grid", "1:inf:3", "--out", "OUT"], ""),
    (["figures", "--which", "1", "--grid", "0:1:3", "--out", "OUT"], ""),
    (["figures", "--which", "1", "--grid", "1:1.7976931348623157e308:3", "--out", "OUT"], ""),
    (["regret", "--mode", "multiplicative", "--T", "2", "--a-grid", "x"], ""),
    (["regret", "--mode", "multiplicative", "--T", "2", "--sigma", "foo"], ""),
    (["simulate", "--strategy", "known_a", "--a", "nan", "--T", "1", "--dt", "0.1",
     "--paths", "10"], ""),
    (["simulate", "--strategy", "zero_control", "--a", "1e300", "--T", "2", "--dt", "0.1",
     "--paths", "2", "--out", "OUT"], ""),  # the simulated squares overflow
    (["regret", "--mode", "multiplicative", "--T", "2", "--sigma", "1e-200"], ""),
    (["regret", "--mode", "additive", "--T", "2", "--T0", "0.5", "--sigma", "1e-100"], ""),
    (["regret", "--mode", "multiplicative", "--T", "2", "--a-grid", "0,1e200"], ""),
    (["regret", "--mode", "multiplicative", "--T", "2", "--sigma", "1e160"], ""),
    (["regret", "--mode", "multiplicative", "--T", "2", "--sigma", "1e300"], _SIGMA_UNDERFLOWS),
    (["regret", "--mode", "additive", "--T", "2", "--T0", "0.5", "--sigma", "1e300"], _SIGMA_UNDERFLOWS),
    (["simulate", "--strategy", "bayes", "--sigma", "1e300", "--T", "2", "--dt", "0.1", "--paths", "2"],
     _SIGMA_UNDERFLOWS),
    (["regret", "--mode", "additive", "--T", "2", "--T0", "0.5", "--sigma", "improper", "--a-grid", ""],
     "--a-grid must be comma-separated numbers, got ''"),
    (["regret", "--mode", "multiplicative", "--T", "2", "--sigma", "improper"],
     "error: the improper prior has no multiplicative regret from t = 0: F# diverges"),
]


@pytest.mark.parametrize("argv, message", _BAD_INPUT, ids=[f"argv{i}" for i in range(len(_BAD_INPUT))])
def test_bad_input_exit_2_without_traceback(capsys, tmp_path, argv, message):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *[str(out) if a == "OUT" else a for a in argv])
    assert code == 2
    assert "Traceback" not in err
    assert message in err
    assert not out.exists()  # a rejected command writes nothing


def test_simulate_one_path_prints_null_stderr(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--strategy", "bayes", "--sigma", "1.5", "--a", "1", "--T", "2",
        "--dt", "0.01", "--paths", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["stderr"] is None and data["z_score"] is None
    assert data["n_paths"] == 1


def test_to_json_text():
    # the format of every JSON text acl prints or writes: a dict's lines indented,
    # a list on one line, floats to 17 digits and non-finite ones as strings
    obj = {"a": [1.0, None, True, math.nan, math.inf, -0.0, 3], "b": {"c": "x", "d": []}}
    assert cli._to_json(obj) == (
        '{\n  "a": [1, null, true, "nan", "inf", -0, 3],\n'
        '  "b": {\n    "c": "x",\n    "d": []\n  }\n}'
    )


@pytest.mark.parametrize("error, code", [
    (BudgetError, 3), (DomainError, 2), (SingularityError, 2), (NoRootError, 4), (QuadratureError, 4),
])
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, error, code):
    def fail(*args):
        raise error("boom")

    monkeypatch.setattr(cli, "gains", fail)
    assert run_cli(capsys, "gains", "--T", "1", "--t", "0") == (code, "", "error: boom\n")


_EXTREME = ["0", "-1", "5e-324", "1e-200", "1e-8", "0.5", "2", "1e300", "inf", "nan", "x"]


@st.composite
def _argv(draw):
    value = st.sampled_from(_EXTREME)
    mode = draw(st.sampled_from(["gains", "multiplicative", "additive", "fueltax"]))
    if mode == "gains":
        return ["gains", "--T", draw(value), "--t", draw(value)]
    argv = ["regret", "--mode", mode, "--T", draw(value), "--T0", draw(value)]
    if draw(st.booleans()):
        argv += ["--sigma", draw(st.sampled_from(_EXTREME + ["auto", "improper"]))]
    if draw(st.booleans()):
        drifts = draw(st.lists(st.sampled_from(_EXTREME + ["1e200"]), min_size=1, max_size=3))
        argv += ["--a-grid", ",".join(drifts)]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=_argv())
@example(argv=["regret", "--mode", "multiplicative", "--T", "2", "--T0", "0", "--sigma", "1e-200"])
@example(argv=["regret", "--mode", "multiplicative", "--T", "1e-8", "--T0", "0"])
@example(argv=["regret", "--mode", "fueltax", "--T", "1e-8", "--T0", "0"])
@example(argv=["regret", "--mode", "fueltax", "--T", "1e-70", "--T0", "0"])  # F0 underflows to 0
@example(argv=["regret", "--mode", "multiplicative", "--T", "2", "--T0", "0", "--a-grid", "0,1e200"])
@example(argv=["regret", "--mode", "multiplicative", "--T", "2", "--T0", "0", "--sigma", "1e160"])
@example(argv=["regret", "--mode", "multiplicative", "--T", "2", "--T0", "0", "--sigma", "1e300"])
def test_argv_fuzz_exits_cleanly(argv):
    # every input runs or is rejected: a documented exit code, no traceback, no NaN printed
    code, out, err = _run_captured(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err, argv
    assert "nan" not in out, argv


@st.composite
def _simulate_argv(draw):
    def valid_or(valid, other=_EXTREME):
        # a valid value half the time, so that some of the runs succeed
        return draw(st.sampled_from(valid) | st.sampled_from(other))

    argv = [
        "simulate",
        "--strategy", draw(st.sampled_from(["zero_control", "known_a", "bayes", "bayes_improper"])),
        "--T", valid_or(["0.5", "2"]),
        "--dt", valid_or(["0.1", "0.25"], ["x", "nan"]),
        "--paths", valid_or(["1", "2", "10"], ["-1", "0", "x"]),
    ]
    for flag, valid in [("--a", ["1"]), ("--T0", ["0.5"]), ("--sigma", ["1.5"]),
                        ("--seed", ["7"]), ("--dump-paths", ["1"])]:
        if draw(st.booleans()):
            argv += [flag, valid_or(valid)]
    if draw(st.booleans()):
        argv += ["--out", "OUT"]
    return argv


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(argv=_simulate_argv())
@example(argv=["simulate", "--strategy", "known_a", "--T", "2", "--dt", "0.1", "--paths", "2",
               "--a", "1e300"])
@example(argv=["simulate", "--strategy", "bayes", "--T", "2", "--dt", "0.25", "--paths", "2",
               "--sigma", "1e-8", "--dump-paths", "2", "--out", "OUT"])
def test_simulate_argv_fuzz_exits_cleanly(argv):
    # the same guarantees as above, and a rejected command writes nothing
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "sim")
        code, out, err = _run_captured([out_dir if a == "OUT" else a for a in argv])
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in err, argv
        assert "nan" not in out, argv
        assert code == 0 or not os.path.exists(out_dir), argv
