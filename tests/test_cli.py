"""CLI surface: schemas, exit codes, reproducibility, thin-shell guarantee."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agnostic_control import ProblemSpec, gains
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


def test_regret_additive_requires_t0(capsys):
    code, _, _ = run_cli(
        capsys, "regret", "--mode", "additive", "--T", "2", "--sigma", "improper"
    )
    assert code == 2


def test_usage_error_exit_2(capsys):
    code, _, _ = run_cli(capsys, "gains", "--T", "1")  # missing --t
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["figures", "--which", "1", "--grid", "2,1", "--out", "OUT"],
    ["figures", "--which", "1", "--grid", "abc", "--out", "OUT"],
    ["regret", "--mode", "multiplicative", "--T", "2", "--a-grid", "x"],
    ["regret", "--mode", "multiplicative", "--T", "2", "--sigma", "foo"],
    ["simulate", "--strategy", "known_a", "--a", "nan", "--T", "1", "--dt", "0.1",
     "--paths", "10"],
    ["regret", "--mode", "multiplicative", "--T", "2", "--sigma", "1e-200"],
    ["regret", "--mode", "additive", "--T", "2", "--T0", "0.5", "--sigma", "1e-100"],
    ["regret", "--mode", "multiplicative", "--T", "2", "--a-grid", "0,1e200"],
    ["regret", "--mode", "multiplicative", "--T", "2", "--sigma", "1e160"],
    ["regret", "--mode", "multiplicative", "--T", "2", "--sigma", "1e300"],
])
def test_bad_input_exit_2_without_traceback(capsys, tmp_path, argv):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *[str(out) if a == "OUT" else a for a in argv])
    assert code == 2
    assert "Traceback" not in err
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert "nan" not in out.getvalue(), argv
