"""The README's examples run as written: the library block and the figure commands."""

import os
import re
import shlex
import subprocess
import sys

import agnostic_control
from agnostic_control.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_readme_library_example_runs():
    # the first python block after "## Library entry points", so that it names
    # no deleted export
    section = _readme().split("## Library entry points", 1)[1]
    example = re.search(r"^```python\n(.*?)^```", section, re.M | re.S).group(1)
    src = os.path.dirname(os.path.dirname(agnostic_control.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-"], input=example, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert (res.returncode, res.stderr) == (0, ""), res.stderr
    assert res.stdout.startswith('{\n  "E2": ')


def test_readme_figures_solve_every_point(tmp_path, capsys):
    # acl figures exits 0 with up to 10 % of its points failed: no cell may be empty
    commands = [shlex.split(line, comments=True) for line in _readme().splitlines()
                if line.startswith("acl figures ")]
    assert len(commands) == 3
    for argv in commands:
        argv = [str(tmp_path) if a == "out/" else a for a in argv[1:]]
        assert main(argv) == 0, argv
    assert capsys.readouterr().err == ""
    csvs = sorted(p for p in os.listdir(tmp_path) if p.endswith(".csv"))
    assert csvs == ["fig1.csv", "fig2.csv", "fig3.csv"]
    for name in csvs:
        text = (tmp_path / name).read_text()
        assert not re.search(r"(^,|,,|,$)", text, re.M), name
