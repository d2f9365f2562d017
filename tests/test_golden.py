"""Golden outputs: every README `acl` command, and a few edge cases, replayed
through cli.main and compared byte for byte with tests/golden/<case>/.

Each case directory holds the command's stdout, stderr and exit code, and
under files/ every file it wrote, with each manifest's timestamp masked.  A
change that moves an output on purpose rewrites the goldens by running this
file as a script from the root of a checkout:

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md what moved and why.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import shutil
import sys
import tempfile

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
#: A regular file each case finds in its working directory, so that an --out
#: below it cannot be written.
BLOCKER = "blocker"

#: case name -> argv, each run in a fresh working directory
CASES = {
    "version": ["--version"],
    "gains": ["gains", "--T", "2", "--t", "0.5", "--lambda", "1"],
    "figures-1": ["figures", "--which", "1", "--grid", "0.1:20:40", "--out", "out/"],
    "figures-2": ["figures", "--which", "2", "--grid", "0.1:20:40", "--out", "out/"],
    "figures-3": ["figures", "--which", "3", "--grid", "0.5,1,2,4,8", "--out", "out/"],
    "figures-1-wide": ["figures", "--which", "1", "--grid", "1e-8:1e10:73", "--out", "out/"],
    "figures-3-wide": ["figures", "--which", "3", "--grid", "1e-8:1e10:73", "--out", "out/"],
    "figures-1-underflow": ["figures", "--which", "1", "--grid", "1e-70,1e-69", "--out", "out/"],
    "figures-unwritable": ["figures", "--which", "3", "--grid", "0.5,1,2,4,8",
                           "--out", f"{BLOCKER}/out"],
    "simulate": ["simulate", "--strategy", "bayes", "--sigma", "1.5", "--a", "1", "--T", "2",
                 "--dt", "0.01", "--paths", "200", "--seed", "0"],
    "simulate-dump": ["simulate", "--strategy", "bayes", "--sigma", "1.5", "--a", "1", "--T", "2",
                      "--dt", "0.01", "--paths", "200", "--seed", "0", "--out", "sim",
                      "--dump-paths", "2"],
    "simulate-dump-windows": ["simulate", "--strategy", "bayes", "--sigma", "1.5", "--a", "1",
                              "--T", "1.2", "--dt", "0.001", "--paths", "3", "--seed", "0",
                              "--out", "sim", "--dump-paths", "1"],
    # two blocks, the second of one path, and two windows, control starting in the first
    "simulate-improper-windows": ["simulate", "--strategy", "bayes_improper", "--a", "1",
                                  "--T", "1.2", "--T0", "0.5", "--dt", "0.001", "--paths", "2049",
                                  "--seed", "1"],
    "simulate-known-windows": ["simulate", "--strategy", "known_a", "--a", "-0.7", "--T", "1.2",
                               "--T0", "0.5", "--dt", "0.001", "--paths", "2049", "--seed", "1"],
    "regret-multiplicative": ["regret", "--mode", "multiplicative", "--T", "2"],
    "regret-additive": ["regret", "--mode", "additive", "--T", "2", "--T0", "0.5",
                        "--sigma", "improper"],
    "regret-fueltax": ["regret", "--mode", "fueltax", "--T", "2"],
    "regret-fueltax-1e-3": ["regret", "--mode", "fueltax", "--T", "1e-3"],
    "regret-fueltax-1e9": ["regret", "--mode", "fueltax", "--T", "1e9"],
    "regret-multiplicative-1e-4": ["regret", "--mode", "multiplicative", "--T", "1e-4"],
    "regret-multiplicative-1e10": ["regret", "--mode", "multiplicative", "--T", "1e10"],
}

_TIMESTAMP = re.compile(r'("timestamp": )"[^"]*"')
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _files(root: str) -> dict[str, str]:
    """The text of every file under root, keyed by its path from root with /
    separators."""
    found = {}
    for parent, _, names in os.walk(root):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, encoding="utf-8", newline="") as fh:
                found[os.path.relpath(path, root).replace(os.sep, "/")] = fh.read()
    return found


def replay(argv: list[str]) -> dict[str, str]:
    """Run one acl command through cli.main in a fresh working directory:
    {'exit_code', 'stdout', 'stderr', 'files/<path>' for each file written},
    keyed as the files of its golden directory."""
    from agnostic_control.cli import main

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        with open(os.path.join(work, BLOCKER), "w"):
            pass
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        written = _files(work)
    del written[BLOCKER]
    result = {"exit_code": f"{code}\n", "stdout": out.getvalue(), "stderr": err.getvalue()}
    for path, text in written.items():
        result["files/" + path] = _TIMESTAMP.sub(r'\1"<masked>"', text)
    return result


def _first_difference(want: str, got: str) -> str:
    """The first line at which two texts differ and, where numbers on it
    differ, the first such pair and its distance in ulps."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    i = next((i for i, (w, g) in enumerate(zip(want_lines, got_lines)) if w != g),
             min(len(want_lines), len(got_lines)))
    w = want_lines[i] if i < len(want_lines) else "<end>"
    g = got_lines[i] if i < len(got_lines) else "<end>"
    report = f"line {i + 1}:\n  golden: {w}\n  now:    {g}"
    for a, b in zip(_NUMBER.findall(w), _NUMBER.findall(g)):
        if a != b:
            x, y = float(a), float(b)
            ulps = abs(x - y) / math.ulp(max(abs(x), abs(y))) if x != y else 0.0
            return f"{report}\n  first numbers that differ: {a} vs {b}, {ulps:.3g} ulp apart"
    return report


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_its_golden(case):
    got, want = replay(CASES[case]), _files(os.path.join(GOLDEN, case))
    assert sorted(got) == sorted(want), case
    for key in sorted(want):
        assert got[key] == want[key], f"{case}/{key} differs at " + _first_difference(
            want[key], got[key])


def _rewrite() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case, argv in CASES.items():
        for key, text in replay(argv).items():
            path = os.path.join(GOLDEN, case, *key.split("/"))
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        print(f"{case}: {' '.join(argv)}", file=sys.stderr)


if __name__ == "__main__":
    _rewrite()
