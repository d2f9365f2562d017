"""Benchmark of agnostic-control: end-to-end and per-layer figures for one workload.

    python3 bench/run.py --workload {cli,figures,montecarlo,crosscheck} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds src/agnostic_control; the
program is imported from that source tree, nothing is installed.  The
workload runs in a fresh worker process (worker.py).  Set-up time is the
median over several fresh interpreters of the time `import
agnostic_control` takes, half of them before the workload and half after,
so that it spans the run.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Outputs and trace
files go to .bench_out/ at the root of the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Fresh imports per run, before and after the workload; a single import
#: ranges over about 0.5-0.9 s on a 2-vCPU VM.
SETUP_IMPORTS = (3, 2)
#: The whole run must end within this many seconds.
RUN_LIMIT_S = 170.0

_IMPORT_PROBE = (
    "import sys, time\n"
    "n = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import agnostic_control\n"
    "print(time.perf_counter() - t, len(sys.modules) - n)\n"
)


def program_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("ACL_THREADS", None)  # measure the default sweep pool
    return env


def measure_import(n: int) -> tuple[list[float], int]:
    """Seconds of `import agnostic_control` in n fresh interpreters, and the
    number of modules it loads."""
    times, modules = [], 0
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=program_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, modules = proc.stdout.split()
        times.append(float(seconds))
    return times, int(modules)


def run_worker(args, out: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", out] + (["--tiny"] if args.tiny else [])
    proc = subprocess.Popen(cmd, env=program_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker still running after {timeout:.0f} s")
    finally:  # also when this process is terminated (see main)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def measure(args) -> dict:
    started = perf_counter()
    out = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    before, after = (1, 0) if args.tiny else SETUP_IMPORTS
    times, import_modules = measure_import(before)
    res = run_worker(args, out, RUN_LIMIT_S - 10.0 * after - (perf_counter() - started))
    times += measure_import(after)[0]
    import_s = statistics.median(times)
    if args.trace:
        metrics = {
            "cli.import_s": {"value": import_s, "unit": "s"},
            "cli.import_modules": {"value": import_modules, "unit": "count"},
            **res["layers"],
        }
    else:
        metrics = {
            "setup_s": {"value": import_s, "unit": "s"},
            "op_s.p50": {"value": statistics.median(res["op_s"]), "unit": "s"},
            "work_per_s": {"value": res["work"] / sum(res["op_s"]), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one fresh import and small inputs (self-tests)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so that the worker and the import
    # probes are killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "agnostic_control", "__init__.py")):
        print(f"error: no src/agnostic_control under {ROOT}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
