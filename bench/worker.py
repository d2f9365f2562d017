"""Runs one workload in this fresh process and prints its figures as one JSON line.

The loop is closed: one caller, one op at a time.  After one untimed
warm-up op it runs whole rounds for about --seconds, times each op's call
into the program, then checks the op's output untimed.  Before each op it
times a fixed pure-Python reference loop, for a tenth of the last op's time
and at least once.  On the workloads whose ops run mostly in the
interpreter, op times are scaled by the loop's reference time over the
run's mean loop time, so that the host's slow and fast spells, which change
the speed of interpreted code by up to about twofold over seconds to
minutes, cancel out between runs (see README.md).  With --trace 1, odd
rounds run with the tracer installed and even rounds without it, so the run
measures the tracer's own overhead; the per-layer figures come from the
traced rounds.  run.py starts this script; it is not meant to be run by
hand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import threading
from time import perf_counter

import tracing
from workloads import WORKLOADS, CheckFailed, Context, KnownFault

#: The reference loop's time on one thread, in seconds, on a 2-vCPU x86-64
#: VM (Xeon at 2.0 GHz, Python 3.11.7) in its usual state; a scaled op time
#: is the op's time on that host at that speed.
REFERENCE_LOOP_S = 0.009
#: Time spent on the reference loop before an op, as a share of the last op's
#: time: the loop's own times spread by about ±25 % from one call to the next.
LOOP_SHARE = 0.1


def _loop() -> None:
    s = 0.0
    for i in range(1, 20_000):
        x = i * 1e-3
        s += math.tanh(x) / math.cosh(x) + math.log(math.cosh(x))


def reference_loop_s(threads: int) -> float:
    """Seconds taken by a fixed loop of float arithmetic and math calls, the
    kind of work the program's integrands, root solves and RK4 steps do in
    the interpreter, run on `threads` threads at once.  On more than one
    thread, like the program's sweep pool, it also pays for handing the
    interpreter lock from one CPU to another."""
    if threads == 1:
        t0 = perf_counter()
        _loop()
        return perf_counter() - t0
    pool = [threading.Thread(target=_loop) for _ in range(threads)]
    t0 = perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return perf_counter() - t0


def sample_loop(loop_s: list[float], seconds: float, threads: int) -> None:
    """Append reference loop times to loop_s for about `seconds`, at least one."""
    end = perf_counter() + seconds
    loop_s.append(reference_loop_s(threads))
    while perf_counter() < end:
        loop_s.append(reference_loop_s(threads))


#: Per-layer metrics: name, unit, and where the value comes from - a
#: (span name, field) pair or a counter name.  Every value is per traced op.
LAYERS = (
    ("cli.main_s", "s/op", ("cli.main", "s")),
    ("model.gains.calls", "calls/op", ("model.gains", "calls")),
    ("model.gains.s", "s/op", ("model.gains", "s")),
    ("performance.perf_coeffs.calls", "calls/op", ("performance.perf_coeffs", "calls")),
    ("performance.perf_coeffs.distinct", "keys/op", "performance.perf_coeffs.distinct"),
    ("performance.perf_coeffs.s", "s/op", ("performance.perf_coeffs", "s")),
    ("performance.perf_coeffs_rk4.calls", "calls/op", ("performance.perf_coeffs_rk4", "calls")),
    ("performance.perf_coeffs_rk4.s", "s/op", ("performance.perf_coeffs_rk4", "s")),
    ("solvers.solve_sigma_mr.calls", "calls/op", ("solvers.solve_sigma_mr", "calls")),
    ("solvers.solve_sigma_mr.s", "s/op", ("solvers.solve_sigma_mr", "s")),
    ("solvers.solve_sigma_mr.iterations", "iter/op", "solvers.solve_sigma_mr.iterations"),
    ("solvers.solve_fueltax.calls", "calls/op", ("solvers.solve_fueltax", "calls")),
    ("solvers.solve_fueltax.s", "s/op", ("solvers.solve_fueltax", "s")),
    ("solvers.worst_case_mr.s", "s/op", ("solvers.worst_case_mr", "s")),
    ("solvers.sweep.s", "s/op", ("solvers.sweep", "s")),
    ("solvers.sweep.points", "points/op", "solvers.sweep.points"),
    ("solvers.sweep.points_failed", "points/op", "solvers.sweep.points_failed"),
    ("simulate.path_noise.calls", "calls/op", ("simulate.path_noise", "calls")),
    ("simulate.path_noise.s", "s/op", ("simulate.path_noise", "s")),
    # self time of monte_carlo_cost: without path_noise and the gains it calls
    ("simulate.stepping_s", "s/op", ("simulate.monte_carlo_cost", "self_s")),
    ("simulate.path_steps", "steps/op", "simulate.path_steps"),
    ("simulate.analytic_cost.s", "s/op", ("simulate.analytic_cost", "s")),
)


def time_op(op, tracer) -> tuple[object, Exception | None, float]:
    """Run op once: its output or the exception it raised, and its wall time."""
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:  # the program raised: the op failed
        out, error = None, exc
    finally:
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return out, error, elapsed


def layer_metrics(summary: dict, n_ops: int) -> dict:
    out = {}
    for name, unit, source in LAYERS:
        if isinstance(source, tuple):
            total = summary["spans"].get(source[0], {}).get(source[1], 0)
        else:
            total = summary["counters"].get(source, 0)
        out[name] = {"value": total / n_ops, "unit": unit}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, ctx: Context) -> dict:
    wl = WORKLOADS[workload](seed, ctx)
    tracer = tracing.Tracer() if trace else None
    op_s = {False: [], True: []}  # keyed by whether the op was traced
    loop_s = []
    attempted = failed = work = 0
    correct = True
    reported: set[str] = set()
    elapsed = time_op(wl.round(-1)[0], None)[2]  # warm-up: not counted, not checked
    start = perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        round_start = perf_counter()
        for op in wl.round(k):
            sample_loop(loop_s, LOOP_SHARE * elapsed, wl.reference_threads or 1)
            out, error, elapsed = time_op(op, tracer if traced else None)
            op_s[traced].append(elapsed)
            attempted += 1
            try:
                if error is not None:
                    raise CheckFailed(f"{op.kind}: {type(error).__name__}: {error}")
                # the call did its work, whether or not its output is right
                work += op.work
                op.check(out)
            except KnownFault as exc:
                failed += 1
                if op.known_fault not in reported:
                    print(f"known fault: {exc}", file=sys.stderr)
                    reported.add(op.known_fault)
            except Exception as exc:  # CheckFailed, or an output too malformed to check
                failed += 1
                correct = False
                print(f"FAILED: {op.kind}: {exc}", file=sys.stderr)
        k += 1
        # stop at the round end nearest to --seconds (a traced run: pairs of rounds)
        took = (perf_counter() - round_start) * (2 if trace else 1)
        if (not trace or k % 2 == 0) and perf_counter() - start + took / 2 >= seconds:
            break

    # the loop's mean time, as an op's time is a sum over the spells it spans
    scale = 1.0
    if wl.reference_threads:
        scale = wl.reference_threads * REFERENCE_LOOP_S / statistics.fmean(loop_s)
    result = {
        "correct": correct, "attempted": attempted, "failed": failed, "work": work,
        "op_s": [t * scale for t in op_s[False]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        tracer.dump(os.path.join(ctx.out, "trace.tsv.gz"))
        traced_mean = sum(op_s[True]) / len(op_s[True])
        untraced_mean = sum(op_s[False]) / len(op_s[False])
        result["layers"] = layer_metrics(tracer.summary(), len(op_s[True]))
        result["layers"]["trace.overhead_pct"] = {
            "value": 100.0 * (traced_mean / untraced_mean - 1.0), "unit": "%"}
        result["layers"]["host.reference_loop_ms"] = {
            "value": 1000.0 * statistics.fmean(loop_s), "unit": "ms"}
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import agnostic_control

    if os.path.dirname(os.path.abspath(agnostic_control.__file__)) != os.path.join(src, "agnostic_control"):
        print(f"error: agnostic_control imported from {agnostic_control.__file__}", file=sys.stderr)
        return 2
    ctx = Context(args.root, args.out, tiny=args.tiny)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ctx)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
