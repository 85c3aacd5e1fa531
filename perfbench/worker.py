"""One process of a library workload (standing-wave, halving).

It imports the package, generates the seeded inputs and runs the first,
cold `solve_ibvp`; then it prints a line, so that the parent can time the
set-up from the moment it started this process. With --seconds > 0 it goes
on with warm solves in a closed loop until that many seconds have passed.
Each solve is checked after its timed region. After printing a solve it
waits for a line on stdin, so that the parent can time its calibration
kernel while this process is idle (see calibration.py). With --trace 1,
every second warm solve runs with the tracing wrappers installed, and the
spans are written to --spans at the end.

Output: one JSON object per line on stdout. run.py starts it with src/ on
PYTHONPATH:

    yes | PYTHONPATH=src python3 perfbench/worker.py --workload halving --seed 0 --seconds 20
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback


def emit(**fields):
    print(json.dumps(fields), flush=True)


def emit_and_wait(**fields):
    emit(**fields)
    sys.stdin.readline()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    from halfline_nls import solve_ibvp

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    grid = workloads.SMOKE if args.smoke else workloads.FULL
    params = workloads.draw_params(wl, args.seed)
    spec, cfg = workloads.library_problem(wl, params, grid)
    tracer = tracing.Tracer() if args.trace else None

    def solve(traced):
        """One timed solve: (wall seconds, (field, report) or the exception)."""
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.install()
                try:
                    out = tracer.call("solver.solve_ibvp", solve_ibvp, spec, cfg)
                finally:
                    tracer.uninstall()
            else:
                out = solve_ibvp(spec, cfg)
        except Exception as exc:  # a failed iteration is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = exc
        return time.perf_counter() - t0, out

    def checked(wall, out):
        """The line for one solve, with its correctness check."""
        if isinstance(out, Exception):
            return {"wall_s": wall, "failures": [repr(out)]}
        u, report = out
        rel_err, failures = workloads.check_library(wl, grid, params, u, report)
        return {
            "wall_s": wall,
            "rel_err": rel_err,
            "failures": failures,
            "iterates": report.iterates,
            "halvings": report.halvings,
            "t_achieved_ratio": report.t_achieved / wl.T,
        }

    first = solve(False)
    emit(phase="setup")
    emit_and_wait(phase="first", **checked(*first))
    if args.seconds > 0:
        start = time.perf_counter()
        i = 0
        while True:
            traced = bool(args.trace) and i % 2 == 0
            if traced:
                tracer.solve = i
            emit_and_wait(phase="iter", traced=traced, **checked(*solve(traced)))
            i += 1
            if time.perf_counter() - start >= args.seconds and i >= 1 + args.trace:
                break
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
