"""The halfline-nls benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload standing-wave --seed 0 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* standing-wave: warm library `solve_ibvp` of the exact standing wave;
* halving: the same wave asked for on [0, 2], so the solver halves twice;
* gaussian-cli: `python -m halfline_nls.cli solve` on a Gaussian, one fresh
  process per iteration.

Each workload runs as a closed loop with one client: an iteration starts
only after the previous one returned. Every iteration is checked after its
timed region, against the exact solution or a Crank-Nicolson oracle. Each
timing is scaled to a reference host speed by a calibration kernel timed
next to it (calibration.py); the raw times are printed too.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced iterations and prints the per-layer metrics.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 1 when any iteration failed its check, 2 when the
package sources are missing, and 0 otherwise. The package is run from
src/ of the checkout this file sits in; nothing is installed. --smoke 1
runs the same code on a 128x64 grid, for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_SAMPLES = 3  # fresh processes timed per run for setup_s
RUN_LIMIT = 170.0  # seconds after start; a child still running then is killed
_T0 = time.perf_counter()
THREADS = "1"  # BLAS / OpenMP threads: the run is pinned to one CPU (main)

E2E_UNITS = {"norm_wall_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB", "rel_err": "1"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd, on_line=None):
    """Run cmd to completion from the checkout root, passing each stdout line
    and the seconds since launch to on_line as it arrives. When on_line
    returns true, a line is written to the child's stdin: the child waits
    for it (worker.py).

    Returns (exit code, wall seconds, peak RSS of the child in MB).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE if on_line else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    killer = threading.Timer(max(1.0, RUN_LIMIT - (t0 - _T0)), proc.kill)
    killer.start()
    try:
        for line in proc.stdout:
            if on_line is not None and on_line(line, time.perf_counter() - t0):
                try:
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                except BrokenPipeError:  # the child has gone; wait4 tells how
                    pass
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.stdin is not None:
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def src_lines():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "halfline_nls").rglob("*.py"))
    )


def median_of(records, key):
    vals = [r[key] for r in records if key in r]
    return statistics.median(vals) if vals else float("nan")


def distinct(records, key):
    """The values of key over the records, e.g. "16" or "15,16"."""
    return ",".join(str(v) for v in sorted({r[key] for r in records if key in r}))


def run_library(args, wl):
    """Iteration records, set-up samples (wall seconds, kernel seconds),
    peak RSS, traced span sets and crashed processes of a library workload
    run."""
    import calibration

    records, setup, setup_wall, kernel_s = [], [], [], []
    kernel = calibration.Kernel()

    def collect(line, t):
        """Record one worker line; after an iteration, time the calibration
        kernel while the worker waits, and let it go on."""
        if not line.startswith("{"):
            return False
        rec = json.loads(line)
        if rec["phase"] == "setup":
            setup_wall.append(t)
            return False
        kernel_s.append(kernel.measure())
        # the kernel's times on either side of the iteration; for the
        # first, cold one, of the whole set-up since the launch
        rec["kernel_s"] = (kernel_s[-2] + kernel_s[-1]) / 2
        if rec["phase"] == "first":
            setup.append((setup_wall[-1], rec["kernel_s"]))
        records.append(rec)
        return True

    def launch(cmd):
        kernel_s.append(kernel.measure())
        return run_child(cmd, collect)

    spans = WORK / f"spans-{wl.name}-{args.seed}-{os.getpid()}.json"
    base = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", wl.name,
        "--seed", str(args.seed),
        "--smoke", str(args.smoke),
    ]
    main_cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        WORK.mkdir(parents=True, exist_ok=True)
        main_cmd += ["--spans", str(spans)]
    code, _, rss = launch(main_cmd)
    crashed = int(code != 0)
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            crashed += int(launch(base + ["--seconds", "0"])[0] != 0)
    span_sets = []
    if args.trace and spans.exists():
        import tracing

        span_sets = tracing.by_solve(tracing.load_spans(spans))
        spans.unlink()
    return records, setup, rss, span_sets, crashed


def run_cli(args, wl, grid, params):
    """The same as run_library, for the CLI workload; a crashed CLI process
    fails its iteration's check."""
    import calibration
    import tracing
    import workloads

    run_dir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    out_dir = run_dir / "out"
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = run_dir / "case.cfg"
    cfg_path.write_text(workloads.cli_config(params, grid, wl.T), encoding="utf-8")
    oracle = workloads.cli_oracle(params, grid, wl.T)

    records, span_sets, peak = [], [], 0.0
    kernel = calibration.Kernel()
    before = kernel.measure()
    start = time.perf_counter()
    try:
        while True:
            i = len(records)
            traced = bool(args.trace) and i % 2 == 1
            spans = run_dir / f"spans-{i}.json"
            if traced:
                cmd = [sys.executable, str(BENCH / "cli_launcher.py"), str(spans)]
            else:
                cmd = [sys.executable, "-m", "halfline_nls.cli"]
            cmd += ["solve", str(cfg_path), "--out", str(out_dir)]
            shutil.rmtree(out_dir, ignore_errors=True)
            code, wall, rss = run_child(cmd)
            after = kernel.measure()
            peak = max(peak, rss)
            rel_err, report, failures = workloads.check_cli(wl, grid, out_dir, code, oracle)
            rec = {
                "phase": "iter",
                "traced": traced,
                "wall_s": wall,
                "kernel_s": (before + after) / 2,
                "rel_err": rel_err,
                "failures": failures,
                "outputs_bytes": sum(
                    (out_dir / n).stat().st_size
                    for n in workloads.CLI_OUTPUTS
                    if (out_dir / n).is_file()
                ),
            }
            if report:
                rec["iterates"] = report["iterates"]
                rec["halvings"] = report["halvings"]
                rec["t_achieved_ratio"] = report["t_achieved"] / wl.T
            records.append(rec)
            before = after
            if traced and spans.exists():
                span_sets.append(tracing.load_spans(spans))
            done = time.perf_counter() - start >= args.seconds
            if done and len(records) >= 1 + args.trace:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    # every CLI iteration is a fresh, cold process: each one is a set-up sample
    setup = [(r["wall_s"], r["kernel_s"]) for r in records if not r["traced"]]
    return records, setup, peak, span_sets, 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "halfline_nls" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS  # before numpy loads, here and in children
    # this process and its children share one CPU, so that the calibration
    # kernel, timed here, runs on the CPU the measured process runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import calibration
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    grid = workloads.SMOKE if args.smoke else workloads.FULL
    params = workloads.draw_params(wl, args.seed)

    if wl.cli:
        records, setup, rss, span_sets, crashed = run_cli(args, wl, grid, params)
    else:
        records, setup, rss, span_sets, crashed = run_library(args, wl)

    for r in records:
        r["scaled_s"] = calibration.scaled(r["wall_s"], r["kernel_s"])
    warm = [r for r in records if r["phase"] == "iter"]
    plain = [r for r in warm if not r["traced"]]
    traced = [r for r in warm if r["traced"]]
    attempted = len(records) + crashed
    failed = sum(1 for r in records if r["failures"]) + crashed
    for r in records:
        for reason in r["failures"]:
            print(f"check failed: {reason}", file=sys.stderr)
    if not plain or not (span_sets if args.trace else setup):
        print("error: the run produced no measured iteration", file=sys.stderr)
        return 1

    print(
        f"{wl.name} seed={args.seed} grid={grid.nx}x{grid.nt} trace={args.trace} "
        f"params={json.dumps(params)}"
    )
    print(
        f"iterations attempted={attempted} failed={failed} "
        f"fail_rate={failed / attempted:.3g} (1) "
        f"iterates={distinct(records, 'iterates')} "
        f"halvings={distinct(records, 'halvings')}"
    )
    print(
        f"raw wall: iteration p50={median_of(plain, 'wall_s'):.6g} s "
        f"set-up p50={statistics.median(t for t, _ in setup):.6g} s; "
        f"calibration kernel p50={1e3 * median_of(records, 'kernel_s'):.6g} ms "
        f"(reference {1e3 * calibration.REF_S:g} ms)"
    )
    if args.trace:
        untraced = median_of(plain, "scaled_s")
        values = tracing.layer_metrics(
            [tracing.solve_metrics(spans) for spans in span_sets],
            {
                "solver.iterates": median_of(traced, "iterates"),
                "solver.halvings": median_of(traced, "halvings"),
                "solver.t_achieved_ratio": median_of(traced, "t_achieved_ratio"),
                "cli.outputs.bytes": median_of(traced, "outputs_bytes") if wl.cli else 0,
                "src.lines": src_lines(),
                "trace.overhead_frac": median_of(traced, "scaled_s") / untraced - 1.0,
                "host.kernel_ms.p50": 1e3 * median_of(records, "kernel_s"),
            },
        )
        units = tracing.LAYER_UNITS
        counts = {}
    else:
        values = {
            "norm_wall_s.p50": median_of(plain, "scaled_s"),
            "setup_s": statistics.median(calibration.scaled(t, k) for t, k in setup),
            "peak_rss_mb": rss,
            "rel_err": median_of(records, "rel_err"),
        }
        units = E2E_UNITS
        counts = {"norm_wall_s.p50": len(plain), "setup_s": len(setup)}
    for name, unit in units.items():
        n = f" (n={counts[name]})" if name in counts else ""
        print(f"{name} = {values[name]:.6g} {unit}{n}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
