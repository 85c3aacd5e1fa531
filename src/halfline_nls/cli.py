"""Command-line front end: solve / verify / converge on flat text configs.

Config format: `key = value` lines with dotted section prefixes, e.g.

    problem.lambda_re = 2.0
    problem.alpha = 3
    phi.preset = sech
    grid.nx = 1024

Outputs are deterministic: identical configs produce byte-identical files,
and every number in a CSV output has the bytes of Python's "%.17g".
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from .fractional import frac_derivative, frac_fourier_path, frac_integral
from .grids import (
    GridFunction, SolutionField, SpatialGrid, TimeGrid, TimeSignal, interp_complex,
)
from .operators import (
    boundary_forcing_freq,
    boundary_forcing_time,
    derivative_jump,
    free_group,
)
from .solver import BlowupSuspected, ProblemSpec, SolverConfig, solve_ibvp
from .spectral import smooth_ramp, sobolev_norm
from .verification import (
    FDConfig, compare_fields, convergence_study, crank_nicolson, refined_problem,
)

# by name: run as `python -m halfline_nls.cli`, __name__ is "__main__"
log = logging.getLogger("halfline_nls.cli")

# the SolverConfig fields a config sets, as solver.<field>, with its defaults
_SOLVER_KEYS = ("tol", "max_iter", "ratio_cap", "delta_crit", "max_halvings")
_DEFAULTS = {
    "problem.lambda_re": 0.0,
    "problem.lambda_im": 0.0,
    "problem.alpha": 3.0,
    "problem.s": 0.0,
    "problem.T": 1.0,
    "phi.preset": "zero",
    "phi.center": 6.0,
    "phi.width": 1.0,
    "phi.amplitude": 1.0,
    "phi.file": "",
    "f.preset": "zero",
    "f.amplitude": 1.0,
    "f.omega": 6.283185307179586,
    "f.file": "",
    "grid.x_min": -40.0,
    "grid.x_max": 40.0,
    "grid.nx": 1024,
    "grid.nt": 1024,
    **{f"solver.{f.name}": f.default for f in dataclasses.fields(SolverConfig)
       if f.name in _SOLVER_KEYS},
    "output.directory": "out",
}


class ConfigError(ValueError):
    pass


def parse_config(path):
    """Flat key=value config with dotted sections; '#' starts a comment."""
    cfg = dict(_DEFAULTS)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        default = _DEFAULTS[key]
        try:
            if isinstance(default, float):
                cfg[key] = float(val)
            elif isinstance(default, int):
                cfg[key] = int(val)
            else:
                cfg[key] = val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}") from exc
    return cfg


def _file_preset(path, rows, key):
    """Interpolant of a headerless `x or t, re, im` CSV of `rows` rows whose
    first column increases strictly."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2, usecols=(0, 1, 2))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {key}: {exc}") from exc
    if data.shape[0] != rows:
        raise ConfigError(f"{key} has {data.shape[0]} rows, grid needs {rows}")
    if not np.all(np.diff(data[:, 0]) > 0):
        raise ConfigError(f"{key}: first column must increase strictly")
    vals = data[:, 1] + 1j * data[:, 2]
    return lambda xx: interp_complex(xx, data[:, 0], vals)


def _phi_preset(cfg, x):
    kind = cfg["phi.preset"]
    A = cfg["phi.amplitude"]
    c = cfg["phi.center"]
    w = cfg["phi.width"]
    if kind in ("gaussian", "sech") and not 0.0 < w < np.inf:
        raise ConfigError(f"phi.width must be positive and finite, got {w!r}")
    if kind == "gaussian":
        return lambda xx: A * np.exp(-(((np.asarray(xx) - c) / w) ** 2)) + 0j
    if kind == "sech":
        return lambda xx: A / np.cosh((np.asarray(xx) - c) / w) + 0j
    if kind == "zero":
        return lambda xx: np.zeros_like(np.asarray(xx), dtype=complex)
    if kind == "file":
        return _file_preset(cfg["phi.file"], len(x), "phi.file")
    raise ConfigError(f"unknown phi.preset '{kind}'")


def _f_preset(cfg, T, m):
    kind = cfg["f.preset"]
    A = cfg["f.amplitude"]
    if kind == "bump":
        return lambda tt: (
            16.0 * A * np.asarray(tt) ** 2 * np.maximum(T - np.asarray(tt), 0.0) ** 2
            / T**4
            + 0j
        )
    if kind == "sinusoid_windowed":
        om = cfg["f.omega"]
        return lambda tt: (
            A
            * np.sin(om * np.asarray(tt))
            * smooth_ramp(4.0 * np.asarray(tt) / T)
            + 0j
        )
    if kind == "zero":
        return lambda tt: np.zeros_like(np.asarray(tt), dtype=complex)
    if kind == "file":
        return _file_preset(cfg["f.file"], m + 1, "f.file")
    raise ConfigError(f"unknown f.preset '{kind}'")


def build_problem(cfg):
    """(ProblemSpec, SolverConfig) from a parsed config dict."""
    try:
        sgrid = SpatialGrid(cfg["grid.x_min"], cfg["grid.x_max"], cfg["grid.nx"])
        tgrid = TimeGrid(cfg["problem.T"], cfg["grid.nt"])
        scfg = SolverConfig(
            sgrid=sgrid, **{k: cfg[f"solver.{k}"] for k in _SOLVER_KEYS}
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    x = sgrid.nodes
    xpos = x[x >= 0.0]
    phi_fn = _phi_preset(cfg, xpos)
    f_fn = _f_preset(cfg, cfg["problem.T"], cfg["grid.nt"])
    try:
        spec = ProblemSpec(
            lam=complex(cfg["problem.lambda_re"], cfg["problem.lambda_im"]),
            alpha=cfg["problem.alpha"],
            s=cfg["problem.s"],
            phi=phi_fn(xpos),
            f=TimeSignal(tgrid, f_fn(tgrid.nodes)),
            T=cfg["problem.T"],
            phi_x=xpos,
            phi_fn=phi_fn,
            f_fn=f_fn,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec, scfg


# the numbers formatted at once: about 3 MB of temporaries. After a
# 1024x512 solve, writing its field took about 40 minor page faults at this
# size and 2,800 at 1 << 16 (13 MB), in the same time.
_BLOCK_CELLS = 1 << 14


def _write_csv(path, header, *columns):
    """The header line, then one row per index of the columns' first axis.
    A column holds one number or a row of numbers per index; a complex
    number is written as its real and imaginary parts. Every number is
    widened to float64 and written as f"{v:.17g}", the row's numbers joined
    by ",", formatted by format_rows in blocks of about _BLOCK_CELLS numbers
    gathered into one reused buffer."""
    # imported on first write: a process that only imports the CLI does not
    # load (or, without cached bytecode, compile) it
    from .csvformat import format_rows

    cols = []
    for c in map(np.asarray, columns):
        c = c.reshape(len(c), -1)
        # a complex row viewed as floats is re_0, im_0, re_1, ...
        cols.append(np.ascontiguousarray(c, complex).view(float) if np.iscomplexobj(c) else c)
    n = len(cols[0])
    width = sum(c.shape[1] for c in cols)
    step = max(1, _BLOCK_CELLS // width)
    buf = np.empty((min(step, n), width))
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for i in range(0, n, step):
            block = buf[:min(step, n - i)]
            np.concatenate([c[i:i + step] for c in cols], axis=1, out=block)
            fh.write(format_rows(block))


def _write_json(path, obj):
    # NaN and Infinity are not JSON: a non-finite number raises ValueError
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_signal(path, t, values):
    _write_csv(path, "t,re,im\n", t, np.asarray(values, dtype=complex))


def read_signal(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


def write_field(path, field: SolutionField):
    x = np.asarray(field.sgrid.nodes)
    t = field.tgrid.nodes
    kind = "whole" if isinstance(field.sgrid, SpatialGrid) else "half"
    header = (
        f"# kind={kind} x_first={x[0]:.17g} x_last={x[-1]:.17g} "
        f"n={len(x)} t_max={t[-1]:.17g} nt={field.tgrid.m}\n"
    )
    # each row is t, re_0, im_0, re_1, ...
    _write_csv(path, header, t, field.values)


def read_field(path):
    """Returns (x, t, values) from a field CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
    if not header.startswith("#"):
        raise ValueError("missing field header")
    meta = dict(tok.split("=") for tok in header[1:].split())
    n = int(meta["n"])
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    t = data[:, 0]
    vals = data[:, 1::2] + 1j * data[:, 2::2]
    # x_last is the last node of either grid kind
    x = np.linspace(float(meta["x_first"]), float(meta["x_last"]), n)
    return x, t, vals


def _load(config_path, out_dir):
    """(config dict, ProblemSpec, SolverConfig, output directory), with the
    directory created."""
    cfg = parse_config(config_path)
    spec, scfg = build_problem(cfg)
    out = out_dir or cfg["output.directory"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return cfg, spec, scfg, out


def cmd_solve(config_path, out_dir=None):
    _, spec, scfg, out = _load(config_path, out_dir)
    try:
        field, report = solve_ibvp(spec, scfg)
    except BlowupSuspected as exc:
        print(f"blow-up suspected: {exc}", file=sys.stderr)
        _write_json(os.path.join(out, "report.json"), exc.report.as_dict())
        return 2

    log.info("boundary residual %.3e (max_t |u(0,t) - f(t)| / max |u| on x >= 0)",
             report.boundary_residual)
    write_field(os.path.join(out, "field.csv"), field)
    trace = field.trace_nearest_zero()
    write_signal(os.path.join(out, "trace.csv"), field.tgrid.nodes, trace.values)

    x = scfg.sgrid.nodes
    keep = x >= 0.0
    header = "x,re_u,im_u,re_phi,im_phi\n"
    _write_csv(os.path.join(out, "initial_slice.csv"), header,
               x[keep], field.values[0, keep], spec.phi)

    norms = sobolev_norm(field.values, scfg.sgrid, spec.s)
    _write_csv(os.path.join(out, "norm_history.csv"), "t,hs_norm\n",
               field.tgrid.nodes, norms)

    _write_json(os.path.join(out, "report.json"), report.as_dict())
    if report.t_achieved < report.t_requested:
        print(
            f"warning: solved on [0, {report.t_achieved:g}] only, "
            f"[0, {report.t_requested:g}] requested",
            file=sys.stderr,
        )
    print(f"converged in {report.iterates} iterations; outputs in {out}/")
    return 0


def _max_rel(a, ref):
    """max |a - ref| relative to max |ref|."""
    return float(np.max(np.abs(a - ref)) / max(np.max(np.abs(ref)), 1e-300))


def _suite_checks(spec, scfg):
    """The operator property suite at the config's grids."""
    sgrid = scfg.sgrid
    T = spec.T
    m = spec.f.grid.m
    tgrid = TimeGrid(T, m)
    checks = []

    # canonical smooth data sized to the grids
    x = sgrid.nodes
    w = sgrid.x_max / 10.0
    c = sgrid.x_max / 4.0
    phi_c = np.exp(-(((x - c) / w) ** 2)) + 0j
    phi_g = GridFunction(sgrid, phi_c)
    t = tgrid.nodes
    f_c = TimeSignal(tgrid, 16.0 * t**2 * np.maximum(T - t, 0.0) ** 2 / T**4 + 0j)

    t1, t2 = 0.3 * T, 0.45 * T
    u1 = free_group(phi_g, t1)
    u12 = free_group(u1, t2)
    u_sum = free_group(phi_g, t1 + t2)
    scale = np.linalg.norm(phi_c)
    checks.append(
        (
            "free_group_law",
            float(np.linalg.norm(u12.values - u_sum.values) / scale),
            1e-12,
        )
    )
    checks.append(
        (
            "free_group_unitary",
            abs(np.linalg.norm(u1.values) / scale - 1.0),
            1e-12,
        )
    )

    half = frac_integral(f_c, 0.5)
    twice = frac_integral(half, 0.5)
    whole = frac_integral(f_c, 1.0)
    checks.append(("frac_semigroup", _max_rel(twice.values, whole.values), 1e-5))
    worst = 0.0
    for alpha in (1.0, 0.5, -0.5):
        if alpha > 0:
            ref = frac_integral(f_c, alpha)
        else:
            ref = frac_derivative(f_c, -alpha)
        four = frac_fourier_path(f_c, alpha)
        worst = max(worst, _max_rel(four.values, ref.values))
    checks.append(("frac_path_agreement", worst, 1e-3))

    lt = boundary_forcing_time(f_c, sgrid, tgrid)
    lf = boundary_forcing_freq(f_c, sgrid, tgrid)
    num = float(np.sqrt(np.sum(np.abs(lt.values - lf.values) ** 2)))
    den = max(float(np.sqrt(np.sum(np.abs(lt.values) ** 2))), 1e-300)
    checks.append(("representation_equivalence", num / den, 1e-3))

    j0 = sgrid.index_nearest_zero()
    trace = lt.values[:, j0]
    checks.append(("boundary_trace", _max_rel(trace, f_c.values), 1e-3))

    minus, plus = derivative_jump(f_c, lt)
    h = frac_derivative(f_c, 0.5)
    target = 2.0 * np.exp(-0.25j * np.pi) * h.values
    jump = minus.values - plus.values
    checks.append(("derivative_jump", _max_rel(jump, target), 1e-2))
    return checks


def _fd_comparison(cfg, spec, scfg):
    """Integral-equation vs finite-difference solve, with self-convergence
    errors setting the tolerance floor."""
    nx = cfg["grid.nx"]
    nt = cfg["grid.nt"]
    full, rep = solve_ibvp(spec, scfg)
    # the refined solves do not halve: compare on the interval the solve covers
    spec = dataclasses.replace(spec, T=rep.t_achieved)

    half_sgrid = SpatialGrid(scfg.sgrid.x_min, scfg.sgrid.x_max, max(16, nx // 2))
    spec_h, cfg_h = refined_problem(spec, scfg, half_sgrid, max(8, nt // 2))
    half, _ = solve_ibvp(spec_h, cfg_h)
    e_ie = compare_fields(half, full).rel_l2

    fd_full = crank_nicolson(
        spec, FDConfig(nx=max(64, nx), nt=max(64, nt), x_max=scfg.sgrid.x_max)
    )
    fd_half = crank_nicolson(
        spec,
        FDConfig(nx=max(64, nx // 2), nt=max(64, nt // 2), x_max=scfg.sgrid.x_max),
    )
    e_fd = compare_fields(fd_half, fd_full).rel_l2
    tol = max(1e-3, 5.0 * max(e_ie, e_fd))
    rel = compare_fields(full, fd_full).rel_l2
    return rel, tol


def cmd_verify(config_path, out_dir=None):
    cfg, spec, scfg, out = _load(config_path, out_dir)
    checks = _suite_checks(spec, scfg)
    try:
        rel, tol = _fd_comparison(cfg, spec, scfg)
        checks.append(("fd_oracle_agreement", rel, tol))
    except BlowupSuspected:
        checks.append(("fd_oracle_agreement", float("inf"), 1e-3))

    report = []
    failed = []
    for name, value, tol in checks:
        value = float(value)
        tol = float(tol)
        ok = bool(value <= tol)
        # a check that could not be made (an infinite value) is written as null
        report.append({"check": name, "value": value if math.isfinite(value) else None,
                       "tolerance": tol, "pass": ok})
        line = "PASS" if ok else "FAIL"
        print(f"{line} {name}: {value:.3e} (tol {tol:.3e})")
        if not ok:
            failed.append(name)
    _write_json(os.path.join(out, "verify_report.json"), report)
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def cmd_converge(config_path, levels, out_dir=None):
    _, spec, scfg, out = _load(config_path, out_dir)
    try:
        result = convergence_study(spec, scfg, levels=levels)
    except BlowupSuspected as exc:
        print(f"blow-up suspected during study: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(out, "converge.csv"), "w", encoding="utf-8") as fh:
        fh.write("level,nx,nt,error,order\n")
        for k, row in enumerate(result["table"]):
            err = "" if row["error"] is None else f"{row['error']:.17g}"
            order = "" if row["order"] is None else f"{row['order']:.17g}"
            fh.write(f"{k},{row['nx']},{row['nt']},{err},{order}\n")
    if result["flagged"]:
        print(f"warning: {result['reason']}")
    else:
        orders = ", ".join(f"{p:.2f}" for p in result["orders"])
        print(f"observed orders: {orders}")
    return 0


@contextlib.contextmanager
def _log_to_stderr(level):
    """Print the package's log records at level and above on stderr."""
    pkg = logging.getLogger("halfline_nls")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = pkg.level
    pkg.addHandler(handler)
    pkg.setLevel(level)
    try:
        yield
    finally:
        pkg.removeHandler(handler)
        pkg.setLevel(old_level)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="halfline-nls",
        description="Half-line nonlinear Schrodinger IBVP solver",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "converge"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", default=None)
        p.add_argument("--log-level", default="WARNING",
                       choices=("DEBUG", "INFO", "WARNING", "ERROR"))
        if name == "converge":
            p.add_argument("--levels", type=int, default=3)
    args = ap.parse_args(argv)

    try:
        with _log_to_stderr(args.log_level):
            if args.command == "solve":
                return cmd_solve(args.config, args.out)
            if args.command == "verify":
                return cmd_verify(args.config, args.out)
            return cmd_converge(args.config, args.levels, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
