"""Workloads of the halfline-nls benchmark: seeded inputs and the
correctness check run on every iteration.

Seed 0 gives the pinned cases: the exact standing wave e^{it} sech(x - 6)
and a Gaussian of width 1.5 centred at x = 10. Other seeds draw from a
narrow band around them, so that every seed does the same work (same
iterates, same halvings) and the error stays comparable across seeds:

* standing-wave, halving: A * e^{i A^2 t} * sech(A (x - c)), exact for
  lam = 2, alpha = 3, with A in 1 +- 0.002 and c in 6 +- 0.006;
* gaussian-cli: centre in 10 +- 0.5, width in 1.5 +- 0.005.

The program under test receives only the sampled arrays (library) or a
config file (CLI); the closed forms stay here, as the reference.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import numpy as np

from halfline_nls import (
    FDConfig,
    ProblemSpec,
    SolutionField,
    SolverConfig,
    SpatialGrid,
    TimeGrid,
    TimeSignal,
    compare_fields,
    crank_nicolson,
)
from halfline_nls.cli import read_field

LAM = 2.0
ALPHA = 3.0
S = 0.0
X_MIN, X_MAX = -30.0, 30.0
TOL = 1e-10

CLI_OUTPUTS = (
    "field.csv",
    "trace.csv",
    "initial_slice.csv",
    "norm_history.csv",
    "report.json",
)


@dataclass(frozen=True)
class Grid:
    nx: int
    nt: int
    smoke: bool


FULL = Grid(1024, 512, False)
# the smoke grid only checks that the benchmark runs end to end
SMOKE = Grid(128, 64, True)


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool
    T: float  # requested final time
    halvings: int  # interval halvings the solver is expected to make
    err_bound: float  # correctness bound on rel_err, full grid
    smoke_err_bound: float  # the same on the smoke grid


WORKLOADS = {
    w.name: w
    for w in (
        # rel_err at seed 0, full grid: 9.14e-6, 9.14e-6, 7.42e-5;
        # smoke grid: 1.54e-4, 1.54e-4, 4.82e-3
        Workload("standing-wave", False, 0.5, 0, 2e-5, 4e-4),
        Workload("halving", False, 2.0, 2, 2e-5, 4e-4),
        Workload("gaussian-cli", True, 0.5, 0, 2e-4, 1e-2),
    )
}


def draw_params(workload: Workload, seed: int) -> dict:
    """The workload's input parameters for this seed (seed 0: pinned case)."""
    rng = random.Random(seed)
    if workload.cli:
        if seed == 0:
            return {"center": 10.0, "width": 1.5}
        return {
            "center": 10.0 + rng.uniform(-0.5, 0.5),
            "width": 1.5 + rng.uniform(-0.005, 0.005),
        }
    if seed == 0:
        return {"A": 1.0, "c": 6.0}
    return {"A": 1.0 + rng.uniform(-0.002, 0.002), "c": 6.0 + rng.uniform(-0.006, 0.006)}


def spatial_grid(grid: Grid) -> SpatialGrid:
    return SpatialGrid(X_MIN, X_MAX, grid.nx)


def standing_wave(params: dict, x, t):
    A, c = params["A"], params["c"]
    return A * np.exp(1j * A * A * t) / np.cosh(A * (x - c))


def library_problem(workload: Workload, params: dict, grid: Grid):
    """(ProblemSpec, SolverConfig) holding only sampled data, no closed forms."""
    sg = spatial_grid(grid)
    x = sg.nodes
    xp = x[x >= 0.0]
    tg = TimeGrid(workload.T, grid.nt)
    spec = ProblemSpec(
        LAM,
        ALPHA,
        S,
        standing_wave(params, xp, 0.0),
        TimeSignal(tg, standing_wave(params, 0.0, tg.nodes)),
        workload.T,
    )
    return spec, SolverConfig(sgrid=sg, tol=TOL)


def exact_rel_err(u: SolutionField, params: dict) -> float:
    """Relative L2 error on x > 0 over the achieved interval."""
    x = np.asarray(u.sgrid.nodes)
    keep = x > 0.0
    tt, xx = np.meshgrid(u.tgrid.nodes, x[keep], indexing="ij")
    ref = standing_wave(params, xx, tt)
    return float(np.linalg.norm(u.values[:, keep] - ref) / np.linalg.norm(ref))


def _report_failures(workload: Workload, converged, halvings) -> list:
    failures = []
    if not converged:
        failures.append("report.converged is false")
    if halvings != workload.halvings:
        failures.append(f"halvings {halvings} != expected {workload.halvings}")
    return failures


def _err_failures(workload: Workload, grid: Grid, rel_err) -> list:
    bound = workload.smoke_err_bound if grid.smoke else workload.err_bound
    if not rel_err <= bound:  # also catches nan
        return [f"rel_err {rel_err:.3e} above bound {bound:.1e}"]
    return []


def check_library(workload: Workload, grid: Grid, params: dict, u, report):
    """(rel_err, failures) for one library solve; no failures means correct."""
    rel_err = exact_rel_err(u, params)
    failures = _report_failures(workload, report.converged, report.halvings)
    return rel_err, failures + _err_failures(workload, grid, rel_err)


def cli_config(params: dict, grid: Grid, T: float) -> str:
    """Config text for `halfline_nls.cli solve`; repr keeps floats exact."""
    lines = [
        f"problem.lambda_re = {LAM!r}",
        f"problem.alpha = {ALPHA!r}",
        f"problem.s = {S!r}",
        f"problem.T = {T!r}",
        "phi.preset = gaussian",
        f"phi.center = {params['center']!r}",
        f"phi.width = {params['width']!r}",
        "f.preset = zero",
        f"grid.x_min = {X_MIN!r}",
        f"grid.x_max = {X_MAX!r}",
        f"grid.nx = {grid.nx}",
        f"grid.nt = {grid.nt}",
        f"solver.tol = {TOL!r}",
    ]
    return "\n".join(lines) + "\n"


def gaussian(params: dict, x):
    return np.exp(-(((np.asarray(x) - params["center"]) / params["width"]) ** 2)) + 0j


def cli_oracle(params: dict, grid: Grid, T: float) -> SolutionField:
    """Crank-Nicolson field for the Gaussian case on [0, X_MAX]."""
    sg = spatial_grid(grid)
    x = sg.nodes
    xp = x[x >= 0.0]
    tg = TimeGrid(T, grid.nt)
    spec = ProblemSpec(
        LAM,
        ALPHA,
        S,
        gaussian(params, xp),
        TimeSignal(tg, np.zeros(tg.m + 1, dtype=complex)),
        T,
        phi_fn=lambda xx: gaussian(params, xx),
    )
    return crank_nicolson(spec, FDConfig(nx=grid.nx, nt=grid.nt, x_max=X_MAX))


@dataclass(frozen=True)
class _Nodes:
    """Spatial grid stand-in for a field read back from CSV."""

    nodes: np.ndarray


def read_cli_field(path) -> SolutionField:
    x, t, vals = read_field(path)
    return SolutionField(_Nodes(np.asarray(x)), TimeGrid(t[-1], len(t) - 1), vals)


def check_cli(workload: Workload, grid: Grid, out_dir, returncode, oracle):
    """(rel_err, report, failures) for one CLI run writing into out_dir."""
    failures = []
    if returncode != 0:
        failures.append(f"exit code {returncode}")
    missing = [n for n in CLI_OUTPUTS if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        failures.append("missing outputs: " + ", ".join(missing))
    report = {}
    rel_err = float("nan")
    if "report.json" not in missing:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        failures += _report_failures(
            workload, report.get("converged"), report.get("halvings")
        )
    if "field.csv" not in missing:
        field = read_cli_field(os.path.join(out_dir, "field.csv"))
        rel_err = compare_fields(field, oracle).rel_l2
        failures += _err_failures(workload, grid, rel_err)
    return rel_err, report, failures
