"""Independent oracle and diagnostics.

A Crank-Nicolson finite-difference solve of the same IBVP on [0, x_max]
(homogeneous Dirichlet at the far end) cross-validates the integral-equation
construction; compare_fields and convergence_study produce the numbers, and
mass_flux_balance checks the boundary-flux structure of mass transport for
real coupling.
"""
from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fractional import _gradient
from .grids import (
    HalfLineGrid, SolutionField, SpatialGrid, TimeGrid, TimeSignal, interp_complex,
)
from .solver import ProblemSpec, SolverConfig, solve_ibvp

log = logging.getLogger(__name__)


# per-step fixed-point sweeps: relative step tolerance and sweep cap
_STEP_TOL = 1e-12
_MAX_SWEEPS = 40


@dataclass(frozen=True)
class FDConfig:
    nx: int
    nt: int
    x_max: float

    def __post_init__(self):
        if self.nx < 64 or self.nt < 64:
            raise ValueError("nx, nt >= 64 required")


def _phi_on(spec: ProblemSpec, x):
    if spec.phi_fn is not None:
        return np.asarray(spec.phi_fn(x), dtype=complex)
    if spec.phi_x is not None:
        return interp_complex(x, np.asarray(spec.phi_x, dtype=float), spec.phi)
    raise ValueError("spec carries neither phi_fn nor phi_x; cannot resample")


def _f_on(spec: ProblemSpec, t):
    if spec.f_fn is not None:
        return np.asarray(spec.f_fn(t), dtype=complex)
    return interp_complex(t, spec.f.grid.nodes, spec.f.values)


def refined_problem(spec: ProblemSpec, cfg: SolverConfig, sgrid: SpatialGrid, m: int):
    """(spec, cfg) moved onto sgrid and m time steps on [0, T].

    phi and f are resampled from spec's sources (phi_fn or phi_x, f_fn or
    f). Every solver setting is kept, except that halving is off, so the
    solve covers the whole [0, T] it is compared on.
    """
    tg = TimeGrid(spec.T, m)
    x = sgrid.nodes
    xpos = x[x >= 0.0]
    spec_r = ProblemSpec(
        spec.lam, spec.alpha, spec.s, _phi_on(spec, xpos),
        TimeSignal(tg, _f_on(spec, tg.nodes)), spec.T,
        phi_x=xpos, phi_fn=spec.phi_fn, f_fn=spec.f_fn,
    )
    return spec_r, replace(cfg, sgrid=sgrid, max_halvings=0)


def crank_nicolson(spec: ProblemSpec, cfg: FDConfig) -> SolutionField:
    """Theta=1/2 time stepping of i u_t = -u_xx - lam |u|^(alpha-1) u.

    Dirichlet u(0,t)=f(t) strongly imposed, u(x_max,t)=0. The nonlinearity
    is resolved per step by fixed-point sweeps, each one tridiagonal solve,
    until the step falls below _STEP_TOL relative to max |u|; a step that
    has not converged after _MAX_SWEEPS sweeps aborts with its index.
    """
    # imported here, as in compare_fields: a plain solve imports this module
    # through the package and the CLI, and should not pay for scipy.linalg
    # and scipy.interpolate
    from scipy.linalg import solve_banded

    grid = HalfLineGrid(cfg.x_max, cfg.nx)
    x = grid.nodes
    h = grid.dx
    nt = cfg.nt
    dt = spec.T / nt
    tgrid = TimeGrid(spec.T, nt)
    lam = spec.lam
    am1 = spec.alpha - 1.0

    u = _phi_on(spec, x)
    fvals = _f_on(spec, tgrid.nodes)
    u[0] = fvals[0]
    u[-1] = 0.0

    nxp = cfg.nx + 1
    r = 0.5j * dt / (h * h)

    # complex tridiagonal A = I - (i dt/2) Lap, Dirichlet rows = identity
    ab = np.zeros((3, nxp), dtype=complex)
    ab[0, 2:] = -r          # superdiag for interior rows
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-2] = -r         # subdiag
    ab[1, 0] = ab[1, -1] = 1.0
    ab[0, 1] = 0.0
    ab[2, -2] = 0.0

    def lap(v):
        out = np.zeros_like(v)
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
        return out

    def nonlin(v):
        return v * np.abs(v) ** am1

    out = np.empty((nt + 1, nxp), dtype=complex)
    out[0] = u

    for n in range(nt):
        c = u + 0.5j * dt * lap(u) + 0.5j * dt * lam * nonlin(u)
        c[0] = fvals[n + 1]
        c[-1] = 0.0

        v = u.copy()
        v[0] = fvals[n + 1]
        v[-1] = 0.0
        for _ in range(_MAX_SWEEPS):
            rhs = c + 0.5j * dt * lam * nonlin(v)
            rhs[0] = fvals[n + 1]
            rhs[-1] = 0.0
            v_new = solve_banded((1, 1), ab, rhs)
            step = np.max(np.abs(v_new - v))
            v = v_new
            if step <= _STEP_TOL * max(1.0, np.max(np.abs(v))):
                break
        else:
            raise RuntimeError(
                f"crank_nicolson: inner iteration diverged at step {n}"
            )
        u = v
        out[n + 1] = u

    field = SolutionField(grid, tgrid, out)
    edge = np.max(np.abs(out[:, -2]))
    scale = np.max(np.abs(out))
    if scale > 0.0 and edge > 1e-6 * scale:
        warnings.warn(
            f"crank_nicolson: amplitude {edge / scale:.2e} of max reached the "
            "right boundary; enlarge x_max",
            stacklevel=2,
        )
        field.meta["edge_warning"] = True
    return field


@dataclass
class CompareReport:
    rel_l2: float
    sup: float
    per_slice: np.ndarray


def _positive_window(field: SolutionField):
    x = np.asarray(field.sgrid.nodes, dtype=float)
    keep = x > 0.0
    return x[keep], field.values[:, keep]


def compare_fields(a: SolutionField, b: SolutionField) -> CompareReport:
    """Relative L2(x>0, t), sup, and per-slice differences of two fields.

    Both fields are evaluated on a canonical common grid: the x>0 and
    [0, min t_max] window of whichever input has fewer samples there
    (deterministic tie-break), with linear interpolation for the other.
    The scalar metrics are symmetric under argument swap, bit for bit.
    """
    from scipy.interpolate import RegularGridInterpolator

    xa, va = _positive_window(a)
    xb, vb = _positive_window(b)
    ta = a.tgrid.nodes
    tb = b.tgrid.nodes
    t_hi = min(ta[-1], tb[-1])
    x_hi = min(xa[-1], xb[-1])
    x_lo = max(xa[0], xb[0])
    if x_lo > x_hi or t_hi <= 0.0:
        raise ValueError("compare_fields: domains do not overlap")

    def window(x, t, v):
        kx = (x >= x_lo) & (x <= x_hi)
        kt = t <= t_hi + 1e-12 * max(t_hi, 1.0)
        return x[kx], t[kt], v[np.ix_(kt, kx)]

    xa_w, ta_w, va_w = window(xa, ta, va)
    xb_w, tb_w, vb_w = window(xb, tb, vb)

    size_a = len(xa_w) * len(ta_w)
    size_b = len(xb_w) * len(tb_w)
    key_a = (size_a, len(ta_w), float(ta_w[-1]), float(xa_w[0]))
    key_b = (size_b, len(tb_w), float(tb_w[-1]), float(xb_w[0]))
    if key_a <= key_b:
        xs, ts = xa_w, ta_w
        ref_vals = va_w
        other = (tb, xb, vb)
    else:
        xs, ts = xb_w, tb_w
        ref_vals = vb_w
        other = (ta, xa, va)

    to, xo, vo = other
    interp = RegularGridInterpolator(
        (to, xo), vo, method="linear", bounds_error=False, fill_value=None
    )
    TT, XX = np.meshgrid(ts, xs, indexing="ij")
    pts = np.stack([TT.ravel(), XX.ravel()], axis=1)
    ov = interp(pts).reshape(len(ts), len(xs))

    diff = ref_vals - ov
    denom = math.sqrt(float(np.sum(np.abs(ref_vals) ** 2 + np.abs(ov) ** 2) / 2.0))
    num = math.sqrt(float(np.sum(np.abs(diff) ** 2)))
    rel = num / denom if denom > 0.0 else 0.0
    per_slice = np.sqrt(np.sum(np.abs(diff) ** 2, axis=1))
    return CompareReport(
        rel_l2=rel,
        sup=float(np.max(np.abs(diff))),
        per_slice=per_slice,
    )


def mass_flux_balance(field: SolutionField) -> dict:
    """Discrete mass vs boundary-flux balance on x > 0.

    Checks d/dt int_0^inf |u|^2 dx = 2 Im(conj(u) u_x)(0, t): mass by
    trapezoid over the x >= 0 nodes, flux from a one-sided second-order
    derivative at the node nearest zero. Returns the absolute integrated
    imbalance and its value relative to the peak mass.
    """
    x = np.asarray(field.sgrid.nodes, dtype=float)
    j0 = field.sgrid.index_nearest_zero()
    xs = x[j0:]
    vals = field.values[:, j0:]
    dt = field.tgrid.dt
    dx = xs[1] - xs[0]

    mass = np.trapezoid(np.abs(vals) ** 2, dx=dx, axis=1)
    dmass = _gradient(mass, dt)
    du0 = (-3.0 * vals[:, 0] + 4.0 * vals[:, 1] - vals[:, 2]) / (2.0 * dx)
    flux = 2.0 * np.imag(np.conj(vals[:, 0]) * du0)
    imbalance = float(np.trapezoid(np.abs(dmass - flux), dx=dt))
    peak = float(np.max(mass))
    return {
        "imbalance": imbalance,
        "rel": imbalance / peak if peak > 0.0 else 0.0,
        "mass": mass,
        "flux": flux,
    }


def convergence_study(spec: ProblemSpec, cfg: SolverConfig, levels: int = 3) -> dict:
    """Dyadic refinement study of the integral-equation solve.

    Level 0 is solve_ibvp(spec, cfg) itself; each finer level doubles its nx
    and nt on the interval level 0 achieved, with halving off. Each level
    but the finest is measured against the finest (compare_fields' rel_l2);
    observed orders are log2 ratios. Non-monotone error sequences are
    flagged and no orders are reported; an identically zero finest field is
    flagged likewise.
    """
    if levels < 3:
        raise ValueError("levels >= 3 required")
    base = cfg.sgrid
    u_k, rep = solve_ibvp(spec, cfg)
    spec = replace(spec, T=rep.t_achieved)
    m0 = u_k.tgrid.m
    fields = []
    rows = []
    for k in range(levels):
        if k:
            sg = SpatialGrid(base.x_min, base.x_max, base.n * 2**k)
            u_k, _ = solve_ibvp(*refined_problem(spec, cfg, sg, m0 * 2**k))
        fields.append(u_k)
        rows.append({"nx": u_k.sgrid.n, "nt": u_k.tgrid.m})
        log.info("convergence level %d: %dx%d", k, u_k.sgrid.n, u_k.tgrid.m)

    errors = [compare_fields(u_k, fields[-1]).rel_l2 for u_k in fields[:-1]]

    table = []
    flagged = False
    reason = ""
    if all(e == 0.0 for e in errors):
        flagged = True
        reason = "zero field; orders undefined"
    elif any(
        e2 >= e1 for e1, e2 in zip(errors[:-1], errors[1:])
    ):
        flagged = True
        reason = "non-monotone errors; no order reported"
    orders = []
    if not flagged:
        orders = [
            math.log2(e1 / e2)
            for e1, e2 in zip(errors[:-1], errors[1:])
        ]
    for k, row in enumerate(rows):
        entry = dict(row)
        entry["error"] = errors[k] if k < len(errors) else None
        entry["order"] = (
            orders[k - 1] if 1 <= k <= len(orders) else None
        )
        table.append(entry)
    return {"table": table, "flagged": flagged, "reason": reason, "orders": orders}
