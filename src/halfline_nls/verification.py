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

from .grids import (
    HalfLineGrid, SolutionField, SpatialGrid, TimeGrid, TimeSignal, interp_complex,
)
from .solver import ProblemSpec, SolverConfig, solve_ibvp

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FDConfig:
    nx: int
    nt: int
    x_max: float
    right_bc: str = "dirichlet_zero"
    newton_tol: float = 1e-12
    newton_max: int = 40

    def __post_init__(self):
        if self.nx < 64 or self.nt < 64:
            raise ValueError("nx, nt >= 64 required")
        if self.right_bc != "dirichlet_zero":
            raise ValueError("only dirichlet_zero right boundary supported")


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
    is resolved per step by fixed-point sweeps (at most 5) with a Newton
    fallback on the real/imaginary interleaved banded system; divergence
    aborts with the step index.
    """
    # imported here, as in _newton_step and compare_fields: a plain solve
    # imports this module through the package and the CLI, and should not
    # pay for scipy.linalg and scipy.interpolate
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
        converged = False
        for _ in range(5):
            rhs = c + 0.5j * dt * lam * nonlin(v)
            rhs[0] = fvals[n + 1]
            rhs[-1] = 0.0
            v_new = solve_banded((1, 1), ab, rhs)
            step = np.max(np.abs(v_new - v))
            v = v_new
            if step <= cfg.newton_tol * max(1.0, np.max(np.abs(v))):
                converged = True
                break
        if not converged:
            v = _newton_step(v, c, ab, lam, am1, dt, fvals[n + 1], cfg, n)
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


def _newton_step(v, c, ab, lam, am1, dt, fval, cfg: FDConfig, step_index):
    """Newton iterations on the interleaved real system for one CN step.

    G(v) = A v - (i dt lam / 2) N(v) - c with N(v) = |v|^(alpha-1) v.
    The differential of N is dN = p delta + q conj(delta) with
    p = (alpha+1)/2 |v|^(alpha-1) and q = (alpha-1)/2 v^2 |v|^(alpha-3);
    conjugation makes the system real-linear, solved in interleaved
    [Re v_0, Im v_0, Re v_1, ...] form, bandwidth 3.
    """
    from scipy.linalg import solve_banded

    nxp = len(v)
    coef = 0.5j * dt * lam

    def residual(v):
        Av = np.empty_like(v)
        Av[0] = v[0]
        Av[-1] = v[-1]
        Av[1:-1] = (
            ab[1, 1:-1] * v[1:-1] + ab[0, 2:] * v[2:] + ab[2, :-2] * v[:-2]
        )
        G = Av - coef * v * np.abs(v) ** am1 - c
        G[0] = v[0] - fval
        G[-1] = v[-1]
        return G

    # complex tridiagonal coefficients of A (Dirichlet rows are identity)
    main = ab[1].copy()
    upper = np.zeros(nxp, dtype=complex)  # upper[j] = A[j, j+1]
    lower = np.zeros(nxp, dtype=complex)  # lower[j] = A[j, j-1]
    upper[1:-1] = ab[0, 2:]
    lower[1:-1] = ab[2, :-2]

    for _ in range(cfg.newton_max):
        G = residual(v)
        if np.max(np.abs(G)) <= cfg.newton_tol * max(1.0, np.max(np.abs(v))):
            return v
        absv = np.abs(v)
        # d(N)/dv = p, d(N)/d(conj v) = q; both vanish as v -> 0 for alpha > 1
        p = -coef * 0.5 * (am1 + 2.0) * absv**am1
        safe = np.where(absv > 0.0, absv, 1.0)
        q = -coef * 0.5 * am1 * (v / safe) ** 2 * absv**am1
        p[0] = p[-1] = 0.0
        q[0] = q[-1] = 0.0
        diag = main + p

        # interleaved real system, rows (2j, 2j+1) = (Re, Im) of equation j;
        # a*z contributes [[a.re, -a.im], [a.im, a.re]],
        # b*conj(z) contributes [[b.re, b.im], [b.im, -b.re]];
        # banded storage J[3 + i - j, j] for solve_banded((3, 3), ...)
        J = np.zeros((7, 2 * nxp))
        J[3, 0::2] = diag.real + q.real
        J[3, 1::2] = diag.real - q.real
        J[2, 1::2] = -diag.imag + q.imag
        J[4, 0::2] = diag.imag + q.imag
        a = upper[:-1]  # row j -> column j+1, j = 0..nxp-2
        J[1, 2::2] = a.real
        J[0, 3::2] = -a.imag
        J[2, 2::2] = a.imag
        J[1, 3::2] = a.real
        b = lower[1:]  # row j -> column j-1, j = 1..nxp-1
        J[5, 0:-2:2] = b.real
        J[4, 1:-2:2] = -b.imag
        J[6, 0:-2:2] = b.imag
        J[5, 1:-2:2] = b.real

        rhs = np.empty(2 * nxp)
        rhs[0::2] = -G.real
        rhs[1::2] = -G.imag
        delta = solve_banded((3, 3), J, rhs)
        v = v + delta[0::2] + 1j * delta[1::2]

    raise RuntimeError(
        f"crank_nicolson: inner iteration diverged at step {step_index}"
    )


@dataclass
class CompareReport:
    rel_l2: float
    sup: float
    per_slice: np.ndarray
    t_nodes: np.ndarray


def _positive_window(field: SolutionField):
    x = np.asarray(field.sgrid.nodes, dtype=float)
    keep = x > 0.0
    return x[keep], field.values[:, keep]


def compare_fields(a: SolutionField, b: SolutionField) -> CompareReport:
    """Relative L2(x>0, t), sup, and per-slice differences of two fields.

    Both fields are evaluated on a canonical common grid: the x>0 and
    [0, min t_max] window of whichever input has fewer samples there
    (deterministic tie-break), with linear interpolation for the other.
    The scalar metrics are symmetric under argument swap, bit-exact.
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
    interp_re = RegularGridInterpolator(
        (to, xo), vo.real, method="linear", bounds_error=False, fill_value=None
    )
    interp_im = RegularGridInterpolator(
        (to, xo), vo.imag, method="linear", bounds_error=False, fill_value=None
    )
    TT, XX = np.meshgrid(ts, xs, indexing="ij")
    pts = np.stack([TT.ravel(), XX.ravel()], axis=1)
    ov = (interp_re(pts) + 1j * interp_im(pts)).reshape(len(ts), len(xs))

    diff = ref_vals - ov
    denom = math.sqrt(float(np.sum(np.abs(ref_vals) ** 2 + np.abs(ov) ** 2) / 2.0))
    num = math.sqrt(float(np.sum(np.abs(diff) ** 2)))
    rel = num / denom if denom > 0.0 else 0.0
    per_slice = np.sqrt(np.sum(np.abs(diff) ** 2, axis=1))
    return CompareReport(
        rel_l2=rel,
        sup=float(np.max(np.abs(diff))),
        per_slice=per_slice,
        t_nodes=ts.copy(),
    )


def mass_flux_balance(field: SolutionField) -> dict:
    """Discrete mass vs boundary-flux balance on x > 0.

    Checks d/dt int_0^inf |u|^2 dx = 2 Im(conj(u) u_x)(0, t): mass by
    trapezoid over the x >= 0 nodes, flux from a one-sided second-order
    derivative at the node nearest zero. Returns the absolute integrated
    imbalance and its value relative to the peak mass.
    """
    x = np.asarray(field.sgrid.nodes, dtype=float)
    if isinstance(field.sgrid, SpatialGrid):
        j0 = field.sgrid.index_nearest_zero()
    else:
        j0 = 0
    xs = x[j0:]
    vals = field.values[:, j0:]
    dt = field.tgrid.dt
    dx = xs[1] - xs[0]

    mass = np.trapezoid(np.abs(vals) ** 2, dx=dx, axis=1)
    dmass = np.gradient(mass, dt, edge_order=2)
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


def convergence_study(
    spec: ProblemSpec,
    cfg: SolverConfig,
    levels: int = 3,
    exact=None,
) -> dict:
    """Dyadic refinement study of the integral-equation solve.

    Starting from cfg.sgrid and spec.f's time resolution, each level doubles
    both. Errors are measured against `exact(x, t)` when given, else against
    the finest level; observed orders are log2 ratios. Non-monotone error
    sequences are flagged and no orders are reported; an identically zero
    finest field is flagged likewise.
    """
    if levels < 3:
        raise ValueError("levels >= 3 required")
    base = cfg.sgrid
    m0 = spec.f.grid.m
    fields = []
    rows = []
    for k in range(levels):
        sg = SpatialGrid(base.x_min, base.x_max, base.n * 2**k)
        spec_k, cfg_k = refined_problem(spec, cfg, sg, m0 * 2**k)
        if k == 0:
            # the base level solves the caller's own samples
            spec_k = replace(spec_k, phi=spec.phi)
        u_k, _ = solve_ibvp(spec_k, cfg_k)
        fields.append(u_k)
        rows.append({"nx": sg.n, "nt": spec_k.f.grid.m})
        log.info("convergence level %d: %dx%d", k, sg.n, spec_k.f.grid.m)

    errors = []
    if exact is not None:
        for u_k in fields:
            x = np.asarray(u_k.sgrid.nodes)
            keep = x > 0.0
            TT, XX = np.meshgrid(u_k.tgrid.nodes, x[keep], indexing="ij")
            ref = exact(XX, TT)
            diff = u_k.values[:, keep] - ref
            den = np.sqrt(np.sum(np.abs(ref) ** 2))
            errors.append(
                float(np.sqrt(np.sum(np.abs(diff) ** 2)) / den) if den > 0 else 0.0
            )
    else:
        finest = fields[-1]
        for u_k in fields[:-1]:
            errors.append(compare_fields(u_k, finest).rel_l2)

    table = []
    effective = errors
    flagged = False
    reason = ""
    if all(e == 0.0 for e in effective):
        flagged = True
        reason = "zero field; orders undefined"
    elif any(
        e2 >= e1 for e1, e2 in zip(effective[:-1], effective[1:])
    ):
        flagged = True
        reason = "non-monotone errors; no order reported"
    orders = []
    if not flagged:
        orders = [
            math.log2(e1 / e2)
            for e1, e2 in zip(effective[:-1], effective[1:])
        ]
    for k, row in enumerate(rows):
        entry = dict(row)
        entry["error"] = errors[k] if k < len(errors) else None
        entry["order"] = (
            orders[k - 1] if (not flagged and 1 <= k <= len(orders)) else None
        )
        table.append(entry)
    return {"table": table, "flagged": flagged, "reason": reason, "orders": orders}
