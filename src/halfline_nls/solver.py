"""Fixed-point construction of the half-line IBVP solution.

The problem

    i u_t + u_xx + lam * u |u|^(alpha-1) = 0   on (0,inf) x (0,T)
    u(x,0) = phi(x),   u(0,t) = f(t)

is solved through its integral-equation form: with phi_ext a whole-line
extension of phi and g = f - (free evolution of phi_ext at x=0),

    u = [free evolution] + [boundary forcing of g]
        - lam * [duhamel of u|u|^(alpha-1)]
        + lam * [boundary forcing of the duhamel trace at x=0],

iterated from the linear part until the update is small in the discrete
C_t H^s_x norm. If successive updates stop contracting, the working time
interval is halved (the construction is a contraction only for T small
enough depending on the data), and repeated failure is reported as suspected
blow-up rather than an answer.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .grids import GridFunction, SolutionField, SpatialGrid, TimeGrid, TimeSignal
from .operators import boundary_forcing_time, duhamel_field, free_group_field
from .spectral import boundary_value, extend_half_line, smooth_ramp

log = logging.getLogger(__name__)

_CRIT_NOISE = 1e-12


class SupercriticalError(ValueError):
    """The exponent pair (s, alpha) is outside the solvable range."""


class CompatibilityError(ValueError):
    """phi(0) != f(0) where the regularity demands it."""


class BlowupSuspected(RuntimeError):
    """No contraction after the allowed number of interval halvings."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass
class ProblemSpec:
    lam: complex
    alpha: float
    s: float
    phi: np.ndarray  # samples on the x>=0 nodes of the solve grid
    f: TimeSignal
    T: float
    # optional resampling sources, used by the finite-difference oracle and
    # by convergence studies (samples alone cannot be refined)
    phi_x: np.ndarray | None = None
    phi_fn: object = None
    f_fn: object = None

    def __post_init__(self):
        if self.alpha < 2.0:
            raise ValueError("alpha >= 2 required")
        if not (0.0 <= self.s < 1.5):
            raise ValueError("0 <= s < 3/2 required")
        if self.s == 0.5:
            raise ValueError("s = 1/2 is excluded")
        if self.T <= 0.0:
            raise ValueError("T > 0 required")
        if self.f.grid.t_max < self.T * (1.0 - 1e-12):
            raise ValueError("boundary data does not cover [0, T]")
        self.phi = np.asarray(self.phi, dtype=complex)
        self.lam = complex(self.lam)


@dataclass
class SolverConfig:
    sgrid: SpatialGrid
    tol: float = 1e-8
    max_iter: int = 25
    ratio_cap: float = 0.9
    delta_crit: float = 0.1
    max_halvings: int = 8
    compat_tol: float = 1e-8
    seam_mismatch_cap: float = 1e-3


@dataclass(frozen=True)
class AdmissiblePair:
    q: float
    r: float


@dataclass
class IterationReport:
    iterates: int = 0
    residual_history: list = dc_field(default_factory=list)
    contraction_ratios: list = dc_field(default_factory=list)
    fixed_point_residual: float = 0.0
    halvings: int = 0
    t_achieved: float = 0.0
    criticality: str = "subcritical"
    linear_mixed_norm: float | None = None
    converged: bool = False

    def as_dict(self):
        return {
            "iterates": self.iterates,
            "residual_history": list(self.residual_history),
            "contraction_ratios": list(self.contraction_ratios),
            "fixed_point_residual": self.fixed_point_residual,
            "halvings": self.halvings,
            "t_achieved": self.t_achieved,
            "criticality": self.criticality,
            "linear_mixed_norm": self.linear_mixed_norm,
            "converged": self.converged,
        }


def admissible_pair(s: float, alpha: float) -> AdmissiblePair:
    """Strichartz exponents (q, r) for regularity s and power alpha.

    For s >= 1/2 the high-regularity branch (q, r) = (inf, 2) applies. The
    admissibility identity 1/q + 1/(2r) = 1/4 is verified in exact rational
    arithmetic.
    """
    if s >= 0.5:
        return AdmissiblePair(q=math.inf, r=2.0)
    if not 0.0 <= s < 0.5:
        raise ValueError("0 <= s required")
    if alpha <= 1.0:
        raise ValueError("alpha > 1 required")
    sF = Fraction(s)
    aF = Fraction(alpha)
    rF = (aF + 1) / (1 + (aF - 1) * sF)
    qF = 4 * (aF + 1) / ((aF - 1) * (1 - 2 * sF))
    if Fraction(1, 1) / qF + Fraction(1, 2) / rF != Fraction(1, 4):
        raise AssertionError("admissibility identity violated")
    if rF < 2 or qF < 2:
        raise AssertionError("exponents below 2")
    return AdmissiblePair(q=float(qF), r=float(rF))


def criticality(s: float, alpha: float) -> str:
    """Classify (s, alpha) as subcritical, critical, or supercritical."""
    if not (0.0 <= s < 1.5) or s == 0.5:
        raise ValueError("0 <= s < 3/2, s != 1/2 required")
    if s > 0.5:
        return "subcritical"
    threshold = (5 - 2 * Fraction(s)) / (1 - 2 * Fraction(s))
    aF = Fraction(alpha)
    if aF == threshold or abs(alpha - float(threshold)) <= _CRIT_NOISE * float(threshold):
        return "critical"
    return "subcritical" if aF < threshold else "supercritical"


def nonlinearity(u: SolutionField, lam: complex, alpha: float) -> SolutionField:
    """Pointwise lam * u * |u|^(alpha-1) (zero at u=0 for all alpha >= 1)."""
    if alpha < 1.0:
        raise ValueError("alpha >= 1 required")
    v = u.values
    vals = lam * v * np.abs(v) ** (alpha - 1.0)
    return SolutionField(u.sgrid, u.tgrid, vals)


def compatibility_check(phi, f: TimeSignal, s: float, grid=None, tol=1e-8) -> bool:
    """Boundary compatibility phi(0) = f(0), demanded only for s > 1/2."""
    if s <= 0.5:
        return True
    phi = np.asarray(phi, dtype=complex)
    phi0 = boundary_value(phi, grid) if grid is not None else complex(phi[0])
    f0 = complex(f.values[0])
    return abs(phi0 - f0) <= tol * max(1.0, abs(phi0), abs(f0))


def _ct_hs_norm(values, sgrid: SpatialGrid, s: float) -> float:
    """max over time slices of the inhomogeneous H^s norm in x."""
    xi = sgrid.frequencies
    w2 = (1.0 + xi * xi) ** s
    F = np.fft.fft(values, axis=-1)
    dxi = 2.0 * np.pi / (sgrid.n * sgrid.dx)
    per_slice = dxi / (2.0 * np.pi) * sgrid.dx**2 * np.sum(
        w2 * np.abs(F) ** 2, axis=-1
    )
    return float(np.sqrt(np.max(per_slice)))


def mixed_norm(field: SolutionField, s: float, q: float, r: float) -> float:
    """Discrete L^q_t W^{s,r}_x norm (sup norms for infinite exponents)."""
    sgrid, tgrid = field.sgrid, field.tgrid
    xi = sgrid.frequencies
    bessel = (1.0 + xi * xi) ** (s / 2.0)
    smoothed = np.fft.ifft(bessel * np.fft.fft(field.values, axis=1), axis=1)
    a = np.abs(smoothed)
    if math.isinf(r):
        slice_norms = np.max(a, axis=1)
    else:
        slice_norms = (sgrid.dx * np.sum(a**r, axis=1)) ** (1.0 / r)
    if math.isinf(q):
        return float(np.max(slice_norms))
    return float((tgrid.dt * np.sum(slice_norms**q)) ** (1.0 / q))


@dataclass
class LinearData:
    """Precomputed w-independent pieces of the fixed-point map."""

    linear: SolutionField
    sgrid: SpatialGrid
    tgrid: TimeGrid
    lam: complex
    alpha: float
    zero_index: int


def _prepare_linear(phi_ext: GridFunction, f: TimeSignal, lam, alpha,
                    seam_mismatch_cap: float) -> LinearData:
    """Free part + boundary correction; the two w-independent terms.

    The forcing input g = f - (free trace) must vanish at t=0. An exact-zero
    mismatch cannot be expected from a restarted (continuation) solve, where
    g(0) inherits the parent solve's trace error; a mismatch below
    seam_mismatch_cap (relative) is removed by subtracting the constant times
    a smooth decaying profile, a data perturbation of the same size as the
    numerical uncertainty already present.
    """
    sgrid = phi_ext.grid
    tgrid = f.grid
    ufree = free_group_field(phi_ext, tgrid)
    j0 = sgrid.index_nearest_zero()
    g = f.values - ufree.values[:, j0]
    # incompatibility is judged against the data scale: a correction that is
    # negligible relative to the solution must never be rejected however
    # lopsided its own profile is. The subtraction itself keys off g's own
    # scale, which is what the forcing operator's vanishing check sees.
    scale = max(
        np.max(np.abs(g)),
        np.max(np.abs(phi_ext.values)),
        np.max(np.abs(f.values)),
        1e-300,
    )
    own = max(np.max(np.abs(g)), 1e-300)
    mism = g[0]
    if abs(mism) > seam_mismatch_cap * scale:
        raise CompatibilityError(
            "boundary correction does not vanish at t=0 "
            f"(|g(0)|/scale = {abs(mism) / scale:.2e}); "
            "data incompatible at the corner"
        )
    if abs(mism) > 1e-9 * own:
        profile = 1.0 - smooth_ramp(4.0 * tgrid.nodes / tgrid.t_max)
        g = g - mism * profile
        log.debug("seam mismatch %.2e removed", abs(mism) / scale)
    gsig = TimeSignal(tgrid, g)
    forcing = boundary_forcing_time(gsig, sgrid)
    linear = SolutionField(sgrid, tgrid, ufree.values + forcing.values)
    return LinearData(linear, sgrid, tgrid, complex(lam), float(alpha), j0)


def apply_lambda(w: SolutionField, pre: LinearData) -> SolutionField:
    """One application of the fixed-point map to the iterate w.

    The cutoffs multiplying each term are identically 1 on the working
    interval [0, T] and are therefore not materialized.
    """
    if pre.lam == 0.0:
        return SolutionField(pre.sgrid, pre.tgrid, pre.linear.values.copy())
    F = SolutionField(
        pre.sgrid, pre.tgrid, w.values * np.abs(w.values) ** (pre.alpha - 1.0)
    )
    DF = duhamel_field(F)
    trace = DF.values[:, pre.zero_index].copy()
    if abs(trace[0]) > 1e-12 * max(np.max(np.abs(trace)), 1e-300):
        raise AssertionError("duhamel trace must vanish at t=0 by construction")
    trace[0] = 0.0
    corr = boundary_forcing_time(TimeSignal(pre.tgrid, trace), pre.sgrid)
    vals = pre.linear.values + pre.lam * (corr.values - DF.values)
    return SolutionField(pre.sgrid, pre.tgrid, vals)


def _picard_loop(pre: LinearData, s: float, cfg: SolverConfig):
    """Iterate from the linear part; returns (field, converged, counts, history)."""
    u = pre.linear
    residuals = []
    ratios = []
    n_apps = 0
    for _ in range(cfg.max_iter):
        u_next = apply_lambda(u, pre)
        n_apps += 1
        delta = _ct_hs_norm(u_next.values - u.values, pre.sgrid, s)
        norm_u = _ct_hs_norm(u_next.values, pre.sgrid, s)
        if delta > 0.0:
            if residuals:
                ratios.append(delta / residuals[-1])
            residuals.append(delta)
        u = u_next
        if delta <= cfg.tol * max(norm_u, 1e-300):
            return u, True, n_apps, residuals, ratios
        if ratios and ratios[-1] > cfg.ratio_cap:
            log.debug("contraction ratio %.3f exceeds cap", ratios[-1])
            return u, False, n_apps, residuals, ratios
    return u, False, n_apps, residuals, ratios


def _resample_signal(f: TimeSignal, tgrid: TimeGrid) -> TimeSignal:
    """f restricted/interpolated onto tgrid's nodes (exact where they align)."""
    if f.grid == tgrid:
        return f.copy()
    told = f.grid.nodes
    tnew = tgrid.nodes
    if tnew[-1] > told[-1] * (1.0 + 1e-12):
        raise ValueError("signal does not cover the requested interval")
    vals = np.interp(tnew, told, f.values.real) + 1j * np.interp(
        tnew, told, f.values.imag
    )
    return TimeSignal(tgrid, vals)


def _solve_from_slice(
    phi_ext: GridFunction,
    f: TimeSignal,
    lam,
    alpha,
    s: float,
    cfg: SolverConfig,
    crit: str,
):
    """Shared driver: whole-line initial slice + boundary data -> field.

    Handles the interval halving loop; raises BlowupSuspected when the map
    refuses to contract on every tried interval.
    """
    report = IterationReport(criticality=crit)
    T_work = f.grid.t_max
    m = f.grid.m
    pair = admissible_pair(s, alpha)
    f_work = f
    for halving in range(cfg.max_halvings + 1):
        tgrid = TimeGrid(T_work, m)
        f_work = _resample_signal(f, tgrid)
        pre = _prepare_linear(phi_ext, f_work, lam, alpha, cfg.seam_mismatch_cap)
        report.linear_mixed_norm = mixed_norm(pre.linear, s, pair.q, pair.r)
        if crit == "critical" and report.linear_mixed_norm >= cfg.delta_crit:
            log.info(
                "critical case: linear mixed norm %.3e >= %.3e, halving T",
                report.linear_mixed_norm,
                cfg.delta_crit,
            )
            report.halvings = halving + 1
            T_work *= 0.5
            continue
        u, converged, n_apps, residuals, ratios = _picard_loop(pre, s, cfg)
        report.iterates = n_apps
        report.residual_history = residuals
        report.contraction_ratios = ratios
        report.t_achieved = T_work
        if converged:
            u_fix = apply_lambda(u, pre)
            norm_u = _ct_hs_norm(u.values, pre.sgrid, s)
            report.fixed_point_residual = _ct_hs_norm(
                u_fix.values - u.values, pre.sgrid, s
            ) / max(norm_u, 1e-300)
            report.converged = True
            return u, report
        report.halvings = halving + 1
        T_work *= 0.5
        log.info("no contraction on [0, %.3g]; halving", 2 * T_work)
    raise BlowupSuspected(
        f"no contraction after {cfg.max_halvings} halvings "
        f"(last interval [0, {2 * T_work:.3g}])",
        report,
    )


def solve_ibvp(spec: ProblemSpec, cfg: SolverConfig):
    """Solve the IBVP; returns (SolutionField, IterationReport)."""
    crit = criticality(spec.s, spec.alpha)
    if crit == "supercritical":
        thr = (5 - 2 * spec.s) / (1 - 2 * spec.s)
        raise SupercriticalError(
            f"alpha = {spec.alpha} is supercritical for s = {spec.s} "
            f"(admissible range 2 <= alpha <= {thr:g})"
        )
    if spec.s > 0.5 and not compatibility_check(
        spec.phi, spec.f, spec.s, grid=cfg.sgrid, tol=cfg.compat_tol
    ):
        raise CompatibilityError("phi(0) != f(0) while s > 1/2 demands it")
    x = cfg.sgrid.nodes
    n_nonneg = int(np.sum(x >= 0.0))
    if len(spec.phi) != n_nonneg:
        raise ValueError(
            f"phi must be sampled on the {n_nonneg} grid nodes with x >= 0"
        )
    m_work = max(8, round(spec.T / spec.f.grid.dt))
    tgrid = TimeGrid(spec.T, m_work)
    f_work = _resample_signal(spec.f, tgrid)

    phi_scale = np.max(np.abs(spec.phi)) if len(spec.phi) else 0.0
    if phi_scale == 0.0 and np.max(np.abs(f_work.values)) == 0.0:
        field = SolutionField(
            cfg.sgrid,
            tgrid,
            np.zeros((tgrid.m + 1, cfg.sgrid.n), dtype=complex),
        )
        report = IterationReport(
            t_achieved=spec.T, criticality=crit, converged=True
        )
        return field, report

    phi_ext = extend_half_line(spec.phi, cfg.sgrid, spec.s)
    return _solve_from_slice(
        phi_ext, f_work, spec.lam, spec.alpha, spec.s, cfg, crit
    )


def continue_solution(
    u: SolutionField, spec: ProblemSpec, T: float, delta: float, cfg: SolverConfig
) -> SolutionField:
    """Extend a solved field from [0, T] to [0, T + delta].

    Restarts the integral equation with initial slice u(., T) (already a
    whole-line function, no re-extension) and boundary data f(T + .). The
    seam slice is shared bit-exact. delta is rounded to a whole number of
    parent time steps to keep the concatenated grid uniform. A restart that
    contracts only after halving its interval is joined on the parent's time
    step: every (parent dt / tail dt)-th tail slice, whole parent steps only.
    When not one whole parent step remains, the [0, T] portion is returned
    with meta['restart_shorter_than_step'] set. On a restart that fails to
    contract, the [0, T] portion is returned with meta['blowup'] set instead
    of raising.
    """
    if delta < 0.0:
        raise ValueError("delta >= 0 required")
    if abs(u.tgrid.t_max - T) > 1e-12 * max(T, 1.0):
        raise ValueError("T must equal the field's final time")
    if delta == 0.0:
        return u
    dt = u.tgrid.dt
    m2 = max(8, int(round(delta / dt)))
    delta_eff = m2 * dt
    if abs(delta_eff - delta) > 1e-12 * max(delta, 1.0):
        log.info("continuation interval rounded to %d steps (%.6g)", m2, delta_eff)
    if spec.f.grid.t_max < T + delta_eff - 1e-12:
        raise ValueError("boundary data does not cover [T, T + delta]")
    crit = criticality(spec.s, spec.alpha)
    psi = u.slice_at(u.tgrid.m)
    tgrid2 = TimeGrid(delta_eff, m2)
    shifted = np.interp(
        T + tgrid2.nodes, spec.f.grid.nodes, spec.f.values.real
    ) + 1j * np.interp(T + tgrid2.nodes, spec.f.grid.nodes, spec.f.values.imag)
    f2 = TimeSignal(tgrid2, shifted)
    try:
        tail, tail_report = _solve_from_slice(
            psi, f2, spec.lam, spec.alpha, spec.s, cfg, crit
        )
    except BlowupSuspected as exc:
        out = SolutionField(u.sgrid, u.tgrid, u.values.copy(), dict(u.meta))
        out.meta["blowup"] = True
        out.meta["restart_report"] = exc.report.as_dict()
        return out
    # a restart that halved contracted only on a shorter interval, with the
    # same m and so a finer dt: keep its slices on the parent's time nodes
    step = round(dt / tail.tgrid.dt)
    m_keep = tail.tgrid.m // step
    if m_keep == 0:
        out = SolutionField(u.sgrid, u.tgrid, u.values.copy(), dict(u.meta))
        out.meta["restart_shorter_than_step"] = True
        out.meta["restart_report"] = tail_report.as_dict()
        return out
    joined = TimeGrid(T + m_keep * dt, u.tgrid.m + m_keep)
    vals = np.vstack([u.values, tail.values[step : m_keep * step + 1 : step]])
    out = SolutionField(u.sgrid, joined, vals, dict(u.meta))
    out.meta["seam_index"] = u.tgrid.m
    out.meta["restart_report"] = tail_report.as_dict()
    return out


def blowup_monitor(u: SolutionField, s: float) -> TimeSignal:
    """Per-slice H^s norm history of the x>0 restriction (re-extended)."""
    if not isinstance(u.sgrid, SpatialGrid):
        raise TypeError("blowup_monitor needs a whole-line field")
    from .spectral import sobolev_norm

    x = u.sgrid.nodes
    nonneg = np.nonzero(x >= 0.0)[0]
    norms = np.empty(u.tgrid.m + 1, dtype=complex)
    for i in range(u.tgrid.m + 1):
        ext = extend_half_line(u.values[i, nonneg], u.sgrid, s)
        norms[i] = sobolev_norm(ext, s, homogeneous=False)
    return TimeSignal(u.tgrid, norms)
