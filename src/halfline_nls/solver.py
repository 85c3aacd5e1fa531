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

import cmath
import logging
import math
from dataclasses import asdict, dataclass, field as dc_field, replace
from fractions import Fraction

import numpy as np

from .grids import (
    GridFunction, SolutionField, SpatialGrid, TimeGrid, TimeSignal, interp_complex,
)
from .operators import boundary_forcing_time, duhamel_field, free_group_field
from .spectral import _plancherel_norm, boundary_value, extend_half_line, smooth_ramp

log = logging.getLogger(__name__)

_CRIT_NOISE = 1e-12
_COMPAT_TOL = 1e-8  # relative, for phi(0) = f(0) when s > 1/2


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
        if not 2.0 <= self.alpha < math.inf:
            raise ValueError("2 <= alpha < inf required")
        if not (0.0 <= self.s < 1.5):
            raise ValueError("0 <= s < 3/2 required")
        if self.s == 0.5:
            raise ValueError("s = 1/2 is excluded")
        if not 0.0 < self.T < math.inf:
            raise ValueError("0 < T < inf required")
        if not cmath.isfinite(self.lam):
            raise ValueError("lam must be finite")
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
    seam_mismatch_cap: float = 1e-3

    def __post_init__(self):
        for name in ("tol", "ratio_cap", "delta_crit"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.seam_mismatch_cap < math.inf:
            raise ValueError("seam_mismatch_cap must be finite and >= 0")
        if self.max_iter < 1 or self.max_halvings < 0:
            raise ValueError("max_iter >= 1 and max_halvings >= 0 required")


@dataclass(frozen=True)
class AdmissiblePair:
    q: float
    r: float


@dataclass
class IterationReport:
    """Record of a solve, as report.json holds it.

    iterates counts the last Picard attempt's map applications, one per
    iterate. residual_history holds each nonzero update's C_t H^s_x norm,
    contraction_ratios the ratios of successive ones. fixed_point_residual is
    the last update's norm over the last iterate's, the quotient the loop
    stops on: <= tol when converged, 0 when the map returns its input (lam=0).
    """

    iterates: int = 0
    residual_history: list = dc_field(default_factory=list)
    contraction_ratios: list = dc_field(default_factory=list)
    fixed_point_residual: float = 0.0
    halvings: int = 0
    t_achieved: float = 0.0
    t_requested: float = 0.0
    criticality: str = "subcritical"
    linear_mixed_norm: float | None = None
    converged: bool = False

    def as_dict(self):
        return asdict(self)


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


def compatibility_check(phi, f: TimeSignal, s: float, grid=None,
                        tol=_COMPAT_TOL) -> bool:
    """Boundary compatibility phi(0) = f(0), demanded only for s > 1/2."""
    if s <= 0.5:
        return True
    phi = np.asarray(phi, dtype=complex)
    phi0 = boundary_value(phi, grid) if grid is not None else complex(phi[0])
    f0 = complex(f.values[0])
    return abs(phi0 - f0) <= tol * max(1.0, abs(phi0), abs(f0))


def mixed_norm(field: SolutionField, s: float, q: float, r: float) -> float:
    """Discrete L^q_t W^{s,r}_x norm (a sup norm in t for q = inf; r is finite).

    The Bessel smoothing J^s is followed by an L^r norm in x; with r != 2
    (s < 1/2) that is not the H^s norm, so sobolev_norm cannot stand in.
    """
    sgrid, tgrid = field.sgrid, field.tgrid
    xi = sgrid.frequencies
    bessel = (1.0 + xi * xi) ** (s / 2.0)
    smoothed = np.fft.ifft(bessel * np.fft.fft(field.values, axis=1), axis=1)
    a = np.abs(smoothed)
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
    power = np.abs(w.values)
    power **= pre.alpha - 1.0
    DF = duhamel_field(SolutionField(pre.sgrid, pre.tgrid, w.values * power))
    del power
    trace = DF.values[:, pre.zero_index].copy()
    if abs(trace[0]) > 1e-12 * max(np.max(np.abs(trace)), 1e-300):
        raise AssertionError("duhamel trace must vanish at t=0 by construction")
    trace[0] = 0.0
    # linear + lam * (corr - DF), built in the forcing result's own buffer
    vals = boundary_forcing_time(TimeSignal(pre.tgrid, trace), pre.sgrid).values
    vals -= DF.values
    del DF
    vals *= pre.lam
    vals += pre.linear.values
    return SolutionField(pre.sgrid, pre.tgrid, vals)


def _picard_loop(pre: LinearData, s: float, cfg: SolverConfig,
                 report: IterationReport):
    """Iterate from the linear part; returns (field, converged).

    Writes this attempt's iterates, residual_history, contraction_ratios and
    fixed_point_residual into report (see IterationReport). One map
    application per iterate: the last update is the fixed-point residual.
    """
    u = pre.linear
    # the iterate's spectrum in x: by linearity fft(u_next - u) is
    # fft(u_next) - fft(u), so each iteration transforms only u_next
    uhat = np.fft.fft(u.values, axis=1)
    report.iterates = 0
    report.residual_history = residuals = []
    report.contraction_ratios = ratios = []
    for _ in range(cfg.max_iter):
        u = apply_lambda(u, pre)
        report.iterates += 1
        uhat_next = np.fft.fft(u.values, axis=1)
        # C_t H^s_x norms: the max over time slices of the H^s norm in x
        norm_u = max(float(np.max(_plancherel_norm(uhat_next, pre.sgrid, s))), 1e-300)
        np.subtract(uhat_next, uhat, out=uhat)
        delta = float(np.max(_plancherel_norm(uhat, pre.sgrid, s)))
        uhat = uhat_next
        if delta > 0.0:
            if residuals:
                ratios.append(delta / residuals[-1])
            residuals.append(delta)
        report.fixed_point_residual = delta / norm_u
        if delta <= cfg.tol * norm_u:
            return u, True
        if ratios and ratios[-1] > cfg.ratio_cap:
            log.debug("contraction ratio %.3f exceeds cap", ratios[-1])
            return u, False
    return u, False


def _solve_from_slice(phi_ext: GridFunction, spec: ProblemSpec, t0: float,
                      T: float, m: int, cfg: SolverConfig):
    """The one driver: whole-line slice at t0 -> field on [t0, t0 + T].

    Rejects a supercritical (s, alpha) with SupercriticalError. Each attempt
    reads its boundary data f(t0 + .) from spec.f on its own m-step grid
    (exact on shared nodes) and halves the interval when the critical gate
    refuses its linear part or the map stops contracting; report.halvings
    counts the halvings made before the last attempt. Its times are
    absolute: t_requested is t0 + T, t_achieved the end of the last interval
    iterated on (t0 if none was). Raises BlowupSuspected, naming the last refusal's reason,
    when no attempt converges.
    """
    crit = criticality(spec.s, spec.alpha)
    if crit == "supercritical":
        thr = (5 - 2 * spec.s) / (1 - 2 * spec.s)
        raise SupercriticalError(
            f"alpha = {spec.alpha} is supercritical for s = {spec.s} "
            f"(admissible range 2 <= alpha <= {thr:g})"
        )
    report = IterationReport(t_requested=t0 + T, t_achieved=t0, criticality=crit)
    pair = admissible_pair(spec.s, spec.alpha)
    for halving in range(cfg.max_halvings + 1):
        # a failed attempt's iterate and linear part are whole fields: free
        # them before the next attempt builds its own
        u = pre = None
        report.halvings = halving
        tgrid = TimeGrid(T, m)
        f = TimeSignal(tgrid, interp_complex(t0 + tgrid.nodes, spec.f.grid.nodes,
                                             spec.f.values))
        pre = _prepare_linear(phi_ext, f, spec.lam, spec.alpha, cfg.seam_mismatch_cap)
        report.linear_mixed_norm = mixed_norm(pre.linear, spec.s, pair.q, pair.r)
        if crit == "critical" and report.linear_mixed_norm >= cfg.delta_crit:
            reason = (f"linear mixed norm {report.linear_mixed_norm:.3e} "
                      f">= delta_crit {cfg.delta_crit:g}")
        else:
            u, converged = _picard_loop(pre, spec.s, cfg, report)
            report.t_achieved = t0 + T
            if converged:
                report.converged = True
                return u, report
            reason = "no contraction"
        log.info("%s on [%.3g, %.3g]; halving", reason, t0, t0 + T)
        T *= 0.5
    raise BlowupSuspected(
        f"{reason} after {cfg.max_halvings} halvings "
        f"(last interval [{t0:.3g}, {t0 + 2 * T:.3g}])",
        report,
    )


def solve_ibvp(spec: ProblemSpec, cfg: SolverConfig):
    """Solve the IBVP; returns (SolutionField, IterationReport)."""
    if spec.s > 0.5 and not compatibility_check(spec.phi, spec.f, spec.s, grid=cfg.sgrid):
        raise CompatibilityError("phi(0) != f(0) while s > 1/2 demands it")
    x = cfg.sgrid.nodes
    n_nonneg = int(np.sum(x >= 0.0))
    if len(spec.phi) != n_nonneg:
        raise ValueError(
            f"phi must be sampled on the {n_nonneg} grid nodes with x >= 0"
        )
    m_work = max(8, round(spec.T / spec.f.grid.dt))
    phi_ext = extend_half_line(spec.phi, cfg.sgrid)
    return _solve_from_slice(phi_ext, spec, 0.0, spec.T, m_work, cfg)


def continue_solution(
    u: SolutionField, spec: ProblemSpec, T: float, delta: float, cfg: SolverConfig
) -> SolutionField:
    """Extend a solved field from [0, T] to [0, T + delta].

    Restarts the integral equation from u(., T) (already a whole-line
    function, no re-extension) with boundary data f(T + .), through the same
    driver as solve_ibvp, so it raises what a solve raises. delta is rounded
    to a whole number m2 of parent time steps.

    Returns u on [0, T] (the seam slice shared bit-exact) joined to the
    restart on the parent's time step, with meta 'seam_index' and
    'restart_report' (the restart's report, in absolute time). The restart
    may halve only while its tail keeps one whole parent step (2**h <= m2):
    after h halvings every 2**h-th tail slice is kept, so the result ends
    after T and at most at T + m2 * dt. A restart that contracts on no such
    interval raises BlowupSuspected.
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
    floor = replace(cfg, max_halvings=min(cfg.max_halvings, m2.bit_length() - 1))
    tail, tail_report = _solve_from_slice(u.slice_at(u.tgrid.m), spec, T,
                                          delta_eff, m2, floor)
    # each halving kept m2 steps and halved dt: back onto the parent's nodes
    step = 2**tail_report.halvings
    rows = tail.values[step::step]
    joined = TimeGrid(T + len(rows) * dt, u.tgrid.m + len(rows))
    out = SolutionField(u.sgrid, joined, np.vstack([u.values, rows]), dict(u.meta))
    out.meta["seam_index"] = u.tgrid.m
    out.meta["restart_report"] = tail_report.as_dict()
    return out
