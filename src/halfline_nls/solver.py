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

The map is causal in t up to one step (slice i reads w(0, t_{i+1}), see
apply_lambda) and its contraction is local in t, so the iterates settle
from t = 0 forward. Each attempt therefore iterates on a window: once the
first time slices move by no more than tol (relative) in an update, they are
frozen, and the map recomputes only the slices after them, restarting the
Duhamel recursion from the frozen slices' Duhamel term, which its buffer
keeps (Workspace, apply_lambda, _picard_loop). The fixed point reached is
the full map's to within tol.
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from .fractional import vanishes_at_start
from .grids import (
    GridFunction, SolutionField, SpatialGrid, TimeGrid, TimeSignal, interp_complex,
)
from .operators import (
    boundary_forcing_time, duhamel_field, free_group_field, operator_plan,
)
from .spectral import boundary_value, extend_half_line, smooth_ramp, sobolev_norm

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


def _covers(f: TimeSignal, t_end: float) -> bool:
    """f's grid reaches t_end, short of it by at most 1e-12 relative."""
    return f.grid.t_max >= t_end * (1.0 - 1e-12)


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
        if not _covers(self.f, self.T):
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
    iterate. Each iterate recomputes only the time slices from its first
    active one on; the slices before it have converged and are frozen (see
    _picard_loop). An iterate's residual is the larger of its update's
    C_t H^s_x norm and the last update of any frozen slice, so that it does
    not understate what freezing hid. residual_history holds each nonzero
    residual, contraction_ratios the ratios of successive ones.
    fixed_point_residual is the last residual over the last iterate's norm:
    <= tol when converged, 0 when the map returns its input (lam=0).
    boundary_residual is boundary_residual's, of the field returned (None
    without one).
    attempts holds one entry per attempt, in order: its absolute interval
    [start, end], the reason it was refused (None for the one that
    converged), its iterates, its contraction_ratios and its
    first_active_rows, each iterate's first active slice.
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
    boundary_residual: float | None = None
    attempts: list = dc_field(default_factory=list)

    def as_dict(self):
        return asdict(self)


def admissible_pair(s: float, alpha: float) -> AdmissiblePair:
    """Strichartz exponents (q, r) for regularity s and power alpha.

    For s >= 1/2 the high-regularity branch (q, r) = (inf, 2) applies. Below
    it, r = (alpha+1)/(1+(alpha-1)s) and q = 4(alpha+1)/((alpha-1)(1-2s)),
    which satisfy 1/q + 1/(2r) = 1/4 and q, r >= 2 for every alpha > 1.
    """
    if s >= 0.5:
        return AdmissiblePair(q=math.inf, r=2.0)
    if not 0.0 <= s < 0.5:
        raise ValueError("0 <= s required")
    if not 1.0 < alpha < math.inf:
        raise ValueError("1 < alpha < inf required")
    r = (alpha + 1.0) / (1.0 + (alpha - 1.0) * s)
    q = 4.0 * (alpha + 1.0) / ((alpha - 1.0) * (1.0 - 2.0 * s))
    return AdmissiblePair(q=q, r=r)


def criticality(s: float, alpha: float) -> str:
    """Classify (s, alpha) as subcritical, critical, or supercritical.

    Critical means alpha within _CRIT_NOISE (relative) of (5-2s)/(1-2s)."""
    if not (0.0 <= s < 1.5) or s == 0.5:
        raise ValueError("0 <= s < 3/2, s != 1/2 required")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if s > 0.5:
        return "subcritical"
    threshold = (5.0 - 2.0 * s) / (1.0 - 2.0 * s)
    if abs(alpha - threshold) <= _CRIT_NOISE * threshold:
        return "critical"
    return "subcritical" if alpha < threshold else "supercritical"


def compatibility_check(phi, f: TimeSignal, s: float, grid: SpatialGrid) -> bool:
    """Boundary compatibility phi(0) = f(0), demanded only for s > 1/2.

    phi holds the samples on grid's x >= 0 nodes; phi(0) is boundary_value's.
    """
    if s <= 0.5:
        return True
    phi0 = boundary_value(phi, grid)
    f0 = complex(f.values[0])
    return abs(phi0 - f0) <= _COMPAT_TOL * max(1.0, abs(phi0), abs(f0))


def mixed_norm(field: SolutionField, s: float, q: float, r: float) -> float:
    """Discrete L^q_t W^{s,r}_x norm (a sup norm in t for q = inf; r is finite).

    The Bessel smoothing J^s is followed by an L^r norm in x; with r != 2
    (s < 1/2) that is not the H^s norm, so sobolev_norm cannot stand in.
    J^0 is the identity, so at s = 0 the field is not transformed.
    """
    sgrid, tgrid = field.sgrid, field.tgrid
    smoothed = field.values
    if s != 0.0:
        xi = sgrid.frequencies
        bessel = (1.0 + xi * xi) ** (s / 2.0)
        smoothed = np.fft.ifft(bessel * np.fft.fft(smoothed, axis=1), axis=1)
    a = np.abs(smoothed)
    slice_norms = (sgrid.dx * np.sum(a**r, axis=1)) ** (1.0 / r)
    if math.isinf(q):
        return float(np.max(slice_norms))
    return float((tgrid.dt * np.sum(slice_norms**q)) ** (1.0 / q))


def boundary_residual(u: SolutionField, f: TimeSignal) -> float:
    """max_t |u(0,t) - f(t)| over the largest |u| on x >= 0, u(0, .) read at
    the node nearest x = 0.

    It sees the error floor that the even extension of phi (only C^0 at
    x = 0) sets, though not the time discretization's error.
    """
    x = u.sgrid.nodes
    scale = max(float(np.max(np.abs(u.values[:, x >= 0.0]))), 1e-300)
    gap = np.abs(u.values[:, u.sgrid.index_nearest_zero()] - f.values)
    return float(np.max(gap)) / scale


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
    # scale, through the forcing operator's own vanishing test.
    scale = max(
        np.max(np.abs(g)),
        np.max(np.abs(phi_ext.values)),
        np.max(np.abs(f.values)),
        1e-300,
    )
    mism = g[0]
    if abs(mism) > seam_mismatch_cap * scale:
        raise CompatibilityError(
            "boundary correction does not vanish at t=0 "
            f"(|g(0)|/scale = {abs(mism) / scale:.2e}); "
            "data incompatible at the corner"
        )
    if not vanishes_at_start(g):
        profile = 1.0 - smooth_ramp(4.0 * tgrid.nodes / tgrid.t_max)
        g = g - mism * profile
        log.debug("seam mismatch %.2e removed", abs(mism) / scale)
    gsig = TimeSignal(tgrid, g)
    # the free field's own buffer becomes the linear part
    ufree.values += boundary_forcing_time(gsig, sgrid).values
    return LinearData(ufree, sgrid, tgrid, complex(lam), float(alpha), j0)


class Workspace:
    """The buffers of one Picard attempt's applications of the fixed-point
    map on one grid pair, as plain arrays (m+1 time slices, n nodes, r
    distinct |x|):

    * result: forcing's out, max((m+1) n, 2 m r) elements; it first holds
      forcing's (r, 2m) spectrum product, then receives the map's value;
    * duhamel: (m+2, n), zero in a fresh workspace; w |w|^(alpha-1) is
      formed in its rows 1.. and transformed there in place, and the
      Duhamel term stays in its first m+1 rows until the next application,
      which may restart from it (apply_lambda's start);
    * half: forcing's work, (m+1) r elements, at least half a field (r >=
      n/2); |w|^(alpha-1) as (m+1, n) floats, then the transposed rows.
    """

    def __init__(self, sgrid: SpatialGrid, tgrid: TimeGrid):
        result_size, half_size = operator_plan(sgrid, tgrid).forcing_sizes
        self.result = np.empty(result_size, dtype=complex)
        self.duhamel = np.zeros((tgrid.m + 2, sgrid.n), dtype=complex)
        self.half = np.empty(half_size, dtype=complex)

    def field(self, buf):
        """The leading (m+1, n) field of a flat buffer, result's or half's
        (as floats)."""
        rows = self.duhamel[1:]
        return buf[: rows.size].reshape(rows.shape)


def apply_lambda(w: SolutionField, pre: LinearData,
                 out: Workspace | None = None, start: int = 0) -> SolutionField:
    """One application of the fixed-point map to the iterate w.

    The value is built in out.result, and every temporary in out's other
    buffers; w must not live in out. Without out, a fresh Workspace is
    allocated and the whole map applied (start = 0). Slice i of its value
    depends on w's slices 0..i and on w(0, t_{i+1}), which enters the
    Duhamel trace at t_{i+1} with weight -i dt/2: the forcing's
    half-derivative (np.gradient) reads that trace. With
    start = k > 0, out.duhamel must hold the Duhamel term of an earlier
    application; the slices before k are copied from w, and only the slices
    k.. are computed, from w's slices k-1..: w |w|^(alpha-1), the Duhamel
    term restarted from the one out.duhamel holds, and the forcing (whose
    t-FFT stays whole) of that term's whole x = 0 trace. These are the
    slices a whole application would give if the slices of w before k were
    those out.duhamel was computed from; the solver freezes them once they
    have stopped moving (see _picard_loop). The cutoffs multiplying each
    term are identically 1 on the working interval [0, T] and are therefore
    not materialized.
    """
    if out is None:
        if start > 0:
            raise ValueError("apply_lambda: start > 0 needs out to restart from")
        out = Workspace(pre.sgrid, pre.tgrid)
    lo = max(start - 1, 0)
    power = np.abs(w.values[lo:], out=out.field(out.half.view(float))[lo:])
    power **= pre.alpha - 1.0
    np.multiply(w.values[lo:], power, out=out.duhamel[1 + lo:])
    DF = duhamel_field(out.duhamel[1:], pre.sgrid, pre.tgrid, out=out.duhamel,
                       start=start)
    # row 0 of the Duhamel term is an exact 0.0: the trace vanishes at t=0
    trace = DF[:, pre.zero_index].copy()
    # linear + lam * (corr - DF), built in the forcing result's own buffer
    vals = boundary_forcing_time(TimeSignal(pre.tgrid, trace), pre.sgrid,
                                 out=out.result, work=out.half, start=start).values
    active = vals[start:]
    active -= DF[start:]
    active *= pre.lam
    active += pre.linear.values[start:]
    vals[:start] = w.values[:start]
    return SolutionField(pre.sgrid, pre.tgrid, vals)


def _picard_loop(pre: LinearData, s: float, cfg: SolverConfig,
                 report: IterationReport, first_active_rows: list):
    """Iterate from the linear part; returns (field, converged).

    Writes this attempt's iterates, residual_history, contraction_ratios and
    fixed_point_residual into report (see IterationReport), and appends each
    iterate's first active slice to first_active_rows. One map application
    per iterate: the last update is the fixed-point residual.

    The iterates converge from t = 0 forward, the map being causal up to one
    step and its contraction local in t. After each update, the window's
    start moves to the first slice whose update exceeds tol times the C_t
    H^s_x norm of the iterate; the slices before it are frozen, and the next
    applications compute and measure only the slices from start on. A frozen
    slice moved by at most tol (relative) on its last update. Its inputs,
    the slices up to it, have moved since by no more than that update, and
    its one input ahead, w(0) on the first active slice, enters with weight
    of order dt (apply_lambda), so a whole application would move it by
    about the map's contraction factor times tol: the windowed iteration
    converges to the full map's fixed point to within tol. The convergence
    test and ratio_cap read the update of the active slices, the only ones
    that move. The residual reported, per iterate and in
    fixed_point_residual, is the larger of that update and the last update
    of any frozen slice (relative to the norm when it froze, so at most
    tol), so it does not understate what freezing hid.

    The attempt owns one Workspace and a spare result buffer, freed when it
    returns but for the field returned: the map writes each iterate into
    the workspace's result, reading the last from the spare, and the two
    trade places. The update is formed in the last iterate's buffer, and
    sobolev_norm measures it and the new iterate; the Duhamel buffer is
    left to the window.
    """
    work = Workspace(pre.sgrid, pre.tgrid)
    spare = np.empty_like(work.result)
    u = pre.linear
    report.iterates = 0
    report.residual_history = residuals = []
    report.contraction_ratios = ratios = []
    k = 0  # the window's start: the first slice the map recomputes
    frozen_rel = 0.0  # the largest last update of a frozen slice, relative
    frozen_norm = 0.0  # the largest H^s norm among the frozen slices
    for _ in range(cfg.max_iter):
        first_active_rows.append(k)
        u_next = apply_lambda(u, pre, out=work, start=k)
        report.iterates += 1
        # C_t H^s_x norms: the max over time slices of the H^s norm in x,
        # taken per active slice; the frozen ones have stopped moving
        new = u_next.values[k:]
        norms = sobolev_norm(new, pre.sgrid, s)
        update = np.subtract(new, u.values[k:], out=work.field(spare)[k:])
        deltas = sobolev_norm(update, pre.sgrid, s)
        norm_u = max(float(np.max(norms)), frozen_norm, 1e-300)
        delta = float(np.max(deltas))
        u = u_next
        work.result, spare = spare, work.result
        # until the update falls to tol it is the larger, since frozen_rel
        # <= tol: ratio_cap reads update ratios
        residual = max(delta, frozen_rel * norm_u)
        if residual > 0.0:
            if residuals:
                ratios.append(residual / residuals[-1])
            residuals.append(residual)
        report.fixed_point_residual = residual / norm_u
        if delta <= cfg.tol * norm_u:
            return u, True
        if ratios and ratios[-1] > cfg.ratio_cap:
            log.debug("contraction ratio %.3f exceeds cap", ratios[-1])
            return u, False
        j = int(np.argmax(deltas > cfg.tol * norm_u))
        if j > 0:
            frozen_norm = max(frozen_norm, float(np.max(norms[:j])))
            frozen_rel = max(frozen_rel, float(np.max(deltas[:j])) / norm_u)
            k += j
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
        attempt = {"interval": [t0, t0 + T], "reason": None, "iterates": 0,
                   "contraction_ratios": [], "first_active_rows": []}
        report.attempts.append(attempt)
        if crit == "critical" and report.linear_mixed_norm >= cfg.delta_crit:
            reason = (f"linear mixed norm {report.linear_mixed_norm:.3e} "
                      f">= delta_crit {cfg.delta_crit:g}")
        else:
            u, converged = _picard_loop(pre, spec.s, cfg, report,
                                        attempt["first_active_rows"])
            report.t_achieved = t0 + T
            attempt["iterates"] = report.iterates
            attempt["contraction_ratios"] = report.contraction_ratios
            if converged:
                report.converged = True
                report.boundary_residual = boundary_residual(u, f)
                return u, report
            reason = "no contraction"
        attempt["reason"] = reason
        # exact ends: a short interval late in time must not print as [a, a]
        log.info("%s on [%.17g, %.17g]; halving", reason, t0, t0 + T)
        T *= 0.5
    # the exception's traceback holds this frame: free the last attempt's
    # fields, or whoever keeps the exception keeps them too
    u = pre = None
    raise BlowupSuspected(
        f"{reason} after {cfg.max_halvings} halvings "
        f"(last interval [{t0:.17g}, {t0 + 2 * T:.17g}])",
        report,
    )


def solve_ibvp(spec: ProblemSpec, cfg: SolverConfig):
    """Solve the IBVP; returns (SolutionField, IterationReport)."""
    phi_ext = extend_half_line(spec.phi, cfg.sgrid)
    if not compatibility_check(spec.phi, spec.f, spec.s, cfg.sgrid):
        raise CompatibilityError("phi(0) != f(0) while s > 1/2 demands it")
    m_work = max(8, round(spec.T / spec.f.grid.dt))
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
    if not _covers(spec.f, T + delta_eff):
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
