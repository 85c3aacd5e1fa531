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
from t = 0 forward. Each attempt therefore applies the map twice on the
whole interval, which tests the contraction (a third time when it
contracts fast), and then sweeps forward in blocks of slices, all but
the first started from the whole iterate after a fast opening and by
extrapolation in t after a slow one: each is iterated to tol and
frozen, the Duhamel recursion restarting from the frozen slices' Duhamel
term, which its buffer keeps, and the boundary forcing adding the frozen
slices' part once per block (Workspace, apply_lambda, _picard_loop,
operators.ForcingHistory). Within a block the same holds: each
application starts at the block's front, its first slice whose last
update exceeded tol, so the leading slices that met tol are not
recomputed. The whole interval and each block are iterated by one
routine (_iterate), in place on the slices it is given. The fixed point
reached is the whole map's to within tol.
"""
from __future__ import annotations

import cmath
import logging
import math
import numbers
from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from .fractional import vanishes_at_start
from .grids import (GridFunction, NonFiniteError, SolutionField, SpatialGrid,
                    TimeGrid, TimeSignal, interp_complex)
from .operators import (ForcingHistory, boundary_forcing_time, duhamel_field,
                        free_group_field, operator_plan)
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
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("phi must be finite")
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
        for name in ("max_iter", "max_halvings"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.max_iter < 2 or self.max_halvings < 0:
            raise ValueError("max_iter >= 2 (a contraction ratio needs two map "
                             "applications) and max_halvings >= 0 required")


@dataclass(frozen=True)
class AdmissiblePair:
    q: float
    r: float


@dataclass
class IterationReport:
    """Record of a solve, as report.json holds it.

    iterates counts the last Picard attempt's map applications, on the
    whole interval and on the blocks of its sweep (see _picard_loop).
    residual_history holds the C_t H^s_x norm of each nonzero update on the
    whole interval (two, or three after a fast first contraction),
    contraction_ratios the ratios of successive ones: the attempt's
    contraction test. When every update is finite and nonzero, iterates
    is len(residual_history) plus the last attempt's blocks' iterates.
    fixed_point_residual is the largest last update of a block, relative
    to the field's norm (see _picard_loop), or the last whole update's when
    the attempt converged on the whole interval: <= tol when converged, 0
    when the map returns its input (lam=0).
    linear_mixed_norm is the mixed norm of the last attempt's linear part
    (None when it is not finite): taken before every attempt of a critical
    solve, whose gate reads it, and otherwise once the attempt the solve
    ends on is done. An attempt is refused as "non-finite linear part"
    exactly when that norm is not finite, which one pass over the linear
    part settles where it can (_mixed_norm_is_finite). boundary_residual is
    boundary_residual's, of the field returned (None without one).
    attempts holds one entry per attempt, in order: its absolute interval
    [start, end], the reason it was refused (None for the one that
    converged), its iterates, its contraction_ratios, its blocks, one
    record per block of the sweep (see _picard_loop), and t_reached: when
    the sweep stalled (a block below 2 slices refused the attempt as "no
    contraction"), the absolute time of that block's first slice, else None.
    A block record's fronts hold the first slice of each of its
    applications; its cut is None, or "max_iter" when the block stopped
    at max_iter after its front advanced: the slices before the front
    are kept and the sweep goes on from the front, at the same size.
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
    if s != 0.0:  # J^s u in one buffer: a solve takes it beside its own buffers
        xi = sgrid.frequencies
        smoothed = np.fft.fft(smoothed, axis=1)
        smoothed *= (1.0 + xi * xi) ** (s / 2.0)
        np.fft.ifft(smoothed, axis=1, out=smoothed)
    a = np.abs(smoothed)
    # the powers are taken of |J^s u| / max |J^s u|: a finite field whose
    # |u|^r would overflow still has a finite norm
    top = float(np.max(a))
    if top == 0.0 or not math.isfinite(top):
        return top
    a /= top
    a **= r
    slice_norms = (sgrid.dx * np.sum(a, axis=1)) ** (1.0 / r)
    if math.isinf(q):
        return top * float(np.max(slice_norms))
    return top * float((tgrid.dt * np.sum(slice_norms**q)) ** (1.0 / q))


# e^700 is about 1e304: a bound below it leaves room for rounding below the
# float range (e^709.78)
_LOG_FINITE = 700.0


def _mixed_norm_is_finite(field: SolutionField, s: float, pair: AdmissiblePair,
                          scratch: np.ndarray) -> bool:
    """True when one pass shows mixed_norm(field, s, pair.q, pair.r) finite:
    max |u| (taken into scratch, (m+1, n) floats) times a bound, set by the
    grids, on every value mixed_norm forms over max |u|. False leaves it
    open. The FFT's sums are at most n max |u|, so |J^s u| <= beta n max|u|
    (beta the largest Bessel multiplier) with the inverse FFT's unscaled
    sums n times that, and the L^r, L^q norms of |J^s u| / max |J^s u| <= 1
    are at most (n dx)^(1/r) and ((m+1) dt)^(1/q) times their inputs, the
    sum of the q-th powers at most (m+1) max(dt, 1) (n dx)^(q/r).
    """
    sgrid, tgrid = field.sgrid, field.tgrid
    xi = float(np.max(np.abs(sgrid.frequencies)))
    log_x = max(math.log(sgrid.n * sgrid.dx) / pair.r, 0.0)
    growth = 0.5 * s * math.log1p(xi * xi) + 2.0 * math.log(sgrid.n) + log_x
    if not math.isinf(pair.q):
        log_dt = math.log(tgrid.dt)
        if pair.q * log_x + math.log(tgrid.m + 1) + max(log_dt, 0.0) >= _LOG_FINITE:
            return False
        growth += max((math.log(tgrid.m + 1) + log_dt) / pair.q, 0.0)
    top = float(np.max(np.abs(field.values, out=scratch)))
    return top == 0.0 or math.log(top) + growth < _LOG_FINITE


def boundary_residual(u: SolutionField, f: TimeSignal) -> float:
    """max_t |u(0,t) - f(t)| over the largest |u| on x >= 0, u(0, .) read at
    the node nearest x = 0.

    It sees the error floor that the even extension of phi (only C^0 at
    x = 0) sets, though not the time discretization's error.
    """
    right = u.values[:, np.searchsorted(u.sgrid.nodes, 0.0):]  # x >= 0, a view
    scale = max(float(np.max(np.abs(right))), 1e-300)
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
                    seam_mismatch_cap: float, work: Workspace | None = None,
                    out: np.ndarray | None = None) -> LinearData:
    """Free part + boundary correction; the two w-independent terms.

    The linear part is built in out, an (m+1, n) complex array, and the
    boundary correction's forcing in work's result and half buffers; each
    is allocated when not given.

    The forcing input g = f - (free trace) must vanish at t=0. An exact-zero
    mismatch cannot be expected from a restarted (continuation) solve, where
    g(0) inherits the parent solve's trace error; a mismatch below
    seam_mismatch_cap (relative) is removed by subtracting the constant times
    a smooth decaying profile, a data perturbation of the same size as the
    numerical uncertainty already present.
    """
    sgrid = phi_ext.grid
    tgrid = f.grid
    ufree = free_group_field(phi_ext, tgrid, out=out)
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
    work = Workspace(sgrid, tgrid) if work is None else work
    # the free field's own buffer becomes the linear part
    ufree.values += boundary_forcing_time(gsig, sgrid, out=work.result,
                                          work=work.half).values
    return LinearData(ufree, sgrid, tgrid, complex(lam), float(alpha), j0)


class Workspace:
    """The buffers of one solve's applications of the fixed-point map, as
    plain arrays (m+1 time slices, n nodes, r distinct |x|) that no
    whole-field finiteness pass reads. Their sizes depend on m, n and r
    only, so every attempt of a solve, which halves T and keeps m and n,
    works in the same buffers:

    * result: forcing's out, max((m+1) n, 2 m r) elements; the boundary
      correction's forcing while the linear part is built, then the
      iterate, which each application of the map replaces in place on its
      slices (on the whole interval through forcing's (r, 2m) spectrum
      product), and which _picard_loop's norms check;
    * duhamel: (m+2, n), zero when fresh; w |w|^(alpha-1) is formed and
      transformed in place in its rows 1.., and the Duhamel term stays in
      its first m+1 rows for the next application to restart from. A
      whole-interval application writes every row, and each attempt opens
      with one, so a buffer an earlier attempt used needs no zeroing;
    * half: forcing's work, (m+1) r elements (r >= n/2); |w|^(alpha-1) as
      (m+1, n) floats, then the transposed rows, checked before the gather;
    * history: the block forcing's ForcingHistory, None until a caller
      applies the map to blocks of slices other than the whole interval;
      _picard_loop resets it for each attempt.
    """

    def __init__(self, sgrid: SpatialGrid, tgrid: TimeGrid):
        result_size, half_size = operator_plan(sgrid, tgrid).forcing_sizes
        self.result = np.empty(result_size, dtype=complex)
        self.duhamel = np.zeros((tgrid.m + 2, sgrid.n), dtype=complex)
        self.half = np.empty(half_size, dtype=complex)
        self.history = None

    def field(self, buf):
        """The leading (m+1, n) field of a flat buffer, result's or half's
        (as floats)."""
        rows = self.duhamel[1:]
        return buf[: rows.size].reshape(rows.shape)


def apply_lambda(w: SolutionField, pre: LinearData, out: Workspace | None = None,
                 start: int = 0, stop: int | None = None) -> SolutionField:
    """One application of the fixed-point map to the iterate w, on its
    slices [start, stop) (stop = m+1 by default).

    The value is built in out.result, every temporary in out's other
    buffers; without out, a fresh Workspace is allocated and the whole map
    applied. Slice i of the value depends on w's slices 0..i and on
    w(0, t_{i+1}), which enters the Duhamel trace at t_{i+1} with weight
    -i dt/2: the forcing's half-derivative reads that trace.
    out.result may hold w itself, whose slices [start, stop) the value then
    replaces in place: w is read before the forcing writes out.result.
    On the whole interval the forcing takes its whole t-FFT. On a block,
    out.duhamel must hold an earlier application's Duhamel term: the
    slices computed from w's slices start-1..stop and out.duhamel are
    those a whole application would give if w's slices before start were
    the ones out.duhamel came from (see _picard_loop). The block forcing
    keeps its state in out.history, and only the block's rows of
    out.result are written. A block's applications may start at a later
    slice (its front) with the same stop: the recursion then restarts
    from the buffer's row start-1, as at a block boundary, and the
    forcing reuses the block's history.
    At lam = 0 the map does not depend on w: the value is the linear part,
    and w |w|^(alpha-1) is not formed.

    The value's entries are not checked finite, the caller's norms do
    that; an overflow met on the way raises NonFiniteError. The cutoffs
    multiplying each term are 1 on the working interval [0, T] and are not
    materialized.
    """
    m = pre.tgrid.m
    stop = m + 1 if stop is None else stop
    if out is None:
        if (start, stop) != (0, m + 1):
            raise ValueError("apply_lambda: a block needs out to restart from")
        out = Workspace(pre.sgrid, pre.tgrid)
    if pre.lam == 0.0:
        vals = out.field(out.result)
        vals[start:stop] = pre.linear.values[start:stop]
        return SolutionField._of_finite(pre.sgrid, pre.tgrid, vals)
    ahead = min(stop + 1, m + 1)  # the slices whose Duhamel term is read
    lo = max(start - 1, 0)
    power = np.abs(w.values[lo:ahead], out=out.field(out.half.view(float))[lo:ahead])
    power **= pre.alpha - 1.0
    np.multiply(w.values[lo:ahead], power, out=out.duhamel[1 + lo: 1 + ahead])
    DF = duhamel_field(out.duhamel[1:], pre.sgrid, pre.tgrid, out=out.duhamel,
                       start=start, stop=ahead)
    # row 0 of the Duhamel term is an exact 0.0: the trace vanishes at t=0;
    # the rows after the block's hold no Duhamel term
    trace = DF[:, pre.zero_index].copy()
    trace[ahead:] = 0.0
    # linear + lam * (corr - DF), built in the forcing result's own buffer
    vals = boundary_forcing_time(TimeSignal(pre.tgrid, trace), pre.sgrid,
                                 out=out.result, work=out.half, start=start,
                                 stop=stop, history=out.history).values
    active = vals[start:stop]
    active -= DF[start:stop]
    active *= pre.lam
    active += pre.linear.values[start:stop]
    return SolutionField._of_finite(pre.sgrid, pre.tgrid, vals)


_WHOLE = 2  # whole-interval applications that open each attempt: one ratio
# a first ratio at most this is a fast opening: a third whole application,
# then blocks started from the whole iterate. At 256x128 on [0, 0.5] the
# CLI bump and sinusoid_windowed presets (ratios 0.094, 0.104) take 11 and
# 12 iterates with it, 19 and 19 without; the standing wave's 0.58, taken
# as fast, would take 106 in place of 75 at 1024x512
_FAST_RATIO = 0.25
_BLOCK = 32  # the slices a block of the sweep freezes, at most


def _iterate(u: SolutionField, pre: LinearData, s: float, cfg: SolverConfig,
             report: IterationReport, work: Workspace, norms: np.ndarray,
             old: np.ndarray, k: int, stop: int, limit: int, updates, ratios,
             fronts=None):
    """Apply the map in place to u's slices [k, stop), u living in
    work.result, up to limit times; returns (why it stopped, the largest
    last update relative to the scale, the front). The scale is
    max(norms), norms taken on [k, stop): on a block once, after the
    call's first application, on the whole interval after each. It stops
    when an update falls to tol times the scale (None), a ratio of updates
    exceeds ratio_cap ("ratio") or an iterate is not finite ("non-finite
    iterate"), else after limit ("limit"). Each application counts in
    report.iterates; its update is formed in old and appended to updates,
    its ratio to ratios. A zero update (the map returned its input, as at
    lam = 0) is the fixed point: it stops the loop unrecorded. The front is
    the first slice whose last update exceeds tol times the scale (stop
    once none does); given fronts (a block), each application starts at
    it and appends it to fronts, so it is never the block's last slice
    while the loop runs. The residual is None before a finite update; a
    block that stops at limit gives it for the slices before the front
    only (None when there are none).
    """
    vals = u.values
    lasts = np.zeros(stop - k)
    front, residual = k, None
    for i in range(limit):
        report.iterates += 1
        if fronts is not None:
            fronts.append(front)
        first = k if fronts is None else front
        prev = old[: stop - first]
        prev[:] = vals[first:stop]
        try:
            apply_lambda(u, pre, out=work, start=first, stop=stop)
        except NonFiniteError:  # w |w|^(alpha-1), its trace or the forcing overflowed
            return "non-finite iterate", residual, front
        if i == 0 or fronts is None:
            norms[k:stop] = sobolev_norm(vals[k:stop], pre.sgrid, s)
            top = float(np.max(norms))
        deltas = lasts[first - k:]
        deltas[:] = sobolev_norm(np.subtract(vals[first:stop], prev, out=prev), pre.sgrid, s)
        delta = float(np.max(deltas))
        if delta == 0.0:
            return None, 0.0, stop
        if not (math.isfinite(top) and math.isfinite(delta)):
            return "non-finite iterate", residual, front
        scale = max(top, 1e-300)
        if updates:
            ratios.append(delta / updates[-1])
        updates.append(delta)
        residual = float(np.max(lasts)) / scale
        if delta <= cfg.tol * scale:
            return None, residual, stop
        if ratios and ratios[-1] > cfg.ratio_cap:
            return "ratio", residual, front
        front = k + int(np.argmax(lasts > cfg.tol * scale))
    if fronts is not None:  # a block: the slices behind the front only
        residual = float(np.max(lasts[: front - k])) / scale if front > k else None
    return "limit", residual, front


def _picard_loop(pre: LinearData, s: float, cfg: SolverConfig,
                 report: IterationReport, blocks: list, work: Workspace,
                 spare: np.ndarray):
    """Iterate from the linear part in work, a Workspace of pre's grids
    (its history reset here), with spare a second buffer of work.result's
    size; returns (field, None if converged, else the reason the attempt is
    refused). The field is a view of work.result.

    Writes this attempt's iterates (every map application),
    residual_history, contraction_ratios and fixed_point_residual into
    report (see IterationReport), and appends a record per block to blocks.
    Norms are C_t H^s_x: the max over time slices of the H^s norm in x. The
    iterate lives in the workspace's result; _iterate applies the map to it
    on the whole interval and on each block, and checks each iterate once,
    through its update's norm: a non-finite one refuses the attempt before
    it enters any residual, and frozen slices are copies of checked ones.

    An attempt first applies the map _WHOLE times on the whole interval,
    and once more when the opening is fast: the first ratio is at most
    _FAST_RATIO and max_iter allows. Those updates are residual_history,
    their ratios the contraction_ratios, and a ratio above ratio_cap
    refuses the attempt: the map does not contract on this interval. The
    attempt converges there if an update falls to tol times the iterate's
    norm.

    The map is causal up to one step and its contraction local in t, so the
    iterates settle from t = 0 forward. The attempt then sweeps forward
    from the first slice k whose last whole update exceeds tol (relative):
    it iterates the block [k, stop), stop = k + b + 1, to tol, freezes
    [k, stop - 1) and goes on from k = stop - 1 (the map reads one slice
    ahead, so the block's last slice stays active into the next). The
    first block starts from the whole iterate's values; each later one
    does too after a fast opening, and after a slow one starts from
    quadratic extrapolation in t of the slices k-2, k-1, k. Each
    application of a block starts at its front (see
    _iterate), so the leading slices whose update met tol are not
    recomputed. A block whose update ratio exceeds ratio_cap, or that
    takes max_iter applications with its front still at k, is retried
    from its start at half the size b; b < 2 refuses the attempt as "no
    contraction". b starts at _BLOCK and does not grow again: where blocks
    of 2b failed, the next one would too. A block that takes max_iter
    applications after its front advanced is cut there instead: [k, front)
    is frozen and the sweep goes on from k = front at the same size, from
    the current iterate. Each block appends to blocks {"slices": [k,
    stop], "start": "whole", "extrapolated" or "current" (after a cut),
    "iterates", "fronts", "ratios", "residual", "halved", "cut"}: fronts
    holds the front of each application, ratios its successive update
    ratios, residual the largest last update of the slices it froze,
    relative to _iterate's scale (else None), halved None or why it was
    retried smaller, cut None or "max_iter". fixed_point_residual is then
    the largest residual.
    """
    m = pre.tgrid.m
    work.history = None
    vals = work.field(work.result)
    vals[:] = pre.linear.values
    u = SolutionField._of_finite(pre.sgrid, pre.tgrid, vals)
    norms = np.empty(m + 1)
    report.iterates = 0
    report.residual_history, report.contraction_ratios = [], []
    whole = (u, pre, s, cfg, report, work, norms, work.field(spare), 0, m + 1)
    history = (report.residual_history, report.contraction_ratios)
    why, residual, k = _iterate(*whole, _WHOLE, *history)
    fast = (why == "limit" and cfg.max_iter > _WHOLE
            and report.contraction_ratios[0] <= _FAST_RATIO)
    if fast:
        why, third, k = _iterate(*whole, 1, *history)
        residual = residual if third is None else third
    if residual is not None:
        report.fixed_point_residual = residual
    if why is None or why == "non-finite iterate":
        return u, why
    if why == "ratio":
        return u, "no contraction"
    work.history = ForcingHistory()
    size = _BLOCK
    begin = np.empty((_BLOCK + 1, pre.sgrid.n), dtype=complex)  # a block's start
    old = np.empty_like(begin)
    report.fixed_point_residual = 0.0
    start = "whole"
    while True:
        stop = min(k + size + 1, m + 1)
        if start == "extrapolated":
            _extrapolate(vals, k, stop, old)
        record = {"slices": [k, stop], "start": start, "iterates": 0, "fronts": [],
                  "ratios": [], "residual": None, "halved": None, "cut": None}
        blocks.append(record)
        begin[: stop - k] = vals[k:stop]
        why, residual, front = _iterate(u, pre, s, cfg, report, work, norms, old, k, stop,
                                        cfg.max_iter, [], record["ratios"], record["fronts"])
        record["iterates"] = len(record["fronts"])
        if why == "non-finite iterate":
            return u, why
        if why == "limit" and front > k:
            # [k, front) met tol: frozen, the rest goes on from where it is
            record["cut"] = "max_iter"
            log.debug("block [%d, %d): max_iter, cut at %d", k, stop, front)
        elif why is not None:
            record["halved"] = ("max_iter" if why == "limit"
                                else f"ratio {record['ratios'][-1]:.3g} > ratio_cap")
            log.debug("block [%d, %d): %s", k, stop, record["halved"])
            vals[k:stop] = begin[: stop - k]
            size //= 2
            if size < 2:
                return u, "no contraction"
            continue
        record["residual"] = residual
        report.fixed_point_residual = max(report.fixed_point_residual, residual)
        if why is None:
            if stop == m + 1:
                return u, None
            start, k = ("whole" if fast else "extrapolated"), stop - 1
        else:
            start, k = "current", front


def _extrapolate(vals, k, stop, scratch):
    """Quadratic extrapolation in t of the slices k-2, k-1, k of vals onto
    its slices k+1..stop-1, in place; scratch holds stop-k-1 slices."""
    p = np.arange(1.0, stop - k)[:, None]
    dst, tmp = vals[k + 1: stop], scratch[: stop - k - 1]
    np.multiply(0.5 * (p + 1.0) * (p + 2.0), vals[k], out=dst)
    dst -= np.multiply(p * (p + 2.0), vals[k - 1], out=tmp)
    dst += np.multiply(0.5 * p * (p + 1.0), vals[k - 2], out=tmp)


def _solve_from_slice(phi_ext: GridFunction, spec: ProblemSpec, t0: float,
                      T: float, m: int, cfg: SolverConfig):
    """The one driver: whole-line slice at t0 -> field on [t0, t0 + T].

    Rejects a supercritical (s, alpha) with SupercriticalError. Each attempt
    reads its boundary data f(t0 + .) from spec.f on its own m-step grid
    (exact on shared nodes) and halves the interval when the critical gate
    refuses its linear part or _picard_loop the iterates; report.halvings
    counts the halvings made before the last attempt. Its times are
    absolute: t_requested is t0 + T, t_achieved the end of the last interval
    iterated on (t0 if none was). Raises BlowupSuspected, naming the last
    refusal's reason, when no attempt converges. The attempts share one
    Workspace, its spare buffer and the linear part's buffer, built once
    per call.
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
    # every attempt halves T and keeps m and n: one set of buffers serves all
    work = Workspace(phi_ext.grid, TimeGrid(T, m))
    spare = np.empty_like(work.result)
    linear = np.empty((m + 1, phi_ext.grid.n), dtype=complex)
    for halving in range(cfg.max_halvings + 1):
        # a refused attempt's iterate and linear part are views of the
        # buffers this attempt rewrites: drop them before it does
        u = pre = None
        report.halvings = halving
        tgrid = TimeGrid(T, m)
        f = TimeSignal(tgrid, interp_complex(t0 + tgrid.nodes, spec.f.grid.nodes,
                                             spec.f.values))
        pre = _prepare_linear(phi_ext, f, spec.lam, spec.alpha, cfg.seam_mismatch_cap,
                              work, linear)
        # the mixed norm is read by the critical gate, and by the report once
        # the attempt the solve ends on is done; before that it need only be
        # finite
        lin = None
        if crit == "critical" or not _mixed_norm_is_finite(
                pre.linear, spec.s, pair, work.field(work.half.view(float))):
            lin = _report_mixed_norm(report, pre, spec.s, pair)
        attempt = {"interval": [t0, t0 + T], "reason": None, "iterates": 0,
                   "contraction_ratios": [], "blocks": [], "t_reached": None}
        report.attempts.append(attempt)
        if lin is not None and not math.isfinite(lin):
            reason = "non-finite linear part"
        elif crit == "critical" and lin >= cfg.delta_crit:
            reason = f"linear mixed norm {lin:.3e} >= delta_crit {cfg.delta_crit:g}"
        else:
            u, reason = _picard_loop(pre, spec.s, cfg, report, attempt["blocks"], work, spare)
            report.t_achieved = t0 + T
            attempt["iterates"] = report.iterates
            attempt["contraction_ratios"] = report.contraction_ratios
            if reason is None:
                # u lives in work.result: the other buffers go before the
                # norm's temporaries come
                work = spare = None
                if lin is None:
                    _report_mixed_norm(report, pre, spec.s, pair)
                report.converged = True
                report.boundary_residual = boundary_residual(u, f)
                return u, report
        attempt["reason"] = reason
        reached = ""
        if reason == "no contraction" and attempt["blocks"]:  # the sweep stalled
            attempt["t_reached"] = t0 + attempt["blocks"][-1]["slices"][0] * tgrid.dt
            reached = f", sweep reached t = {attempt['t_reached']:.17g}"
        # exact ends: a short interval late in time must not print as [a, a]
        log.info("%s on [%.17g, %.17g]%s; halving", reason, t0, t0 + T, reached)
        T *= 0.5
    # the exception's traceback holds this frame: free the last attempt's
    # fields and the solve's buffers, or whoever keeps the exception keeps
    # them too
    u = work = spare = None
    if lin is None:
        _report_mixed_norm(report, pre, spec.s, pair)
    pre = linear = None
    raise BlowupSuspected(
        f"{reason} after {cfg.max_halvings} halvings "
        f"(last interval [{t0:.17g}, {t0 + 2 * T:.17g}]{reached})",
        report,
    )


def _report_mixed_norm(report: IterationReport, pre: LinearData, s: float,
                       pair: AdmissiblePair) -> float:
    """The linear part's mixed norm, also set as report.linear_mixed_norm
    (None when it is not finite)."""
    lin = mixed_norm(pre.linear, s, pair.q, pair.r)
    report.linear_mixed_norm = lin if math.isfinite(lin) else None
    return lin


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
    to a whole number m2 of parent time steps, at least 8 (a TimeGrid has 8
    steps or more), and spec.f must cover [T, T + m2 * dt]: a ValueError
    names that interval otherwise.

    Returns u on [0, T] (the seam slice shared bit-exact) joined to the
    restart on the parent's time step, with meta 'seam_index' and
    'restart_report' (the restart's report, in absolute time). The restart
    may halve only while its tail keeps one whole parent step (2**h <= m2):
    after h halvings every 2**h-th tail slice is kept, so the result ends
    after T and at most at T + m2 * dt. A restart that contracts on no such
    interval raises BlowupSuspected.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be finite and >= 0")
    if not math.isfinite(T):
        raise ValueError("T must be finite")
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
        raise ValueError(f"boundary data does not cover [{T:.17g}, {T + delta_eff:.17g}]:"
                         f" delta rounded to {m2} parent steps, at least 8")
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
