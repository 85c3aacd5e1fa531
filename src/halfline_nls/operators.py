"""Solution operators of the linear half-line problem.

* free_group: the Fourier multiplier e^{-i t xi^2} (whole-line group).
* duhamel / duhamel_field: the inhomogeneous-term operator
      (Dw)(t) = -i int_0^t e^{i (t-t') dxx} w(t') dt'
  by trapezoidal quadrature of spectrally propagated slices.
* boundary_forcing_time / boundary_forcing_freq: the boundary-data operator
  in its two representations,

      (Lf)(x,t) = pi^(-1/2) int_0^t (t-t')^(-1/2) e^{i x^2 / 4(t-t')} h(t') dt'
      (Lf)^(tau) = e^{-|x| sqrt(tau - i0)} f_hat(tau),      h = half-derivative of f,

  which solve the linear equation away from x=0, vanish at t=0, and take the
  boundary value f at x=0.
* derivative_jump: one-sided x-derivatives of a field at 0-, 0+ (the field's
  normal derivative jumps across the forcing point).

The time representation substitutes t - t' = sigma^2 (removing the endpoint
singularity) and integrates the oscillatory factor exactly on each panel
[sigma_{k-1}, sigma_k], sigma_k = sqrt(k dt), through the closed-form
antiderivative

    G(sigma) = sigma e^{i A / sigma^2} - 2 i sqrt(A) F(sqrt(A)/sigma),
    F(w) = (sqrt(pi)/2) e^{i pi/4} erf(e^{-i pi/4} w),      A = x^2/4,

so the only discretization error is the piecewise-linear interpolation of h.

Everything that depends only on the grid pair lives in one OperatorPlan,
returned by operator_plan(sgrid, tgrid) from a two-slot LRU cache (the
fixed-point solver reapplies the operators on fixed grids every iteration):

* the phase table e^{-i t xi^2}, shared by the free group and Duhamel;
* the forcing kernels on the distinct values of |x| only (they depend on x^2,
  so a grid symmetric about 0 needs about half the rows), folded into one
  kernel and stored as its FFT in t, so that one forcing application is one
  spectrum product and one inverse FFT.
"""
from __future__ import annotations

import functools
import warnings

import numpy as np
from scipy.special import erf

from .fractional import frac_derivative
from .grids import GridFunction, SolutionField, SpatialGrid, TimeGrid, TimeSignal

ROOT_PI = np.sqrt(np.pi)
_E_PLUS4 = np.exp(0.25j * np.pi)
_E_MINUS4 = np.exp(-0.25j * np.pi)
_F_INF = 0.5 * ROOT_PI * _E_PLUS4
_EDGE_TOL = 1e-8
_X_CHUNK = 256


class EdgeDecayWarning(UserWarning):
    """Spatial data does not decay at the grid edges; periodic wrap expected."""


def _warn_edges(values, what):
    scale = np.max(np.abs(values))
    if scale == 0.0:
        return
    if max(abs(values[0]), abs(values[-1])) > _EDGE_TOL * scale:
        warnings.warn(
            f"{what}: data at the grid edges exceeds {_EDGE_TOL:g} of max; "
            "periodic wrap-around may contaminate the result",
            EdgeDecayWarning,
            stacklevel=3,
        )


def free_group(phi: GridFunction, t: float) -> GridFunction:
    """Free evolution e^{i t dxx} phi as a spectral multiplier."""
    if t == 0.0:
        return phi.copy()
    _warn_edges(phi.values, "free_group")
    xi = phi.grid.frequencies
    out = np.fft.ifft(np.exp(-1j * t * xi * xi) * np.fft.fft(phi.values))
    return GridFunction(phi.grid, out)


def free_group_field(phi: GridFunction, tgrid: TimeGrid) -> SolutionField:
    """Free evolution sampled on a whole time grid (one fft, m+1 iffts)."""
    _warn_edges(phi.values, "free_group_field")
    phase = operator_plan(phi.grid, tgrid).phase
    vals = np.fft.ifft(phase * np.fft.fft(phi.values)[None, :], axis=1)
    vals[0] = phi.values  # t=0 multiplier is identically 1
    return SolutionField(phi.grid, tgrid, vals)


def duhamel_field(w: SolutionField) -> SolutionField:
    """Dw on all time slices via a prefix trapezoid in Fourier space.

    With g_j = e^{i t_j xi^2} w_hat_j, the trapezoid prefix sum S_i gives
    Dw(., t_i) = -i dt ifft(e^{-i t_i xi^2} S_i); the t=0 slice is exactly 0.
    """
    sgrid, tgrid = w.sgrid, w.tgrid
    if not isinstance(sgrid, SpatialGrid):
        raise TypeError("duhamel_field needs a whole-line field")
    phase = operator_plan(sgrid, tgrid).phase
    g = np.conj(phase) * np.fft.fft(w.values, axis=1)
    S = 0.5 * (g[:-1] + g[1:])
    np.cumsum(S, axis=0, out=S)
    out = np.zeros_like(g)
    out[1:] = -1j * tgrid.dt * phase[1:] * S
    vals = np.fft.ifft(out, axis=1)
    vals[0] = 0.0
    return SolutionField(sgrid, tgrid, vals)


def duhamel(w: SolutionField, t_index: int) -> GridFunction:
    """One slice Dw(., t_index) (trapezoid in t', spectral propagation)."""
    if not 0 <= t_index <= w.tgrid.m:
        raise ValueError("t_index outside the field's time grid")
    sgrid = w.sgrid
    if not isinstance(sgrid, SpatialGrid):
        raise TypeError("duhamel needs a whole-line field")
    if t_index == 0:
        return GridFunction(sgrid, np.zeros(sgrid.n, dtype=complex))
    xi2 = sgrid.frequencies**2
    t = w.tgrid.nodes[: t_index + 1]
    phase = np.exp(1j * np.outer(t, xi2))
    g = phase * np.fft.fft(w.values[: t_index + 1], axis=1)
    wts = np.full(t_index + 1, w.tgrid.dt)
    wts[0] = wts[-1] = 0.5 * w.tgrid.dt
    acc = wts @ g
    out = -1j * np.fft.ifft(np.conj(phase[-1]) * acc)
    return GridFunction(sgrid, out)


def branch_sqrt(tau):
    """The square root with the lower-edge branch: sqrt(tau) for tau>0 and
    -i sqrt(|tau|) for tau<0."""
    tau = np.asarray(tau, dtype=float)
    r = np.sqrt(np.abs(tau))
    return np.where(tau >= 0.0, r + 0.0j, -1j * r)


def _fresnel_antiderivative(sig, A):
    """G with G'(sigma) = e^{i A / sigma^2}, continuous at sigma=0."""
    out = np.empty(sig.shape, dtype=complex)
    zero = sig == 0.0
    nz = ~zero
    s = sig[nz]
    a = A[nz] if A.shape == sig.shape else np.broadcast_to(A, sig.shape)[nz]
    ra = np.sqrt(a)
    out[nz] = s * np.exp(1j * a / (s * s)) - 2j * ra * (
        0.5 * ROOT_PI * _E_PLUS4 * erf(_E_MINUS4 * ra / s)
    )
    az = np.broadcast_to(A, sig.shape)[zero]
    out[zero] = -2j * np.sqrt(az) * _F_INF
    return out


def _bf_kernel_chunk(x, dt, m):
    """Piecewise-linear product-integration kernels (a_k, b_k) for |x| rows.

    Same M0/M1 weight algebra as the fractional integral, with the plain
    power moments replaced by the oscillatory panel moments: on panel k,
    M0 = 2[G]_{sigma_{k-1}}^{sigma_k} and the first moment comes from the
    antiderivative of sigma^2 e^{i A/sigma^2},
    W(sigma) = (sigma^3 e^{i A/sigma^2} + 2 i A G(sigma)) * 2/3.
    At x=0 these reduce exactly to the half-order integral weights.
    """
    A = (0.25 * x * x)[:, None]
    sig = np.sqrt(np.arange(m + 1) * dt)[None, :]
    sigb = np.broadcast_to(sig, (len(x), m + 1))
    Ab = np.broadcast_to(A, sigb.shape)
    G = _fresnel_antiderivative(sigb, Ab)
    E3 = np.zeros_like(G)
    nz = sigb != 0.0
    E3[nz] = sigb[nz] ** 3 * np.exp(1j * Ab[nz] / (sigb[nz] ** 2))
    W = (2.0 / 3.0) * (E3 + 2j * A * G)
    M0 = 2.0 * (G[:, 1:] - G[:, :-1])
    Q1 = W[:, 1:] - W[:, :-1]
    k = np.arange(1, m + 1, dtype=float)[None, :]
    M1 = k * M0 - Q1 / dt
    a = np.zeros((len(x), m + 1), dtype=complex)
    b = np.zeros((len(x), m + 1), dtype=complex)
    a[:, 1:] = M0 - M1
    b[:, 1:] = M1
    return a / ROOT_PI, b / ROOT_PI


class OperatorPlan:
    """The grid-only work of the three operators on one (sgrid, tgrid) pair.

    * phase: e^{-i t xi^2}, shape (m+1, n); free_group_field applies it and
      duhamel_field its conjugate.
    * inv: maps the r distinct values of |x| back to the nodes; the forcing
      kernels depend on x^2 only, so they are built once per distinct |x|.
    * kspec: the length-2m FFT in t of the folded forcing kernel
      K_l = a_l + b_{l+1} (b_{m+1} = 0), shape (2m, r). Only lags
      0..m of the product are read; the one wrapped lag, 2m, lands on lag 0,
      whose slice is zero by construction.
    * b: the b kernel, shape (m+1, r). K's convolution with h counts
      b_{l+1} h_0, which the b-sum (starting at h_1) does not; forcing
      subtracts it.

    The arrays are read-only: operator_plan hands the same plan to every
    caller on the same grids.
    """

    def __init__(self, sgrid: SpatialGrid, tgrid: TimeGrid):
        m = tgrid.m
        xi = sgrid.frequencies
        self.phase = np.exp(-1j * np.outer(tgrid.nodes, xi * xi))
        absx, self.inv = np.unique(np.abs(sgrid.nodes), return_inverse=True)
        r = len(absx)
        self.kspec = np.empty((2 * m, r), dtype=complex)
        self.b = np.empty((m + 1, r), dtype=complex)
        # row chunks bound the Fresnel temporaries of the kernel build
        for lo in range(0, r, _X_CHUNK):
            hi = min(lo + _X_CHUNK, r)
            a, b = _bf_kernel_chunk(absx[lo:hi], tgrid.dt, m)
            a[:, :-1] += b[:, 1:]
            self.kspec[:, lo:hi] = np.fft.fft(a, 2 * m, axis=1).T
            self.b[:, lo:hi] = b.T
        for arr in (self.phase, self.inv, self.kspec, self.b):
            arr.flags.writeable = False


operator_plan = functools.lru_cache(maxsize=2)(OperatorPlan)


def _check_vanishing_start(f: TimeSignal, what):
    scale = np.max(np.abs(f.values))
    if scale > 0.0 and abs(f.values[0]) > _EDGE_TOL * scale:
        raise ValueError(f"{what}: boundary data must vanish at t=0")


def boundary_forcing_time(
    f: TimeSignal, sgrid: SpatialGrid, tgrid: TimeGrid | None = None
) -> SolutionField:
    """Time-representation boundary forcing field on sgrid x f's grid."""
    if tgrid is None:
        tgrid = f.grid
    if tgrid != f.grid:
        raise ValueError("boundary_forcing_time: f must live on tgrid")
    _check_vanishing_start(f, "boundary_forcing_time")
    m = tgrid.m
    h = frac_derivative(f, 0.5).values
    plan = operator_plan(sgrid, tgrid)
    hhat = np.fft.fft(h, 2 * m)
    rows = np.fft.ifft(plan.kspec * hhat[:, None], axis=0)[: m + 1]
    rows[:m] -= h[0] * plan.b[1:]
    rows[0] = 0.0  # every kernel weight at lag 0 is zero by construction
    # np.take, not rows[:, inv]: SolutionField needs a C-contiguous array
    return SolutionField(sgrid, tgrid, np.take(rows, plan.inv, axis=1))


def boundary_forcing_freq(
    f: TimeSignal,
    sgrid: SpatialGrid,
    tgrid: TimeGrid | None = None,
    pad: int = 4,
    damp: float = 30.0,
) -> SolutionField:
    """Frequency-representation boundary forcing field.

    The multiplier e^{-|x| sqrt(tau - i0)} is evaluated on the contour
    shifted by gamma = damp/(M dt) into the lower half plane, conjugated by
    e^{±gamma t} exactly as in the fractional Fourier path; the principal
    square root on that contour reproduces branch_sqrt in the gamma -> 0
    limit. f is zero-padded x`pad` in t.
    """
    if tgrid is None:
        tgrid = f.grid
    if tgrid != f.grid:
        raise ValueError("boundary_forcing_freq: f must live on tgrid")
    _check_vanishing_start(f, "boundary_forcing_freq")
    m, dt = tgrid.m, tgrid.dt
    M = 1
    while M < pad * (m + 1):
        M *= 2
    gam = damp / (M * dt)
    t = tgrid.nodes
    buf = np.zeros(M, dtype=complex)
    buf[: m + 1] = f.values * np.exp(-gam * t)
    fhat = np.fft.fft(buf)
    tau = 2.0 * np.pi * np.fft.fftfreq(M, d=dt)
    root = np.sqrt(tau - 1j * gam)
    absx = np.abs(sgrid.nodes)
    grow = np.exp(gam * t)
    vals = np.empty((m + 1, sgrid.n), dtype=complex)
    for lo in range(0, sgrid.n, _X_CHUNK):
        hi = min(lo + _X_CHUNK, sgrid.n)
        mult = np.exp(-absx[lo:hi, None] * root[None, :])
        rows = np.fft.ifft(mult * fhat[None, :], axis=1)[:, : m + 1]
        vals[:, lo:hi] = (rows * grow[None, :]).T
    return SolutionField(sgrid, tgrid, vals)


def derivative_jump(f: TimeSignal, field: SolutionField):
    """One-sided x-derivative traces of the field at 0- and 0+.

    Second-order one-sided stencils anchored at the node nearest zero.
    Returns (minus_trace, plus_trace); against the half-derivative h of f
    these approach +e^{-i pi/4} h and -e^{-i pi/4} h respectively.
    """
    sgrid = field.sgrid
    if not isinstance(sgrid, SpatialGrid):
        raise TypeError("derivative_jump needs a whole-line field")
    if field.tgrid != f.grid:
        raise ValueError("derivative_jump: f and field grids differ")
    j = sgrid.index_nearest_zero()
    if j < 2 or j > sgrid.n - 3:
        raise ValueError("grid too lopsided for one-sided stencils at x=0")
    U = field.values
    dx = sgrid.dx
    plus = (-3.0 * U[:, j] + 4.0 * U[:, j + 1] - U[:, j + 2]) / (2.0 * dx)
    minus = (3.0 * U[:, j] - 4.0 * U[:, j - 1] + U[:, j - 2]) / (2.0 * dx)
    return TimeSignal(field.tgrid, minus), TimeSignal(field.tgrid, plus)
