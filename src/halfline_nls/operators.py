"""Solution operators of the linear half-line problem.

* free_group: the Fourier multiplier e^{-i t xi^2} (whole-line group).
* duhamel_field: the inhomogeneous-term operator
      (Dw)(t) = -i int_0^t e^{i (t-t') dxx} w(t') dt'
  on every time slice at once, by trapezoidal quadrature of spectrally
  propagated slices, advanced one time step at a time.
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
The error function comes from the Faddeeva function w_F(z) = e^{-z^2}
erfc(-i z), evaluated by Weideman's rational series (SIAM J. Numer. Anal. 31,
1994) in numpy alone: at w = sqrt(A)/sigma, erf(e^{-i pi/4} w) =
1 - E w_F(e^{i pi/4} w) with E = e^{i A / sigma^2}. Only differences of G
enter the weights, so the kernels take G less G(0) = -2 i sqrt(A) F(inf),

    G(sigma) - G(0) = E (sigma + 2 i sqrt(A) F(inf) w_F(e^{i pi/4} sqrt(A)/sigma)):

G's two terms share one phase, and the constant G(0), far from x=0 much
larger than the differences, is never added and subtracted.
The frequency representation evaluates its multiplier on the damped,
zero-padded contour of spectral.padded_spectrum and damped_inverse, which the
fractional Fourier path shares.

Everything that depends only on the grid pair lives in one OperatorPlan,
returned by operator_plan(sgrid, tgrid) from a three-slot LRU cache (the
fixed-point solver reapplies the operators on fixed grids every iteration,
and a solve that halves its interval twice works on three time grids):

* the one-step propagator e^{-i dt xi^2}, one n-vector shared by the free
  group and Duhamel: e^{-i t xi^2} is a group in t, so both advance their
  spectra from one time slice to the next by it;
* the forcing kernels on the distinct values of |x| only (they depend on x^2,
  so a grid symmetric about 0 needs about half the rows), folded into one
  kernel and stored as its FFT in t, so that one forcing application is one
  spectrum product and one inverse FFT. The folded kernel's spectrum is
  stored one row per distinct |x|, shape (r, 2m), so that the transform runs
  along t in place on contiguous rows (along a strided axis it took about
  twice as long); the b kernel's correction, shape (m, r), is stored one row
  per lag, as the transposed rows it is subtracted from. The kernels are
  built in chunks of _PLAN_CHUNK rows, whose Fresnel temporaries stay in
  cache: each chunk's folded kernel is written into its own rows of the
  spectrum, zero-padded there and transformed in place, so the build's
  peak stays near the plan's own size;
* the order-1/2 weights and, on first use, the folded kernel's lags in t.

A plan owns no buffer a call writes: it is shared read-only by every caller
on its grids. free_group_field, duhamel_field and boundary_forcing_time
write into buffers the caller hands them (out=, work=), as the fixed-point
solver does with the buffers of a solve, and allocate their own otherwise.
The last two compute only a block of time slices [start, stop) when asked:
duhamel_field restarts its recursion from the Duhamel term an earlier call
left in out and ends it at stop. boundary_forcing_time takes its whole t-FFT
on the whole interval only; on any other block it takes no FFT: the block's
own samples of h meet the kernel's first lags in t in one small product, and
the earlier samples' part, computed once per block from the plan's lags, is
kept in a ForcingHistory (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
Comput. 6 (1985), split a convolution the same way). h itself is split the
same way: the half-integral of f's samples before the block, and the h they
fix, are formed once per block into the ForcingHistory, and each call
integrates only the block's own samples (a call that starts later in the
block reuses its history). It then writes only the rows it computes. Neither
checks its whole output for finiteness: the forcing checks the rows it
gathers, the solver its norms.
"""
from __future__ import annotations

import functools
import warnings

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .fractional import (_gradient, _integral_values, _pl_weights, frac_derivative,
                         panel_weights, vanishes_at_start)
from .grids import (GridFunction, NonFiniteError, SolutionField, SpatialGrid, TimeGrid,
                    TimeSignal, _as_complex)
from .spectral import damped_inverse, padded_spectrum

ROOT_PI = np.sqrt(np.pi)
_E_PLUS4 = np.exp(0.25j * np.pi)
_F_INF = 0.5 * ROOT_PI * _E_PLUS4
_EDGE_TOL = 1e-8
_X_CHUNK = 256
# the plan's kernel rows per chunk: its ten or so (32, m+1) temporaries stay
# in cache. The kernels' last bits depend on the chunk size: at 1024x512,
# chunks of 32 to 256 rows agree bit for bit, 8, 16 and 1024 do not
_PLAN_CHUNK = 32
# a solve that halves twice touches three time grids (T, T/2, T/4); with two
# slots each one is evicted before the next solve on the same data reaches it
_PLAN_SLOTS = 3


def _weideman_coefficients(n):
    """Weideman's series for the Faddeeva function: the scale L and the n
    coefficients of its polynomial in Z = (L + i z)/(L - i z), highest
    power first, from one FFT of 4n samples of e^{-t^2} (L^2 + t^2) at
    t = L tan(theta/2)."""
    m = 2 * n
    L = np.sqrt(n / np.sqrt(2.0))
    t = L * np.tan(0.5 * np.pi * np.arange(1 - m, m) / m)
    f = np.concatenate(([0.0], np.exp(-t * t) * (L * L + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return L, a[n:0:-1]


# 40 terms: relative error about 1e-14 on Im z >= 0 (32 give 3e-14, 24 give 8e-11)
_W_SCALE, _W_COEF = _weideman_coefficients(40)


def _faddeeva(z):
    """w(z) = e^{-z^2} erfc(-i z) for Im z >= 0, by Weideman's series
    w(z) = 2 p(Z) / (L - i z)^2 + pi^(-1/2) / (L - i z), one Horner loop."""
    d = 1.0 / (_W_SCALE - 1j * np.asarray(z))
    Z = (2.0 * _W_SCALE) * d - 1.0  # (L + i z) / (L - i z)
    p = np.full(Z.shape, _W_COEF[0], dtype=complex)
    for c in _W_COEF[1:]:
        p *= Z
        p += c
    p *= 2.0 * d
    p += 1.0 / ROOT_PI
    p *= d
    return p


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


def free_group_field(phi: GridFunction, tgrid: TimeGrid,
                     out: np.ndarray | None = None) -> SolutionField:
    """Free evolution sampled on a whole time grid (one fft, one ifft).

    The group property steps the spectra: row i is step * row i-1, built in
    the output buffer and transformed back in place. The buffer is out, an
    (m+1, n) complex array, when given, else allocated; its whole content
    is written.
    """
    _warn_edges(phi.values, "free_group_field")
    step = operator_plan(phi.grid, tgrid).step
    shape = (tgrid.m + 1, phi.grid.n)
    vals = np.empty(shape, dtype=complex) if out is None else out
    if vals.shape != shape or vals.dtype != complex:
        raise ValueError(f"free_group_field: out must be a {shape} complex array")
    np.fft.fft(phi.values, out=vals[0])
    for i in range(1, len(vals)):
        np.multiply(vals[i - 1], step, out=vals[i])
    np.fft.ifft(vals[1:], axis=1, out=vals[1:])
    vals[0] = phi.values  # t=0 multiplier is identically 1
    return SolutionField(phi.grid, tgrid, vals)


def duhamel_field(w: np.ndarray, sgrid: SpatialGrid, tgrid: TimeGrid,
                  out: np.ndarray | None = None, start: int = 0,
                  stop: int | None = None) -> np.ndarray:
    """Dw on all time slices by the trapezoid rule, stepped in Fourier space.

    w holds the m+1 slices of the inhomogeneity on sgrid x tgrid, one row
    each. With E = e^{-i dt xi^2} and w_hat_j the slices' spectra, the
    spectrum D_i of Dw(., t_i), the trapezoid sum of
    -i e^{-i (t_i - t_j) xi^2} w_hat_j over t_j <= t_i, obeys the exact
    recursion
        D_i = E D_{i-1} + c (E w_hat_{i-1} + w_hat_i),      c = -i dt/2,
    from D_0 = 0: row 0 is set to exactly 0. Every step works in place
    on one (m+2, n) buffer, out when given (w may then be out[1:] itself,
    transformed in place), whose first m+1 rows are returned as an array;
    the plan is only read.

    The recursion is causal: slice i needs only D_{i-1} and the slices of w
    at t_{i-1} and t_i. Every call restarts it from row k-1 of the buffer,
    k = max(start, 1): D_{k-1} is that row's FFT, w's slices k-1.. are read
    and the rows k.. computed (that row and w's slices, copied into the
    rows below it unless w is out[1:], are transformed in one call, and
    the row put back). With start = 0 that row is row 0; with start = k > 0,
    out's rows hold an earlier call's Dw, and the rows 1..k-1 are not
    written and keep its values. With stop (m+1 by default) the recursion
    ends there: the rows [start, stop) are computed, w's slices from stop
    on are not read, row stop holds w's spectrum at t_{stop-1} and the rows
    after it are not written. The fixed-point solver restarts its one
    buffer this way, so that it recomputes only the block of slices it is
    iterating.
    """
    if not isinstance(sgrid, SpatialGrid):
        raise TypeError("duhamel_field needs a whole-line grid")
    m = tgrid.m
    stop = m + 1 if stop is None else stop
    if not 0 <= start < stop <= m + 1:
        raise ValueError("duhamel_field: 0 <= start < stop <= m+1 required")
    if start > 0 and out is None:
        raise ValueError("duhamel_field: start > 0 restarts from out, which is missing")
    step = operator_plan(sgrid, tgrid).step
    c = -0.5j * tgrid.dt
    # one spare row: w_hat_j sits on row j+1, so row i, the row of t_i, holds
    # w_hat_{i-1} when D_i/c = E (D_{i-1}/c + w_hat_{i-1}) + w_hat_i is
    # formed there from D_{i-1}/c (prev) and the row below
    buf = np.empty((m + 2, sgrid.n), dtype=complex) if out is None else out
    buf[0] = 0.0
    first = max(start, 1)
    rows, kept = buf[first - 1: stop + 1], buf[first - 1].copy()
    if w.__array_interface__["data"][0] != buf[1:].__array_interface__["data"][0]:
        rows[1:] = w[first - 1: stop]  # w is not buf[1:]
    np.fft.fft(rows, axis=1, out=rows)
    prev = rows[0] * (1.0 / c)
    rows[0] = kept
    for i in range(first, stop):
        row = buf[i]
        row += prev
        row *= step
        row += buf[i + 1]
        prev = row
    rows = buf[first:stop]
    rows *= c
    np.fft.ifft(rows, axis=1, out=rows)
    return buf[:-1]


def _bf_kernel_chunk(x, dt, m):
    """Piecewise-linear product-integration kernels (a_k, b_k) for |x| rows.

    fractional.panel_weights of the oscillatory panel moments: on panel k,
    M0 = 2[G]_{sigma_{k-1}}^{sigma_k} and the first moment comes from the
    antiderivative of sigma^2 e^{i A/sigma^2},
    W(sigma) = (sigma^3 e^{i A/sigma^2} + 2 i A G(sigma)) * 2/3.
    M0 and the first moment are differences of G and W, so G is taken less
    its value at sigma = 0 (the module docstring's form, one e^{i A/sigma^2}
    shared with W): the sigma = 0 column of G is zero, and there
    sigma^3 e^{i A/sigma^2} -> 0.
    At x=0 these reduce exactly to the half-order integral weights.
    """
    A = (0.25 * x * x)[:, None]
    ra = np.sqrt(A)
    sig = np.sqrt(np.arange(1, m + 1) * dt)
    E = np.exp(1j * A / (sig * sig))
    G = np.zeros((len(x), m + 1), dtype=complex)
    G[:, 1:] = E * (sig + 2j * ra * _F_INF * _faddeeva(_E_PLUS4 * ra / sig))
    W = 2j * A * G
    W[:, 1:] += sig**3 * E
    W *= 2.0 / 3.0
    M0 = 2.0 * (G[:, 1:] - G[:, :-1])
    Q1 = W[:, 1:] - W[:, :-1]
    return panel_weights(M0, Q1 / dt, ROOT_PI)


class OperatorPlan:
    """The grid-only work of the three operators on one (sgrid, tgrid) pair,
    built in chunks of _PLAN_CHUNK distinct |x| (see the module docstring).

    * step: the one-step propagator e^{-i dt xi^2}, shape (n,); the free
      group and Duhamel advance their spectra from one time slice to the
      next by it.
    * inv: maps the r distinct values of |x| back to the nodes; the forcing
      kernels depend on x^2 only, so they are built once per distinct |x|.
    * kspec: the length-2m FFT in t of the folded forcing kernel
      K_l = a_l + b_{l+1} (b_{m+1} = 0), shape (r, 2m): one row per distinct
      |x|, so forcing's inverse FFT runs along contiguous t. Only lags
      0..m of the product are read; the one wrapped lag, 2m, lands on lag 0,
      whose slice is zero by construction.
    * b: the b kernel less its lag 0, b_{l+1} on row l, shape (m, r): one
      column per distinct |x|, laid out like forcing's transposed rows. K's
      convolution with h counts b_{l+1} h_0, which the b-sum (starting at
      h_1) does not; forcing subtracts it.
    * forcing_sizes: the element counts of forcing's two buffers, out
      (max((m+1) n, 2 m r)) and work ((m+1) r).
    * weights, lags: the block forcing's order-1/2 weights, and K in t,
      lags 0..m, shape (r, m+1), formed on first use.

    The arrays are read-only: operator_plan hands the same plan to every
    caller on the same grids.
    """

    def __init__(self, sgrid: SpatialGrid, tgrid: TimeGrid):
        m = tgrid.m
        xi = sgrid.frequencies
        self.step = np.exp(-1j * tgrid.dt * xi * xi)
        absx, self.inv = np.unique(np.abs(sgrid.nodes), return_inverse=True)
        r = len(absx)
        self.forcing_sizes = (max((m + 1) * sgrid.n, 2 * m * r), (m + 1) * r)
        self.weights = _pl_weights(0.5, tgrid.dt, m)
        self.kspec = np.empty((r, 2 * m), dtype=complex)
        self.b = np.empty((m, r), dtype=complex)
        # row chunks bound the Fresnel temporaries of the kernel build; each
        # chunk's K is written into its rows of kspec and transformed there
        for lo in range(0, r, _PLAN_CHUNK):
            hi = min(lo + _PLAN_CHUNK, r)
            a, b = _bf_kernel_chunk(absx[lo:hi], tgrid.dt, m)
            rows = self.kspec[lo:hi]
            np.add(a[:, :m], b[:, 1:], out=rows[:, :m])
            rows[:, m] = a[:, m]
            rows[:, m + 1:] = 0.0
            np.fft.fft(rows, axis=1, out=rows)
            self.b[:, lo:hi] = b[:, 1:].T
        for arr in (self.step, self.inv, self.kspec, self.b, *self.weights):
            arr.flags.writeable = False

    @functools.cached_property
    def lags(self):
        """kspec's inverse t-FFT, lags 0..m, once, in _PLAN_CHUNK-row chunks."""
        r, m = len(self.kspec), self.kspec.shape[1] // 2
        lags = np.empty((r, m + 1), dtype=complex)
        for lo in range(0, r, _PLAN_CHUNK):
            hi = lo + _PLAN_CHUNK
            lags[lo:hi] = np.fft.ifft(self.kspec[lo:hi], axis=1)[:, : m + 1]
        lags.flags.writeable = False
        return lags


operator_plan = functools.lru_cache(maxsize=_PLAN_SLOTS)(OperatorPlan)


def _check_vanishing_start(f: TimeSignal, what):
    if not vanishes_at_start(f.values):
        raise ValueError(f"{what}: boundary data must vanish at t=0")


class ForcingHistory:
    """The state of boundary_forcing_time on consecutive blocks of slices of
    one grid pair, other than the whole interval: fixed, what f's samples
    before k, which a caller iterating one block [k, stop) holds fixed, fix
    on it, and span, the (k, stop) it was formed for. The first call on a
    block forms it and later ones reuse it while they end at the same stop
    and start in [k, stop) (see _forcing_block): those samples'
    half-integral g on [lo, top]; h of length stop, whose h_j, j < j0, they
    fix (each call writes the rest); and the part sum_{j < j0} K_{i-j} h_j
    of the forcing on the slices i in [k, stop), shape (stop-k, r).
    """

    span = fixed = None


def _lag_product(lags, h, j_lo, j_hi, start, stop, out=None):
    """sum_{j_lo <= j < j_hi} K_{i-j} h_j on the slices i in [start, stop)
    (K_l = 0 for l < 0), shape (stop-start, r), into out if given: one matrix
    product of h's Toeplitz rows with the lags max(start-j_hi+1, 0) .. stop-1-j_lo."""
    lo, hi = max(start - j_hi + 1, 0), stop - j_lo
    width = hi - lo
    # hz[t] = h_{t + off}, zero outside [j_lo, j_hi); row p of the Toeplitz
    # matrix is hz[p + width - 1 - c] at column c, the lag lo + c
    off = start - hi + 1
    hz = np.zeros(stop - start + width - 1, dtype=complex)
    a, b = max(j_lo, off), min(j_hi, off + len(hz))
    hz[a - off: b - off] = h[a:b]
    toeplitz = as_strided(hz[width - 1:], (stop - start, width), (hz.itemsize, -hz.itemsize))
    return np.matmul(toeplitz, lags[:, lo:hi].T, out=out)


def boundary_forcing_time(
    f: TimeSignal, sgrid: SpatialGrid, tgrid: TimeGrid | None = None,
    out: np.ndarray | None = None, work: np.ndarray | None = None, start: int = 0,
    stop: int | None = None, history: ForcingHistory | None = None,
) -> SolutionField:
    """Time-representation boundary forcing field on sgrid x f's grid, on
    its slices [start, stop) (stop = m+1 by default).

    Two flat complex buffers, allocated unless given, hold the work. On the
    whole interval, out (of at least the plan's forcing_sizes) first holds
    the (r, 2m) spectrum product of the whole t-FFT (r distinct |x|), then
    receives the field; work holds the product's transposed rows. A
    non-finite field raises ValueError, checked on the distinct-|x| rows it
    copies; rows that came out non-finite are first taken again with h
    scaled by a power of two, as the t-FFT of a finite h near the overflow
    threshold can overflow where the rows do not.

    On any other [start, stop), only those slices are computed, from f's
    samples up to stop, and only those rows of out are written (out is
    zeros elsewhere when allocated here); no t-FFT is taken. The field is
    the convolution of h with K in t, less K's h_0 b_{l+1} term: the part
    of h's samples from k-1 on is one product with the lags 0..stop-k, and
    the part of the earlier samples is history's rows, formed once per
    block [k, stop) (a ForcingHistory is built when none is given) and
    reused by a call with the same stop and a start in [k, stop), f's
    samples before k held fixed. They match the whole call's rows to
    rounding.
    """
    if tgrid is None:
        tgrid = f.grid
    if tgrid != f.grid:
        raise ValueError("boundary_forcing_time: f must live on tgrid")
    _check_vanishing_start(f, "boundary_forcing_time")
    m, n = tgrid.m, sgrid.n
    plan = operator_plan(sgrid, tgrid)
    r = len(plan.kspec)
    stop = m + 1 if stop is None else stop
    if (start, stop) != (0, m + 1):
        return _forcing_block(f, sgrid, plan, out, work, start, stop, history)
    h = frac_derivative(f, 0.5).values
    if out is None:
        out = np.empty(plan.forcing_sizes[0], dtype=complex)
    if work is None:
        work = np.empty(plan.forcing_sizes[1], dtype=complex)
    buf = out[: 2 * m * r].reshape(r, 2 * m)
    rows = work[: (m + 1) * r].reshape(m + 1, r)
    with np.errstate(over="ignore", invalid="ignore"):
        _whole_rows(h, plan, buf, rows)
        try:
            _as_complex(rows, rows.shape, "boundary_forcing_time")
        except NonFiniteError:
            # the t-FFT of an h near the overflow threshold overflows where
            # the rows need not: take it again on h scaled by a power of two
            e = int(np.frexp(np.max(np.abs(h.view(float))))[1])
            _whole_rows(np.ldexp(h.view(float), -e).view(complex), plan, buf, rows)
            np.ldexp(rows.view(float), e, out=rows.view(float))
            _as_complex(rows, rows.shape, "boundary_forcing_time")
    # the gather overwrites the product it no longer needs: np.take in mode
    # "clip" (inv is in range by construction) writes straight into out
    vals = out[: (m + 1) * n].reshape(m + 1, n)
    np.take(rows, plan.inv, axis=1, out=vals, mode="clip")
    return SolutionField._of_finite(sgrid, tgrid, vals)


def _whole_rows(h, plan, buf, rows):
    """The whole call's distinct-|x| rows from h's t-FFT, buf the (r, 2m)
    spectrum product: the transposed lags less K's h_0 b_{l+1} term, in one
    pass over the product (b_{m+1} = 0: lag m takes none)."""
    m = len(rows) - 1
    np.multiply(plan.kspec, np.fft.fft(h, 2 * m), out=buf)
    np.fft.ifft(buf, axis=1, out=buf)
    np.multiply(h[0], plan.b, out=rows[:m])
    rows[m] = 0.0
    np.subtract(buf[:, : m + 1].T, rows, out=rows)
    rows[0] = 0.0  # every kernel weight at lag 0 is zero by construction


def _forcing_block(f, sgrid, plan, out, work, start, stop, history):
    """boundary_forcing_time's slices [start, stop) alone, of the block
    [k, stop) that history spans: a call with the span's stop and a start
    in it reuses history, any other forms it anew with k = start.

    h_j = (g_{j+1} - g_{j-1}) / 2 dt with g = I_{1/2} f (one-sided at 0 and
    m). From k = 3 on, h_j for j < j0 = k - 1 reads only f's samples before
    k; below it h_0 reads g_2, and so f_2, one of the block's samples, and
    j0 = 0. g splits into the integral of the samples before k, formed once
    per block into history.fixed on [lo, top] (lo = max(j0 - 1, 0), top =
    min(max(stop, 2), m)), and the integral of the block's own samples
    after one zero sample (none at k = 0), O((stop - k)^2) per call. Their
    sum on [lo, top] gives h on [j0, stop); only the rows [start, stop) are
    formed and gathered.
    """
    tgrid = f.grid
    m, n, r = tgrid.m, sgrid.n, len(plan.kspec)
    if not 0 <= start < stop <= m + 1:
        raise ValueError("boundary_forcing_time: 0 <= start < stop <= m+1 required")
    if history is None:
        history = ForcingHistory()
    if out is None:
        out = np.zeros((m + 1) * n, dtype=complex)
    if work is None:
        work = np.empty((stop - start) * r, dtype=complex)
    v, weights, dt = f.values, plan.weights, tgrid.dt
    if history.span is None or history.span[1] != stop or history.span[0] > start:
        history.span, history.fixed = (start, stop), None
    k = history.span[0]
    j0 = k - 1 if k >= 3 else 0
    lo, top = max(j0 - 1, 0), min(max(stop, 2), m)
    if history.fixed is None:
        before = np.zeros(top + 1, dtype=complex)
        before[:k] = v[:k]
        g = _integral_values(before, weights, top)
        h = np.zeros(stop, dtype=complex)
        h[:j0] = _gradient(g, dt)[:j0]
        history.fixed = (g[lo:], h, _lag_product(plan.lags, h, 0, j0, k, stop))
    g, h, fixed = history.fixed
    s0 = max(k - 1, 0)
    own = np.zeros(top - s0 + 1, dtype=complex)
    own[k - s0:] = v[k: top + 1]
    g = g.copy()
    g[s0 - lo:] += _integral_values(own, weights, top - s0)
    h[j0:] = _gradient(g, dt)[j0 - lo: stop - lo]
    rows = work[: (stop - start) * r].reshape(stop - start, r)
    _lag_product(plan.lags, h, j0, stop, start, stop, out=rows)
    rows += fixed[start - k:]
    # K's h_0 b_{l+1} term, as the whole call subtracts it (lag m takes none)
    b = plan.b[start:stop]
    rows[: len(b)] -= h[0] * b
    if start == 0:
        rows[0] = 0.0  # every kernel weight at lag 0 is zero by construction
    _as_complex(rows, rows.shape, "boundary_forcing_time")
    vals = out[: (m + 1) * n].reshape(m + 1, n)
    np.take(rows, plan.inv, axis=1, out=vals[start:stop], mode="clip")
    return SolutionField._of_finite(sgrid, tgrid, vals)


def boundary_forcing_freq(
    f: TimeSignal, sgrid: SpatialGrid, tgrid: TimeGrid | None = None
) -> SolutionField:
    """Frequency-representation boundary forcing field.

    The multiplier e^{-|x| sqrt(tau - i0)} is evaluated on the contour
    shifted by gamma = _DAMP/(M dt) into the lower half plane, conjugated by
    e^{±gamma t} exactly as in the fractional Fourier path (padded_spectrum,
    damped_inverse);
    the principal square root on that contour tends, as gamma -> 0, to the
    lower-edge branch: sqrt(tau) for tau > 0 and -i sqrt(|tau|) for tau < 0.
    f is zero-padded _PAD-fold (4) in t.
    """
    if tgrid is None:
        tgrid = f.grid
    if tgrid != f.grid:
        raise ValueError("boundary_forcing_freq: f must live on tgrid")
    _check_vanishing_start(f, "boundary_forcing_freq")
    m = tgrid.m
    fhat, tau, gam = padded_spectrum(f)
    root = np.sqrt(tau - 1j * gam)
    absx = np.abs(sgrid.nodes)
    vals = np.empty((m + 1, sgrid.n), dtype=complex)
    for lo in range(0, sgrid.n, _X_CHUNK):
        hi = min(lo + _X_CHUNK, sgrid.n)
        mult = np.exp(-absx[lo:hi, None] * root[None, :])
        vals[:, lo:hi] = damped_inverse(mult * fhat[None, :], gam, tgrid).T
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
