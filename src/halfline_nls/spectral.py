"""Spectral substrate: the Sobolev norm in x, the damped padded transform in
t, the smooth ramp, the half-line -> whole-line extension and the boundary
value at x=0. Each is the one implementation its callers share.

Conventions. The forward transform approximates g_hat(xi) = int e^{-i x xi} g dx
and is realized as dx * fft(g) on the periodic grid; the discrete frequencies
are xi_k = 2*pi*fftfreq(n, dx) in [-pi/dx, pi/dx). With the inverse carrying
the 1/(2*pi) weight, the discrete Parseval identity

    (d_xi / 2 pi) * sum |g_hat|^2  =  dx * sum |g|^2

holds exactly, so at s=0 the Plancherel sum is the grid L2 norm up to
rounding; sobolev_norm takes that norm as the sum in x. Multiplier
applications ifft(m * fft(g)) do not depend on the grid's absolute position
(the x_min phase factors cancel), which is the only way transforms are used
here.
"""
from __future__ import annotations

import numpy as np

from .grids import GridFunction, SpatialGrid, TimeSignal, interp_complex


def sobolev_norm(values, grid: SpatialGrid, s: float):
    """Inhomogeneous H^s norm in x of each slice along the last axis.

    The weighted Plancherel sum sqrt(dx/n * sum (1+xi^2)^s |fft(values)|^2);
    the scale is applied after the sum, so the spectrum is never rescaled.
    At s = 0 it is the sum in x, sqrt(dx * sum |values|^2), equal by Parseval
    up to rounding, with no transform and no temporary.
    Returns a float for one slice and an array for a stack of slices.
    """
    if s == 0.0:
        v = np.ascontiguousarray(values, dtype=complex).view(float)
        rows = v.reshape(-1, v.shape[-1])
        norm = np.sqrt(grid.dx * np.einsum("ij,ij->i", rows, rows))
        norm = norm.reshape(v.shape[:-1])
    else:
        xi = grid.frequencies
        # (1+xi^2)^s |spectrum|^2 in place: **2 is x*x, so this is bit-equal
        p = np.abs(np.fft.fft(values, axis=-1))
        p *= p
        p *= (1.0 + xi * xi) ** s
        norm = np.sqrt(grid.dx / grid.n * np.sum(p, axis=-1))
    return float(norm) if norm.ndim == 0 else norm


_PAD = 4
_DAMP = 30.0


def padded_spectrum(f: TimeSignal):
    """FFT of f e^{-gamma t}, zero-padded to M points, with its frequencies.

    M is the smallest power of two >= _PAD*(m+1) and gamma = _DAMP/(M dt):
    the contour shift in the lower half plane that the damped Fourier paths
    (fractional order, boundary forcing) use, with wrap-around suppressed by
    e^{-_DAMP}. Returns (fhat, tau, gamma) with tau = 2 pi fftfreq(M, dt).
    """
    m, dt = f.grid.m, f.grid.dt
    M = 1 << (_PAD * (m + 1) - 1).bit_length()
    gamma = _DAMP / (M * dt)
    fhat = np.fft.fft(f.values * np.exp(-gamma * f.grid.nodes), M)
    tau = 2.0 * np.pi * np.fft.fftfreq(M, d=dt)
    return fhat, tau, gamma


def _psi(sigma):
    out = np.zeros_like(sigma)
    pos = sigma > 0.0
    out[pos] = np.exp(-1.0 / sigma[pos])
    return out


def smooth_ramp(sigma):
    """C-infinity ramp: 0 for sigma<=0, 1 for sigma>=1, strictly monotone
    between, built from the standard exp(-1/s) gluing."""
    sigma = np.clip(np.asarray(sigma, dtype=float), 0.0, 1.0)
    a = _psi(sigma)
    b = _psi(1.0 - sigma)
    return a / (a + b)


def _extension_window(x, x_min):
    """1 for x >= x_min/4, 0 for x <= x_min/2, smooth ramp between."""
    lo = 0.5 * x_min
    hi = 0.25 * x_min
    return smooth_ramp((x - lo) / (hi - lo))


def extend_half_line(phi, grid: SpatialGrid) -> GridFunction:
    """Whole-line extension of half-line samples: even reflection about x=0
    times a smooth window supported in x > x_min/2.

    phi holds samples at the grid nodes with x >= 0, in node order. The x>=0
    samples are copied bit-exact; without a node at x=0 the reflection is
    anchored at boundary_value(phi, grid).
    """
    phi = np.asarray(phi, dtype=complex)
    x = grid.nodes
    nonneg = np.nonzero(x >= 0.0)[0]
    if len(phi) != len(nonneg):
        raise ValueError(
            f"phi must be sampled on the {len(nonneg)} grid nodes with x >= 0, "
            f"got {len(phi)}"
        )
    out = np.zeros(grid.n, dtype=complex)
    out[nonneg] = phi

    xs = x[nonneg]
    vals = phi
    if xs[0] > 0.0:
        xs = np.concatenate(([0.0], xs))
        vals = np.concatenate(([boundary_value(phi, grid)], vals))

    neg = np.nonzero(x < 0.0)[0]
    xr = -x[neg]
    refl = interp_complex(xr, xs, vals)
    out[neg] = _extension_window(x[neg], grid.x_min) * refl
    return GridFunction(grid, out)


def boundary_value(phi, grid: SpatialGrid):
    """phi(0) from half-line samples: the exact node value when the grid has
    an x=0 node, else a quadratic extrapolation from the first three nodes."""
    phi = np.asarray(phi, dtype=complex)
    x = grid.nodes
    nonneg = np.nonzero(x >= 0.0)[0]
    xs = x[nonneg]
    if xs[0] == 0.0:
        return complex(phi[0])
    x0, x1, x2 = xs[:3]
    v0, v1, v2 = phi[:3]
    l0 = (0 - x1) * (0 - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (0 - x0) * (0 - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (0 - x0) * (0 - x1) / ((x2 - x0) * (x2 - x1))
    return complex(l0 * v0 + l1 * v1 + l2 * v2)
