"""Fractional integrals and derivatives of time signals.

Two independent computational paths are provided and cross-validated:

* a time-domain product-integration rule for the one-sided convolution

      (I_a f)(t) = (1/Gamma(a)) * int_0^t (t-s)^(a-1) f(s) ds,   a > 0,

  exact for piecewise-linear f: on each subinterval the data is linear and
  the kernel moments int (t-s)^(a-1) {1, s} ds are integrated in closed form,
  so the quadrature error is pure interpolation error, O(dt^2) for smooth f;

* a frequency-domain multiplier path using the kernel transform
  e^{-i pi a / 2} (tau - i0)^(-a), evaluated on a contour shifted slightly
  into the lower half plane (see frac_fourier_path).

Negative orders (fractional derivatives) are realized in the time domain as
d^k/dt^k applied to the (k-a)-th integral with k = ceil(a).
"""
from __future__ import annotations

import warnings
from math import ceil, gamma

import numpy as np

from .grids import TimeSignal
from .spectral import padded_spectrum

MAX_ORDER = 4.0
_VANISH_TOL = 1e-8


class EndpointWarning(UserWarning):
    """Data does not vanish at t=0 as the operator assumes."""


def _check_order(alpha):
    if abs(alpha) > MAX_ORDER:
        raise ValueError(f"order |alpha| <= {MAX_ORDER} supported, got {alpha}")


def _pl_weights(alpha, dt, m):
    """Product-integration weights for piecewise-linear data.

    Writing t_i - s = (k - theta) dt on the k-th lag interval, the exact
    moments over one interval are

        M0_k = int (t_i - s)^(a-1) ds       over s in [t_{i-k}, t_{i-k+1}]
        Q1_k = int (t_i - s)^(a-1) (s - t_{i-k}) ds

    and the linear interpolant f(s) = f_{i-k} + (s - t_{i-k}) df/dt
    contributes f_{i-k} (M0_k - M1_k) + f_{i-k+1} M1_k with M1_k = Q1_k/dt,
    which evaluates to M1_k = k*M0_k - dt^a (k^(a+1)-(k-1)^(a+1))/(a+1).
    Returns (a_k, b_k): the weights of f_{i-k} and f_{i-k+1}.
    """
    k = np.arange(m + 1, dtype=float)
    pk = k**alpha
    pk1 = k ** (alpha + 1.0)
    M0 = np.zeros(m + 1)
    M1 = np.zeros(m + 1)
    M0[1:] = dt**alpha * (pk[1:] - pk[:-1]) / alpha
    M1[1:] = k[1:] * M0[1:] - dt**alpha * (pk1[1:] - pk1[:-1]) / (alpha + 1.0)
    a = np.zeros(m + 1)
    b = np.zeros(m + 1)
    a[1:] = M0[1:] - M1[1:]
    b[1:] = M1[1:]
    return a / gamma(alpha), b / gamma(alpha)


def frac_integral(f: TimeSignal, alpha: float) -> TimeSignal:
    """Riemann-Liouville integral of order alpha > 0 on f's grid."""
    _check_order(alpha)
    if alpha <= 0.0:
        raise ValueError("frac_integral: alpha > 0 required (use frac_derivative)")
    m = f.grid.m
    a, b = _pl_weights(alpha, f.grid.dt, m)
    v = f.values
    out = np.convolve(v, a)[: m + 1]
    out[1:] += np.convolve(v[1:], b)[1 : m + 1]
    return TimeSignal(f.grid, out)


def frac_derivative(f: TimeSignal, alpha: float) -> TimeSignal:
    """Fractional derivative of order alpha > 0 (the -alpha integral).

    Computed as d^k/dt^k of the (k - alpha)-integral, k = ceil(alpha), with
    second-order differencing (one-sided at the endpoints). Data should
    vanish at t=0; otherwise the continuum derivative is singular there and
    an EndpointWarning is issued.
    """
    _check_order(alpha)
    if alpha <= 0.0:
        raise ValueError("frac_derivative: alpha > 0 required")
    scale = np.max(np.abs(f.values)) or 1.0
    if abs(f.values[0]) > _VANISH_TOL * scale:
        warnings.warn(
            "frac_derivative: f(0) != 0; result is inaccurate near t=0",
            EndpointWarning,
            stacklevel=2,
        )
    k = ceil(alpha)
    if k - alpha > 0.0:
        g = frac_integral(f, k - alpha).values
    else:
        g = f.values.astype(complex)
    for _ in range(k):
        g = np.gradient(g, f.grid.dt, edge_order=2)
    return TimeSignal(f.grid, g)


def frac_fourier_path(f: TimeSignal, alpha: float) -> TimeSignal:
    """Frequency-domain evaluation of the order-alpha integral (any sign).

    The kernel transform is e^{-i pi a/2} (tau - i0)^(-a), the boundary value
    of (tau - i z)^(-a) from z > 0. It is evaluated at the small finite shift
    z = gamma = _DAMP/(M dt) on a _PAD-fold zero-extended grid (padded_spectrum),
    conjugated by the exponential weight:

        I_a f = e^{gamma t} F^{-1}[ e^{-i pi a/2} (tau_k - i gamma)^(-a)
                                     F[e^{-gamma t} f] ]

    The shift removes the tau=0 singularity and simultaneously kills periodic
    wrap-around (suppression e^{-_DAMP}); the principal branch of the complex
    power is the correct branch since arg(tau - i gamma) lies in (-pi, 0).
    The weight amplifies roundoff by at most e^{_DAMP/_PAD} at the far end.
    """
    _check_order(alpha)
    if alpha == 0.0:
        return f.copy()
    fhat, tau, gam = padded_spectrum(f)
    mult = np.exp(-0.5j * np.pi * alpha) * (tau - 1j * gam) ** (-alpha)
    out = np.fft.ifft(mult * fhat)[: f.grid.m + 1]
    return TimeSignal(f.grid, out * np.exp(gam * f.grid.nodes))
