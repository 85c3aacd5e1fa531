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

The rule is a causal convolution in t, so it splits at any sample: the
boundary forcing's block path (operators._forcing_block) integrates the
samples before a block once and only the block's own samples on each call.
"""
from __future__ import annotations

import warnings
from math import ceil, gamma

import numpy as np

from .grids import TimeSignal
from .spectral import damped_inverse, padded_spectrum

MAX_ORDER = 4.0
_VANISH_TOL = 1e-8


class EndpointWarning(UserWarning):
    """Data does not vanish at t=0 as the operator assumes."""


def vanishes_at_start(values):
    """|f(0)| <= _VANISH_TOL max |f|: samples that vanish at t=0 relative to
    their own scale (an identically zero f does)."""
    return abs(values[0]) <= _VANISH_TOL * np.max(np.abs(values))


def _check_order(alpha):
    if abs(alpha) > MAX_ORDER:
        raise ValueError(f"order |alpha| <= {MAX_ORDER} supported, got {alpha}")


def panel_weights(M0, Q1_dt, norm):
    """Product-integration weights for piecewise-linear data from the panel
    moments of a kernel K at lags 1..m (last axis),

        M0_k = int K(t_i - s) ds,   Q1_k = int K(t_i - s) (t_i - s) ds,

    over the k-th lag interval s in [t_{i-k}, t_{i-k+1}]. There s - t_{i-k}
    = k dt - (t_i - s), so the linear interpolant of f contributes
    f_{i-k} (M0_k - M1_k) + f_{i-k+1} M1_k with M1_k = k M0_k - Q1_k/dt.
    Returns (a_k, b_k) of lags 0..m, the weights of f_{i-k} and f_{i-k+1},
    divided by norm; lag 0 has none.
    """
    k = np.arange(1, M0.shape[-1] + 1, dtype=float)
    M1 = k * M0 - Q1_dt
    a = np.zeros(M0.shape[:-1] + (M0.shape[-1] + 1,), dtype=M0.dtype)
    b = np.zeros_like(a)
    a[..., 1:] = M0 - M1
    b[..., 1:] = M1
    return a / norm, b / norm


def _pl_weights(alpha, dt, m):
    """panel_weights of the kernel (t_i - s)^(a-1), norm Gamma(a), whose
    moments are M0_k = dt^a (k^a - (k-1)^a)/a and
    Q1_k/dt = dt^a (k^(a+1) - (k-1)^(a+1))/(a+1)."""
    k = np.arange(m + 1, dtype=float)
    M0 = dt**alpha * np.diff(k**alpha) / alpha
    Q1_dt = dt**alpha * np.diff(k ** (alpha + 1.0)) / (alpha + 1.0)
    return panel_weights(M0, Q1_dt, gamma(alpha))


def frac_integral(f: TimeSignal, alpha: float) -> TimeSignal:
    """Riemann-Liouville integral of order alpha > 0 on f's grid."""
    _check_order(alpha)
    if alpha <= 0.0:
        raise ValueError("frac_integral: alpha > 0 required (use frac_derivative)")
    m = f.grid.m
    return TimeSignal(f.grid, _integral_values(f.values, _pl_weights(alpha, f.grid.dt, m), m))


def _integral_values(v, weights, m):
    """The integral of the samples v (zero after them, at least two) on the
    nodes 0..m, from the panel weights (a, b) of its order on lags 0..m or
    more; each output reads only the samples up to its own."""
    a, b = weights
    out = np.convolve(v, a[: m + 1])[: m + 1]
    out[1:] += np.convolve(v[1:], b[: m + 1])[1 : m + 1]
    return out


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
    if not vanishes_at_start(f.values):
        warnings.warn(
            "frac_derivative: f(0) != 0; result is inaccurate near t=0",
            EndpointWarning,
            stacklevel=2,
        )
    k = ceil(alpha)
    g = frac_integral(f, k - alpha).values if k - alpha > 0.0 else f.values.copy()
    for _ in range(k):
        g = np.gradient(g, f.grid.dt, edge_order=2)
    return TimeSignal(f.grid, g)


def frac_fourier_path(f: TimeSignal, alpha: float) -> TimeSignal:
    """Frequency-domain evaluation of the order-alpha integral (any sign).

    The kernel transform is e^{-i pi a/2} (tau - i0)^(-a), the boundary value
    of (tau - i z)^(-a) from z > 0. It is evaluated at the small finite shift
    z = gamma = _DAMP/(M dt) on a _PAD-fold zero-extended grid, conjugated by
    the exponential weight (padded_spectrum, damped_inverse):

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
    return TimeSignal(f.grid, damped_inverse(mult * fhat, gam, f.grid))
