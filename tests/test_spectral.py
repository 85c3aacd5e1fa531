"""Spectral substrate: the H^s norm in x, the damped padded transform in t,
the smooth ramp, the half-line extension and the boundary value at 0.

A closed form serves as oracle: the H^1 norm of exp(-x^2) is (2 pi)^{1/4}.
"""
import math

import numpy as np
import pytest

from halfline_nls import GridFunction, SpatialGrid, TimeGrid, TimeSignal
from halfline_nls.spectral import (
    _DAMP,
    _PAD,
    boundary_value,
    extend_half_line,
    padded_spectrum,
    smooth_ramp,
    sobolev_norm,
)


def _gaussian_on(grid):
    return GridFunction(grid, np.exp(-grid.nodes**2).astype(complex))


def test_sobolev_norm_s0_is_l2():
    grid = SpatialGrid(-20.0, 20.0, 512)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    direct = math.sqrt(grid.dx * float(np.sum(np.abs(v) ** 2)))
    assert abs(sobolev_norm(v, grid, 0.0) - direct) < 1e-12 * direct
    # on rows it is the Picard loop's sum in x, bit for bit
    rows = np.stack([v, 2.0 * v, v.conj()])
    re_im = rows.view(float)
    xsum = np.sqrt(grid.dx * np.einsum("ij,ij->i", re_im, re_im))
    assert np.array_equal(sobolev_norm(rows, grid, 0.0), xsum)


def test_h1_norm_of_gaussian_closed_form():
    # || exp(-x^2) ||_{H^1}^2 = sqrt(2 pi), so the norm is (2 pi)^{1/4}
    g = _gaussian_on(SpatialGrid(-40.0, 40.0, 1024))
    exact = (2.0 * np.pi) ** 0.25
    assert abs(sobolev_norm(g.values, g.grid, 1.0) - exact) < 1e-12 * exact


def test_sobolev_norm_is_batched_over_the_last_axis():
    grid = SpatialGrid(-20.0, 20.0, 256)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((5, 256)) + 1j * rng.standard_normal((5, 256))
    for s in (0.0, 0.3, 1.0):
        batched = sobolev_norm(v, grid, s)
        assert batched.shape == (5,)
        rows = [sobolev_norm(row, grid, s) for row in v]
        assert all(isinstance(r, float) for r in rows)
        np.testing.assert_allclose(batched, rows, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_sobolev_norm_of_a_huge_finite_slice_is_finite(s):
    # |v|^2 overflows above about 1e154: such a slice is summed again over
    # its largest |.|, and only such a slice; a slice that is not finite
    # keeps a non-finite norm
    grid = SpatialGrid(-20.0, 20.0, 256)
    v = np.exp(-grid.nodes**2) * (1.0 + 0.5j)
    unit = sobolev_norm(v, grid, s)
    rows = np.stack([v, 1e160 * v, 1e300 * v, np.full(256, np.inf + 0j)])
    with np.errstate(over="ignore", invalid="ignore"):
        one = sobolev_norm(1e160 * v, grid, s)
        norms = sobolev_norm(rows, grid, s)
    assert isinstance(one, float) and one == pytest.approx(1e160 * unit, rel=1e-14)
    assert norms[0] == unit
    assert norms[1] == pytest.approx(1e160 * unit, rel=1e-14)
    assert norms[2] == pytest.approx(1e300 * unit, rel=1e-14)
    assert not np.isfinite(norms[3])


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_sobolev_norm_of_a_tiny_slice_is_accurate(s):
    # the squares of a slice scaled by 1e-160 are subnormal: such a slice is
    # summed again over its largest |.| (measured off by 1.3e-5 at s = 0 and
    # 3.3e-6 at s = 0.3 without), while a zero slice keeps norm 0
    grid = SpatialGrid(-10.0, 10.0, 64)
    v = np.exp(-grid.nodes**2) * (1.0 + 0.5j)
    unit = sobolev_norm(v, grid, s)
    tiny = pytest.approx(1e-160 * unit, rel=1e-14, abs=0.0)
    assert sobolev_norm(1e-160 * v, grid, s) == tiny
    norms = sobolev_norm(np.stack([v, 1e-160 * v, 0.0 * v]), grid, s)
    assert norms[0] == unit
    assert norms[1] == tiny
    assert norms[2] == 0.0


@pytest.mark.parametrize("pad, m", [(4, 8), (4, 15), (4, 16)])
def test_padded_spectrum_length_is_smallest_power_of_two(pad, m):
    # pad*(m+1) = 36, 64, 68: (4, 15) is a power of two
    assert pad == _PAD
    tg = TimeGrid(1.0, m)
    fhat, tau, gamma = padded_spectrum(TimeSignal(tg, np.ones(m + 1)))
    M = len(fhat)
    assert M & (M - 1) == 0
    assert M >= pad * (m + 1) > M // 2
    assert len(tau) == M
    assert gamma == _DAMP / (M * tg.dt)


def test_padded_spectrum_is_the_zero_extended_fft_of_the_damped_signal():
    tg = TimeGrid(1.0, 16)
    v = np.arange(17) + 1j
    fhat, tau, gamma = padded_spectrum(TimeSignal(tg, v))
    assert gamma == _DAMP / (128 * tg.dt)
    buf = np.zeros(128, dtype=complex)
    buf[:17] = v * np.exp(-gamma * tg.nodes)
    assert np.array_equal(fhat, np.fft.fft(buf))
    assert np.array_equal(tau, 2.0 * np.pi * np.fft.fftfreq(128, d=tg.dt))


def test_smooth_ramp_profile():
    assert smooth_ramp(np.array([-3.0, -1e-12, 0.0])).tolist() == [0.0, 0.0, 0.0]
    assert smooth_ramp(np.array([1.0, 1.5, 10.0])).tolist() == [1.0, 1.0, 1.0]
    assert smooth_ramp(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-15)
    sig = np.linspace(0.0, 1.0, 201)
    vals = smooth_ramp(sig)
    # monotone throughout; strictly so away from the flat tails, where the
    # values are within one ulp of 0 or 1 and rounding flattens them
    assert np.all(np.diff(vals) >= 0.0)
    core = (sig >= 0.1) & (sig <= 0.9)
    assert np.all(np.diff(vals[core]) > 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def _halfline_h1_sech():
    # || sech(x-2) ||_{H^1(0, inf)} frozen from scipy.integrate.quad of
    # sech^2(u-2) (1 + tanh^2(u-2)) over [0, 60]
    return 1.6112108259


def test_extension_copies_data_and_is_bounded():
    grid = SpatialGrid(-40.0, 40.0, 1024)
    x = grid.nodes
    xpos = x[x >= 0.0]
    phi = 1.0 / np.cosh(xpos - 2.0) + 0j
    ext = extend_half_line(phi, grid)
    assert np.array_equal(ext.values[x >= 0.0], phi)
    # the window kills everything left of x_min/2
    assert np.all(ext.values[x <= -20.0] == 0.0)
    ratio = sobolev_norm(ext.values, grid, 1.0) / _halfline_h1_sech()
    assert 0.99 < ratio < 2.5  # measured 1.4146


def test_extension_reflects_evenly_near_zero():
    # integer grid, so reflected points land on nodes and the window is 1
    grid = SpatialGrid(-32.0, 32.0, 64)
    x = grid.nodes
    xpos = x[x >= 0.0]
    phi = np.exp(-0.3 * xpos) + 0j
    ext = extend_half_line(phi, grid)
    for k in (1, 2, 5):
        j = np.nonzero(x == -float(k))[0][0]
        assert ext.values[j] == pytest.approx(np.exp(-0.3 * k), rel=1e-14)


def test_extension_sample_count_check():
    grid = SpatialGrid(-32.0, 32.0, 64)
    with pytest.raises(ValueError):
        extend_half_line(np.zeros(5), grid)


def test_boundary_value_exact_at_node():
    grid = SpatialGrid(-2.0, 2.0, 16)
    x = grid.nodes
    xpos = x[x >= 0.0]
    assert xpos[0] == 0.0
    phi = np.cos(xpos) + 2j * xpos
    assert boundary_value(phi, grid) == phi[0]


def test_boundary_value_quadratic_extrapolation():
    # choose offsets so no node sits at x=0, then a quadratic must be
    # reproduced exactly up to rounding
    grid = SpatialGrid(-2.1, 2.9, 16)
    x = grid.nodes
    xpos = x[x >= 0.0]
    assert xpos[0] > 0.0
    phi = 2.0 - xpos + 3.0 * xpos**2 + 0j
    assert boundary_value(phi, grid) == pytest.approx(2.0, rel=1e-12)
