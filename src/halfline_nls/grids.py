"""Uniform grids and the sampled-function containers used across the package.

Spatial grids are periodic FFT grids on [x_min, x_max): n nodes, x_max itself
excluded. Time grids sample [0, t_max] inclusively with m+1 nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


def interp_complex(x, xp, fp):
    """Piecewise-linear interpolation of complex samples fp at nodes xp,
    real and imaginary parts separately (np.interp on each)."""
    return np.interp(x, xp, fp.real) + 1j * np.interp(x, xp, fp.imag)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform whole-line (truncated) grid with x_min < 0 < x_max and at
    least three nodes at x >= 0."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (-np.inf < self.x_min < 0.0 < self.x_max < np.inf):
            raise ValueError("need finite x_min < 0 < x_max")
        if not _is_pow2(self.n) or self.n < 16:
            raise ValueError("n must be a power of two, n >= 16")
        # x=0 extrapolation and the one-sided stencils at x=0 use three nodes
        if np.count_nonzero(self.nodes >= 0.0) < 3:
            raise ValueError("need at least three nodes with x >= 0")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n

    @property
    def nodes(self):
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def frequencies(self):
        """Discrete frequencies on [-pi/dx, pi/dx), fftfreq ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def index_nearest_zero(self):
        return int(np.argmin(np.abs(self.nodes)))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_max], m+1 samples."""

    t_max: float
    m: int

    def __post_init__(self):
        if not 0.0 < self.t_max < np.inf:
            raise ValueError("t_max must be positive and finite")
        if self.m < 8:
            raise ValueError("m >= 8 required")

    @property
    def dt(self):
        return self.t_max / self.m

    @property
    def nodes(self):
        return self.dt * np.arange(self.m + 1)


@dataclass(frozen=True)
class HalfLineGrid:
    """Uniform grid on [0, x_max], nx+1 samples (finite-difference domain)."""

    x_max: float
    nx: int

    def __post_init__(self):
        if not 0.0 < self.x_max < np.inf or self.nx < 2:
            raise ValueError("bad half-line grid")

    @property
    def dx(self):
        return self.x_max / self.nx

    @property
    def nodes(self):
        return self.dx * np.arange(self.nx + 1)

    def index_nearest_zero(self):
        return 0


def _as_complex(values, shape, what):
    v = np.asarray(values, dtype=complex)
    if v.shape != shape:
        raise ValueError(f"{what}: expected shape {shape}, got {v.shape}")
    if not np.all(np.isfinite(v.view(float))):
        raise ValueError(f"{what}: non-finite entries")
    return v


@dataclass
class GridFunction:
    """One spatial slice: complex samples on a SpatialGrid."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_complex(self.values, (self.grid.n,), "GridFunction")

    def copy(self):
        return GridFunction(self.grid, self.values.copy())


@dataclass
class TimeSignal:
    """Complex samples on a TimeGrid (boundary data, traces, histories)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_complex(self.values, (self.grid.m + 1,), "TimeSignal")

    def copy(self):
        return TimeSignal(self.grid, self.values.copy())


@dataclass
class SolutionField:
    """Space-time array u[i, j] = u(x_j, t_i) with attached grids.

    sgrid is a SpatialGrid for whole-line fields or a HalfLineGrid for
    finite-difference fields; both expose .nodes and .index_nearest_zero().
    """

    sgrid: object
    tgrid: TimeGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = (self.tgrid.m + 1, len(self.sgrid.nodes))
        self.values = _as_complex(self.values, shape, "SolutionField")

    def slice_at(self, t_index):
        if not isinstance(self.sgrid, SpatialGrid):
            raise TypeError("slice_at needs a whole-line field")
        return GridFunction(self.sgrid, self.values[t_index].copy())

    def trace_nearest_zero(self):
        """Time trace at the node nearest x=0."""
        j = self.sgrid.index_nearest_zero()
        return TimeSignal(self.tgrid, self.values[:, j].copy())
