"""Grid containers: construction rules, node layout, shape checking."""
import numpy as np
import pytest

from halfline_nls import (
    GridFunction,
    HalfLineGrid,
    SolutionField,
    SpatialGrid,
    TimeGrid,
    TimeSignal,
)


def test_spatial_grid_rejects_non_power_of_two():
    for bad in (384, 100, 17, 1000):
        with pytest.raises(ValueError):
            SpatialGrid(-10.0, 10.0, bad)


def test_spatial_grid_rejects_small_n():
    with pytest.raises(ValueError):
        SpatialGrid(-10.0, 10.0, 8)
    # 16 is the smallest accepted size
    SpatialGrid(-10.0, 10.0, 16)


def test_spatial_grid_needs_origin_strictly_inside():
    with pytest.raises(ValueError):
        SpatialGrid(0.0, 10.0, 64)
    with pytest.raises(ValueError):
        SpatialGrid(1.0, 10.0, 64)
    with pytest.raises(ValueError):
        SpatialGrid(-10.0, 0.0, 64)
    with pytest.raises(ValueError):
        SpatialGrid(-10.0, -1.0, 64)
    for lo, hi in ((-np.inf, 10.0), (-10.0, np.inf), (np.nan, 10.0), (-10.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            SpatialGrid(lo, hi, 64)


def test_spatial_grid_needs_three_nonnegative_nodes():
    # x=0 extrapolation and the one-sided stencils at x=0 use three nodes
    with pytest.raises(ValueError, match="three nodes"):
        SpatialGrid(-100.0, 1.0, 16)  # no node at x >= 0
    with pytest.raises(ValueError, match="three nodes"):
        SpatialGrid(-14.0, 2.0, 16)  # nodes 0 and 1 only
    assert np.count_nonzero(SpatialGrid(-13.0, 3.0, 16).nodes >= 0.0) == 3


def test_spatial_grid_node_layout():
    g = SpatialGrid(-2.0, 2.0, 16)
    assert g.dx == 0.25
    x = g.nodes
    assert len(x) == 16
    assert x[0] == -2.0
    # periodic grid: the right endpoint itself is excluded
    assert x[-1] == 2.0 - 0.25
    assert np.allclose(np.diff(x), 0.25)
    # frequency array matches numpy's fft layout
    xi = g.frequencies
    assert xi[0] == 0.0
    assert np.allclose(xi, 2.0 * np.pi * np.fft.fftfreq(16, d=0.25))


def test_index_nearest_zero_and_positive_indices():
    g = SpatialGrid(-2.0, 2.0, 16)
    j = g.index_nearest_zero()
    assert g.nodes[j] == 0.0
    pos = np.nonzero(g.nodes > 0.0)[0]
    assert np.array_equal(pos, np.arange(j + 1, g.n))
    assert len(pos) + j + 1 == g.n  # nodes left of 0, the 0 node, nodes right


def test_time_grid_layout():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 7)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 64)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 64)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(bad, 64)
    tg = TimeGrid(0.5, 8)
    assert tg.dt == 0.0625
    t = tg.nodes
    assert len(t) == 9
    assert t[0] == 0.0
    assert t[-1] == 0.5


def test_half_line_grid_layout():
    with pytest.raises(ValueError):
        HalfLineGrid(-1.0, 64)
    with pytest.raises(ValueError):
        HalfLineGrid(10.0, 1)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            HalfLineGrid(bad, 64)
    hg = HalfLineGrid(10.0, 100)
    assert hg.dx == 0.1
    assert len(hg.nodes) == 101
    assert hg.nodes[0] == 0.0
    assert hg.nodes[-1] == 10.0


def test_grid_function_shape_and_finiteness():
    g = SpatialGrid(-2.0, 2.0, 16)
    GridFunction(g, np.zeros(16))
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(17))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(16, np.nan))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(16, np.inf + 0j))


def test_grid_function_copy_is_independent():
    g = SpatialGrid(-2.0, 2.0, 16)
    a = GridFunction(g, np.ones(16, dtype=complex))
    b = a.copy()
    b.values[0] = 5.0
    assert a.values[0] == 1.0


def test_time_signal_shape_and_copy():
    tg = TimeGrid(1.0, 8)
    s = TimeSignal(tg, np.zeros(9))
    with pytest.raises(ValueError):
        TimeSignal(tg, np.zeros(8))
    c = s.copy()
    c.values[0] = 2.0
    assert s.values[0] == 0.0


def test_solution_field_shape_check():
    sg = SpatialGrid(-2.0, 2.0, 16)
    tg = TimeGrid(1.0, 8)
    SolutionField(sg, tg, np.zeros((9, 16)))
    with pytest.raises(ValueError):
        SolutionField(sg, tg, np.zeros((16, 9)))
    with pytest.raises(ValueError):
        SolutionField(sg, tg, np.full((9, 16), np.nan))


def test_solution_field_slices_and_trace():
    sg = SpatialGrid(-2.0, 2.0, 16)
    tg = TimeGrid(1.0, 8)
    vals = (np.arange(9)[:, None] + 1j * np.arange(16)[None, :]).astype(complex)
    u = SolutionField(sg, tg, vals)
    sl = u.slice_at(3)
    assert isinstance(sl, GridFunction)
    assert np.array_equal(sl.values, vals[3])
    sl.values[0] = 99.0  # slice is a copy
    assert u.values[3, 0] == vals[3, 0]

    tr = u.trace_nearest_zero()
    j = sg.index_nearest_zero()
    assert np.array_equal(tr.values, vals[:, j])


def test_solution_field_on_half_line_grid():
    hg = HalfLineGrid(10.0, 20)
    tg = TimeGrid(1.0, 8)
    u = SolutionField(hg, tg, np.zeros((9, 21)))
    # the trace lives at the left edge, which is x=0 for this grid kind
    assert hg.index_nearest_zero() == 0
    tr = u.trace_nearest_zero()
    assert len(tr.values) == 9
    with pytest.raises(TypeError):
        u.slice_at(0)
