"""Linear solution operators: free propagator, inhomogeneous integral,
boundary forcing in both representations, derivative jump at the origin.

Interior residuals are formed with centered differences in t and x. The
forcing field has a corner at x=0, so its residual is evaluated on
|x| > 1/2 only; spectral differentiation would smear that corner over the
whole grid.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline_nls import (
    EdgeDecayWarning,
    GridFunction,
    SolutionField,
    SpatialGrid,
    TimeGrid,
    TimeSignal,
    boundary_forcing_freq,
    boundary_forcing_time,
    derivative_jump,
    duhamel,
    duhamel_field,
    frac_derivative,
    free_group,
    free_group_field,
)
from halfline_nls.operators import _bf_kernel_chunk, branch_sqrt, operator_plan


def _gaussian_exact(x, t):
    # closed-form free evolution of exp(-x^2)
    den = 1.0 + 4.0j * t
    return np.exp(-x * x / den) / np.sqrt(den)


def _vxx_fd(V, dx):
    return (V[:, 2:] - 2.0 * V[:, 1:-1] + V[:, :-2]) / dx**2


def test_free_group_zero_time_is_copy():
    g = SpatialGrid(-40.0, 40.0, 256)
    phi = GridFunction(g, np.exp(-g.nodes**2).astype(complex))
    out = free_group(phi, 0.0)
    assert np.array_equal(out.values, phi.values)
    out.values[0] = 9.0
    assert phi.values[0] != 9.0


def test_free_group_gaussian_closed_form():
    g = SpatialGrid(-40.0, 40.0, 1024)
    phi = GridFunction(g, np.exp(-g.nodes**2).astype(complex))
    for t in (0.1, 0.3, 1.0):
        out = free_group(phi, t)
        exact = _gaussian_exact(g.nodes, t)
        err = np.max(np.abs(out.values - exact))
        assert err < 1e-7, (t, err)  # measured at rounding level


def test_free_group_unitary_and_group_law():
    g = SpatialGrid(-40.0, 40.0, 1024)
    phi = GridFunction(g, np.exp(-g.nodes**2).astype(complex))
    norm0 = np.linalg.norm(phi.values)
    u1 = free_group(phi, 0.37)
    assert abs(np.linalg.norm(u1.values) / norm0 - 1.0) < 1e-12
    u12 = free_group(u1, 0.21)
    direct = free_group(phi, 0.58)
    assert np.linalg.norm(u12.values - direct.values) / norm0 < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    t1=st.floats(min_value=0.01, max_value=1.0),
    t2=st.floats(min_value=0.01, max_value=1.0),
)
def test_group_law_property(t1, t2):
    g = SpatialGrid(-40.0, 40.0, 256)
    phi = GridFunction(g, np.exp(-g.nodes**2).astype(complex))
    norm0 = np.linalg.norm(phi.values)
    two = free_group(free_group(phi, t1), t2)
    one = free_group(phi, t1 + t2)
    assert np.linalg.norm(two.values - one.values) / norm0 < 1e-11


def test_free_group_field_matches_single_steps():
    g = SpatialGrid(-40.0, 40.0, 256)
    phi = GridFunction(g, np.exp(-g.nodes**2).astype(complex))
    tg = TimeGrid(0.5, 16)
    fld = free_group_field(phi, tg)
    assert np.array_equal(fld.values[0], phi.values)  # exact t=0 slice
    for i in (3, 16):
        step = free_group(phi, tg.nodes[i])
        assert np.max(np.abs(fld.values[i] - step.values)) < 1e-13


def test_edge_decay_warning():
    g = SpatialGrid(-4.0, 4.0, 64)
    phi = GridFunction(g, np.exp(-g.nodes**2).astype(complex))
    # exp(-16) ~ 1.1e-7 at the edges, above the 1e-8 threshold
    with pytest.warns(EdgeDecayWarning):
        free_group(phi, 0.1)
    wide = SpatialGrid(-40.0, 40.0, 64)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        free_group(GridFunction(wide, np.exp(-wide.nodes**2)), 0.1)


def test_duhamel_of_zero_and_index_checks():
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(0.5, 8)
    w = SolutionField(sg, tg, np.zeros((9, 64)))
    assert np.all(duhamel_field(w).values == 0.0)
    assert np.all(duhamel(w, 5).values == 0.0)
    with pytest.raises(ValueError):
        duhamel(w, 9)
    with pytest.raises(ValueError):
        duhamel(w, -1)


def test_duhamel_of_free_evolution():
    # w(t) = S(t) g makes the integral collapse: D w (t) = -i t S(t) g
    sg = SpatialGrid(-20.0, 20.0, 512)
    tg = TimeGrid(0.5, 256)
    g = GridFunction(sg, np.exp(-(sg.nodes - 2.0) ** 2).astype(complex))
    w = free_group_field(g, tg)
    scale = np.max(np.abs(g.values))
    for i in (64, 128, 256):
        t = tg.nodes[i]
        got = duhamel(w, i)
        expect = -1j * t * free_group(g, t).values
        assert np.max(np.abs(got.values - expect)) / scale < 1e-6  # ~3e-15

    # the field version agrees with the slice version
    fld = duhamel_field(w)
    assert np.all(fld.values[0] == 0.0)
    for i in (64, 256):
        sl = duhamel(w, i)
        assert np.max(np.abs(fld.values[i] - sl.values)) / scale < 1e-10


def test_duhamel_interior_residual():
    # i v_t + v_xx = w away from the time endpoints, checked with centered
    # differences for three inhomogeneities
    sg = SpatialGrid(-20.0, 20.0, 1024)
    tg = TimeGrid(0.5, 256)
    x, t = sg.nodes, tg.nodes
    XX, TT = x[None, :], t[:, None]
    family = {
        "gauss_sin": np.exp(-((XX - 2.0) ** 2)) * np.sin(2.0 * TT) + 0j,
        "gauss_cos": np.exp(-((XX + 1.0) ** 2)) * np.cos(TT) + 0j,
        "sech_osc": (1.0 / np.cosh(XX)) * np.exp(1j * TT),
    }
    dt = tg.dt
    trim = tg.m // 8
    # measured: 1.86e-4, 2.61e-4, 1.06e-4
    for name, wv in family.items():
        w = SolutionField(sg, tg, wv)
        V = duhamel_field(w).values
        vt = (V[2:] - V[:-2]) / (2.0 * dt)
        res = 1j * vt[:, 1:-1] + _vxx_fd(V, sg.dx)[1:-1] - wv[1:-1, 1:-1]
        rel = np.max(np.abs(res[trim:-trim])) / np.max(np.abs(wv))
        assert rel < 1e-3, (name, rel)


def _bump_family(t, T):
    b1 = 16.0 * (t * (T - t)) ** 2 / T**4
    b2 = 64.0 * (t * (T - t)) ** 3 / T**6
    b3 = np.maximum((t - 0.2 * T) * (0.8 * T - t), 0.0) ** 2 / (0.09 * T * T) ** 2
    return [b1 + 0j, b2 + 0j, b3 + 0j]


def test_boundary_forcing_zero_data():
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(1.0, 16)
    z = TimeSignal(tg, np.zeros(17))
    assert np.all(boundary_forcing_time(z, sg, tg).values == 0.0)
    assert np.max(np.abs(boundary_forcing_freq(z, sg, tg).values)) < 1e-14


def test_boundary_forcing_rejects_nonvanishing_start():
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(1.0, 16)
    f = TimeSignal(tg, np.ones(17, dtype=complex))
    with pytest.raises(ValueError):
        boundary_forcing_time(f, sg, tg)
    with pytest.raises(ValueError):
        boundary_forcing_freq(f, sg, tg)


def test_boundary_forcing_initial_slice_is_zero():
    sg = SpatialGrid(-20.0, 20.0, 256)
    tg = TimeGrid(1.0, 64)
    b = _bump_family(tg.nodes, 1.0)[0]
    fld = boundary_forcing_time(TimeSignal(tg, b), sg, tg)
    assert np.all(fld.values[0] == 0.0)


def test_boundary_trace_identity_refines_at_first_order():
    # field value at x=0 recovers the boundary data; errors drop with the
    # grid at least linearly (measured 1.08e-4, 2.76e-5, 6.95e-6)
    errs = []
    for n in (512, 1024, 2048):
        sg = SpatialGrid(-20.0, 20.0, n)
        tg = TimeGrid(1.0, n)
        worst = 0.0
        for b in _bump_family(tg.nodes, 1.0):
            fld = boundary_forcing_time(TimeSignal(tg, b), sg, tg)
            tr = fld.values[:, sg.index_nearest_zero()]
            worst = max(worst, np.max(np.abs(tr - b)) / np.max(np.abs(b)))
        errs.append(worst)
    assert errs[-1] < 1e-3
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.0), (errs, orders)


def _forcing_reference(f, sg, tg):
    # two-kernel quadrature, one x row at a time: the a-sum over h_0..h_i and
    # the b-sum over h_1..h_{i+1}, on the signed nodes
    m = tg.m
    h = frac_derivative(f, 0.5).values
    a, b = _bf_kernel_chunk(sg.nodes, tg.dt, m)
    vals = np.empty((m + 1, sg.n), dtype=complex)
    for j in range(sg.n):
        ca = np.convolve(a[j], h)[: m + 1]
        ca[1:] += np.convolve(b[j], h[1:])[1 : m + 1]
        vals[:, j] = ca
    vals[0] = 0.0
    return vals


@pytest.mark.parametrize(
    "sg, kernel_rows",
    [
        (SpatialGrid(-10.0, 10.0, 64), 33),  # symmetric, node at 0
        (SpatialGrid(-5.0, 15.0, 64), 48),  # asymmetric, node at 0
        (SpatialGrid(-10.15625, 9.84375, 64), 33),  # symmetric pairs, no node at 0
    ],
    ids=["symmetric", "asymmetric", "no-zero-node"],
)
def test_forcing_plan_matches_two_kernel_quadrature(sg, kernel_rows):
    tg = TimeGrid(1.0, 48)
    t = tg.nodes
    # f'(0) != 0, so the half-derivative's first sample h_0 is far from 0
    f = TimeSignal(tg, np.sin(3.0 * t) * np.exp(2j * t))
    assert abs(frac_derivative(f, 0.5).values[0]) > 0.1
    got = boundary_forcing_time(f, sg, tg).values
    ref = _forcing_reference(f, sg, tg)
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-13
    # one kernel row per distinct |x|
    assert operator_plan(sg, tg).kspec.shape == (2 * tg.m, kernel_rows)


def test_operator_plan_cache_keeps_two_slots():
    phi_fn = lambda x: np.exp(-x * x) + 0j
    for n, m in ((64, 16), (128, 16), (64, 32)):
        sg = SpatialGrid(-20.0, 20.0, n)
        free_group_field(GridFunction(sg, phi_fn(sg.nodes)), TimeGrid(0.5, m))
    assert operator_plan.cache_info().currsize <= 2


def test_representations_agree_and_improve():
    # time-domain and frequency-domain forcing fields agree in relative L2,
    # better on the finer grid (measured 1.08e-4 then 2.73e-5)
    errs = []
    for n in (512, 1024):
        sg = SpatialGrid(-20.0, 20.0, n)
        tg = TimeGrid(1.0, n)
        worst = 0.0
        for b in _bump_family(tg.nodes, 1.0):
            f = TimeSignal(tg, b)
            lt = boundary_forcing_time(f, sg, tg)
            lf = boundary_forcing_freq(f, sg, tg)
            num = np.sqrt(np.sum(np.abs(lt.values - lf.values) ** 2))
            den = np.sqrt(np.sum(np.abs(lt.values) ** 2))
            worst = max(worst, num / den)
        errs.append(worst)
    assert errs[0] < 1e-3 and errs[1] < 1e-3
    assert errs[1] < errs[0]


def test_forcing_field_solves_equation_away_from_origin():
    # centered-difference residual of i u_t + u_xx = 0 on |x| > 1/2
    # (measured 3.98e-4 at this size)
    sg = SpatialGrid(-20.0, 20.0, 2048)
    tg = TimeGrid(1.0, 2048)
    b = _bump_family(tg.nodes, 1.0)[0]
    V = boundary_forcing_time(TimeSignal(tg, b), sg, tg).values
    vt = (V[2:] - V[:-2]) / (2.0 * tg.dt)
    res = 1j * vt[:, 1:-1] + _vxx_fd(V, sg.dx)[1:-1]
    mask = np.abs(sg.nodes[1:-1]) > 0.5
    trim = tg.m // 8
    rel = np.max(np.abs(res[trim:-trim][:, mask])) / np.max(np.abs(b))
    assert rel < 1e-3


def test_freq_representation_decays_in_x():
    # the multiplier kills the field far from the boundary for data whose
    # spectrum concentrates at tau > 0 (measured 2.3e-5 at x=30)
    sg = SpatialGrid(-60.0, 60.0, 1024)
    tg = TimeGrid(1.0, 512)
    t = tg.nodes
    b = np.maximum((t - 0.15) * (0.85 - t), 0.0) ** 2 + 0j
    b /= np.max(np.abs(b))
    lf = boundary_forcing_freq(TimeSignal(tg, b), sg, tg)
    j30 = int(np.argmin(np.abs(sg.nodes - 30.0)))
    assert np.max(np.abs(lf.values[:, j30])) < 1e-4


def test_derivative_jump_identity():
    # (d/dx at 0-) - (d/dx at 0+) = 2 e^{-i pi/4} (half derivative of f)
    sg = SpatialGrid(-20.0, 20.0, 4096)
    tg = TimeGrid(1.0, 1024)
    b = _bump_family(tg.nodes, 1.0)[0]
    f = TimeSignal(tg, b)
    fld = boundary_forcing_time(f, sg, tg)
    minus, plus = derivative_jump(f, fld)
    target = 2.0 * np.exp(-0.25j * np.pi) * frac_derivative(f, 0.5).values
    scale = np.max(np.abs(target))
    jump = minus.values - plus.values
    assert np.max(np.abs(jump - target)) / scale < 1e-2  # measured 1.4e-4
    # the field is even in x, so the one-sided derivatives are opposite
    assert np.max(np.abs(minus.values + plus.values)) / scale < 1e-13


def test_derivative_jump_grid_checks():
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(1.0, 16)
    other = TimeGrid(2.0, 16)
    b = _bump_family(tg.nodes, 1.0)[0]
    fld = boundary_forcing_time(TimeSignal(tg, b), sg, tg)
    with pytest.raises(ValueError):
        derivative_jump(TimeSignal(other, np.zeros(17)), fld)


def test_branch_sqrt_edges():
    out = branch_sqrt(np.array([4.0, 0.0, -4.0]))
    assert out[0] == 2.0 + 0.0j
    assert out[1] == 0.0 + 0.0j
    assert out[2] == -2.0j
