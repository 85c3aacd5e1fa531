"""Linear solution operators: free propagator, inhomogeneous integral,
boundary forcing in both representations, derivative jump at the origin.

Interior residuals are formed with centered differences in t and x. The
forcing field has a corner at x=0, so its residual is evaluated on
|x| > 1/2 only; spectral differentiation would smear that corner over the
whole grid.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline_nls import (
    EdgeDecayWarning,
    GridFunction,
    HalfLineGrid,
    ProblemSpec,
    SolutionField,
    SolverConfig,
    SpatialGrid,
    TimeGrid,
    TimeSignal,
    boundary_forcing_freq,
    boundary_forcing_time,
    derivative_jump,
    frac_derivative,
    free_group,
    solve_ibvp,
)
from halfline_nls import operators
from halfline_nls.operators import (
    ForcingHistory,
    OperatorPlan,
    _bf_kernel_chunk,
    _faddeeva,
    duhamel_field,
    free_group_field,
    operator_plan,
)
from halfline_nls.solver import _prepare_linear, apply_lambda


def _gaussian_exact(x, t):
    # closed-form free evolution of exp(-x^2)
    den = 1.0 + 4.0j * t
    return np.exp(-x * x / den) / np.sqrt(den)


def _vxx_fd(V, dx):
    return (V[:, 2:] - 2.0 * V[:, 1:-1] + V[:, :-2]) / dx**2


def _duhamel_slice(w, i):
    # reference for duhamel_field: one slice Dw(., t_i) by a direct trapezoid
    # sum over t' of the spectrally propagated slices
    xi2 = w.sgrid.frequencies ** 2
    phase = np.exp(1j * np.outer(w.tgrid.nodes[: i + 1], xi2))
    g = phase * np.fft.fft(w.values[: i + 1], axis=1)
    wts = np.full(i + 1, w.tgrid.dt)
    wts[0] = wts[-1] = 0.5 * w.tgrid.dt
    return -1j * np.fft.ifft(np.conj(phase[-1]) * (wts @ g))


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


def test_free_group_field_into_a_buffer_gives_the_same_bits():
    # out= is filled whole, whatever it held, with the allocating call's bits
    g = SpatialGrid(-40.0, 40.0, 256)
    phi = GridFunction(g, np.exp(-(g.nodes - 3.0) ** 2) * np.exp(2j * g.nodes))
    tg = TimeGrid(0.5, 16)
    out = np.full((17, 256), complex(np.nan, np.inf))
    fld = free_group_field(phi, tg, out=out)
    assert fld.values is out
    assert np.array_equal(out, free_group_field(phi, tg).values)
    for bad in (np.empty((16, 256), dtype=complex), np.empty((17, 256))):
        with pytest.raises(ValueError, match="out must be"):
            free_group_field(phi, tg, out=bad)


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
    w = np.zeros((9, 64), dtype=complex)
    assert np.all(duhamel_field(w, sg, tg) == 0.0)
    with pytest.raises(TypeError):
        duhamel_field(w[:, 32:], HalfLineGrid(20.0, 32), tg)
    out = np.empty((10, 64), dtype=complex)
    for start in (-1, 9):
        with pytest.raises(ValueError):
            duhamel_field(w, sg, tg, out=out, start=start)
    with pytest.raises(ValueError):
        duhamel_field(w, sg, tg, start=1)  # nothing to restart from


def test_duhamel_of_free_evolution():
    # w(t) = S(t) g makes the integral collapse: D w (t) = -i t S(t) g
    sg = SpatialGrid(-20.0, 20.0, 512)
    tg = TimeGrid(0.5, 256)
    g = GridFunction(sg, np.exp(-(sg.nodes - 2.0) ** 2).astype(complex))
    w = free_group_field(g, tg)
    scale = np.max(np.abs(g.values))
    for i in (64, 128, 256):
        t = tg.nodes[i]
        got = _duhamel_slice(w, i)
        expect = -1j * t * free_group(g, t).values
        assert np.max(np.abs(got - expect)) / scale < 1e-6  # ~3e-15

    # the field version agrees with the slice version
    fld = duhamel_field(w.values, sg, tg)
    assert np.all(fld[0] == 0.0)
    for i in (64, 256):
        sl = _duhamel_slice(w, i)
        assert np.max(np.abs(fld[i] - sl)) / scale < 1e-10


def test_stepped_spectra_do_not_drift_over_many_steps():
    # duhamel_field and free_group_field advance their spectra one step at a
    # time; after 2048 steps the last row must still match the direct
    # trapezoid sum and the direct multiplier e^{-i T xi^2}
    sg = SpatialGrid(-20.0, 20.0, 128)
    tg = TimeGrid(1.0, 2048)
    x, t = sg.nodes[None, :], tg.nodes[:, None]
    w = SolutionField(sg, tg, np.exp(-(x - 2.0) ** 2) * np.exp(3j * t) * (1.0 + t))
    last = duhamel_field(w.values, sg, tg)[-1]
    ref = _duhamel_slice(w, tg.m)
    assert np.max(np.abs(last - ref)) / np.max(np.abs(ref)) <= 1e-12
    phi = GridFunction(sg, np.exp(-(sg.nodes - 2.0) ** 2) + 0j)
    last = free_group_field(phi, tg).values[-1]
    ref = free_group(phi, tg.t_max).values
    assert np.max(np.abs(last - ref)) / np.max(np.abs(ref)) <= 1e-12


@pytest.mark.parametrize("k", [1, 17, 40])
def test_duhamel_restarted_from_a_carried_slice_matches_the_full_field(k):
    # the recursion is causal: restarted at slice k from the row k-1 its
    # buffer holds, it gives the full call's slices k.. up to rounding, and
    # leaves the rows before k as the full call wrote them
    sg = SpatialGrid(-20.0, 20.0, 128)
    tg = TimeGrid(0.5, 40)
    x, t = sg.nodes[None, :], tg.nodes[:, None]
    w = np.exp(-(x - 2.0) ** 2) * np.exp(3j * t) * (1.0 + t)
    buf = np.empty((tg.m + 2, sg.n), dtype=complex)
    full = duhamel_field(w, sg, tg, out=buf).copy()
    part = duhamel_field(w, sg, tg, out=buf, start=k)
    assert np.shares_memory(part, buf)
    assert np.array_equal(part[:k], full[:k])
    scale = np.max(np.abs(full))
    assert np.max(np.abs(part[k:] - full[k:])) / scale <= 1e-13


@pytest.mark.parametrize("start", [0, 1, 17])
def test_duhamel_block_rows_are_the_unbounded_call_rows(start):
    # stop ends the recursion: the rows [start, stop) are bit-equal to those
    # of the same call without stop, the rows before start and after stop
    # are not written, and w's slices from stop on are not read
    sg = SpatialGrid(-20.0, 20.0, 128)
    tg = TimeGrid(0.5, 40)
    x, t = sg.nodes[None, :], tg.nodes[:, None]
    w = np.exp(-(x - 2.0) ** 2) * np.exp(3j * t) * (1.0 + t)
    buf = np.empty((tg.m + 2, sg.n), dtype=complex)
    carried = duhamel_field(w, sg, tg, out=buf).copy()  # the rows restarted from
    for stop in (start + 1, start + 2, 33, tg.m + 1):
        buf[:-1] = carried
        full = duhamel_field(w, sg, tg, out=buf, start=start).copy()
        buf[:-1] = carried
        buf[stop + 1:] = 7.0
        cut = w.copy()
        cut[stop:] = np.nan
        part = duhamel_field(cut, sg, tg, out=buf, start=start, stop=stop)
        assert np.array_equal(part[start:stop], full[start:stop])
        assert np.array_equal(part[1:start], carried[1:start])
        assert np.all(buf[stop + 1:] == 7.0)
    for bad in ((start, start), (start, tg.m + 2)):
        with pytest.raises(ValueError):
            duhamel_field(w, sg, tg, out=buf, start=bad[0], stop=bad[1])


@pytest.mark.parametrize("tg", [TimeGrid(1.0, 48), TimeGrid(0.5, 100), TimeGrid(2.0, 256)],
                         ids=lambda tg: f"m{tg.m}")
def test_boundary_forcing_blocks_match_the_whole_call(tg):
    # a sweep of blocks [k, k + b + 1), each started on the last slice of
    # the one before, with one ForcingHistory: every block's rows match the
    # whole t-FFT call's to 1e-13 of its largest entry, the rows of out
    # outside the block keep their sentinel, and a second call on the same
    # block reuses the history and gives the same bits. An empty block, or
    # one that starts before 0 or after m, is refused
    sg = SpatialGrid(-10.0, 10.0, 64)
    f = TimeSignal(tg, np.sin(3.0 * tg.nodes) * np.exp(2j * tg.nodes))
    whole = boundary_forcing_time(f, sg, tg).values
    scale = np.max(np.abs(whole))
    n = (tg.m + 1) * sg.n
    for b in (5, 32):
        history = ForcingHistory(sg, tg)
        k = 0
        while True:
            stop = min(k + b + 1, tg.m + 1)
            out = np.full(n, 3.0 + 4.0j)
            part = boundary_forcing_time(f, sg, tg, out=out, start=k, stop=stop,
                                         history=history).values
            assert np.shares_memory(part, out) and history.span == (k, stop)
            assert np.max(np.abs(part[k:stop] - whole[k:stop])) <= 1e-13 * scale
            assert np.all(part[:k] == 3.0 + 4.0j) and np.all(part[stop:] == 3.0 + 4.0j)
            again = boundary_forcing_time(f, sg, tg, start=k, stop=stop,
                                          history=history).values
            assert np.array_equal(again[k:stop], part[k:stop])
            assert not np.any(again[:k]) and not np.any(again[stop:])
            if stop == tg.m + 1:
                break
            k = stop - 1
    for bad in ((4, 4), (-1, None), (tg.m + 1, None)):
        with pytest.raises(ValueError):
            boundary_forcing_time(f, sg, tg, start=bad[0], stop=bad[1])


@pytest.mark.parametrize("start", [0, 1, 2, 3, 9])
def test_boundary_forcing_block_follows_its_own_samples(start):
    # a caller iterating one block changes only f's samples from start on:
    # the second call on the block, with the same history, gives the whole
    # call's rows for the new samples. Below start 3, h_0 reads f_2, which is
    # one of them, so nothing of h may be kept from the first call
    sg, tg = SpatialGrid(-10.0, 10.0, 64), TimeGrid(1.0, 48)
    v = np.sin(3.0 * tg.nodes) * np.exp(2j * tg.nodes)
    moved = v.copy()
    moved[start:] *= 1.5
    history = ForcingHistory(sg, tg)
    stop = start + 12
    boundary_forcing_time(TimeSignal(tg, v), sg, tg, start=start, stop=stop, history=history)
    part = boundary_forcing_time(TimeSignal(tg, moved), sg, tg, start=start, stop=stop,
                                 history=history).values
    whole = boundary_forcing_time(TimeSignal(tg, moved), sg, tg).values
    assert np.max(np.abs(part[start:stop] - whole[start:stop])) <= 1e-13 * np.max(np.abs(whole))


@pytest.mark.parametrize("span", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
                                  (3, 5), (47, 49), (48, 49)], ids=lambda s: "%d-%d" % s)
def test_boundary_forcing_short_blocks_match_the_whole_call(span):
    # blocks of one or two slices at either end of the interval: h_0 reads
    # g_2 and the one-sided differences need three samples of g, so a block
    # near t = 0 still integrates f up to slice 2
    sg, tg = SpatialGrid(-10.0, 10.0, 64), TimeGrid(1.0, 48)
    f = TimeSignal(tg, np.sin(3.0 * tg.nodes) * np.exp(2j * tg.nodes))
    whole = boundary_forcing_time(f, sg, tg).values
    start, stop = span
    part = boundary_forcing_time(f, sg, tg, start=start, stop=stop).values
    assert np.max(np.abs(part[start:stop] - whole[start:stop])) <= 1e-13 * np.max(np.abs(whole))


@pytest.mark.parametrize("k", [0, 1, 2, 5, 20])
def test_boundary_forcing_from_a_later_front_reuses_the_history(k):
    # a caller that stops recomputing a block's leading slices calls again
    # on [front, stop) with the block's history, its samples before the
    # front now held too: the history keeps its span, only the rows
    # [front, stop) of out are written, and they match a fresh call on that
    # span to 1e-13 of the whole call's largest entry
    sg, tg = SpatialGrid(-10.0, 10.0, 64), TimeGrid(1.0, 48)
    v = np.sin(3.0 * tg.nodes) * np.exp(2j * tg.nodes)
    stop = k + 20
    history = ForcingHistory(sg, tg)
    boundary_forcing_time(TimeSignal(tg, v), sg, tg, start=k, stop=stop, history=history)
    for front in (k + 1, k + 3, stop - 1):
        v = v.copy()
        v[front:] *= 1.5
        f = TimeSignal(tg, v)
        out = np.full((tg.m + 1) * sg.n, 3.0 + 4.0j)
        part = boundary_forcing_time(f, sg, tg, out=out, start=front, stop=stop,
                                     history=history).values
        assert history.span == (k, stop)
        assert np.all(part[:front] == 3.0 + 4.0j) and np.all(part[stop:] == 3.0 + 4.0j)
        fresh = boundary_forcing_time(f, sg, tg, start=front, stop=stop).values
        whole = boundary_forcing_time(f, sg, tg).values
        gap = np.max(np.abs(part[front:stop] - fresh[front:stop]))
        assert gap <= 1e-13 * np.max(np.abs(whole))


def test_operator_plan_keeps_no_field_sized_table():
    # besides the forcing kernels the plan holds O(n): the free group and
    # Duhamel step their spectra by one n-vector, not an (m+1, n) table
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(0.5, 40)
    plan = operator_plan(sg, tg)
    arrays = [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
    assert all(a.size != (tg.m + 1) * sg.n for a in arrays)
    assert sum(a.nbytes for a in arrays) <= plan.kspec.nbytes + plan.b.nbytes + 32 * sg.n


def test_operator_plan_build_peaks_near_its_own_arrays():
    # the kernels are built in row chunks and transformed in place, so the
    # build's traced peak stays close to the plan it returns. Measured at
    # 1024x512: 1.27x (3.16x with 256-row chunks and a padded FFT copy)
    sg, tg = SpatialGrid(-30.0, 30.0, 1024), TimeGrid(0.5, 512)
    tracemalloc.start()
    try:
        plan = OperatorPlan(sg, tg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in vars(plan).values() if isinstance(a, np.ndarray))
    assert peak <= 1.5 * own


def test_operator_plan_chunks_match_a_one_chunk_build(monkeypatch):
    # the row chunks only bound the build's temporaries: kspec and b match a
    # build of all rows at once to 1e-15 relative
    sg, tg = SpatialGrid(-20.0, 20.0, 128), TimeGrid(1.0, 48)
    chunked = OperatorPlan(sg, tg)
    monkeypatch.setattr(operators, "_PLAN_CHUNK", sg.n)
    whole = OperatorPlan(sg, tg)
    for name in ("kspec", "b"):
        a, b = getattr(chunked, name), getattr(whole, name)
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))


@pytest.mark.parametrize("tg", [TimeGrid(1.0, 48), TimeGrid(0.5, 100), TimeGrid(2.0, 256)],
                         ids=lambda tg: f"m{tg.m}")
def test_block_half_derivative_reads_only_the_block(tg):
    # the block forcing's half-derivative, on a sweep of blocks [k, k + b + 1)
    # each started on the last slice of the one before: the block's rows are
    # the whole call's to 1e-13 of its largest entry, and they read no
    # sample of f from max(stop, 2) + 1 on. A second call on the same block
    # reuses the part that the samples before the block fix: from start 3
    # on, changing those samples (f_0 aside) changes nothing
    sg = SpatialGrid(-10.0, 10.0, 16)
    v = np.sin(3.0 * tg.nodes) * np.exp(2j * tg.nodes)
    whole = boundary_forcing_time(TimeSignal(tg, v), sg, tg).values
    scale = np.max(np.abs(whole))
    for b in (5, 32):
        history = ForcingHistory(sg, tg)
        k = 0
        while True:
            stop = min(k + b + 1, tg.m + 1)
            cut = v.copy()
            cut[max(stop, 2) + 1:] = 1e3  # must not be read
            part = boundary_forcing_time(TimeSignal(tg, cut), sg, tg, start=k, stop=stop,
                                         history=history).values
            assert np.max(np.abs(part[k:stop] - whole[k:stop])) <= 1e-13 * scale
            if k >= 3:
                cut[1:k] = 1e3  # the block's first call fixed their part
                again = boundary_forcing_time(TimeSignal(tg, cut), sg, tg, start=k,
                                              stop=stop, history=history).values
                assert np.array_equal(again, part)
            if stop == tg.m + 1:
                break
            k = stop - 1


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
        V = duhamel_field(w.values, sg, tg)
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
    # nor data on another time grid than the field's
    z = TimeSignal(TimeGrid(2.0, 16), np.zeros(17))
    for forcing in (boundary_forcing_time, boundary_forcing_freq):
        with pytest.raises(ValueError, match="f must live on tgrid"):
            forcing(z, sg, tg)


def test_boundary_forcing_survives_an_overflowing_t_fft():
    # f and its half-derivative are finite (h peaks at 4.9e305) but the
    # whole call's t-FFT of h overflows: the whole call takes it again on h
    # scaled by a power of two and returns the field finite, with the rows
    # of a block, which takes no t-FFT (measured: at most 3.0e305)
    sg = SpatialGrid(-10.0, 10.0, 64)
    tg = TimeGrid(1.0, 512)
    f = TimeSignal(tg, 3e305 * _bump_family(tg.nodes, 1.0)[0])
    assert np.max(np.abs(frac_derivative(f, 0.5).values)) < np.inf
    whole = boundary_forcing_time(f, sg, tg).values
    block = boundary_forcing_time(f, sg, tg, start=256).values[256:]
    assert np.all(np.isfinite(whole))
    assert np.max(np.abs(block)) <= 3.1e305
    assert np.max(np.abs(whole[256:] - block)) <= 1e-13 * np.max(np.abs(block))


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
    assert operator_plan(sg, tg).kspec.shape == (kernel_rows, 2 * tg.m)



def test_faddeeva_matches_wofz():
    special = pytest.importorskip("scipy.special")
    # the forcing kernels evaluate w on the ray e^{i pi/4} w, w = sqrt(A)/sigma
    w = np.concatenate(([0.0], np.logspace(-8, 4, 2001), np.linspace(0.0, 1e4, 2001)))
    ray = np.exp(0.25j * np.pi) * w
    other = np.array([1 + 1j, 0.1j, 5j, 30 + 0.01j, -7 + 2j, 1e3j, -1e3 + 1e3j,
                      3.3, -2.2 + 0.5j])
    for z in (ray, other):
        ref = special.wofz(z)
        assert np.max(np.abs(_faddeeva(z) - ref) / np.abs(ref)) <= 1e-13


def _forcing_b_exact(x, dt, lags):
    # b_1..b_lags from the G/W formulas of _bf_kernel_chunk in 60-digit
    # arithmetic, erf included
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        A = mp.mpf(x) ** 2 / 4
        ra = mp.sqrt(A)
        f_inf = mp.sqrt(mp.pi) / 2 * mp.expjpi(mp.mpf(1) / 4)
        G = [-2j * ra * f_inf]
        W = [G[0] * 4j * A / 3]
        for k in range(1, lags + 1):
            s = mp.sqrt(k * mp.mpf(dt))
            e = mp.expj(A / s**2)
            G.append(s * e - 2j * ra * f_inf * mp.erf(mp.expjpi(-mp.mpf(1) / 4) * ra / s))
            W.append((s**3 * e + 2j * A * G[k]) * 2 / 3)
        b = []
        for k in range(1, lags + 1):
            M1 = 2 * k * (G[k] - G[k - 1]) - (W[k] - W[k - 1]) / mp.mpf(dt)
            b.append(complex(M1 / mp.sqrt(mp.pi)))
    return b


def test_forcing_kernel_matches_extended_precision_far_from_origin():
    # far from x=0 the kernel's two Fresnel terms nearly cancel: b there is
    # 1e-5 of its largest entry (x=0, lag 1) or less, so an error function
    # that rounds its own phase, not the shared e^{i A/sigma^2}, shows, and
    # so does G(0) added and subtracted (2.2e-8 of max|b| with it, 1.2e-10
    # without)
    pytest.importorskip("mpmath")
    absx = np.unique(np.abs(SpatialGrid(-30.0, 30.0, 1024).nodes))
    rows = absx[[0, 26, 100, 300, 491]]  # 0, 1.52, 5.86, 17.58, 28.77
    dt, lags = 0.5 / 512, 4
    _, b = _bf_kernel_chunk(rows, dt, lags)
    exact = np.array([_forcing_b_exact(x, dt, lags) for x in rows[1:]])
    scale = np.max(np.abs(b))
    assert scale == np.abs(b[0, 1])
    assert np.max(np.abs(b[1:, 1:] - exact)) <= 1e-9 * scale

def test_operator_plan_cache_holds_a_twice_halving_solve():
    # the standing wave asked for on [0, 2] contracts only on [0, 0.5]: one
    # solve builds plans on three time grids, and a repeat solve reuses them
    sg = SpatialGrid(-30.0, 30.0, 128)
    tg = TimeGrid(2.0, 64)
    xp = sg.nodes[sg.nodes >= 0.0]
    wave = lambda x, t: np.exp(1j * t) / np.cosh(x - 6.0)
    spec = ProblemSpec(
        2.0, 3.0, 0.0, wave(xp, 0.0), TimeSignal(tg, wave(0.0, tg.nodes)), 2.0
    )
    cfg = SolverConfig(sgrid=sg, tol=1e-10)
    _, first = solve_ibvp(spec, cfg)
    misses = operator_plan.cache_info().misses
    _, second = solve_ibvp(spec, cfg)
    assert first.halvings == second.halvings == 2
    assert operator_plan.cache_info().misses == misses
    assert operator_plan.cache_info().currsize <= 3


def test_duhamel_and_map_leave_inputs_and_plan_unchanged():
    # the in-place arithmetic of duhamel_field and apply_lambda must never
    # write into an input, the precomputed linear part or a cached plan;
    # the first Picard step passes the linear part itself as the iterate
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(0.5, 32)
    phi = GridFunction(sg, np.exp(-(sg.nodes - 6.0) ** 2) + 0j)
    f = TimeSignal(tg, np.zeros(tg.m + 1, dtype=complex))
    pre = _prepare_linear(phi, f, 1.0, 3.0, 1e-3)
    other = SolutionField(sg, tg, 0.5j * pre.linear.values)
    plan = operator_plan(sg, tg)
    kept = [a.copy() for a in (pre.linear.values, other.values, plan.step, plan.kspec)]
    for w in (pre.linear, other):
        out = apply_lambda(w, pre)
        dw = duhamel_field(w.values, sg, tg)
        for res in (out.values, dw):
            assert not np.shares_memory(res, w.values)
            assert not np.shares_memory(res, pre.linear.values)
    now = (pre.linear.values, other.values, plan.step, plan.kspec)
    assert all(np.array_equal(a, b) for a, b in zip(kept, now))


def test_duhamel_field_peak_memory_is_two_fields():
    # duhamel_field works in place on its FFT buffer, which becomes the
    # result; the third operator plan slot is paid for by this budget
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(0.5, 32)
    x, t = sg.nodes[None, :], tg.nodes[:, None]
    w = SolutionField(sg, tg, np.exp(-x * x) * np.exp(1j * t))
    duhamel_field(w.values, sg, tg)  # builds the plan outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        duhamel_field(w.values, sg, tg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 2 * w.values.nbytes, (peak - base) / w.values.nbytes


def test_boundary_forcing_peak_memory_is_under_two_fields():
    # the inverse FFT runs in place and the gather back to the nodes
    # overwrites its buffer: 1.6 fields here (that buffer and the half-size
    # transposed rows), 2.6 with a separate gather output. On smaller grids
    # numpy's ufunc iterator buffers, up to 8192 elements per operand, are
    # as large as the arrays and set the peak instead.
    sg = SpatialGrid(-20.0, 20.0, 512)
    tg = TimeGrid(0.5, 256)
    f = TimeSignal(tg, np.sin(3.0 * tg.nodes) * np.exp(2j * tg.nodes))
    out = boundary_forcing_time(f, sg, tg)  # builds the plan outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        boundary_forcing_time(f, sg, tg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 1.75 * out.values.nbytes, (peak - base) / out.values.nbytes


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
    half = SolutionField(HalfLineGrid(10.0, 16), tg, np.zeros((17, 17)))
    with pytest.raises(TypeError, match="whole-line"):
        derivative_jump(TimeSignal(tg, b), half)
    # the node nearest 0 has one neighbour on its left
    lopsided = SpatialGrid(-0.2, 20.0, 64)
    assert lopsided.index_nearest_zero() == 1
    fld = boundary_forcing_time(TimeSignal(tg, b), lopsided, tg)
    with pytest.raises(ValueError, match="lopsided"):
        derivative_jump(TimeSignal(tg, b), fld)
