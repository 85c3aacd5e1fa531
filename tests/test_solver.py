"""Fixed-point solver: exponent bookkeeping, criticality gates, the
contraction loop, and continuation.

Interior residuals use centered differences in t and x away from x=0
(the forcing term has a corner there) with the first and last m/8 time
slices trimmed. Accuracy targets are checked against a standing wave
profile whose exactness is verified symbolically before use.
"""
import dataclasses
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline_nls import (
    BlowupSuspected,
    CompatibilityError,
    ProblemSpec,
    SolutionField,
    SolverConfig,
    SpatialGrid,
    SupercriticalError,
    TimeGrid,
    TimeSignal,
    continue_solution,
    mass_flux_balance,
    solve_ibvp,
)
import halfline_nls.solver as solver_module
from halfline_nls.operators import ForcingHistory, operator_plan
from halfline_nls.solver import (
    Workspace,
    _prepare_linear,
    admissible_pair,
    apply_lambda,
    compatibility_check,
    criticality,
    mixed_norm,
)
from halfline_nls.grids import NonFiniteError, interp_complex
from halfline_nls.spectral import extend_half_line, smooth_ramp, sobolev_norm


def _soliton(x, t):
    # standing wave for lam=2, alpha=3: modulus is time-independent
    return np.exp(1j * np.asarray(t)) / np.cosh(np.asarray(x) - 6.0)


def _sol_phi(xx):
    return 1.0 / np.cosh(np.asarray(xx) - 6.0) + 0j


def _sol_f(tt):
    return np.exp(1j * np.asarray(tt)) / np.cosh(6.0)


def _gauss_phi(xx):
    return np.exp(-(np.asarray(xx) - 6.0) ** 2) + 0j


def _poly_f(tt):
    tt = np.asarray(tt)
    return 8.0 * tt**2 * (1.0 - tt) ** 2 + 0j


def _kf_phi(xx):
    # kink-free pairing: phi vanishes at x=0 to rounding, f(0)=0 exactly
    return 0.8 * np.exp(-(np.asarray(xx) - 8.0) ** 2) + 0j


def _kf_f(tt):
    tt = np.asarray(tt)
    return 0.5 * 16.0 * tt**2 * (0.5 - tt) ** 2 / 0.5**4 + 0j


def _make_spec(lam, alpha, s, phi_fn, f_fn, T, sgrid, m):
    x = sgrid.nodes
    xp = x[x >= 0.0]
    tg = TimeGrid(T, m)
    return ProblemSpec(
        lam, alpha, s, phi_fn(xp), TimeSignal(tg, f_fn(tg.nodes)), T,
        phi_x=xp, phi_fn=phi_fn, f_fn=f_fn,
    )


def _global_err(u, exact):
    x = np.asarray(u.sgrid.nodes)
    keep = x > 0.0
    TT, XX = np.meshgrid(u.tgrid.nodes, x[keep], indexing="ij")
    ref = exact(XX, TT)
    return float(
        np.sqrt(np.sum(np.abs(u.values[:, keep] - ref) ** 2) / np.sum(np.abs(ref) ** 2))
    )


def _interior_residual(u, lam, alpha):
    x = u.sgrid.nodes
    dx = u.sgrid.dx
    dt = u.tgrid.dt
    V = u.values
    ut = (V[2:, :] - V[:-2, :]) / (2.0 * dt)
    uxx = (V[:, 2:] - 2.0 * V[:, 1:-1] + V[:, :-2]) / dx**2
    mid = V[1:-1, 1:-1]
    R = 1j * ut[:, 1:-1] + uxx[1:-1, :] + lam * mid * np.abs(mid) ** (alpha - 1.0)
    trim = u.tgrid.m // 8
    R = R[trim:-trim, :]
    ref = uxx[1:-1, :][trim:-trim, :]
    mask = np.abs(x[1:-1]) > 0.5
    num = np.sqrt(np.sum(np.abs(R[:, mask]) ** 2))
    den = np.sqrt(np.sum(np.abs(ref[:, mask]) ** 2))
    return float(num / den)


@pytest.fixture(scope="module")
def linear_solution():
    sg = SpatialGrid(-40.0, 40.0, 1024)
    spec = _make_spec(0.0, 3.0, 0.0, _gauss_phi, _poly_f, 1.0, sg, 512)
    u, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
    return sg, spec, u, rep


@pytest.fixture(scope="module")
def soliton_solutions():
    out = {}
    for n, m in ((512, 256), (1024, 512)):
        sg = SpatialGrid(-30.0, 30.0, n)
        spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, m)
        u, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
        out[(n, m)] = (u, rep)
    return out


@pytest.fixture(scope="module")
def kinkfree_solutions():
    out = {}
    for n, m in ((512, 256), (1024, 512)):
        sg = SpatialGrid(-30.0, 30.0, n)
        spec = _make_spec(1.0, 3.0, 0.0, _kf_phi, _kf_f, 0.5, sg, m)
        u, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
        out[(n, m)] = (u, rep)
    return out


def test_exponent_pair_examples():
    p = admissible_pair(0.0, 3.0)
    assert (p.q, p.r) == (8.0, 4.0)
    p = admissible_pair(0.0, 5.0)
    assert (p.q, p.r) == (6.0, 6.0)
    p = admissible_pair(0.25, 3.0)
    assert p.q == 16.0
    assert p.r == pytest.approx(8.0 / 3.0, abs=1e-15)
    p = admissible_pair(1.0, 3.0)
    assert math.isinf(p.q)
    assert p.r == 2.0


def test_exponent_pair_validation():
    with pytest.raises(ValueError):
        admissible_pair(-0.1, 3.0)
    with pytest.raises(ValueError):
        admissible_pair(0.2, 1.0)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError):
            admissible_pair(0.2, alpha)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(min_value=0.0, max_value=0.49),
    alpha=st.floats(min_value=1.01, max_value=12.0),
)
def test_exponent_pair_identity_property(s, alpha):
    p = admissible_pair(s, alpha)
    assert abs(1.0 / p.q + 1.0 / (2.0 * p.r) - 0.25) < 1e-12
    assert p.q >= 2.0 and p.r >= 2.0


def test_criticality_examples():
    assert criticality(0.0, 3.0) == "subcritical"
    assert criticality(0.0, 5.0) == "critical"
    assert criticality(0.25, 9.0) == "critical"
    assert criticality(0.0, 6.0) == "supercritical"
    assert criticality(1.0, 3.0) == "subcritical"
    assert criticality(1.2, 12.0) == "subcritical"


def test_criticality_validation():
    for bad in (0.5, -0.1, 1.5, 2.0):
        with pytest.raises(ValueError):
            criticality(bad, 3.0)
    for s in (0.0, 1.0):
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha must be finite"):
                criticality(s, alpha)


def test_compatibility_low_regularity_always_passes():
    sg = SpatialGrid(-2.0, 2.0, 16)
    tg = TimeGrid(1.0, 8)
    f = TimeSignal(tg, np.full(9, 5.0 + 0j))
    phi = np.zeros(8, dtype=complex)
    assert compatibility_check(phi, f, 0.3, sg)
    assert compatibility_check(phi, f, 0.0, sg)


def test_compatibility_high_regularity():
    sg = SpatialGrid(-16.0, 16.0, 128)
    x = sg.nodes
    phi = _gauss_phi(x[x >= 0.0])
    tg = TimeGrid(1.0, 8)
    f_good = TimeSignal(tg, np.full(9, phi[0]))
    f_bad = TimeSignal(tg, np.full(9, 0.5 + 0j))
    assert compatibility_check(phi, f_good, 1.0, sg)
    assert not compatibility_check(phi, f_bad, 1.0, sg)


def test_compatibility_tolerance_scaling():
    # the module tolerance is 1e-8 relative to max(1, |phi(0)|, |f(0)|)
    sg = SpatialGrid(-2.0, 2.0, 16)
    tg = TimeGrid(1.0, 8)
    phi = np.ones(8, dtype=complex)
    for gap, ok in ((5e-9, True), (5e-8, False)):
        f = TimeSignal(tg, np.full(9, 1.0 + gap + 0j))
        assert compatibility_check(phi, f, 1.0, sg) is ok


def test_mixed_norm_at_s_zero_is_the_norm_in_x():
    # J^0 is the identity: at s = 0 the norm is (dx sum |u|^r)^(1/r) in x,
    # and s > 0 keeps the Bessel smoothing through the FFT. The powers are
    # taken of |J^s u| over its max, and the max multiplies the result: bit
    # for bit that formula, and the unscaled one to rounding
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(0.5, 16)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((tg.m + 1, sg.n)) + 1j * rng.standard_normal((tg.m + 1, sg.n))
    u = SolutionField(sg, tg, vals)
    xi = sg.frequencies
    for s, alpha in ((0.0, 3.0), (0.0, 5.0), (0.3, 3.0), (1.0, 3.0)):
        pair = admissible_pair(s, alpha)
        if s == 0.0:
            smoothed = vals
        else:
            bessel = (1.0 + xi * xi) ** (s / 2.0)
            smoothed = np.fft.ifft(bessel * np.fft.fft(vals, axis=1), axis=1)
        top = np.max(np.abs(smoothed))
        for scale in (1.0, top):
            rows = (sg.dx * np.sum((np.abs(smoothed) / scale) ** pair.r, axis=1)) ** (1.0 / pair.r)
            if math.isinf(pair.q):
                expect = scale * np.max(rows)
            else:
                expect = scale * (tg.dt * np.sum(rows**pair.q)) ** (1.0 / pair.q)
            got = mixed_norm(u, s, pair.q, pair.r)
            if scale == 1.0:
                assert got == pytest.approx(expect, rel=1e-14)
            else:
                assert got == expect


def test_mixed_norm_of_a_finite_field_is_finite():
    # |u|^r of a 1e160 field overflows; its norm is 1e160 times the unit
    # field's, to rounding
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(0.5, 16)
    vals = np.exp(-sg.nodes[None, :] ** 2) * np.exp(1j * tg.nodes[:, None])
    for s, alpha in ((0.0, 3.0), (0.3, 3.0), (1.0, 3.0)):
        pair = admissible_pair(s, alpha)
        unit = mixed_norm(SolutionField(sg, tg, vals), s, pair.q, pair.r)
        big = mixed_norm(SolutionField(sg, tg, 1e160 * vals), s, pair.q, pair.r)
        assert big == pytest.approx(1e160 * unit, rel=1e-13)


def test_apply_lambda_defocusing_free_is_w_independent():
    sg = SpatialGrid(-30.0, 30.0, 512)
    x = sg.nodes
    xp = x[x >= 0.0]
    tg = TimeGrid(0.5, 256)
    pext = extend_half_line(_kf_phi(xp), sg)
    f = TimeSignal(tg, _kf_f(tg.nodes))
    pre = _prepare_linear(pext, f, 0.0, 3.0, 1e-3)
    w1 = SolutionField(sg, tg, np.zeros_like(pre.linear.values))
    out1 = apply_lambda(w1, pre)
    out2 = apply_lambda(pre.linear, pre)
    assert np.array_equal(out1.values, pre.linear.values)
    assert np.array_equal(out2.values, pre.linear.values)
    out1.values[0, 0] = 9.0
    assert pre.linear.values[0, 0] != 9.0
    with pytest.raises(ValueError):
        apply_lambda(w1, pre, start=1)  # no workspace to restart from


def test_apply_lambda_boundary_trace():
    sg = SpatialGrid(-30.0, 30.0, 512)
    x = sg.nodes
    xp = x[x >= 0.0]
    tg = TimeGrid(0.5, 256)
    pext = extend_half_line(_kf_phi(xp), sg)
    f = TimeSignal(tg, _kf_f(tg.nodes))
    pre = _prepare_linear(pext, f, 1.0, 3.0, 1e-3)
    j0 = sg.index_nearest_zero()
    mod = (1.0 + 0.3j * np.sin(3.0 * tg.nodes))[:, None]
    for w in (pre.linear, SolutionField(sg, tg, 0.5 * pre.linear.values * mod)):
        out = apply_lambda(w, pre)
        tr = out.values[:, j0]
        rel = np.linalg.norm(tr - f.values) / np.linalg.norm(f.values)
        assert rel < 1e-3, rel  # measured 1.08e-4 for both iterates
        # w may live in the workspace's result, which the value then
        # replaces: the same bits as a fresh workspace's
        work = Workspace(sg, tg)
        vals = work.field(work.result)
        vals[:] = w.values
        again = apply_lambda(SolutionField(sg, tg, vals), pre, out=work)
        assert np.shares_memory(again.values, vals)
        assert np.array_equal(again.values, out.values)


def test_map_looks_one_slice_ahead():
    # the forcing's half-derivative takes central differences in t, so the
    # map's slice k-1 reads w(0, t_k) through the Duhamel trace; a 1% change
    # of w's slice k moves it that much, and the earlier slices only by
    # rounding through the whole t-FFT. Measured at k = 30: slice k
    # 2.4e-4, slice k-1 8.2e-12, earlier slices 1.7e-18 (of max |map|)
    sg = SpatialGrid(-30.0, 30.0, 256)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 64)
    pre = _prepare_linear(extend_half_line(spec.phi, sg), spec.f, spec.lam,
                          spec.alpha, 1e-3)
    tt, xx = np.meshgrid(pre.tgrid.nodes, sg.nodes, indexing="ij")
    w = np.exp(1j * tt) / np.cosh(xx - 6.0)
    base = apply_lambda(SolutionField(sg, pre.tgrid, w), pre).values.copy()
    k = 30
    w[k] *= 1.01
    moved = apply_lambda(SolutionField(sg, pre.tgrid, w), pre).values - base
    moved = np.max(np.abs(moved), axis=1) / np.max(np.abs(base))
    assert moved[k] > 1e-5
    assert moved[k - 1] <= 1e-9
    assert np.max(moved[: k - 1]) <= 1e-14


def _attempt_linear(spec, cfg, m):
    # the linear part of an attempt on [0, spec.T] on m steps, f read on
    # that grid as the solver reads it
    tg = TimeGrid(spec.T, m)
    f = TimeSignal(tg, interp_complex(tg.nodes, spec.f.grid.nodes, spec.f.values))
    return _prepare_linear(extend_half_line(spec.phi, cfg.sgrid), f, spec.lam, spec.alpha,
                           cfg.seam_mismatch_cap)


def _replay(spec, cfg, attempt):
    # the solve's last attempt, replayed through apply_lambda from its
    # record: the probe's two whole applications on its grid of
    # min(m, 32) steps, each iterate copied out; then each block's
    # applications on [front, stop), from each front the block records, in
    # place over the linear part L, from the start the block names (L
    # itself for the first, an extrapolated one predicted from L, the
    # slices after the last block's stop predicted after a cut), and back
    # to L when it was halved. Returns the probe's iterates, the final
    # field, and each block's update norms
    m = spec.f.grid.m
    coarse = _attempt_linear(spec, cfg, min(m, 32))
    probe = [coarse.linear]
    for _ in range(2):
        u = apply_lambda(probe[-1], coarse)
        probe.append(SolutionField(u.sgrid, u.tgrid, u.values.copy()))
    pre = _attempt_linear(spec, cfg, m)
    work = Workspace(pre.sgrid, pre.tgrid)
    vals = work.field(work.result)
    vals[:] = pre.linear.values
    u = SolutionField(pre.sgrid, pre.tgrid, vals)
    work.history = ForcingHistory()
    updates, last = [], None
    for b in attempt["blocks"]:
        k, stop = b["slices"]
        fill = {"linear": stop, "extrapolated": k, "current": last}[b["start"]]
        if fill < stop:
            solver_module._predict(vals, pre.linear.values, fill, stop)
        updates.append([])
        for front in b["fronts"]:
            old = vals[front:stop].copy()
            apply_lambda(u, pre, out=work, start=front, stop=stop)
            updates[-1].append(np.max(sobolev_norm(vals[front:stop] - old, cfg.sgrid,
                                                   spec.s)))
        if b["halved"]:
            vals[k:stop] = pre.linear.values[k:stop]
        else:
            last = stop
    return probe, u, updates


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_residual_history_is_the_norm_of_each_update(s):
    # the probe measures each of its whole updates with sobolev_norm on
    # its own grid, and the sweep each block update on the block's slices;
    # recomputed here from the replay. residual_history holds the probe's
    # updates, contraction_ratios their ratio, and each block its own
    # ratios
    sg = SpatialGrid(-30.0, 30.0, 256)
    spec = _make_spec(1.0, 3.0, s, _kf_phi, _kf_f, 0.5, sg, 64)
    cfg = SolverConfig(sgrid=sg, tol=1e-6)
    _, rep = solve_ibvp(spec, cfg)
    assert rep.converged and rep.halvings == 0
    attempt = rep.attempts[-1]
    assert attempt["blocks"]  # the sweep ran
    probe, _, block_updates = _replay(spec, cfg, attempt)
    assert probe[0].tgrid == TimeGrid(0.5, 32)
    direct = [
        np.max(sobolev_norm(b.values - a.values, sg, spec.s))
        for a, b in zip(probe, probe[1:])
    ]
    assert len(direct) == len(rep.residual_history) == 2
    rel = np.abs(np.array(rep.residual_history) / np.array(direct) - 1.0)
    assert np.max(rel) < 1e-9, rel
    assert rep.contraction_ratios == [direct[1] / direct[0]]
    for b, updates in zip(attempt["blocks"], block_updates):
        assert len(updates) == b["iterates"]
        ratios = [y / x for x, y in zip(updates, updates[1:])]
        assert np.allclose(b["ratios"], ratios, rtol=1e-9, atol=0.0)


def test_converged_solve_applies_the_map_once_per_iterate(monkeypatch):
    # every map application on the attempt's own grid is an iterate, on a
    # block, and the probe's two are its residual_history; the last update
    # of each block is its residual, so no application is spent after the
    # loop on filling the report
    calls = []
    real = solver_module.apply_lambda

    def counted(w, pre, **kwargs):
        calls.append(pre.tgrid.m)
        return real(w, pre, **kwargs)

    monkeypatch.setattr(solver_module, "apply_lambda", counted)
    sg = SpatialGrid(-30.0, 30.0, 256)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 64)
    cfg = SolverConfig(sgrid=sg, tol=1e-10)
    u, rep = solve_ibvp(spec, cfg)
    assert rep.converged and rep.halvings == 0
    blocks = rep.attempts[-1]["blocks"]
    assert calls == [32] * len(rep.residual_history) + [64] * rep.iterates
    assert rep.iterates == sum(b["iterates"] for b in blocks)
    assert rep.fixed_point_residual == max(b["residual"] for b in blocks)
    assert rep.fixed_point_residual <= cfg.tol


def test_slow_contraction_opens_with_two_whole_applications(monkeypatch):
    # every attempt opens with the probe: two applications of the map on
    # the whole interval, on a grid of min(m, 32) steps, whatever the
    # ratio (the standing wave on [0, 0.5] contracts by 0.579). The sweep
    # then starts at slice 0 of the attempt's own grid. Measured: 22
    # iterates, blocks of 13 and 9
    grids = []
    real = solver_module.apply_lambda

    def counted(w, pre, out=None, start=0, stop=None):
        whole = start == 0 and stop in (None, pre.tgrid.m + 1)
        grids.append((pre.tgrid.m, whole))
        return real(w, pre, out=out, start=start, stop=stop)

    monkeypatch.setattr(solver_module, "apply_lambda", counted)
    sg = SpatialGrid(-30.0, 30.0, 128)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 64)
    _, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
    assert rep.converged and rep.halvings == 0
    assert grids[:2] == [(32, True)] * 2 and len(rep.residual_history) == 2
    assert all(m == 64 for m, _ in grids[2:])
    assert len(rep.contraction_ratios) == 1 and rep.contraction_ratios[0] > 0.25
    assert rep.attempts[-1]["blocks"][0]["slices"][0] == 0


@pytest.mark.parametrize("T, ratio", [(1.0, 1.343), (0.5, 0.579), (0.25, 0.253)])
def test_probe_ratio_is_the_fine_grid_ratio(T, ratio):
    # the contraction is a property of T, not of the time step: on A8's
    # soliton (1024 nodes, 512 steps) the probe's first ratio, on 32
    # steps, reads the ratio that two whole applications on the 512 steps
    # gave (1.3432, 0.5791, 0.2531). ratio_cap 0.1 refuses the attempt at
    # the probe, so no map is applied on the 512 steps
    sg = SpatialGrid(-30.0, 30.0, 1024)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, T, sg, 512)
    cfg = SolverConfig(sgrid=sg, tol=1e-13, ratio_cap=0.1, max_halvings=0)
    with pytest.raises(BlowupSuspected) as exc:
        solve_ibvp(spec, cfg)
    rep = exc.value.report
    assert rep.iterates == 0 and len(rep.contraction_ratios) == 1
    assert rep.contraction_ratios[0] == pytest.approx(ratio, rel=1e-3)


def test_probe_meets_tol_only_with_its_ratio_tested():
    # the probe takes both applications even when its first update meets
    # tol, so the contraction test always has its ratio; meeting tol on the
    # second lets the sweep take the whole interval as one block. A
    # Gaussian of amplitude 1e-5 at lam = 1 (128 nodes, 64 steps): updates
    # 4.2e-16 and 5.5e-28 against the iterate's norm near 1e-5
    sg = SpatialGrid(-30.0, 30.0, 128)
    spec = _make_spec(1.0, 3.0, 0.0, lambda xx: 1e-5 * _gauss_phi(xx), _zeros, 0.5, sg, 64)
    _, rep = solve_ibvp(spec, SolverConfig(sgrid=sg))
    assert rep.converged and len(rep.residual_history) == 2
    assert len(rep.contraction_ratios) == 1 and rep.contraction_ratios[0] < 1e-11
    assert rep.residual_history[0] < 1e-8 * 1e-5
    assert [b["slices"] for b in rep.attempts[0]["blocks"]] == [[0, 65]]
    assert rep.iterates == 1


def _bump(tt):
    # the CLI's bump preset on [0, 0.5]
    tt = np.asarray(tt)
    return 16.0 * tt**2 * np.maximum(0.5 - tt, 0.0) ** 2 / 0.5**4 + 0j


@pytest.mark.parametrize("case", ["fast bump", "slow standing wave"])
def test_block_start_follows_the_linear_part(case):
    # whatever the probe's ratio (0.094 on the bump, 0.579 on the standing
    # wave), the first block starts from the linear part and every later
    # one from it plus the extrapolated correction (from the values in
    # place after a block cut at max_iter). Measured: 17 applications on
    # the bump at max_iter = 3, 72 on the standing wave
    if case == "fast bump":
        sg = SpatialGrid(-40.0, 40.0, 256)
        spec = _make_spec(1.0, 3.0, 0.0, lambda xx: np.zeros_like(xx, dtype=complex),
                          _bump, 0.5, sg, 128)
        cfg = SolverConfig(sgrid=sg, max_iter=3)
        fast, iterates = True, 17
    else:  # the benchmark's seed-0 standing wave
        sg = SpatialGrid(-30.0, 30.0, 1024)
        spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 512)
        cfg = SolverConfig(sgrid=sg, tol=1e-10)
        fast, iterates = False, 72
    _, rep = solve_ibvp(spec, cfg)
    assert rep.converged and rep.halvings == 0 and rep.iterates == iterates
    assert (rep.contraction_ratios[0] <= 0.25) == fast
    assert len(rep.residual_history) == 2
    blocks = rep.attempts[-1]["blocks"]
    assert len(blocks) > 2 and [b["start"] for b in blocks] == ["linear"] + [
        "current" if b["cut"] else "extrapolated" for b in blocks[:-1]]


@pytest.mark.parametrize("k", [2, 3, 4, 40])
def test_block_start_is_exact_for_a_polynomial_correction(k):
    # the start is the linear part L plus the polynomial in t through the
    # correction u - L at the frozen slices k-1, k-2, k-3, k-4 (two of
    # them at k = 2, the first slice an extrapolated block can start at,
    # three at k = 3), slice k itself included: a correction of that
    # degree in t is extrapolated exactly, to rounding, whatever L, and a
    # zero correction leaves L's bits
    rng = np.random.default_rng(k)
    n, stop = 16, k + solver_module._BLOCK + 1
    base = rng.standard_normal((stop, n)) + 1j * rng.standard_normal((stop, n))
    coef = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    coef[min(k - 1, 3) + 1:] = 0.0  # degree min(k - 1, 3)
    p = np.arange(stop, dtype=float)[:, None] - k
    correction = coef[0] + p * (coef[1] + p * (coef[2] + p * coef[3]))
    vals = base + correction
    vals[k:] = np.nan  # the slices the start replaces
    solver_module._predict(vals, base, k, stop)
    err = np.max(np.abs(vals - base - correction)) / np.max(np.abs(correction))
    assert err < 1e-12, err
    vals[:] = base
    vals[k:] = np.nan
    solver_module._predict(vals, base, k, stop)
    assert np.array_equal(vals, base)


@pytest.mark.parametrize("case", ["fast bump", "slow standing wave"])
def test_first_block_starts_from_the_linear_part_bit_for_bit(monkeypatch, case):
    # whatever the probe, the first block applies the map to the linear
    # part's own values, and each later block to values that differ from
    # them on its slices, the first one included (predicted from the
    # frozen slices before it)
    calls = []
    real = solver_module.apply_lambda

    def recorded(w, pre, out=None, start=0, stop=None):
        given = w.values.copy()
        u = real(w, pre, out=out, start=start, stop=stop)
        calls.append((pre.tgrid.m, start, stop, given))
        return u

    monkeypatch.setattr(solver_module, "apply_lambda", recorded)
    if case == "fast bump":
        sg = SpatialGrid(-40.0, 40.0, 64)
        spec = _make_spec(1.0, 3.0, 0.0, _zeros, _bump, 0.5, sg, 64)
    else:
        sg = SpatialGrid(-30.0, 30.0, 128)
        spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 64)
    cfg = SolverConfig(sgrid=sg, tol=1e-10)
    _, rep = solve_ibvp(spec, cfg)
    assert rep.converged and rep.halvings == 0
    assert (rep.contraction_ratios[0] <= 0.25) == (case == "fast bump")
    assert [c[0] for c in calls[:2]] == [32, 32]  # the probe
    linear = _attempt_linear(spec, cfg, 64).linear.values
    blocks = rep.attempts[-1]["blocks"]
    assert len(blocks) >= 2 and [b["start"] for b in blocks[:2]] == ["linear", "extrapolated"]
    assert calls[2][:3] == (64, *blocks[0]["slices"])
    assert np.array_equal(calls[2][3], linear)
    k, stop = blocks[1]["slices"]
    later = next(c for c in calls if c[:2] == (64, k))
    assert np.array_equal(later[3][stop:], linear[stop:])
    assert np.all(np.any(later[3][k:stop] != linear[k:stop], axis=1))


@pytest.mark.parametrize("row, bad, error, match", [
    (20, np.nan, NonFiniteError, "non-finite"),
    (20, np.inf, NonFiniteError, "non-finite"),
    (0, 1.0, ValueError, "vanish at t=0"),
])
def test_block_trace_that_is_not_finite_or_not_vanishing_raises(monkeypatch, row, bad,
                                                               error, match):
    # a block application checks the Duhamel trace it hands the forcing:
    # a sample the block's forcing reads that is not finite (row 20 of the
    # block [10, 20), the last before ahead = stop + 1), or a first sample
    # that does not vanish, raises
    sg = SpatialGrid(-30.0, 30.0, 128)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 64)
    pre = _prepare_linear(extend_half_line(spec.phi, sg), spec.f, spec.lam, spec.alpha, 1e-3)
    work = Workspace(sg, pre.tgrid)
    u = apply_lambda(pre.linear, pre, out=work)
    work.history = ForcingHistory()
    real = solver_module.duhamel_field

    def poisoned(*args, stop, **kwargs):
        field = real(*args, stop=stop, **kwargs)
        field[row, pre.zero_index] = bad
        return field

    monkeypatch.setattr(solver_module, "duhamel_field", poisoned)
    with pytest.raises(error, match=match):
        apply_lambda(u, pre, out=work, start=10, stop=20)


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_buffered_solve_equals_the_unbuffered_map(s):
    # the sweep's blocks update the iterate in place in the solve's
    # workspace; replaying the map from the attempt's record on a fresh
    # workspace gives the same bits
    sg = SpatialGrid(-30.0, 30.0, 256)
    spec = _make_spec(2.0, 3.0, s, _sol_phi, _sol_f, 0.5, sg, 64)
    cfg = SolverConfig(sgrid=sg, tol=1e-10)
    field, rep = solve_ibvp(spec, cfg)
    assert rep.converged and rep.halvings == 0 and rep.iterates >= 10
    attempt = rep.attempts[-1]
    assert len(attempt["blocks"]) >= 2
    _, replayed, _ = _replay(spec, cfg, attempt)
    assert np.array_equal(replayed.values, field.values)


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_windowed_solve_is_a_fixed_point_to_within_tol(s):
    # the frozen slices are not recomputed once their block converged; one
    # whole application of the map moves the returned field by at most
    # tol, and the residual reported is no smaller than that move.
    # Measured: moves 4.2e-12 (s = 0) and 5.1e-12 (s = 0.3), residuals
    # 7.9e-11 and 9.3e-11
    sg = SpatialGrid(-30.0, 30.0, 256)
    spec = _make_spec(2.0, 3.0, s, _sol_phi, _sol_f, 0.5, sg, 64)
    cfg = SolverConfig(sgrid=sg, tol=1e-10)
    u, rep = solve_ibvp(spec, cfg)
    assert rep.converged and rep.attempts[-1]["blocks"]
    pre = _prepare_linear(
        extend_half_line(spec.phi, sg), spec.f, spec.lam, spec.alpha,
        cfg.seam_mismatch_cap,
    )
    moved = np.max(sobolev_norm(apply_lambda(u, pre).values - u.values, sg, s))
    move = moved / np.max(sobolev_norm(u.values, sg, s))
    assert move <= cfg.tol
    assert rep.fixed_point_residual >= move


def test_blocks_sweep_the_interval_forward():
    # each attempt that reaches the sweep records its blocks in order: the
    # first starts at slice 0 from the linear part, a block starts on the
    # last slice of the one before, or retries the same start smaller when
    # it was halved, and the last one ends the interval. The two attempts
    # the probe refused swept nothing
    sg, spec = _twice_halving_wave()
    _, report = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
    assert len(report.attempts) == 3
    assert [a["blocks"] for a in report.attempts[:2]] == [[], []]
    blocks = report.attempts[-1]["blocks"]
    assert blocks[0]["slices"][0] == 0 and blocks[0]["start"] == "linear"
    for a, b in zip(blocks, blocks[1:]):
        assert b["slices"][0] == (a["slices"][0] if a["halved"] else a["slices"][1] - 1)
    assert blocks[-1]["slices"][1] == spec.f.grid.m + 1
    assert all(b["halved"] is None and b["residual"] <= 1e-10 for b in blocks)


def _stalling_sinusoid(**changes):
    # a windowed sinusoid of frequency 4 and amplitude 3 at lam = -6,
    # alpha = 4 on a coarse grid, tol = 1e-10, max_iter = 3. On [0, 0.25]
    # the sweep's block at slice 35 meets tol on no slice in 3 applications
    # at any size, so it is retried at half its size down to 2 slices;
    # [0, 0.125] converges in blocks cut at max_iter
    sg = SpatialGrid(-40.0, 40.0, 64)
    spec = _make_spec(-6.0, 4.0, 0.0, _zeros,
                      lambda tt: 3.0 * np.sin(8.0 * np.pi * np.asarray(tt))
                      * smooth_ramp(8.0 * np.asarray(tt)) + 0j, 0.25, sg, 64)
    cfg = SolverConfig(sgrid=sg, tol=1e-10, max_iter=3)
    return solve_ibvp(spec, dataclasses.replace(cfg, **changes))[1]


def test_block_that_does_not_converge_is_retried_at_half_size():
    # a block whose front is still at its first slice after max_iter
    # applications is retried at half its size (that a
    # converged block's size then stays, see the next test). On [0, 0.25] a
    # block of 2 slices fails too, which refuses the attempt; [0, 0.125]
    # converges
    rep = _stalling_sinusoid()
    refused, done = rep.attempts
    assert refused["reason"] == "no contraction" and done["reason"] is None
    last = refused["blocks"][-1]
    assert last["halved"] == "max_iter" and last["slices"][1] - last["slices"][0] == 3
    for a in (refused, done):
        # the attempt's iterates are its blocks', and each block halved for
        # max_iter took max_iter = 3
        blocks = a["blocks"]
        assert a["iterates"] == sum(b["iterates"] for b in blocks)
        assert all(b["iterates"] == 3 for b in blocks if b["halved"] == "max_iter")
        for b, c in zip(blocks, blocks[1:]):
            k, stop = b["slices"]
            if b["halved"]:
                # retried smaller from the linear part plus the correction
                # extrapolated from the frozen slices
                assert c["slices"][0] == k and k + 3 <= c["slices"][1] < stop
                assert c["start"] == ("extrapolated" if k >= 2 else "linear")
            elif b["cut"]:
                assert b["fronts"][-1] <= c["slices"][0] < stop
            else:
                assert c["slices"][0] == stop - 1
    assert done["blocks"][-1]["slices"][1] == 65 and rep.converged


def test_block_after_a_converged_block_is_no_larger():
    # the size that converged is kept: where blocks of b slices failed, a
    # block of 2b after each converged one would fail again. A windowed
    # sinusoid of frequency 4 at lam = -8 on [0, 2] (64 nodes, 128 steps,
    # tol 1e-8): the block at slice 32 fails on its ratio at 33 and at 17
    # slices and converges at 9, and the eleven blocks after it keep 9.
    # Measured: 110 applications and 2 halvings of a block; when the size
    # went back to 33 after each converged block, 16 blocks halved, down to
    # 2 slices, and the solve answered [0, 1] only
    sg = SpatialGrid(-40.0, 40.0, 64)
    spec = _make_spec(-8.0, 3.0, 0.0, _zeros,
                      lambda tt: np.sin(8.0 * np.pi * np.asarray(tt))
                      * smooth_ramp(8.0 * np.asarray(tt)) + 0j, 2.0, sg, 128)
    _, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-8))
    for a in rep.attempts:
        blocks = a["blocks"]
        for b, c in zip(blocks, blocks[1:]):
            if b["halved"] is None:
                assert np.diff(c["slices"]) <= np.diff(b["slices"])
    assert [(a["iterates"], sum(b["halved"] is not None for b in a["blocks"]))
            for a in rep.attempts] == [(110, 2)]
    # a halved block converges and is followed by blocks of its size
    sizes = [(np.diff(b["slices"])[0], b["halved"]) for b in rep.attempts[0]["blocks"]]
    assert sizes[1:] == [(33, sizes[1][1]), (17, sizes[2][1])] + [(9, None)] * 12
    assert sizes[1][1].startswith("ratio") and sizes[2][1].startswith("ratio")


def test_whole_interval_block_halves_to_at_most_a_block(monkeypatch):
    # a probe that met tol lets the sweep take the whole interval as one
    # block; when that block halves, the size falls to at most _BLOCK, the
    # rows _predict's tables hold. The standing wave on [0, 0.5] (128 nodes,
    # 128 steps, ratio_cap 0.5): the 129-slice block halves on its ratio
    # 0.579, and the blocks after it keep 33 slices (a 65-slice block
    # converges on 0.323 and its successor's start would need 65 rows)
    monkeypatch.setattr(solver_module, "_probe", lambda *args: (None, True))
    sg = SpatialGrid(-30.0, 30.0, 128)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 128)
    _, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10, ratio_cap=0.5))
    assert rep.converged and rep.halvings == 0
    blocks = rep.attempts[0]["blocks"]
    assert blocks[0]["slices"] == [0, 129] and blocks[0]["halved"].startswith("ratio")
    assert [b["slices"] for b in blocks[1:]] == [[0, 33], [32, 65], [64, 97], [96, 129]]


def test_stalled_sweep_names_the_time_it_reached(caplog):
    # the sweep on [0, 0.25] stalls at a block of 2 slices starting at slice
    # 35 (dt = 0.25/64): the refused attempt, its halving line and, with no
    # halving allowed, the BlowupSuspected message name t = 35 dt. An
    # attempt refused otherwise, or converged, reached nothing
    with caplog.at_level("INFO", logger="halfline_nls.solver"):
        rep = _stalling_sinusoid()
    assert [a["t_reached"] for a in rep.attempts] == [35 * 0.25 / 64, None]
    assert rep.attempts[0]["blocks"][-1]["slices"][0] == 35
    assert [r.getMessage() for r in caplog.records] == [
        "no contraction on [0, 0.25], sweep reached t = 0.13671875; halving"]
    with pytest.raises(BlowupSuspected) as exc:
        _stalling_sinusoid(max_halvings=0)
    assert str(exc.value) == ("no contraction after 0 halvings "
                              "(last interval [0, 0.25], sweep reached t = 0.13671875)")
    sg, spec = _twice_halving_wave()  # refused twice on the whole interval
    _, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
    assert [a["t_reached"] for a in rep.attempts] == [None, None, None]


def _sinusoid(tt):
    # the CLI's sinusoid_windowed preset on [0, 0.5]
    tt = np.asarray(tt)
    return np.sin(2.0 * np.pi * tt) * smooth_ramp(8.0 * tt) + 0j


def _zeros(xx):
    return np.zeros_like(np.asarray(xx), dtype=complex)


def _gauss4_phi(xx):
    return np.exp(-(np.asarray(xx) - 4.0) ** 2) + 0j


@pytest.mark.parametrize("case", ["sinusoid_windowed", "bump on [0, 1]", "gaussian"])
def test_block_stopped_at_max_iter_keeps_its_converged_slices(case):
    # a block that stops at max_iter after its front advanced keeps the
    # slices before the front and the sweep goes on from the front at the
    # same size, the slices after the cut block's stop predicted as an
    # extrapolated block's are. Halving it instead, as every max_iter stop
    # once did, lost its applications and shrank every later block: at
    # max_iter = 3 the sinusoid_windowed preset at lam = 2 took 22
    # applications (19 here), the bump on [0, 1] halved once and answered
    # [0, 0.5] only (11 applications here, none halved), and the Gaussian
    # took 202 (22 here)
    if case == "sinusoid_windowed":  # the CLI preset's data at 256x128, lam = 2
        sg = SpatialGrid(-40.0, 40.0, 256)
        spec = _make_spec(2.0, 3.0, 0.0, _zeros, _sinusoid, 0.5, sg, 128)
        iterates = 19
    elif case == "bump on [0, 1]":  # the CLI bump preset at 256x64
        sg = SpatialGrid(-40.0, 40.0, 256)
        spec = _make_spec(1.0, 3.0, 0.0, _zeros, lambda tt: _bump(0.5 * np.asarray(tt)),
                          1.0, sg, 64)
        iterates = 11
    else:
        sg = SpatialGrid(-30.0, 30.0, 256)
        spec = _make_spec(2.0, 3.0, 0.0, _gauss4_phi, _zeros, 0.5, sg, 128)
        iterates = 22
    _, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, max_iter=3))
    assert rep.converged and rep.halvings == 0 and rep.t_achieved == spec.T
    assert rep.iterates <= iterates
    blocks = rep.attempts[-1]["blocks"]
    assert any(b["cut"] == "max_iter" for b in blocks)
    for b, c in zip(blocks, blocks[1:]):
        if b["cut"]:
            assert b["halved"] is None and b["residual"] <= 1e-8
            k = c["slices"][0]
            assert b["fronts"][-1] <= k < b["slices"][1] and c["start"] == "current"
            assert c["slices"][1] == min(k + b["slices"][1] - b["slices"][0],
                                         spec.f.grid.m + 1)


def _front_cases():
    # the standing wave at the default max_iter, and the Gaussian whose
    # blocks stop at max_iter = 3 and are cut at their fronts
    sg = SpatialGrid(-30.0, 30.0, 256)
    yield sg, _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 64), SolverConfig(
        sgrid=sg, tol=1e-10)
    yield sg, _make_spec(2.0, 3.0, 0.0, _gauss4_phi, _zeros, 0.5, sg, 128), SolverConfig(
        sgrid=sg, max_iter=3)


def test_block_fronts_start_at_the_block_and_never_fall_back():
    # one front per application: the first is the block's first slice, and
    # each later one is no smaller and short of the block's last slice
    moved = 0
    for _, spec, cfg in _front_cases():
        _, rep = solve_ibvp(spec, cfg)
        assert rep.converged
        for b in rep.attempts[-1]["blocks"]:
            k, stop = b["slices"]
            fronts = b["fronts"]
            assert len(fronts) == b["iterates"] and fronts[0] == k
            assert all(a <= c < stop for a, c in zip(fronts, fronts[1:]))
            moved += fronts[-1] > k
    assert moved > 2


def test_slice_behind_the_front_is_not_written_again(monkeypatch):
    # an application from the front leaves every slice before it as it was,
    # and each slice of the answer last moved by at most tol times the
    # field's norm: the largest H^s norm of a slice of the iterate that the
    # loop took
    real_apply, real_norm = solver_module.apply_lambda, solver_module.sobolev_norm
    for sg, spec, cfg in _front_cases():
        last, seen, iterate = {}, [0.0], []

        def apply_spy(w, pre, out=None, start=0, stop=None):
            iterate[:] = [w.values]
            before = w.values.copy()
            value = real_apply(w, pre, out=out, start=start, stop=stop)
            assert np.array_equal(value.values[:start], before[:start])
            moved = real_norm(value.values[start:stop] - before[start:stop], sg, spec.s)
            last.update(zip(range(start, start + len(moved)), moved))
            return value

        def norm_spy(values, sgrid, s):
            norms = real_norm(values, sgrid, s)
            if np.shares_memory(values, iterate[0]):
                seen.append(np.max(norms))
            return norms

        monkeypatch.setattr(solver_module, "apply_lambda", apply_spy)
        monkeypatch.setattr(solver_module, "sobolev_norm", norm_spy)
        u, rep = solve_ibvp(spec, cfg)
        assert rep.converged and rep.halvings == 0
        assert len(last) == u.tgrid.m + 1
        assert max(last.values()) <= cfg.tol * max(seen)


def test_block_tol_scale_is_the_norm_of_the_slices_swept(monkeypatch):
    # each block meets tol relative to the largest H^s norm of a slice of
    # the iterate that the sweep itself took, on the slices before the
    # block's stop. The slices it has not reached once kept the norms of
    # the opening's last whole iterate, up to 2.197 on the standing wave
    # against the answer's 2.000, and every block but the last met tol
    # against that larger scale
    real_apply, real_norm = solver_module.apply_lambda, solver_module.sobolev_norm
    sg = SpatialGrid(-30.0, 30.0, 256)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 128)
    state = {}
    norm_of, update_of, seen = {}, {}, []  # seen: [scale, updates] per block

    def apply_spy(w, pre, out=None, start=0, stop=None):
        stop = pre.tgrid.m + 1 if stop is None else stop
        # a block's: on the attempt's own grid, not its whole interval
        block = pre.tgrid.m == 128 and (start, stop) != (0, 129)
        state.update(vals=w.values, block=block, start=start, stop=stop)
        return real_apply(w, pre, out=out, start=start, stop=stop)

    def norm_spy(values, sgrid, s):
        norms = real_norm(values, sgrid, s)
        if not state["block"]:
            return norms
        if np.shares_memory(values, state["vals"]):  # the iterate's, on [k, stop)
            k = (values.ctypes.data - state["vals"].ctypes.data) // values.strides[0]
            norm_of.update(zip(range(k, k + len(norms)), norms))
            seen.append([max(v for j, v in norm_of.items() if j < state["stop"]), None])
        else:  # an update's, on [front, stop)
            update_of.update(zip(range(state["start"], state["stop"]), norms))
            seen[-1][1] = dict(update_of)
        return norms

    monkeypatch.setattr(solver_module, "apply_lambda", apply_spy)
    monkeypatch.setattr(solver_module, "sobolev_norm", norm_spy)
    _, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
    blocks = rep.attempts[-1]["blocks"]
    assert rep.converged and len(blocks) == len(seen) >= 3
    for b, (scale, updates) in zip(blocks, seen):
        k, stop = b["slices"]
        assert b["halved"] is None and b["cut"] is None
        last = max(updates[j] for j in range(k, stop))
        assert b["residual"] == pytest.approx(last / scale, rel=1e-12), (k, stop)


def test_block_takes_the_iterate_norm_once_after_its_first_application(monkeypatch):
    # on a block _iterate takes the H^s norm of its slices of the iterate
    # once, after its first application (never of an extrapolated start),
    # and the norm of each update: a block of n applications reads
    # A N N (A N)^(n-1), A an application, N a norm. The probe takes both
    # after each of its whole-interval applications, A N N
    events = []
    real_apply, real_norm = solver_module.apply_lambda, solver_module.sobolev_norm

    def apply_spy(w, pre, **kwargs):
        events.append("A")
        return real_apply(w, pre, **kwargs)

    def norm_spy(values, sgrid, s):
        events.append("N")
        return real_norm(values, sgrid, s)

    monkeypatch.setattr(solver_module, "apply_lambda", apply_spy)
    monkeypatch.setattr(solver_module, "sobolev_norm", norm_spy)
    for _, spec, cfg in _front_cases():
        events.clear()
        _, rep = solve_ibvp(spec, cfg)
        assert rep.converged and rep.halvings == 0
        whole = len(rep.residual_history)  # the probe's two
        blocks = [b["iterates"] for b in rep.attempts[-1]["blocks"]]
        assert "".join(events) == "ANN" * whole + "".join(
            "ANN" + "AN" * (n - 1) for n in blocks)
        assert events.count("N") == 2 * whole + rep.iterates + len(blocks)


def _whole_picard(spec, cfg):
    # the reference: the whole map iterated from the linear part until its
    # update falls to tol times the iterate's C_t H^s norm
    pre = _prepare_linear(
        extend_half_line(spec.phi, cfg.sgrid), spec.f, spec.lam, spec.alpha,
        cfg.seam_mismatch_cap,
    )
    u = pre.linear
    for _ in range(cfg.max_iter):
        u_next = apply_lambda(u, pre)
        delta = np.max(sobolev_norm(u_next.values - u.values, cfg.sgrid, spec.s))
        u = u_next
        if delta <= cfg.tol * np.max(sobolev_norm(u.values, cfg.sgrid, spec.s)):
            return u
    raise AssertionError("the whole-window iteration did not converge")


@pytest.mark.parametrize("case", ["standing wave", "twice halving", "A6 soliton"])
def test_sweep_reaches_the_whole_window_fixed_point(case):
    # the sweep freezes each block once converged; its field is within
    # 10 tol (relative, C_t H^s) of the whole map iterated to the same tol.
    # Measured: 3.9e-12, 7.4e-12 and 4.2e-12 (tol 1e-10)
    if case == "standing wave":
        sg = SpatialGrid(-30.0, 30.0, 256)
        spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 128)
    elif case == "twice halving":
        sg, spec = _twice_halving_wave()
    else:  # A6's problem (s = 1) on a coarser grid
        sg = SpatialGrid(-30.0, 30.0, 512)
        spec = _make_spec(2.0, 3.0, 1.0, _sol_phi, _sol_f, 0.5, sg, 512)
    cfg = SolverConfig(sgrid=sg, tol=1e-10, max_iter=40)
    u, rep = solve_ibvp(spec, cfg)
    assert rep.converged and rep.attempts[-1]["blocks"]
    # the converged attempt's data: f read on its own grid, as the solver does
    tg = u.tgrid
    f = TimeSignal(tg, interp_complex(tg.nodes, spec.f.grid.nodes, spec.f.values))
    ref = _whole_picard(dataclasses.replace(spec, f=f, T=tg.t_max), cfg)
    gap = np.max(sobolev_norm(u.values - ref.values, sg, spec.s))
    rel = gap / np.max(sobolev_norm(ref.values, sg, spec.s))
    assert rel <= 10.0 * cfg.tol, rel


def test_boundary_residual_reads_the_trace_against_f():
    # max_t |u(0,t) - f(t)| over max |u| on x >= 0; on the standing wave the
    # even reflection's kink at x = 0 sets it
    sg = SpatialGrid(-30.0, 30.0, 256)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 64)
    u, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
    gap = np.abs(u.values[:, sg.index_nearest_zero()] - spec.f.values)
    scale = np.max(np.abs(u.values[:, sg.nodes >= 0.0]))
    assert rep.boundary_residual == np.max(gap) / scale
    assert rep.boundary_residual == pytest.approx(7.1547e-5, rel=1e-3)


def test_consecutive_solves_share_no_memory(monkeypatch):
    # each solve's workspace is its own: a result aliases neither the
    # next solve's result nor the linear parts nor the shared plan
    pres = []
    real = solver_module._prepare_linear

    def recorded(*args):
        pres.append(real(*args))
        return pres[-1]

    monkeypatch.setattr(solver_module, "_prepare_linear", recorded)
    sg = SpatialGrid(-30.0, 30.0, 128)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 64)
    cfg = SolverConfig(sgrid=sg, tol=1e-10)
    u1, _ = solve_ibvp(spec, cfg)
    kept = u1.values.copy()
    u2, _ = solve_ibvp(spec, cfg)
    assert np.array_equal(u1.values, kept)
    plan = operator_plan(sg, u1.tgrid)
    others = [p.linear.values for p in pres]
    others += [plan.step, plan.inv, plan.kspec, plan.b]
    assert not np.shares_memory(u1.values, u2.values)
    for u in (u1, u2):
        assert not any(np.shares_memory(u.values, a) for a in others)


def test_warm_solve_peak_memory_is_under_five_fields():
    # one workspace per solve: two iterate slots, the Duhamel buffer and a
    # half-size block, besides the linear part, and for every attempt of a
    # halving solve the same ones. Measured 4.97 fields on all three;
    # allocating every temporary anew, as each map application once did,
    # took 5.65 on the standing wave. With max_halvings = 0 its one attempt
    # is the last, whose mixed norm waits for the buffers to go (5.52
    # fields taken beside them). The halving wave is solved on the same
    # grid: at 128x64 the sweep's two 33-slice block buffers are half a
    # field each
    sg = SpatialGrid(-30.0, 30.0, 512)
    wave = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 256)
    for (sg, spec), max_halvings, halvings in [((sg, wave), 8, 0), ((sg, wave), 0, 0),
                                               (_twice_halving_wave(512, 256), 8, 2)]:
        cfg = SolverConfig(sgrid=sg, tol=1e-10, max_halvings=max_halvings)
        solve_ibvp(spec, cfg)  # builds the plans outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            u, rep = solve_ibvp(spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged and rep.halvings == halvings
        assert peak - base <= 5.0 * u.values.nbytes, (peak - base) / u.values.nbytes


def test_warm_solve_validates_only_the_free_field(monkeypatch):
    # each validated SolutionField is a finiteness pass over a whole field.
    # The forcing checks its distinct-|x| rows before the gather, and the
    # Picard loop each iterate in its own norms, so only the free fields,
    # the probe's and the attempt's, are validated whole, whatever the
    # number of iterates
    sg = SpatialGrid(-30.0, 30.0, 128)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 64)
    cfg = SolverConfig(sgrid=sg, tol=1e-10)
    solve_ibvp(spec, cfg)  # builds the plan outside the count
    built = []
    real = SolutionField.__post_init__

    def counted(self):
        built.append(1)
        real(self)

    monkeypatch.setattr(SolutionField, "__post_init__", counted)
    _, rep = solve_ibvp(spec, cfg)
    assert rep.converged and rep.halvings == 0 and rep.iterates == 22
    assert len(built) == 2, len(built)


@pytest.mark.parametrize("lam", [1e120, 1e160])
def test_overflowing_iterate_is_refused_not_converged(lam):
    # the first iterate is finite (max|u| 3.2e159 at 1e160), and so is its
    # norm, summed over max|u|; w |w|^2 overflows inside the second map
    # application, and the non-finite Duhamel trace must refuse the
    # attempt, not escape the solve
    sg = SpatialGrid(-30.0, 30.0, 128)
    spec = _make_spec(lam, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 64)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupSuspected) as exc:
            solve_ibvp(spec, SolverConfig(sgrid=sg))
    assert str(exc.value).startswith("non-finite iterate after 8 halvings")
    rep = exc.value.report
    assert not rep.converged
    assert [a["reason"] for a in rep.attempts] == ["non-finite iterate"] * 9
    # the refused iterate enters no residual
    assert all(math.isfinite(r) for r in rep.residual_history)
    assert math.isfinite(rep.fixed_point_residual)


def test_solve_zero_data_converges_in_one_iterate():
    # zero data take the general path: the map returns the exact zero field
    sg = SpatialGrid(-20.0, 20.0, 64)
    spec = _make_spec(
        1.0, 3.0, 0.0,
        lambda xx: np.zeros_like(np.asarray(xx), dtype=complex),
        lambda tt: np.zeros_like(np.asarray(tt), dtype=complex),
        0.5, sg, 32,
    )
    u, rep = solve_ibvp(spec, SolverConfig(sgrid=sg))
    assert np.all(u.values == 0.0)
    assert rep.converged
    assert rep.iterates == 1
    assert rep.halvings == 0 and rep.fixed_point_residual == 0.0
    assert rep.t_achieved == rep.t_requested == 0.5


def test_solve_linear_boundary_and_initial_data(linear_solution):
    sg, spec, u, rep = linear_solution
    assert rep.converged
    assert rep.iterates <= 2  # measured 1: the map is w-independent at lam=0
    assert rep.fixed_point_residual <= 1e-10
    assert rep.halvings == 0
    assert rep.t_achieved == 1.0
    x = sg.nodes
    assert np.array_equal(u.values[0, x >= 0.0], spec.phi)
    tr = u.values[:, sg.index_nearest_zero()]
    f = spec.f.values
    rel = np.linalg.norm(tr - f) / np.linalg.norm(f)
    assert rel < 1e-3, rel  # measured 2.56e-5


def test_solve_linear_mass_flux_balance(linear_solution):
    sg, spec, u, rep = linear_solution
    rel = mass_flux_balance(u)["rel"]
    assert rel < 1e-2, rel  # measured 1.6e-3


def test_solve_rejects_wrong_phi_length():
    # the length is checked first: at s = 1 this phi(0) = 1 != f(0) = 0 must
    # not be judged from samples that do not sit on the grid's x >= 0 nodes
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(0.5, 32)
    for s in (0.0, 1.0):
        spec = ProblemSpec(
            1.0, 3.0, s, np.ones(7, dtype=complex),
            TimeSignal(tg, np.zeros(33, dtype=complex)), 0.5,
        )
        with pytest.raises(ValueError, match="x >= 0"):
            solve_ibvp(spec, SolverConfig(sgrid=sg))


def test_problem_spec_rejects_non_finite_inputs():
    # rejected up front: past these checks, T = nan dies in the solver's
    # round(T / dt), alpha = inf or nan in criticality, and lam = nan only after
    # a map application has filled the field with non-finite entries
    tg = TimeGrid(0.5, 32)
    f = TimeSignal(tg, np.zeros(33, dtype=complex))
    phi = np.zeros(33, dtype=complex)
    for lam, alpha, T, message in [
        (1.0, 3.0, math.nan, "0 < T < inf"), (1.0, 3.0, math.inf, "0 < T < inf"),
        (1.0, math.inf, 0.5, "2 <= alpha"), (1.0, math.nan, 0.5, "2 <= alpha"),
        (complex(math.nan, 0.0), 3.0, 0.5, "lam must be finite"),
        (complex(1.0, math.inf), 3.0, 0.5, "lam must be finite"),
    ]:
        with pytest.raises(ValueError, match=message):
            ProblemSpec(lam, alpha, 0.0, phi, f, T)
    # and s outside the paper's range 0 <= s < 3/2, s != 1/2
    for s, message in [(0.5, "s = 1/2 is excluded"), (-0.1, "0 <= s < 3/2"),
                       (1.5, "0 <= s < 3/2"), (2.0, "0 <= s < 3/2")]:
        with pytest.raises(ValueError, match=message):
            ProblemSpec(1.0, 3.0, s, phi, f, 0.5)
    # and boundary data that ends before T
    with pytest.raises(ValueError, match="does not cover"):
        ProblemSpec(1.0, 3.0, 0.0, phi, f, 0.5 * (1.0 + 1e-9))
    # and an initial slice that is not finite, which once surfaced only in
    # the whole-line extension, as a GridFunction's error
    for bad in (math.nan, complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="phi must be finite"):
            ProblemSpec(1.0, 3.0, 0.0, np.r_[phi[:-1], bad], f, 0.5)


@pytest.mark.parametrize("setting", [
    {"tol": 0.0}, {"tol": math.nan}, {"tol": math.inf},
    {"ratio_cap": -1.0}, {"delta_crit": math.nan},
    {"seam_mismatch_cap": math.inf},
    {"max_iter": 0}, {"max_iter": 1}, {"max_halvings": -1},
    {"max_iter": 3.5}, {"max_halvings": 1.5},
], ids=lambda d: "%s=%s" % next(iter(d.items())))
def test_solver_config_validation(setting):
    # none of these was rejected before a solve that could not succeed; a
    # fractional max_iter or max_halvings failed mid-solve in range()
    sg = SpatialGrid(-20.0, 20.0, 64)
    with pytest.raises(ValueError, match=next(iter(setting))):
        SolverConfig(sgrid=sg, **setting)
    # the boundary values are accepted
    SolverConfig(sgrid=sg, seam_mismatch_cap=0.0, max_iter=2, max_halvings=0)


def test_solve_rejects_supercritical():
    sg = SpatialGrid(-20.0, 20.0, 64)
    spec = _make_spec(
        1.0, 6.0, 0.0, _gauss_phi,
        lambda tt: np.zeros_like(np.asarray(tt), dtype=complex),
        0.5, sg, 32,
    )
    with pytest.raises(SupercriticalError) as exc:
        solve_ibvp(spec, SolverConfig(sgrid=sg))
    msg = str(exc.value)
    assert "supercritical" in msg
    assert "admissible range" in msg and "5" in msg


def test_solve_rejects_incompatible_data():
    # s = 1: phi(0) != f(0) where the regularity demands it
    sg = SpatialGrid(-20.0, 20.0, 64)
    spec = _make_spec(
        1.0, 3.0, 1.0, _gauss_phi,
        lambda tt: np.full(np.asarray(tt).shape, 0.5 + 0j),
        0.5, sg, 32,
    )
    with pytest.raises(CompatibilityError):
        solve_ibvp(spec, SolverConfig(sgrid=sg))
    # s = 0 accepts any corner, but sech(x - 6) against f = 0 leaves a
    # boundary correction g(0) above seam_mismatch_cap
    sg = SpatialGrid(-30.0, 30.0, 128)
    spec = _make_spec(
        2.0, 3.0, 0.0, _sol_phi,
        lambda tt: np.zeros_like(np.asarray(tt), dtype=complex),
        0.25, sg, 32,
    )
    with pytest.raises(CompatibilityError, match=r"\|g\(0\)\|/scale = 4\.98e-03"):
        solve_ibvp(spec, SolverConfig(sgrid=sg))


def test_standing_wave_is_exact_symbolically():
    import sympy

    x, t = sympy.symbols("x t", real=True)
    u = sympy.exp(sympy.I * t) * sympy.sech(x - 6)
    # |u|^2 = sech^2(x-6) since the phase is unimodular for real t
    resid = sympy.I * sympy.diff(u, t) + sympy.diff(u, x, 2) + 2 * u * sympy.sech(x - 6) ** 2
    assert sympy.simplify(resid.rewrite(sympy.exp)) == 0


def test_solve_standing_wave(soliton_solutions):
    u, rep = soliton_solutions[(512, 256)]
    assert rep.converged
    assert rep.fixed_point_residual <= 10.0 * 1e-10  # measured 1.65e-11
    err = _global_err(u, _soliton)
    assert err < 1e-3, err  # measured 2.0e-5
    u2, _ = soliton_solutions[(1024, 512)]
    err2 = _global_err(u2, _soliton)
    assert err2 < err  # measured 9.1e-6


def test_solve_standing_wave_on_a_grid_without_a_node_at_zero():
    # dx = 60/512 puts no node at x = 0: the extension anchors its reflection
    # at the boundary value extrapolated from the first three x > 0 nodes
    sg = SpatialGrid(-29.9, 30.1, 512)
    assert sg.nodes[sg.nodes >= 0.0][0] > 0.0
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.5, sg, 128)
    u, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
    assert rep.converged and rep.halvings == 0 and rep.iterates == 31
    err = _global_err(u, _soliton)
    assert err < 1e-4, err  # measured 3.7e-5; 2.3e-5 on the aligned [-30, 30)


def test_interior_residual_refines(kinkfree_solutions):
    u1, rep1 = kinkfree_solutions[(512, 256)]
    u2, rep2 = kinkfree_solutions[(1024, 512)]
    assert rep1.converged and rep2.converged
    r1 = _interior_residual(u1, 1.0, 3.0)
    r2 = _interior_residual(u2, 1.0, 3.0)
    assert r1 < 0.1, r1  # measured 1.48e-2
    order = np.log2(r1 / r2)
    assert order > 1.0, (r1, r2, order)  # measured 1.98


def test_mass_flux_balance_on_solve(kinkfree_solutions):
    for key in ((512, 256), (1024, 512)):
        u, _ = kinkfree_solutions[key]
        rel = mass_flux_balance(u)["rel"]
        assert rel < 1e-2, (key, rel)  # measured 8.0e-3 and 2.0e-3


def test_difference_stability(kinkfree_solutions):
    uA, _ = kinkfree_solutions[(512, 256)]
    sg = SpatialGrid(-30.0, 30.0, 512)
    x = sg.nodes
    xp = x[x >= 0.0]
    bumped = lambda xx: 1.0001 * _kf_phi(xx)
    spec = _make_spec(1.0, 3.0, 0.0, bumped, _kf_f, 0.5, sg, 256)
    uB, _ = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
    diff = uA.values - uB.values
    num = np.max(np.sqrt(sg.dx * np.sum(np.abs(diff) ** 2, axis=1)))
    den = np.sqrt(sg.dx * np.sum(np.abs(_kf_phi(xp) - bumped(xp)) ** 2))
    C = num / den
    assert 0.0 < C < 10.0, C  # measured 1.50


def test_continuation_matches_direct_linear():
    sg = SpatialGrid(-40.0, 40.0, 512)
    x = sg.nodes
    xp = x[x >= 0.0]
    phi_fn = lambda xx: np.exp(-(np.asarray(xx) - 4.0) ** 2) + 0j
    f_fn = lambda tt: np.zeros_like(np.asarray(tt), dtype=complex)
    tg = TimeGrid(0.25, 128)
    f = TimeSignal(tg, f_fn(tg.nodes))
    spec_half = ProblemSpec(0.0, 3.0, 0.0, phi_fn(xp), f, 0.125,
                            phi_x=xp, phi_fn=phi_fn, f_fn=f_fn)
    cfg = SolverConfig(sgrid=sg, tol=1e-10)
    u_half, _ = solve_ibvp(spec_half, cfg)
    u_split = continue_solution(u_half, spec_half, 0.125, 0.125, cfg)
    spec_full = ProblemSpec(0.0, 3.0, 0.0, phi_fn(xp), f, 0.25,
                            phi_x=xp, phi_fn=phi_fn, f_fn=f_fn)
    u_full, _ = solve_ibvp(spec_full, cfg)
    assert u_split.values.shape == u_full.values.shape
    rel = np.linalg.norm(u_split.values - u_full.values) / np.linalg.norm(u_full.values)
    assert rel < 1e-6, rel  # measured 2.0e-7
    assert u_split.meta["seam_index"] == u_half.tgrid.m
    assert u_split.meta["restart_report"]["converged"]


def test_continuation_matches_direct_standing_wave():
    sg = SpatialGrid(-30.0, 30.0, 1024)
    x = sg.nodes
    xp = x[x >= 0.0]
    tg = TimeGrid(0.5, 512)
    f = TimeSignal(tg, _sol_f(tg.nodes))
    spec = ProblemSpec(2.0, 3.0, 0.0, _sol_phi(xp), f, 0.25,
                       phi_x=xp, phi_fn=_sol_phi, f_fn=_sol_f)
    cfg = SolverConfig(sgrid=sg, tol=1e-10)
    u_half, _ = solve_ibvp(spec, cfg)
    u_split = continue_solution(u_half, spec, 0.25, 0.25, cfg)
    spec_full = ProblemSpec(2.0, 3.0, 0.0, _sol_phi(xp), f, 0.5,
                            phi_x=xp, phi_fn=_sol_phi, f_fn=_sol_f)
    u_full, _ = solve_ibvp(spec_full, cfg)
    rel = np.linalg.norm(u_split.values - u_full.values) / np.linalg.norm(u_full.values)
    assert rel < 1e-3, rel  # measured 6.9e-6
    err = _global_err(u_split, _soliton)
    assert err < 1e-3, err  # measured 8.8e-6


def test_continuation_zero_delta_returns_same_object():
    sg = SpatialGrid(-30.0, 30.0, 256)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.25, sg, 64)
    cfg = SolverConfig(sgrid=sg)
    u, _ = solve_ibvp(spec, cfg)
    assert continue_solution(u, spec, 0.25, 0.0, cfg) is u


def test_continuation_argument_validation():
    sg = SpatialGrid(-30.0, 30.0, 256)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.25, sg, 64)
    cfg = SolverConfig(sgrid=sg)
    u, _ = solve_ibvp(spec, cfg)
    with pytest.raises(ValueError):
        continue_solution(u, spec, 0.25, -0.1, cfg)
    with pytest.raises(ValueError, match="final time"):
        continue_solution(u, spec, 0.5, 0.25, cfg)
    # boundary data ends at t=0.25, cannot continue past it
    with pytest.raises(ValueError, match="cover"):
        continue_solution(u, spec, 0.25, 0.25, cfg)
    # non-finite arguments are named: delta = nan failed converting NaN to
    # an integer, inf overflowed, and T = nan passed the final-time check
    for T, delta, name in [(0.25, math.nan, "delta"), (0.25, math.inf, "delta"),
                           (math.nan, 0.25, "T"), (math.inf, 0.25, "T")]:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            continue_solution(u, spec, T, delta, cfg)


def test_continuation_names_the_rounded_interval_it_needs():
    # f reaches T + 4 dt and delta = 4 dt is rounded up to the 8-step
    # floor: the message once named [T, T + delta], which f covers
    sg = SpatialGrid(-30.0, 30.0, 256)
    spec = _make_spec(2.0, 3.0, 0.0, _sol_phi, _sol_f, 0.25, sg, 64)
    cfg = SolverConfig(sgrid=sg)
    u, _ = solve_ibvp(spec, cfg)
    dt = u.tgrid.dt
    tg = TimeGrid(0.25 + 4 * dt, 68)
    longer = dataclasses.replace(spec, f=TimeSignal(tg, _sol_f(tg.nodes)))
    with pytest.raises(ValueError, match=r"\[0\.25, 0\.28125\]: delta rounded to 8 parent steps"):
        continue_solution(u, longer, 0.25, 4 * dt, cfg)


def test_continuation_accepts_data_short_by_rounding_late_in_time():
    # f ends 5e-13 (relative) short of T + delta = 2e4, a shortfall of
    # rounding size: an absolute 1e-12 allowance, below one ulp of 2e4,
    # refused it; the relative one that ProblemSpec applies accepts it
    sg = SpatialGrid(-30.0, 30.0, 64)
    xp = sg.nodes[sg.nodes >= 0.0]
    f = TimeSignal(TimeGrid(2e4 * (1.0 - 5e-13), 16), np.zeros(17))
    spec = ProblemSpec(1.0, 3.0, 0.0, np.zeros(len(xp)), f, 1e4)
    u = SolutionField(sg, TimeGrid(1e4, 8), np.zeros((9, 64)))
    out = continue_solution(u, spec, 1e4, 1e4, SolverConfig(sgrid=sg))
    assert out.tgrid.t_max == 2e4 and not np.any(out.values)


def test_continuation_rejects_supercritical_spec():
    # a restart is the solve's construction from u(T), behind the same gate
    sg = SpatialGrid(-30.0, 30.0, 128)
    xp = sg.nodes[sg.nodes >= 0.0]
    tg = TimeGrid(0.5, 32)
    spec = ProblemSpec(2.0, 3.0, 0.0, _sol_phi(xp), TimeSignal(tg, _sol_f(tg.nodes)), 0.25)
    cfg = SolverConfig(sgrid=sg)
    u, rep = solve_ibvp(spec, cfg)
    assert rep.converged
    with pytest.raises(SupercriticalError, match="supercritical"):
        continue_solution(u, dataclasses.replace(spec, alpha=6.0), 0.25, 0.25, cfg)


def test_continuation_failed_restart_raises_blowup_suspected(caplog):
    sg = SpatialGrid(-30.0, 30.0, 256)
    phi_fn = lambda xx: np.exp(-(np.asarray(xx) - 8.0) ** 2) + 0j
    f_fn = lambda tt: np.zeros_like(np.asarray(tt), dtype=complex)
    tg = TimeGrid(0.5, 64)
    f = TimeSignal(tg, f_fn(tg.nodes))
    spec = ProblemSpec(2.0, 3.0, 0.0, phi_fn(sg.nodes[sg.nodes >= 0.0]), f, 0.25,
                       phi_x=sg.nodes[sg.nodes >= 0.0], phi_fn=phi_fn, f_fn=f_fn)
    u, rep = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-8))
    assert rep.converged and rep.halvings == 0
    cruel = SolverConfig(sgrid=sg, tol=1e-14, max_iter=2, ratio_cap=1e-6, max_halvings=1)
    before = u.values.copy()
    with caplog.at_level("INFO", logger="halfline_nls.solver"):
        with pytest.raises(BlowupSuspected) as exc:
            continue_solution(u, spec, 0.25, 0.25, cruel)
    # the restart's intervals are named in absolute time
    assert [r.getMessage() for r in caplog.records] == [
        "no contraction on [0.25, 0.5]; halving",
        "no contraction on [0.25, 0.375]; halving",
    ]
    assert exc.value.report.halvings == 1
    assert not exc.value.report.converged
    assert np.array_equal(u.values, before)


def _halving_restart_case():
    # parent solve on [0, 0.25] with dt = 1/256; the data cover [0, 0.5]
    sg = SpatialGrid(-30.0, 30.0, 512)
    x = sg.nodes
    xp = x[x >= 0.0]
    tg = TimeGrid(0.5, 128)
    f = TimeSignal(tg, _sol_f(tg.nodes))
    spec = ProblemSpec(2.0, 3.0, 0.0, _sol_phi(xp), f, 0.25,
                       phi_x=xp, phi_fn=_sol_phi, f_fn=_sol_f)
    cfg = SolverConfig(sgrid=sg, tol=1e-10)
    u, rep = solve_ibvp(spec, cfg)
    assert rep.converged and rep.halvings == 0
    return sg, spec, cfg, u


@pytest.mark.filterwarnings("ignore::halfline_nls.EdgeDecayWarning")
def test_continuation_halved_restart_keeps_parent_step():
    # ratio_cap 0.23 stops the restart on [0.25, 0.5] at its first ratio
    # (0.253) and lets it contract on [0.25, 0.375] (whole ratios 0.116,
    # 0.201; block ratios at most 0.066)
    sg, spec, cfg, u = _halving_restart_case()
    tight = SolverConfig(sgrid=sg, tol=1e-10, ratio_cap=0.23)
    out = continue_solution(u, spec, 0.25, 0.25, tight)
    assert out.meta["restart_report"]["halvings"] == 1
    # the restart's times are absolute: asked for [0.25, 0.5], got [0.25, 0.375]
    assert out.meta["restart_report"]["t_requested"] == 0.5
    assert out.meta["restart_report"]["t_achieved"] == 0.375
    assert abs(out.tgrid.dt - u.tgrid.dt) <= 1e-14 * u.tgrid.dt
    assert out.tgrid.t_max == 0.375 and out.tgrid.m == 96
    k = out.meta["seam_index"]
    assert np.array_equal(out.values[: k + 1], u.values)
    keep = sg.nodes > 0.0
    ref = _soliton(sg.nodes[None, keep], out.tgrid.nodes[:, None])
    err = np.linalg.norm(out.values[:, keep] - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert np.max(err[: k + 1]) < 1e-4, np.max(err[: k + 1])  # measured 2.3e-5
    assert np.max(err[k:]) < 1e-4, np.max(err[k:])  # measured 3.2e-5


@pytest.mark.filterwarnings("ignore::halfline_nls.EdgeDecayWarning")
def test_continuation_restart_that_contracts_slowly_answers_the_whole_delta():
    # ratio_cap 0.26 passes the restart's first whole ratio on [0.25, 0.5]
    # (0.253). A second ratio (0.32) is taken only after a first one at most
    # 1/4, so the restart sweeps, with block ratios at most 0.11, and no
    # halving shortens the result below the T + delta asked for
    sg, spec, cfg, u = _halving_restart_case()
    out = continue_solution(u, spec, 0.25, 0.25,
                            SolverConfig(sgrid=sg, tol=1e-10, ratio_cap=0.26))
    restart = out.meta["restart_report"]
    assert restart["halvings"] == 0 and restart["converged"]
    assert len(restart["contraction_ratios"]) == 1 and restart["attempts"][0]["blocks"]
    assert restart["t_achieved"] == restart["t_requested"] == 0.5
    assert out.tgrid.t_max == 0.5 and out.tgrid.m == 128
    k = out.meta["seam_index"]
    assert np.array_equal(out.values[: k + 1], u.values)
    keep = sg.nodes > 0.0
    ref = _soliton(sg.nodes[None, keep], out.tgrid.nodes[:, None])
    err = np.linalg.norm(out.values[:, keep] - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert np.max(err[k:]) < 1e-4, np.max(err[k:])  # measured 3.4e-5


@pytest.mark.filterwarnings("ignore::halfline_nls.EdgeDecayWarning")
def test_continuation_restart_shorter_than_parent_step():
    # delta = 8 parent steps; ratio_cap 0.0025 needs 4 halvings (first
    # ratios 0.0274, 0.0137, 0.0068, 0.0034, halving with the interval),
    # which would leave a tail of 8 steps of dt/16: not one whole parent
    # step. The restart stops at the floor of 3 halvings (2**3 <= 8) and
    # raises
    sg, spec, cfg, u = _halving_restart_case()
    tight = SolverConfig(sgrid=sg, tol=1e-10, ratio_cap=0.0025)
    with pytest.raises(BlowupSuspected) as exc:
        continue_solution(u, spec, 0.25, 8 * u.tgrid.dt, tight)
    assert exc.value.report.halvings == 3
    assert not exc.value.report.converged


def _twice_halving_wave(n=128, m=64):
    # the standing wave asked for on [0, 2] contracts only on [0, 0.5]
    sg = SpatialGrid(-30.0, 30.0, n)
    tg = TimeGrid(2.0, m)
    xp = sg.nodes[sg.nodes >= 0.0]
    spec = ProblemSpec(
        2.0, 3.0, 0.0, _soliton(xp, 0.0), TimeSignal(tg, _soliton(0.0, tg.nodes)), 2.0
    )
    return sg, spec


def test_failed_halving_attempt_is_freed_before_the_retry(monkeypatch):
    # the standing wave asked for on [0, 2] contracts only on [0, 0.5]; no
    # field of a failed attempt may live on into the next one, which would
    # hold one more whole field through every retry
    def live_fields():
        return sum(isinstance(o, SolutionField) for o in gc.get_objects())

    seen = []

    def counted(name):
        inner = getattr(solver_module, name)

        def wrapper(*args, **kwargs):
            seen.append((name, live_fields() - base))
            return inner(*args, **kwargs)

        monkeypatch.setattr(solver_module, name, wrapper)

    counted("_prepare_linear")
    counted("_picard_loop")
    sg, spec = _twice_halving_wave()
    # earlier tests may leave fields in reference cycles (a kept exception's
    # traceback holds its frames); collected mid-solve they would read as -1
    gc.collect()
    base = live_fields()
    _, report = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
    assert report.halvings == 2
    # each attempt starts from nothing: the probe builds its coarse linear
    # part, and the attempt the probe passes its own, which it iterates from
    assert seen == [("_prepare_linear", 0)] * 4 + [("_picard_loop", 1)]


def test_report_keeps_every_attempt(monkeypatch):
    # the report's top level describes the last attempt only; its attempts
    # describe all three, and every map application
    calls = []
    real = solver_module.apply_lambda

    def counted(w, pre, **kwargs):
        calls.append(1)
        return real(w, pre, **kwargs)

    monkeypatch.setattr(solver_module, "apply_lambda", counted)
    sg, spec = _twice_halving_wave()
    cfg = SolverConfig(sgrid=sg, tol=1e-10)
    _, report = solve_ibvp(spec, cfg)
    attempts = report.attempts
    assert [a["interval"] for a in attempts] == [[0.0, 2.0], [0.0, 1.0], [0.0, 0.5]]
    assert [a["reason"] for a in attempts] == ["no contraction"] * 2 + [None]
    # each attempt's probe applies the map twice, besides its iterates
    assert sum(a["iterates"] + 2 for a in attempts) == len(calls) > report.iterates
    assert attempts[-1]["iterates"] == report.iterates
    assert attempts[-1]["contraction_ratios"] == report.contraction_ratios
    # each refusal keeps the ratio that ended it: the probe's, after the 2
    # whole applications that form it (measured 3.05 and 1.34), and makes
    # no application on its own grid
    for a in attempts[:2]:
        assert a["iterates"] == 0 and len(a["contraction_ratios"]) == 1
        assert a["contraction_ratios"][0] > cfg.ratio_cap


def test_halving_solve_builds_one_workspace(monkeypatch):
    # every attempt keeps m and n, so the buffers of the first serve all
    # three, and those of the first probe, on 32 steps, every probe; one
    # Workspace was once built per attempt
    built = []
    real = Workspace.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(Workspace, "__init__", counted)
    sg, spec = _twice_halving_wave()
    _, report = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
    assert report.converged and report.halvings == 2
    assert [tg.m for _, tg in built] == [64, 32]


def _count_mixed_norms(monkeypatch):
    # the final time of each field solver.mixed_norm is taken of
    calls = []
    real = solver_module.mixed_norm

    def counted(*args):
        calls.append(args[0].tgrid.t_max)
        return real(*args)

    monkeypatch.setattr(solver_module, "mixed_norm", counted)
    return calls


def test_halving_solve_takes_the_mixed_norm_once(monkeypatch):
    # the two refused attempts need their linear parts only finite, which
    # one pass shows; the norm is taken for the report of the attempt the
    # solve ends on (three norms were taken, one per attempt), and equals
    # that linear part's, 1.14663 as before
    calls = _count_mixed_norms(monkeypatch)
    sg, spec = _twice_halving_wave()
    u, report = solve_ibvp(spec, SolverConfig(sgrid=sg, tol=1e-10))
    assert report.converged and report.halvings == 2
    assert calls == [0.5]
    f = TimeSignal(u.tgrid, interp_complex(u.tgrid.nodes, spec.f.grid.nodes, spec.f.values))
    pre = _prepare_linear(extend_half_line(spec.phi, sg), f, spec.lam, spec.alpha, 1e-3)
    pair = admissible_pair(spec.s, spec.alpha)
    assert report.linear_mixed_norm == mixed_norm(pre.linear, spec.s, pair.q, pair.r)
    assert report.linear_mixed_norm == pytest.approx(1.1466299193594027, rel=1e-12)


def test_blowup_suspected_carries_report(monkeypatch):
    sg = SpatialGrid(-30.0, 30.0, 256)
    phi_fn = lambda xx: 3.0 * np.exp(-(np.asarray(xx) - 8.0) ** 2) + 0j
    f_fn = lambda tt: np.zeros_like(np.asarray(tt), dtype=complex)
    spec = _make_spec(2.0, 3.0, 0.0, phi_fn, f_fn, 0.25, sg, 64)
    cruel = SolverConfig(sgrid=sg, tol=1e-14, max_iter=2, ratio_cap=1e-6, max_halvings=1)
    norms = _count_mixed_norms(monkeypatch)
    with pytest.raises(BlowupSuspected) as exc:
        solve_ibvp(spec, cruel)
    # two attempts, one halving between them, both refused by the ratio cap
    # at the probe, which applies the map twice on its own grid and none
    # on the attempt's
    rep = exc.value.report
    assert rep.iterates == 0 and len(rep.residual_history) == 2
    assert not rep.converged
    assert rep.halvings == 1
    assert str(exc.value).startswith("no contraction after 1 halvings")
    # no linear part was built on an attempt's own grid, so no mixed norm
    # was taken
    assert norms == [] and rep.linear_mixed_norm is None


def test_refused_solve_keeps_no_field_in_its_traceback():
    # whoever keeps a BlowupSuspected keeps the solver's frames through its
    # traceback; the last attempt's iterate and linear part are not in
    # them, nor the solve's workspace or any other whole-field buffer
    # (about 4.5 fields between them)
    sg = SpatialGrid(-30.0, 30.0, 128)
    phi_fn = lambda xx: 3.0 * np.exp(-(np.asarray(xx) - 8.0) ** 2) + 0j
    f_fn = lambda tt: np.zeros_like(np.asarray(tt), dtype=complex)
    spec = _make_spec(2.0, 3.0, 0.0, phi_fn, f_fn, 0.25, sg, 32)
    cruel = SolverConfig(sgrid=sg, tol=1e-14, max_iter=2, ratio_cap=1e-6, max_halvings=1)
    with pytest.raises(BlowupSuspected) as exc:
        solve_ibvp(spec, cruel)
    tb = exc.value.__traceback__
    held = []
    while tb is not None:
        if tb.tb_frame.f_code.co_name == "_solve_from_slice":
            held += [k for k, v in tb.tb_frame.f_locals.items()
                     if isinstance(v, (SolutionField, solver_module.LinearData, Workspace))
                     or isinstance(v, np.ndarray) and v.size >= 33 * sg.n]
        tb = tb.tb_next
    assert held == []


def _critical_case():
    # A10's critical pair s = 0, alpha = 5 on small standing-wave data
    sg = SpatialGrid(-30.0, 30.0, 128)
    phi_fn = lambda xx: 0.2 / np.cosh(np.asarray(xx) - 6.0) + 0j
    f_fn = lambda tt: 0.2 * np.exp(1j * np.asarray(tt)) / np.cosh(6.0)
    return sg, _make_spec(1.0, 5.0, 0.0, phi_fn, f_fn, 0.25, sg, 16)


def test_critical_gate_halves_until_the_linear_part_is_small(monkeypatch):
    sg, spec = _critical_case()
    cfg = SolverConfig(sgrid=sg, tol=1e-8)
    norms = _count_mixed_norms(monkeypatch)
    grids = []
    real = solver_module._prepare_linear

    def recorded(phi_ext, f, *args):
        grids.append(f.grid.m)
        return real(phi_ext, f, *args)

    monkeypatch.setattr(solver_module, "_prepare_linear", recorded)
    _, rep = solve_ibvp(spec, cfg)
    assert rep.converged and rep.criticality == "critical"
    assert rep.halvings == 6
    assert len(norms) == 7  # the gate's, one per attempt
    # on 16 steps the probe's grid is the attempt's own: the gate, the
    # probe and the sweep read one linear part per attempt
    assert grids == [16] * 7
    assert rep.t_achieved == 0.25 / 64
    assert rep.linear_mixed_norm < cfg.delta_crit  # measured 0.0910


def test_critical_gate_refusals_name_the_mixed_norm(monkeypatch):
    # with one halving too few the gate refuses every attempt: no iterate is
    # made, and the report says so
    sg, spec = _critical_case()
    cfg = SolverConfig(sgrid=sg, tol=1e-8, max_halvings=5)
    norms = _count_mixed_norms(monkeypatch)
    with pytest.raises(BlowupSuspected) as exc:
        solve_ibvp(spec, cfg)
    rep = exc.value.report
    assert rep.halvings == 5 and len(norms) == 6
    assert rep.iterates == 0 and rep.t_achieved == 0.0 and not rep.converged
    assert rep.linear_mixed_norm >= cfg.delta_crit
    msg = str(exc.value)
    assert msg.startswith("linear mixed norm") and "delta_crit 0.1" in msg
    assert "after 5 halvings" in msg


@pytest.mark.filterwarnings("ignore::halfline_nls.EdgeDecayWarning")
def test_critical_gate_refusing_a_restart_reports_its_start():
    # a restart the gate refuses makes no iterate and achieves nothing past
    # its own start: t_achieved is the restart time, not 0
    sg, spec = _critical_case()
    cfg = SolverConfig(sgrid=sg, tol=1e-8)
    u, rep = solve_ibvp(spec, cfg)
    T = rep.t_achieved
    with pytest.raises(BlowupSuspected) as exc:
        continue_solution(u, spec, T, 16 * u.tgrid.dt,
                          dataclasses.replace(cfg, delta_crit=1e-3))
    rep = exc.value.report
    # 16 steps: the floor allows 4 halvings
    assert rep.halvings == 4 and rep.iterates == 0
    assert rep.t_achieved == T and rep.t_requested == 2 * T
    # the message names the last interval's exact ends, [T, T + T/16]
    ends = re.search(r"last interval \[([^,]+), ([^\]]+)\]", str(exc.value)).groups()
    assert [float(e) for e in ends] == [T, T + T / 16]
