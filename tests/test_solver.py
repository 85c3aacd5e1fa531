"""Fixed-point solver: exponent bookkeeping, criticality gates, the
contraction loop, continuation, and the blowup monitor.

Interior residuals use centered differences in t and x away from x=0
(the forcing term has a corner there) with the first and last m/8 time
slices trimmed. Accuracy targets are checked against a standing wave
profile whose exactness is verified symbolically before use.
"""
import math

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
    admissible_pair,
    apply_lambda,
    blowup_monitor,
    compatibility_check,
    continue_solution,
    criticality,
    extend_half_line,
    mass_flux_balance,
    nonlinearity,
    solve_ibvp,
)
from halfline_nls.solver import _prepare_linear


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


def test_nonlinearity_constant_field():
    sg = SpatialGrid(-2.0, 2.0, 16)
    tg = TimeGrid(1.0, 8)
    u = SolutionField(sg, tg, np.full((9, 16), 2.0 + 0j))
    lam = 0.5 + 0.25j
    out = nonlinearity(u, lam, 3.0)
    assert np.allclose(out.values, 8.0 * lam, rtol=0.0, atol=0.0)


def test_nonlinearity_rejects_small_alpha():
    sg = SpatialGrid(-2.0, 2.0, 16)
    tg = TimeGrid(1.0, 8)
    u = SolutionField(sg, tg, np.zeros((9, 16), dtype=complex))
    with pytest.raises(ValueError):
        nonlinearity(u, 1.0, 0.5)


def test_nonlinearity_zero_stays_zero():
    sg = SpatialGrid(-2.0, 2.0, 16)
    tg = TimeGrid(1.0, 8)
    u = SolutionField(sg, tg, np.zeros((9, 16), dtype=complex))
    out = nonlinearity(u, 3.0, 2.0)
    assert np.all(out.values == 0.0)
    assert np.all(np.isfinite(out.values))


def test_nonlinearity_pointwise_lipschitz():
    rng = np.random.default_rng(7)
    sg = SpatialGrid(-2.0, 2.0, 32)
    tg = TimeGrid(1.0, 8)
    shape = (9, 32)
    for alpha in (2.0, 3.5):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        u = SolutionField(sg, tg, a)
        v = SolutionField(sg, tg, b)
        lhs = np.abs(nonlinearity(u, 1.0, alpha).values - nonlinearity(v, 1.0, alpha).values)
        bound = alpha * (np.abs(a) ** (alpha - 1.0) + np.abs(b) ** (alpha - 1.0)) * np.abs(a - b)
        assert np.all(lhs <= bound + 1e-12)


def test_compatibility_low_regularity_always_passes():
    tg = TimeGrid(1.0, 8)
    f = TimeSignal(tg, np.full(9, 5.0 + 0j))
    phi = np.zeros(4, dtype=complex)
    assert compatibility_check(phi, f, 0.3)
    assert compatibility_check(phi, f, 0.0)


def test_compatibility_high_regularity():
    sg = SpatialGrid(-16.0, 16.0, 128)
    x = sg.nodes
    phi = _gauss_phi(x[x >= 0.0])
    tg = TimeGrid(1.0, 8)
    f_good = TimeSignal(tg, np.full(9, phi[0]))
    f_bad = TimeSignal(tg, np.full(9, 0.5 + 0j))
    assert compatibility_check(phi, f_good, 1.0, grid=sg)
    assert not compatibility_check(phi, f_bad, 1.0, grid=sg)


def test_compatibility_tolerance_scaling():
    tg = TimeGrid(1.0, 8)
    f = TimeSignal(tg, np.full(9, 1.0 + 5e-9 + 0j))
    phi = np.array([1.0 + 0j])
    assert compatibility_check(phi, f, 1.0, tol=1e-8)
    assert not compatibility_check(phi, f, 1.0, tol=1e-10)


def test_apply_lambda_defocusing_free_is_w_independent():
    sg = SpatialGrid(-30.0, 30.0, 512)
    x = sg.nodes
    xp = x[x >= 0.0]
    tg = TimeGrid(0.5, 256)
    pext = extend_half_line(_kf_phi(xp), sg, 0.0)
    f = TimeSignal(tg, _kf_f(tg.nodes))
    pre = _prepare_linear(pext, f, 0.0, 3.0, 1e-3)
    w1 = SolutionField(sg, tg, np.zeros_like(pre.linear.values))
    out1 = apply_lambda(w1, pre)
    out2 = apply_lambda(pre.linear, pre)
    assert np.array_equal(out1.values, pre.linear.values)
    assert np.array_equal(out2.values, pre.linear.values)
    out1.values[0, 0] = 9.0
    assert pre.linear.values[0, 0] != 9.0


def test_apply_lambda_boundary_trace():
    sg = SpatialGrid(-30.0, 30.0, 512)
    x = sg.nodes
    xp = x[x >= 0.0]
    tg = TimeGrid(0.5, 256)
    pext = extend_half_line(_kf_phi(xp), sg, 0.0)
    f = TimeSignal(tg, _kf_f(tg.nodes))
    pre = _prepare_linear(pext, f, 1.0, 3.0, 1e-3)
    j0 = sg.index_nearest_zero()
    mod = (1.0 + 0.3j * np.sin(3.0 * tg.nodes))[:, None]
    for w in (pre.linear, SolutionField(sg, tg, 0.5 * pre.linear.values * mod)):
        out = apply_lambda(w, pre)
        tr = out.values[:, j0]
        rel = np.linalg.norm(tr - f.values) / np.linalg.norm(f.values)
        assert rel < 1e-3, rel  # measured 1.08e-4 for both iterates


def test_solve_zero_data_shortcut():
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
    assert rep.iterates == 0
    assert rep.t_achieved == 0.5


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


def test_solve_linear_monitor_and_mass(linear_solution):
    sg, spec, u, rep = linear_solution
    mon = blowup_monitor(u, 0.0)
    mvals = np.abs(mon.values)
    assert mvals.max() / mvals.min() < 10.0  # measured 1.066
    rel = mass_flux_balance(u)["rel"]
    assert rel < 1e-2, rel  # measured 1.6e-3


def test_solve_rejects_wrong_phi_length():
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(0.5, 32)
    spec = ProblemSpec(
        1.0, 3.0, 0.0, np.zeros(7, dtype=complex),
        TimeSignal(tg, np.zeros(33, dtype=complex)), 0.5,
    )
    with pytest.raises(ValueError, match="x >= 0"):
        solve_ibvp(spec, SolverConfig(sgrid=sg))


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
    sg = SpatialGrid(-20.0, 20.0, 64)
    spec = _make_spec(
        1.0, 3.0, 1.0, _gauss_phi,
        lambda tt: np.full(np.asarray(tt).shape, 0.5 + 0j),
        0.5, sg, 32,
    )
    with pytest.raises(CompatibilityError):
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
    assert rep.fixed_point_residual <= 10.0 * 1e-10  # measured 1.6e-12
    err = _global_err(u, _soliton)
    assert err < 1e-3, err  # measured 2.0e-5
    u2, _ = soliton_solutions[(1024, 512)]
    err2 = _global_err(u2, _soliton)
    assert err2 < err  # measured 9.1e-6


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


def test_continuation_failed_restart_sets_blowup_meta():
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
    out = continue_solution(u, spec, 0.25, 0.25, cruel)
    assert out.meta["blowup"] is True
    assert not out.meta["restart_report"]["converged"]
    assert np.array_equal(out.values, u.values)
    assert out.tgrid.m == u.tgrid.m


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
    # ratio_cap 0.26 stops the restart on [0.25, 0.5] (contraction ratios
    # 0.25, 0.32) and lets it contract on [0.25, 0.375] (at most 0.20)
    sg, spec, cfg, u = _halving_restart_case()
    tight = SolverConfig(sgrid=sg, tol=1e-10, ratio_cap=0.26)
    out = continue_solution(u, spec, 0.25, 0.25, tight)
    assert out.meta["restart_report"]["halvings"] == 1
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
def test_continuation_restart_shorter_than_parent_step():
    # delta = 8 parent steps; ratio_cap 0.005 needs 4 halvings, which leave a
    # tail of 8 steps of dt/16: not one whole parent step
    sg, spec, cfg, u = _halving_restart_case()
    tight = SolverConfig(sgrid=sg, tol=1e-10, ratio_cap=0.005)
    out = continue_solution(u, spec, 0.25, 8 * u.tgrid.dt, tight)
    assert out.meta["restart_report"]["halvings"] == 4
    assert out.meta["restart_shorter_than_step"] is True
    assert out.tgrid == u.tgrid
    assert np.array_equal(out.values, u.values)


def test_blowup_suspected_carries_report():
    sg = SpatialGrid(-30.0, 30.0, 256)
    phi_fn = lambda xx: 3.0 * np.exp(-(np.asarray(xx) - 8.0) ** 2) + 0j
    f_fn = lambda tt: np.zeros_like(np.asarray(tt), dtype=complex)
    spec = _make_spec(2.0, 3.0, 0.0, phi_fn, f_fn, 0.25, sg, 64)
    cruel = SolverConfig(sgrid=sg, tol=1e-14, max_iter=2, ratio_cap=1e-6, max_halvings=1)
    with pytest.raises(BlowupSuspected) as exc:
        solve_ibvp(spec, cruel)
    assert exc.value.report.iterates == 2
    assert not exc.value.report.converged


def test_blowup_monitor_zero_field():
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(0.5, 16)
    u = SolutionField(sg, tg, np.zeros((17, 64), dtype=complex))
    mon = blowup_monitor(u, 0.0)
    assert np.all(mon.values == 0.0)


def test_blowup_monitor_rejects_half_line_field():
    from halfline_nls import HalfLineGrid

    hg = HalfLineGrid(20.0, 64)
    tg = TimeGrid(0.5, 16)
    u = SolutionField(hg, tg, np.zeros((17, 65), dtype=complex))
    with pytest.raises(TypeError):
        blowup_monitor(u, 0.0)
