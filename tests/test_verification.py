"""Independent finite-difference oracle, field comparison, and the dyadic
refinement study.

The Crank-Nicolson march discretizes the same initial-boundary value
problem on a half-line grid with the boundary trace imposed strongly, so
its agreement with closed forms is an end-to-end check that does not share
code with the integral-equation solver.
"""
import numpy as np
import pytest

from halfline_nls import (
    FDConfig,
    ProblemSpec,
    SolutionField,
    SolverConfig,
    SpatialGrid,
    TimeGrid,
    TimeSignal,
    compare_fields,
    convergence_study,
    crank_nicolson,
    mass_flux_balance,
    solve_ibvp,
)
from halfline_nls.verification import refined_problem


def _soliton(x, t):
    return np.exp(1j * np.asarray(t)) / np.cosh(np.asarray(x) - 6.0)


def _sol_phi(xx):
    return 1.0 / np.cosh(np.asarray(xx) - 6.0) + 0j


def _sol_f(tt):
    return np.exp(1j * np.asarray(tt)) / np.cosh(6.0)


def _gauss_free(x, t, c):
    den = 1.0 + 4.0j * np.asarray(t)
    return np.exp(-((np.asarray(x) - c) ** 2) / den) / np.sqrt(den)


def _zero_fn(arg):
    return np.zeros_like(np.asarray(arg), dtype=complex)


def _make_spec(lam, alpha, phi_fn, f_fn, T, x_ref, m):
    xp = x_ref[x_ref >= 0.0]
    tg = TimeGrid(T, m)
    return ProblemSpec(
        lam, alpha, 0.0, phi_fn(xp), TimeSignal(tg, f_fn(tg.nodes)), T,
        phi_x=xp, phi_fn=phi_fn, f_fn=f_fn,
    )


def test_fd_config_validation():
    with pytest.raises(ValueError):
        FDConfig(nx=32, nt=128, x_max=30.0)
    with pytest.raises(ValueError):
        FDConfig(nx=128, nt=32, x_max=30.0)


def test_refined_problem_resamples_phi_from_its_samples():
    # without phi_fn, phi is interpolated from its samples at phi_x: exact
    # on the x >= 0 nodes the coarse grid shares with the fine one
    coarse = SpatialGrid(-30.0, 30.0, 128)
    fine = SpatialGrid(-30.0, 30.0, 256)
    spec = _make_spec(2.0, 3.0, _sol_phi, _sol_f, 0.5, coarse.nodes, 32)
    spec.phi_fn = None
    cfg = SolverConfig(sgrid=coarse)
    spec_r, _ = refined_problem(spec, cfg, fine, 64)
    assert np.array_equal(spec_r.phi[::2], spec.phi)
    spec.phi_x = None
    with pytest.raises(ValueError, match="cannot resample"):
        refined_problem(spec, cfg, fine, 64)


def test_crank_nicolson_zero_data():
    x_ref = SpatialGrid(-30.0, 30.0, 256).nodes
    spec = _make_spec(1.0, 3.0, _zero_fn, _zero_fn, 0.5, x_ref, 64)
    fd = crank_nicolson(spec, FDConfig(nx=64, nt=64, x_max=30.0))
    assert np.all(fd.values == 0.0)


def test_crank_nicolson_free_gaussian():
    # boundary data equal to the whole-line trace makes the free evolution
    # the solution of the half-line problem
    x_ref = SpatialGrid(-30.0, 30.0, 256).nodes
    phi_fn = lambda xx: np.exp(-((np.asarray(xx) - 8.0) ** 2)) + 0j
    f_fn = lambda tt: _gauss_free(0.0, tt, 8.0)
    spec = _make_spec(0.0, 3.0, phi_fn, f_fn, 0.5, x_ref, 2048)
    fd = crank_nicolson(spec, FDConfig(nx=2048, nt=2048, x_max=30.0))
    TT, XX = np.meshgrid(fd.tgrid.nodes, fd.sgrid.nodes, indexing="ij")
    ref = _gauss_free(XX, TT, 8.0)
    err = np.sqrt(np.sum(np.abs(fd.values - ref) ** 2) / np.sum(np.abs(ref) ** 2))
    assert err < 1e-4, err  # measured 5.3e-5
    assert mass_flux_balance(fd)["rel"] < 1e-3  # measured 4.3e-13


def test_crank_nicolson_standing_wave():
    x_ref = SpatialGrid(-30.0, 30.0, 256).nodes
    spec = _make_spec(2.0, 3.0, _sol_phi, _sol_f, 0.5, x_ref, 2048)
    for nx, nt, bound in (
        (2048, 2048, 1e-4),  # measured 1.4e-5
        (256, 64, 2e-3),  # measured 8.8e-4; each step takes over five sweeps
    ):
        fd = crank_nicolson(spec, FDConfig(nx=nx, nt=nt, x_max=30.0))
        TT, XX = np.meshgrid(fd.tgrid.nodes, fd.sgrid.nodes, indexing="ij")
        ref = _soliton(XX, TT)
        err = np.sqrt(np.sum(np.abs(fd.values - ref) ** 2) / np.sum(np.abs(ref) ** 2))
        assert err < bound, (nx, nt, err)
        # measured 1.1e-12 and 3.3e-8
        assert mass_flux_balance(fd)["rel"] < 1e-3
        assert "edge_warning" not in fd.meta


def test_crank_nicolson_reports_a_step_that_does_not_converge():
    # the standing wave A sech(A(x-6)) e^{i A^2 t} at A = 8 and nt=64: each
    # sweep scales the error by about (dt/2) |lam| alpha A^2 = 1.5 > 1, so
    # the sweeps diverge; the step must fail, not return a field
    amp = 8.0
    phi_fn = lambda xx: amp / np.cosh(amp * (np.asarray(xx) - 6.0)) + 0j
    f_fn = lambda tt: amp * np.exp(1j * amp**2 * np.asarray(tt)) / np.cosh(6.0 * amp)
    x_ref = SpatialGrid(-30.0, 30.0, 256).nodes
    spec = _make_spec(2.0, 3.0, phi_fn, f_fn, 0.5, x_ref, 64)
    with pytest.raises(RuntimeError, match="diverged"):
        crank_nicolson(spec, FDConfig(nx=1024, nt=64, x_max=30.0))


def test_crank_nicolson_edge_warning():
    # Gaussian centered at 8 on a domain cut at 10: the tail hits the
    # artificial right wall
    x_ref = SpatialGrid(-16.0, 16.0, 128).nodes
    phi_fn = lambda xx: np.exp(-((np.asarray(xx) - 8.0) ** 2)) + 0j
    spec = _make_spec(0.0, 3.0, phi_fn, _zero_fn, 0.5, x_ref, 128)
    with pytest.warns(UserWarning, match="right boundary"):
        fd = crank_nicolson(spec, FDConfig(nx=128, nt=128, x_max=10.0))
    assert fd.meta.get("edge_warning") is True


def test_compare_same_field_is_zero():
    sg = SpatialGrid(-30.0, 30.0, 256)
    tg = TimeGrid(0.5, 64)
    TT, XX = np.meshgrid(tg.nodes, sg.nodes, indexing="ij")
    a = SolutionField(sg, tg, _soliton(XX, TT))
    rep = compare_fields(a, a)
    assert rep.rel_l2 == 0.0
    assert rep.sup == 0.0
    assert np.all(rep.per_slice == 0.0)


def test_compare_is_symmetric_across_grids():
    sg1 = SpatialGrid(-30.0, 30.0, 512)
    tg1 = TimeGrid(0.5, 256)
    TT1, XX1 = np.meshgrid(tg1.nodes, sg1.nodes, indexing="ij")
    a = SolutionField(sg1, tg1, _soliton(XX1, TT1))
    sg2 = SpatialGrid(-30.0, 30.0, 1024)
    tg2 = TimeGrid(0.5, 512)
    TT2, XX2 = np.meshgrid(tg2.nodes, sg2.nodes, indexing="ij")
    b = SolutionField(sg2, tg2, 1.001 * _soliton(XX2, TT2))
    ab = compare_fields(a, b)
    ba = compare_fields(b, a)
    assert ab.rel_l2 == ba.rel_l2
    assert ab.sup == ba.sup
    assert ab.rel_l2 > 0.0


def test_compare_resolves_one_step_shift():
    # fields offset by one time step should differ by about |exp(i dt) - 1|
    sg = SpatialGrid(-30.0, 30.0, 512)
    tg = TimeGrid(0.5, 256)
    TT, XX = np.meshgrid(tg.nodes, sg.nodes, indexing="ij")
    a = SolutionField(sg, tg, _soliton(XX, TT))
    b = SolutionField(sg, tg, _soliton(XX, TT + tg.dt))
    rel = compare_fields(a, b).rel_l2
    predicted = abs(np.exp(1j * tg.dt) - 1.0)
    assert 0.3 < rel / predicted < 3.0  # measured ratio 1.0000


def test_convergence_study_requires_three_levels():
    sg = SpatialGrid(-40.0, 40.0, 256)
    spec = _make_spec(0.0, 3.0, _zero_fn, _zero_fn, 0.25, sg.nodes, 64)
    with pytest.raises(ValueError):
        convergence_study(spec, SolverConfig(sgrid=sg), levels=2)


def test_convergence_study_linear_self_reference():
    sg = SpatialGrid(-40.0, 40.0, 256)
    phi_fn = lambda xx: np.exp(-((np.asarray(xx) - 4.0) ** 2)) + 0j
    spec = _make_spec(0.0, 3.0, phi_fn, _zero_fn, 0.25, sg.nodes, 64)
    st = convergence_study(spec, SolverConfig(sgrid=sg, tol=1e-10), levels=3)
    assert not st["flagged"]
    rows = st["table"]
    assert [(r["nx"], r["nt"]) for r in rows] == [(256, 64), (512, 128), (1024, 256)]
    # errors vs finest level: measured 1.20e-7 then 3.41e-8
    assert rows[0]["error"] < 1e-6
    assert rows[1]["error"] < rows[0]["error"]
    assert rows[-1]["error"] is None
    assert st["orders"][-1] > 1.5  # measured 1.81
    assert rows[0]["order"] is None
    assert rows[1]["order"] == st["orders"][0]


def test_convergence_study_standing_wave_exact_reference():
    sg = SpatialGrid(-40.0, 40.0, 256)
    spec = _make_spec(2.0, 3.0, _sol_phi, _sol_f, 0.5, sg.nodes, 128)
    st = convergence_study(
        spec, SolverConfig(sgrid=sg, tol=1e-10, max_iter=60), levels=3, exact=_soliton
    )
    assert not st["flagged"]
    errs = [r["error"] for r in st["table"]]
    assert all(e is not None for e in errs)
    assert errs[0] > errs[1] > errs[2]  # measured 8.8e-5, 3.2e-5, 1.1e-5
    assert st["orders"][-1] > 1.5  # measured 1.59
    assert errs[-1] < 1e-3


def test_convergence_study_keeps_solver_settings():
    # the README's sech case has |g(0)|/scale = 5.0e-3 at the corner: the
    # solve is accepted only with the raised seam_mismatch_cap, which every
    # refined level has to keep
    sg = SpatialGrid(-30.0, 30.0, 128)
    spec = _make_spec(2.0, 3.0, _sol_phi, _zero_fn, 0.25, sg.nodes, 32)
    cfg = SolverConfig(sgrid=sg, tol=1e-10, seam_mismatch_cap=1e-2)
    _, rep = solve_ibvp(spec, cfg)
    assert rep.converged
    st = convergence_study(spec, cfg, levels=3)
    assert not st["flagged"]
    assert [(r["nx"], r["nt"]) for r in st["table"]] == [(128, 32), (256, 64), (512, 128)]
    assert 1.3 < st["orders"][0] < 1.8  # measured 1.55


def test_convergence_study_flags_zero_field():
    sg = SpatialGrid(-40.0, 40.0, 256)
    spec = _make_spec(1.0, 3.0, _zero_fn, _zero_fn, 0.5, sg.nodes, 128)
    st = convergence_study(spec, SolverConfig(sgrid=sg, tol=1e-8), levels=3)
    assert st["flagged"]
    assert st["reason"] == "zero field; orders undefined"
    assert st["orders"] == []
    assert all(r["order"] is None for r in st["table"])


def test_convergence_study_flags_non_monotone_errors():
    # reference crafted to interpolate the middle level exactly: the error
    # dips to zero there and rises again at the finest level
    from scipy.interpolate import RegularGridInterpolator

    phi_fn = lambda xx: np.exp(-((np.asarray(xx) - 4.0) ** 2)) + 0j
    sg_mid = SpatialGrid(-40.0, 40.0, 512)
    spec_mid = _make_spec(0.0, 3.0, phi_fn, _zero_fn, 0.25, sg_mid.nodes, 128)
    mid, _ = solve_ibvp(spec_mid, SolverConfig(sgrid=sg_mid, tol=1e-10, max_halvings=0))
    x2 = sg_mid.nodes
    pos = x2 > 0.0
    itp = RegularGridInterpolator(
        (mid.tgrid.nodes, x2[pos]), mid.values[:, pos],
        bounds_error=False, fill_value=0.0,
    )

    def crafted(xq, tq):
        pts = np.stack(
            [np.asarray(tq, float).ravel(), np.asarray(xq, float).ravel()], axis=-1
        )
        return itp(pts).reshape(np.asarray(xq).shape)

    sg = SpatialGrid(-40.0, 40.0, 256)
    spec = _make_spec(0.0, 3.0, phi_fn, _zero_fn, 0.25, sg.nodes, 64)
    st = convergence_study(spec, SolverConfig(sgrid=sg, tol=1e-10), levels=3, exact=crafted)
    assert st["flagged"]
    assert st["reason"] == "non-monotone errors; no order reported"
    assert st["orders"] == []
