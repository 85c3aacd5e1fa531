"""Command-line interface: config parsing, the three subcommands, exit
codes, and deterministic file output.

Most tests drive main(argv) in process. Byte determinism is checked by two
separate `python -m halfline_nls.cli` processes, so it needs no installed
console script; the `halfline-nls` script's entry point in pyproject.toml is
checked in process, and the script itself is run where it is installed.
"""
import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfline_nls
import halfline_nls.cli
from halfline_nls import SolutionField, SpatialGrid, TimeGrid, solve_ibvp
from halfline_nls.cli import (
    ConfigError,
    _fd_comparison,
    _write_csv,
    build_problem,
    main,
    parse_config,
    read_field,
    read_signal,
    write_field,
    write_signal,
)
from halfline_nls.spectral import smooth_ramp


SOLVE_OUTPUTS = ("field.csv", "trace.csv", "initial_slice.csv",
                 "norm_history.csv", "report.json")


def _write_cfg(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _zero_cfg(tmp_path):
    return _write_cfg(tmp_path / "z.cfg", [
        "problem.T = 0.5",
        "grid.nx = 64",
        "grid.nt = 64",
    ])


def _child_env():
    # a child interpreter imports the same halfline_nls source tree as this
    # process, whatever the working directory or installed copies
    src = os.path.dirname(os.path.dirname(os.path.abspath(halfline_nls.__file__)))
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


def _soliton_cfg(tmp_path, nx=512, nt=256):
    # boundary samples for the standing wave: modulus sech(6), unit phase speed
    tg = TimeGrid(0.5, nt)
    fvals = np.exp(1j * tg.nodes) / np.cosh(6.0)
    fpath = tmp_path / "f.csv"
    with open(fpath, "w", encoding="utf-8") as fh:
        for ti, v in zip(tg.nodes, fvals):
            fh.write(f"{ti:.17g},{v.real:.17g},{v.imag:.17g}\n")
    return _write_cfg(tmp_path / "soliton.cfg", [
        "problem.lambda_re = 2.0",
        "problem.alpha = 3.0",
        "problem.s = 0.0",
        "problem.T = 0.5",
        "phi.preset = sech",
        "phi.center = 6.0",
        "f.preset = file",
        f"f.file = {fpath}",
        "grid.x_min = -30.0",
        "grid.x_max = 30.0",
        f"grid.nx = {nx}",
        f"grid.nt = {nt}",
        "solver.tol = 1e-10",
    ])


def test_parse_config_defaults_and_comments(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path / "a.cfg", [
        "# full-line comment",
        "",
        "problem.alpha = 4.0  # trailing comment",
    ]))
    assert cfg["problem.alpha"] == 4.0
    assert cfg["grid.nx"] == 1024
    assert cfg["phi.preset"] == "zero"


def test_parse_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_write_cfg(tmp_path / "a.cfg", ["problem.mass = 1"]))


def test_parse_config_rejects_malformed_line(tmp_path):
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(_write_cfg(tmp_path / "a.cfg", ["problem.alpha 3.0"]))


def test_parse_config_rejects_bad_value(tmp_path):
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(_write_cfg(tmp_path / "a.cfg", ["problem.alpha = three"]))


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "missing.cfg"))


def test_main_bad_config_exits_one(tmp_path, capsys):
    # the bump preset's samples on [0, 0.5]: last time first, and without
    # the imaginary column
    t = TimeGrid(0.5, 64).nodes
    bump = 16.0 * t**2 * (0.5 - t) ** 2 / 0.5**4
    np.savetxt(tmp_path / "descending.csv", np.c_[t, bump, 0 * t][::-1], delimiter=",")
    np.savetxt(tmp_path / "two_columns.csv", np.c_[t, bump], delimiter=",")
    cases = [
        (["grid.nx = not_a_number"], "bad value"),
        # these three once ran: the first two exited 2 as suspected blow-up,
        # the third solved with exit 0 and wrote nan and inf to its outputs
        (["solver.max_halvings = -1"], "max_halvings"),
        (["solver.tol = nan"], "tol"),
        (["grid.x_max = inf"], "finite"),
        # one application gives no contraction ratio: this halved to the
        # floor and exited 2 as suspected blow-up
        (["solver.max_iter = 1"], "max_iter"),
        (["f.preset = file", f"f.file = {tmp_path}/missing.csv"],
         "cannot read f.file"),
        # np.interp does not check that its nodes increase: a time column in
        # descending order was once read as garbage without an error
        (["f.preset = file", f"f.file = {tmp_path}/descending.csv"],
         "increase"),
        (["f.preset = file", f"f.file = {tmp_path}/two_columns.csv"],
         "cannot read f.file"),
        # these ended in an OverflowError traceback, in "cannot convert NaN
        # to integer ratio", and in a map application that wrote non-finite
        # entries
        (["problem.alpha = inf"], "2 <= alpha"),
        (["problem.alpha = nan"], "2 <= alpha"),
        (["problem.lambda_re = nan"], "lam must be finite"),
        (["problem.s = 0.5"], "s = 1/2 is excluded"),
        (["phi.preset = cosine"], "unknown phi.preset 'cosine'"),
        (["f.preset = cosine"], "unknown f.preset 'cosine'"),
        # a zero width once divided by zero and solved phi = 0 with exit 0; a
        # nan amplitude was reported as a container's "non-finite entries"
        (["phi.width = 0"], "phi.width must be positive and finite"),
        (["phi.preset = sech", "phi.width = -1"], "phi.width"),
        (["phi.width = nan"], "phi.width"),
        (["phi.width = inf"], "phi.width"),
        (["phi.amplitude = nan"], "phi must be finite"),
    ]
    for lines, message in cases:
        cfg = _write_cfg(tmp_path / "a.cfg", [
            "problem.lambda_re = 2.0",
            "problem.T = 0.5",
            "phi.preset = gaussian",
            "grid.nx = 64",
            "grid.nt = 64",
        ] + lines)
        assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 1, lines
        err = capsys.readouterr().err
        assert "config error" in err and message in err, err
        assert "Traceback" not in err


def test_output_directory_that_cannot_be_made_is_a_config_error(tmp_path, capsys):
    # --out naming an existing file once ended in a FileExistsError traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = _zero_cfg(tmp_path)
    assert main(["solve", cfg, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert "config error: cannot create output directory" in err, err
    assert "Traceback" not in err


def test_grid_with_too_few_nonnegative_nodes_is_a_config_error(tmp_path):
    # no node at x >= 0: this once reached the extension and died there with
    # an IndexError traceback
    cfg = _write_cfg(tmp_path / "a.cfg", [
        "grid.x_min = -100.0",
        "grid.x_max = 1.0",
        "grid.nx = 16",
        "f.preset = bump",
    ])
    r = subprocess.run(
        [sys.executable, "-m", "halfline_nls.cli", "solve", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert r.returncode == 1
    assert "config error" in r.stderr
    assert "Traceback" not in r.stderr


def test_solve_zero_data(tmp_path, capsys):
    cfg = _zero_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    for name in SOLVE_OUTPUTS:
        assert (out / name).exists(), name
    _, trace = read_signal(out / "trace.csv")
    assert np.all(trace == 0.0)
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["iterates"] == 1


def test_solve_standing_wave_field(tmp_path):
    cfg = _soliton_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    x, t, vals = read_field(out / "field.csv")
    keep = x > 0.0
    TT, XX = np.meshgrid(t, x[keep], indexing="ij")
    ref = np.exp(1j * TT) / np.cosh(XX - 6.0)
    err = np.sqrt(np.sum(np.abs(vals[:, keep] - ref) ** 2) / np.sum(np.abs(ref) ** 2))
    assert err < 1e-3, err  # measured 2.0e-5 at this resolution
    tt, trace = read_signal(out / "trace.csv")
    f = np.exp(1j * tt) / np.cosh(6.0)
    rel = np.linalg.norm(trace - f) / np.linalg.norm(f)
    assert rel < 1e-3, rel
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    # the solve's boundary residual and the sweep's blocks are written out
    scale = np.max(np.abs(vals[:, x >= 0.0]))
    j0 = np.argmin(np.abs(x))
    ft = np.exp(1j * t) / np.cosh(6.0)
    assert report["boundary_residual"] == pytest.approx(
        np.max(np.abs(vals[:, j0] - ft)) / scale, rel=1e-9
    )
    blocks = report["attempts"][-1]["blocks"]
    assert report["iterates"] == len(report["residual_history"]) + sum(
        b["iterates"] for b in blocks)
    assert 0 < blocks[0]["slices"][0] and blocks[-1]["slices"][1] == len(t)


@pytest.mark.parametrize("preset, shape", [
    ("gaussian", lambda y: np.exp(-y * y)),
    ("sech", lambda y: 1.0 / np.cosh(y)),
])
def test_phi_presets_honour_width(tmp_path, preset, shape):
    cfg = parse_config(_write_cfg(tmp_path / "w.cfg", [
        f"phi.preset = {preset}",
        "phi.amplitude = 0.5",
        "phi.center = 3.0",
        "phi.width = 2.0",
        "grid.nx = 64",
        "grid.nt = 16",
    ]))
    spec, _ = build_problem(cfg)
    assert np.allclose(spec.phi, 0.5 * shape((spec.phi_x - 3.0) / 2.0), rtol=1e-15, atol=0.0)


def test_solve_supercritical_exits_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "s.cfg", [
        "problem.alpha = 6.0",
        "phi.preset = gaussian",
        "grid.nx = 64",
        "grid.nt = 64",
    ])
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "supercritical" in err
    assert "admissible range" in err


def test_solve_incompatible_corner_exits_one(tmp_path, capsys):
    # sech(x - 6) against f = 0: the boundary correction g(0) is above
    # solver.seam_mismatch_cap, so the solver refuses the data
    cfg = _write_cfg(tmp_path / "c.cfg", [
        "problem.lambda_re = 2.0",
        "problem.T = 0.25",
        "phi.preset = sech",
        "phi.center = 6.0",
        "grid.x_min = -30.0",
        "grid.x_max = 30.0",
        "grid.nx = 128",
        "grid.nt = 32",
    ])
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: boundary correction does not vanish at t=0" in err


def _refuse_non_finite(token):
    raise AssertionError(f"report.json holds {token}")


def test_solve_blowup_exits_two(tmp_path, capsys):
    cases = [
        (["problem.lambda_re = 2.0", "phi.amplitude = 3.0", "grid.nx = 256",
          "grid.nt = 64", "solver.tol = 1e-14", "solver.max_iter = 2",
          "solver.ratio_cap = 1e-6", "solver.max_halvings = 1"], "no contraction"),
        # the second map value overflows: a refusal, not a bare ValueError
        (["problem.lambda_re = 1e100", "grid.nx = 128", "grid.nt = 32"],
         "non-finite iterate"),
        # the first iterate is finite but its norm overflows: inf <= tol * inf
        # must not read as converged, nor NaN and Infinity reach report.json
        (["problem.lambda_re = 1e160", "grid.nx = 128", "grid.nt = 32"],
         "non-finite iterate"),
    ]
    for k, (lines, reason) in enumerate(cases):
        cfg = _write_cfg(tmp_path / f"b{k}.cfg", [
            "problem.T = 0.25",
            "phi.preset = gaussian",
            "phi.center = 8.0",
            "grid.x_min = -30.0",
            "grid.x_max = 30.0",
            *lines,
        ])
        out = tmp_path / f"out{k}"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["solve", cfg, "--out", str(out)]) == 2
            assert f"blow-up suspected: {reason} after" in capsys.readouterr().err
            # every attempt is reported, with finite residuals only
            report = json.loads((out / "report.json").read_text(),
                                parse_constant=_refuse_non_finite)
            assert report["converged"] is False
            assert {a["reason"] for a in report["attempts"]} == {reason}
            # verify reports the oracle comparison it could not make as a
            # failure, and converge stops as solve does
            assert main(["verify", cfg, "--out", str(out)]) == 3
            assert "FAIL fd_oracle_agreement: inf" in capsys.readouterr().out
            # the comparison it could not make is null in verify_report.json
            checks = json.loads((out / "verify_report.json").read_text(),
                                parse_constant=_refuse_non_finite)
            oracle = [c for c in checks if c["check"] == "fd_oracle_agreement"]
            assert oracle == [{"check": "fd_oracle_agreement", "value": None,
                               "tolerance": 1e-3, "pass": False}]
            assert main(["converge", cfg, "--out", str(out)]) == 2
            assert "blow-up suspected during study" in capsys.readouterr().err


def test_linear_solve_of_huge_data_converges(tmp_path, capsys):
    # at lam = 0 the map returns its linear part: no w |w|^2 is formed, and
    # a 1e160 Gaussian converges in one iterate. Its linear mixed norm is
    # taken of |u| / max |u|, so report.json holds no Infinity, and each
    # slice's H^s norm of |u| / max |u| times max |u|, so norm_history.csv
    # holds no inf
    cfg = _write_cfg(tmp_path / "l.cfg", [
        "problem.lambda_re = 0.0",
        "problem.T = 0.25",
        "phi.preset = gaussian",
        "phi.center = 8.0",
        "phi.amplitude = 1e160",
        "f.preset = zero",
        "grid.x_min = -30.0",
        "grid.x_max = 30.0",
        "grid.nx = 128",
        "grid.nt = 32",
    ])
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0, capsys.readouterr().err
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_refuse_non_finite)
    assert report["converged"] is True and report["iterates"] == 1
    assert report["halvings"] == 0 and report["fixed_point_residual"] == 0.0
    assert 1e159 < report["linear_mixed_norm"] < 1e161
    norms = np.loadtxt(out / "norm_history.csv", delimiter=",", skiprows=1)[:, 1]
    assert len(norms) == 33 and np.all((1e159 < norms) & (norms < 1e161))


def test_json_outputs_refuse_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        halfline_nls.cli._write_json(tmp_path / "r.json", {"value": float("inf")})


def test_solve_says_when_halving_shortened_the_interval(tmp_path, capsys):
    # the map contracts only on [0, 2/2^4]: the answer covers less than asked
    cfg = _write_cfg(tmp_path / "h.cfg", [
        "problem.lambda_re = 8.0",
        "problem.T = 2.0",
        "phi.preset = gaussian",
        "phi.center = 10.0",
        "phi.width = 1.5",
        "grid.nx = 64",
        "grid.nt = 64",
    ])
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "converged" in captured.out
    assert "[0, 0.125] only, [0, 2] requested" in captured.err
    report = json.loads((out / "report.json").read_text())
    assert report["halvings"] == 4
    assert report["t_achieved"] == 0.125
    assert report["t_requested"] == 2.0
    # every attempt is kept, with why it was refused
    attempts = report["attempts"]
    assert [a["interval"] for a in attempts] == [[0.0, 2.0 / 2**k] for k in range(5)]
    assert [a["reason"] for a in attempts] == ["no contraction"] * 4 + [None]
    assert attempts[-1]["iterates"] == report["iterates"]


def test_log_level_info_prints_each_halving(tmp_path, capsys):
    # the default level keeps the solver's INFO lines off stderr
    cfg = _write_cfg(tmp_path / "h.cfg", [
        "problem.lambda_re = 8.0",
        "problem.T = 2.0",
        "phi.preset = gaussian",
        "phi.center = 10.0",
        "phi.width = 1.5",
        "grid.nx = 64",
        "grid.nt = 64",
    ])
    assert main(["solve", cfg, "--out", str(tmp_path / "quiet")]) == 0
    assert "halving" not in capsys.readouterr().err
    args = ["solve", cfg, "--out", str(tmp_path / "out"), "--log-level", "INFO"]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "no contraction on [0, 2]; halving" in err
    assert err.count("; halving") == 4
    assert err.count("boundary residual") == 1


def test_readme_example_config_solves(tmp_path, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    lines = [
        line for line in block.splitlines()
        if not line.startswith(("grid.nx", "grid.nt"))
    ]
    cfg = _write_cfg(tmp_path / "readme.cfg", lines + ["grid.nx = 128", "grid.nt = 64"])
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 0, (
        capsys.readouterr().err
    )


def test_fd_comparison_keeps_solver_settings(tmp_path, monkeypatch):
    # the half-resolution solve must differ from the full one only in its
    # grid and in making no halvings
    cfg = parse_config(_zero_cfg(tmp_path))
    spec, scfg = build_problem(cfg)
    scfg = dataclasses.replace(
        scfg, tol=1e-9, max_iter=7, ratio_cap=0.5, delta_crit=0.05,
        seam_mismatch_cap=1e-2,
    )
    seen = []
    real_solve = halfline_nls.cli.solve_ibvp

    def recording_solve(spec_k, cfg_k):
        seen.append(cfg_k)
        return real_solve(spec_k, cfg_k)

    monkeypatch.setattr(halfline_nls.cli, "solve_ibvp", recording_solve)
    _fd_comparison(cfg, spec, scfg)
    half = SpatialGrid(scfg.sgrid.x_min, scfg.sgrid.x_max, scfg.sgrid.n // 2)
    assert seen == [scfg, dataclasses.replace(scfg, sgrid=half, max_halvings=0)]


def _halving_gaussian_cfg(path, amplitude, T, nx, nt):
    # a Gaussian whose map contracts only after 3 halvings of [0, T]
    return _write_cfg(path, [
        "problem.lambda_re = 2.0",
        f"problem.T = {T}",
        "phi.preset = gaussian",
        f"phi.amplitude = {amplitude}",
        "phi.center = 10.0",
        "phi.width = 1.5",
        "grid.x_min = -30.0",
        "grid.x_max = 30.0",
        f"grid.nx = {nx}",
        f"grid.nt = {nt}",
        "solver.tol = 1e-10",
    ])


def test_fd_comparison_covers_what_a_halving_solve_achieved(tmp_path):
    # the refined solves do not halve; asked for the whole [0, 1] they once
    # raised BlowupSuspected, and verify failed fd_oracle_agreement with inf
    cfg = parse_config(_halving_gaussian_cfg(tmp_path / "g.cfg", 2.0, 1.0, 256, 64))
    spec, scfg = build_problem(cfg)
    _, rep = solve_ibvp(spec, scfg)
    assert rep.halvings == 3 and rep.t_achieved == 0.125
    rel, tol = _fd_comparison(cfg, spec, scfg)
    assert rel <= tol, (rel, tol)  # measured 4.6e-4 against 6.8e-3


def test_converge_refines_what_a_halving_solve_achieved(tmp_path, capsys):
    # level 0 is the solve itself, which halves 3 times; the finer levels
    # refine its [0, 0.0625] and its 128 steps. They once asked for the whole
    # [0, 0.5] with halving off and exited 2 as suspected blow-up
    cfg = _halving_gaussian_cfg(tmp_path / "c.cfg", 2.5, 0.5, 256, 128)
    out = tmp_path / "out"
    assert main(["converge", cfg, "--out", str(out)]) == 0, capsys.readouterr().err
    assert "observed orders" in capsys.readouterr().out
    lines = (out / "converge.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[1], r[2]) for r in rows] == [("256", "128"), ("512", "256"), ("1024", "512")]
    order = float(rows[1][4])
    assert 2.0 < order < 2.7, order  # measured 2.33


@pytest.mark.parametrize("preset", ["bump", "sinusoid_windowed"])
def test_solve_boundary_presets_match_their_closed_form(tmp_path, preset):
    # zero initial data, the boundary data alone drive the solution: the
    # trace at x = 0 reproduces the preset
    path = _write_cfg(tmp_path / "p.cfg", [
        "problem.lambda_re = 1.0",
        "problem.T = 0.5",
        f"f.preset = {preset}",
        "grid.nx = 256",
        "grid.nt = 128",
    ])
    out = tmp_path / "out"
    assert main(["solve", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    # a first whole ratio near 0.1 (0.094 bump, 0.104 sinusoid_windowed)
    # earns a third whole-interval application, and every block of the
    # sweep starts from the whole iterate (19 and 19 iterates after two
    # whole applications and extrapolated starts)
    assert report["converged"] and report["iterates"] == {"bump": 11,
                                                          "sinusoid_windowed": 12}[preset]
    t, trace = read_signal(out / "trace.csv")
    if preset == "bump":
        f = 16.0 * t**2 * (0.5 - t) ** 2 / 0.5**4
    else:
        f = np.sin(2.0 * np.pi * t) * smooth_ramp(8.0 * t)
    rel = np.linalg.norm(trace - f) / np.linalg.norm(f)
    assert rel < 5e-3, rel  # measured 4.2e-4 (bump), 6.4e-4 (sinusoid_windowed)


_GAUSSIAN = ["phi.preset = gaussian", "grid.x_min = -30.0", "grid.x_max = 30.0",
             "grid.nt = 128", "problem.T = 0.5"]


@pytest.mark.parametrize("lines, iterates, halvings", [
    (["f.preset = bump", "problem.lambda_re = 1.0", "grid.nt = 64", "problem.T = 0.5"], 9, 0),
    (["f.preset = bump", "problem.lambda_re = -2.0", "grid.nt = 64", "problem.T = 1.0"], 15, 0),
    (["f.preset = sinusoid_windowed", "problem.lambda_re = -2.0", "grid.nt = 64",
      "problem.T = 1.0"], 14, 0),
    (["f.preset = sinusoid_windowed", "problem.lambda_re = 1.0", "problem.alpha = 5.0",
      "grid.nt = 64", "problem.T = 1.0"], 1, 4),
    (_GAUSSIAN + ["phi.center = 4.0", "problem.lambda_re = 2.0"], 25, 0),
    (_GAUSSIAN + ["phi.center = 8.0", "problem.lambda_re = -1.0", "problem.s = 0.3"], 22, 0),
], ids=["bump", "bump T=1", "sinusoid T=1", "sinusoid alpha=5", "gaussian", "gaussian s=0.3"])
def test_default_solver_keeps_its_application_counts(tmp_path, lines, iterates, halvings):
    # six configs of a 40-config sweep over the presets (nx = 256): a change
    # to the Picard loop's schedule must not make any of them take more
    # applications or halvings at the default max_iter
    cfg = parse_config(_write_cfg(tmp_path / "s.cfg", ["grid.nx = 256"] + lines))
    _, rep = solve_ibvp(*build_problem(cfg))
    assert (rep.iterates, rep.halvings) == (iterates, halvings)


def test_verify_passes_at_default_resolution(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "v.cfg", [
        "problem.T = 1.0",
        "grid.nx = 1024",
        "grid.nt = 1024",
    ])
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 8
    assert "FAIL" not in stdout
    report = json.loads((out / "verify_report.json").read_text())
    names = {entry["check"] for entry in report}
    assert names == {
        "free_group_law", "free_group_unitary", "frac_semigroup",
        "frac_path_agreement", "representation_equivalence",
        "boundary_trace", "derivative_jump", "fd_oracle_agreement",
    }
    assert all(entry["pass"] for entry in report)


def test_verify_fails_on_coarse_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "v.cfg", ["grid.nx = 16"])
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out)]) == 3
    assert "failed:" in capsys.readouterr().err
    report = json.loads((out / "verify_report.json").read_text())
    failed = {e["check"] for e in report if not e["pass"]}
    assert "derivative_jump" in failed  # measured 9.0e-1 at nx=16


def test_converge_zero_config_flagged(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", [
        "grid.nx = 64",
        "grid.nt = 64",
        "problem.T = 0.25",
    ])
    out = tmp_path / "out"
    assert main(["converge", cfg, "--out", str(out)]) == 0
    assert "warning: zero field; orders undefined" in capsys.readouterr().out
    lines = (out / "converge.csv").read_text().strip().splitlines()
    assert lines[0] == "level,nx,nt,error,order"
    assert len(lines) == 4
    # orders undefined: the order column is empty on every row
    assert all(line.endswith(",") for line in lines[1:])


def test_converge_reports_orders(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", [
        "problem.lambda_re = 0.0",
        "problem.T = 0.25",
        "phi.preset = gaussian",
        "phi.center = 4.0",
        "grid.nx = 256",
        "grid.nt = 64",
        "solver.tol = 1e-10",
    ])
    out = tmp_path / "out"
    assert main(["converge", cfg, "--out", str(out)]) == 0
    assert "observed orders:" in capsys.readouterr().out
    lines = (out / "converge.csv").read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    errs = [float(r[3]) for r in rows if r[3]]
    assert len(errs) == 2
    assert errs[1] < errs[0]  # measured 1.2e-7 then 3.4e-8
    assert float(rows[1][4]) > 1.5  # measured order 1.81


def test_field_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    sg = SpatialGrid(-20.0, 20.0, 64)
    tg = TimeGrid(0.5, 16)
    vals = rng.normal(size=(17, 64)) + 1j * rng.normal(size=(17, 64))
    field = SolutionField(sg, tg, vals)
    path = tmp_path / "field.csv"
    write_field(path, field)
    x, t, back = read_field(path)
    assert np.array_equal(back, vals)
    assert np.array_equal(x, sg.nodes)
    assert np.array_equal(t, tg.nodes)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
    with pytest.raises(ValueError, match="missing field header"):
        read_field(path)


def test_field_csv_bytes_are_the_per_cell_format(tmp_path):
    # write_field and write_signal format a whole row at once; their bytes
    # must stay those of formatting every cell on its own, for any memory
    # layout of the values
    sg = SpatialGrid(-20.0, 20.0, 16)
    tg = TimeGrid(0.5, 8)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(9, 16)) + 1j * rng.normal(size=(9, 16))
    vals[0, :4] = [-0.0, 5e-324, 1e300, 0.1]
    vals[1, :4] = [-0.0j, 5e-324j, -1e300j, 0.1j]
    x, t = sg.nodes, tg.nodes
    lines = [
        f"# kind=whole x_first={x[0]:.17g} x_last={x[-1]:.17g} "
        f"n={len(x)} t_max={t[-1]:.17g} nt={tg.m}\n"
    ]
    for ti, row in zip(t, vals):
        cells = [f"{ti:.17g}"]
        for v in row:
            cells += [f"{v.real:.17g}", f"{v.imag:.17g}"]
        lines.append(",".join(cells) + "\n")
    expected = "".join(lines).encode()

    every_other_row = np.zeros((18, 16), dtype=complex)
    every_other_row[::2] = vals
    transposed = SolutionField(sg, tg, vals)
    transposed.values = np.asfortranarray(vals)
    for k, field in enumerate((SolutionField(sg, tg, every_other_row[::2]), transposed)):
        assert not field.values.flags.c_contiguous
        path = tmp_path / f"field{k}.csv"
        write_field(path, field)
        assert path.read_bytes() == expected

    sig = np.empty(4, dtype=complex)
    sig.real = [-0.0, 5e-324, 1e300, 0.1]
    sig.imag = [-0.0, 5e-324, -1e300, 0.1]
    expected = "t,re,im\n" + "".join(
        f"{ti:.17g},{v.real:.17g},{v.imag:.17g}\n" for ti, v in zip(t[:4], sig)
    )
    path = tmp_path / "signal.csv"
    write_signal(path, t[:4], sig)
    assert path.read_bytes() == expected.encode()


def _csv_bytes(path, table):
    """_write_csv's bytes for a 2-D table, and the per-cell f"{v:.17g}" ones."""
    _write_csv(path, "h\n", np.array(table, dtype=float).reshape(len(table), -1))
    expected = "h\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in table)
    return path.read_bytes(), expected.encode()


_ANY_BITS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 7).flatmap(lambda w: st.lists(
    st.lists(st.one_of(_ANY_BITS, st.floats()), min_size=w, max_size=w),
    min_size=1, max_size=12)))
def test_csv_numbers_are_the_per_cell_format(tmp_path_factory, table):
    # any float64, from raw bit patterns (nan, inf, subnormals) or from
    # hypothesis's own edge-seeking floats
    got, expected = _csv_bytes(tmp_path_factory.mktemp("csv") / "t.csv", table)
    assert got == expected


def test_csv_numbers_at_the_format_edges(tmp_path):
    # the %g switch to an exponent below 1e-4 and from 1e17, the powers of
    # ten and their neighbours, the extremes, and exact rounding ties
    edges = [v for p in (1e-5, 1e-4, 1e16, 1e17)
             for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]
    table = np.reshape(edges, (4, 3)).tolist() + [
        [9.9999999999999995e-08, 0.1, 5e-324],
        [1.7976931348623157e308, 0.0, -0.0],
        [np.inf, -np.inf, np.nan],
        [123456789012345.625, 123456789012345.375, -123456789012345.625],
    ]
    got, expected = _csv_bytes(tmp_path / "t.csv", table)
    assert got == expected
    assert got.splitlines()[-1] == (
        b"123456789012345.62,123456789012345.38,-123456789012345.62")


@pytest.mark.parametrize("cells", [1, 3, 64, halfline_nls.cli._BLOCK_CELLS])
def test_csv_bytes_do_not_depend_on_the_block_split(tmp_path, monkeypatch, cells):
    # +-d * 10**k for every first digit d, on both sides of each %g layout
    # switch, with an empty fraction (2.0) and two nonempty ones (2.5 and
    # 2.0000000000000004): every template row class, split into blocks of
    # one row, a few rows and the whole table
    values = []
    for k in (-7, -5, -4, -3, -2, -1, 0, 1, 8, 15, 16, 17, 20):
        for d in range(1, 10):
            base = d * 10.0**k
            for x in (base, (d + 0.5) * 10.0**k, np.nextafter(base, np.inf)):
                values += [x, -x]
    values += [0.0, -0.0, 5e-324, 1e300, np.inf, np.nan]
    monkeypatch.setattr(halfline_nls.cli, "_BLOCK_CELLS", cells)
    got, expected = _csv_bytes(tmp_path / "t.csv", np.reshape(values, (-1, 6)).tolist())
    assert got == expected


def test_csv_widens_narrow_columns_to_float64(tmp_path):
    # a complex64 column is written as its parts (not its bytes read as
    # float64), and a float32 column reaches the formatter as float64
    path = tmp_path / "c.csv"
    _write_csv(path, "h\n", np.array([1 + 2j, 0.5 - 0.25j], np.complex64))
    assert path.read_bytes() == b"h\n1,2\n0.5,-0.25\n"
    narrow = np.array([0.1, -3.0, 1e-7], np.float32)
    _write_csv(path, "h\n", narrow)
    expected = "h\n" + "".join(f"{float(v):.17g}\n" for v in narrow)
    assert path.read_bytes() == expected.encode()


def test_signal_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 1.0, 33)
    v = rng.normal(size=33) + 1j * rng.normal(size=33)
    path = tmp_path / "sig.csv"
    write_signal(path, t, v)
    tb, vb = read_signal(path)
    assert np.array_equal(tb, t)
    assert np.array_equal(vb, v)


def test_solve_outputs_are_deterministic(tmp_path):
    cfg = _soliton_cfg(tmp_path, nx=256, nt=64)
    outs = []
    for sub, level in (("a", "WARNING"), ("b", "INFO")):
        out = tmp_path / sub
        # development mode reports a file left unclosed as a ResourceWarning
        r = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "halfline_nls.cli", "solve", cfg,
             "--out", str(out), "--log-level", level],
            capture_output=True, text=True, env=_child_env(), timeout=300,
        )
        assert r.returncode == 0, r.stderr
        assert "ResourceWarning" not in r.stderr, r.stderr
        # run as a module too, the CLI logs under the package's logger
        assert ("INFO halfline_nls.cli: boundary residual" in r.stderr) == (
            level == "INFO"
        ), r.stderr
        outs.append(out)
    for name in SOLVE_OUTPUTS:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_import_leaves_the_oracle_dependencies_unloaded(tmp_path):
    # only verify and converge need scipy (the Crank-Nicolson oracle and
    # compare_fields); an import and a whole solve must not pay for it
    cfg = _write_cfg(tmp_path / "g.cfg", [
        "problem.lambda_re = 2.0",
        "problem.T = 0.5",
        "phi.preset = gaussian",
        "phi.center = 10.0",
        "grid.nx = 128",
        "grid.nt = 64",
    ])
    probe = (
        "import sys, halfline_nls.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
        f"code = halfline_nls.cli.main(['solve', {cfg!r}, '--out', {str(tmp_path)!r}]); "
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    r = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []"), r.stdout


def test_console_script_entry_point_is_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["halfline-nls"] == "halfline_nls.cli:main"
    module, _, attr = scripts["halfline-nls"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


@pytest.mark.skipif(shutil.which("halfline-nls") is None,
                    reason="halfline-nls console script not installed")
def test_console_script_solves_zero_data(tmp_path):
    cfg = _zero_cfg(tmp_path)
    out = tmp_path / "out"
    r = subprocess.run(
        ["halfline-nls", "solve", cfg, "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    for name in SOLVE_OUTPUTS:
        assert (out / name).exists(), name


def test_phi_file_row_mismatch_exits_one(tmp_path, capsys):
    bad = tmp_path / "phi.csv"
    with open(bad, "w", encoding="utf-8") as fh:
        for i in range(5):
            fh.write(f"{float(i)},1.0,0.0\n")
    cfg = _write_cfg(tmp_path / "p.cfg", [
        "phi.preset = file",
        f"phi.file = {bad}",
        "grid.nx = 64",
        "grid.nt = 64",
    ])
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "rows" in capsys.readouterr().err
