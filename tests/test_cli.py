"""Command-line interface: config parsing, the three subcommands, exit
codes, and deterministic file output.

Most tests drive main(argv) in process. Byte determinism is checked by two
separate `python -m halfline_nls.cli` processes, so it needs no installed
console script; the `halfline-nls` script's entry point in pyproject.toml is
checked in process, and the script itself is run where it is installed.
"""
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import halfline_nls
from halfline_nls import SolutionField, SpatialGrid, TimeGrid
from halfline_nls.cli import (
    ConfigError,
    main,
    parse_config,
    read_field,
    read_signal,
    write_field,
    write_signal,
)


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
    cfg = _write_cfg(tmp_path / "a.cfg", ["grid.nx = not_a_number"])
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


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
    assert report["iterates"] == 0


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


def test_solve_blowup_exits_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "b.cfg", [
        "problem.lambda_re = 2.0",
        "problem.T = 0.25",
        "phi.preset = gaussian",
        "phi.center = 8.0",
        "phi.amplitude = 3.0",
        "grid.x_min = -30.0",
        "grid.x_max = 30.0",
        "grid.nx = 256",
        "grid.nt = 64",
        "solver.tol = 1e-14",
        "solver.max_iter = 2",
        "solver.ratio_cap = 1e-6",
        "solver.max_halvings = 1",
    ])
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 2
    assert "blow-up suspected" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False


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
    for sub in ("a", "b"):
        out = tmp_path / sub
        r = subprocess.run(
            [sys.executable, "-m", "halfline_nls.cli", "solve", cfg, "--out", str(out)],
            capture_output=True, text=True, env=_child_env(), timeout=300,
        )
        assert r.returncode == 0, r.stderr
        outs.append(out)
    for name in SOLVE_OUTPUTS:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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
