"""Package hygiene: the names the package root exports, no private
parameter on a root function, no module-level import that its module, or a
test module, never uses, no private top-level name that the package never
reads (no linter is assumed to be installed), the solver's knobs, the names
the benchmark's tracer wraps, and the README's library example, run as
written."""
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import halfline_nls

PACKAGE = Path(halfline_nls.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
TRACING = TESTS.parent / "perfbench" / "tracing.py"

# the entry points and types of the library: what the acceptance criteria
# import, plus the types public functions return or raise and the study
# behind the `converge` command
ROOT_NAMES = {
    "BlowupSuspected",
    "CompareReport",
    "CompatibilityError",
    "EdgeDecayWarning",
    "EndpointWarning",
    "FDConfig",
    "GridFunction",
    "HalfLineGrid",
    "IterationReport",
    "ProblemSpec",
    "SolutionField",
    "SolverConfig",
    "SpatialGrid",
    "SupercriticalError",
    "TimeGrid",
    "TimeSignal",
    "boundary_forcing_freq",
    "boundary_forcing_time",
    "compare_fields",
    "continue_solution",
    "convergence_study",
    "crank_nicolson",
    "derivative_jump",
    "frac_derivative",
    "frac_fourier_path",
    "frac_integral",
    "free_group",
    "mass_flux_balance",
    "solve_ibvp",
}


def test_root_exports_only_entry_points_and_types():
    assert len(halfline_nls.__all__) == len(set(halfline_nls.__all__))
    assert set(halfline_nls.__all__) == ROOT_NAMES
    for name in ROOT_NAMES:
        assert getattr(halfline_nls, name) is not None, name
    tree = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    accepted = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "halfline_nls"
        for alias in node.names
    }
    assert accepted and accepted <= ROOT_NAMES, accepted - ROOT_NAMES


def test_root_functions_take_no_private_parameter():
    # a private keyword on a public function is a second, hidden entry point
    private = [(name, param)
               for name in halfline_nls.__all__
               if inspect.isfunction(obj := getattr(halfline_nls, name))
               for param in inspect.signature(obj).parameters
               if param.startswith("_")]
    assert private == []


# the solver's knobs: a change that adds or removes one edits this set
SOLVER_KNOBS = ("sgrid", "tol", "max_iter", "ratio_cap", "delta_crit",
                "max_halvings", "seam_mismatch_cap")


def test_solver_config_holds_the_known_knobs():
    fields = dataclasses.fields(halfline_nls.SolverConfig)
    assert tuple(f.name for f in fields) == SOLVER_KNOBS


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_modules_use_every_name_they_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    modules += sorted(TESTS.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def _private_top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in assigned for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        yield from (t for t in targets if t.startswith("_") and not t.startswith("__"))


def test_every_private_top_level_name_is_read():
    # a helper or constant that a refactor leaves behind reads as live code
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    private = [(name, n) for name, tree in trees.items()
               for n in _private_top_level_names(tree)]
    assert len(private) >= 40
    assert [entry for entry in private if entry[1] not in read] == []


def test_benchmark_trace_targets_resolve():
    # a wrapped name that is renamed or inlined away is skipped by the tracer
    # with one stderr line, and its per-layer metrics then read 0
    if not TRACING.exists():
        pytest.skip("perfbench/tracing.py not present")
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert targets
    for module, attr, _ in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_readme_library_example_runs_as_written():
    readme = TESTS.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    u, report = scope["u"], scope["report"]
    assert report.converged and report.iterates == 72
    x = u.sgrid.nodes
    keep = x > 0.0
    TT, XX = np.meshgrid(u.tgrid.nodes, x[keep], indexing="ij")
    ref = np.exp(1j * TT) / np.cosh(XX - 6.0)
    err = np.linalg.norm(u.values[:, keep] - ref) / np.linalg.norm(ref)
    assert err <= 2e-5, err  # measured 9.14e-6
