"""Package hygiene: the names the package root exports, no module-level
import that its module, or a test module, never uses (no linter is assumed
to be installed), and the names the benchmark's tracer wraps."""
import ast
import importlib
from pathlib import Path

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
