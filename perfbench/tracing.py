"""Spans around the package's public functions, and the per-layer numbers
computed from them.

The package's modules import each other's functions by name, so a wrapper
is installed on the name where the caller looks it up (for example
`halfline_nls.solver.boundary_forcing_time`, the name `apply_lambda` and
`_prepare_linear` call), not on the defining module. Spans are kept in
memory and written out once, at the end of a run.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass

# (module where the caller looks the name up, attribute, span name)
TARGETS = (
    ("halfline_nls.solver", "apply_lambda", "solver.apply"),
    ("halfline_nls.solver", "boundary_forcing_time", "operators.forcing"),
    ("halfline_nls.solver", "duhamel_field", "operators.duhamel"),
    ("halfline_nls.solver", "free_group_field", "operators.free_group"),
    ("halfline_nls.solver", "extend_half_line", "spectral.extend"),
    ("halfline_nls.solver", "mixed_norm", "solver.mixed_norm"),
    ("halfline_nls.operators", "frac_derivative", "fractional.frac_derivative"),
    ("halfline_nls.cli", "cmd_solve", "cli.cmd_solve"),
    ("halfline_nls.cli", "build_problem", "cli.build_problem"),
    ("halfline_nls.cli", "solve_ibvp", "solver.solve_ibvp"),
    ("halfline_nls.cli", "write_field", "cli.write_field"),
    ("halfline_nls.cli", "sobolev_norm", "spectral.sobolev_norm"),
)

# per-layer metrics: name -> unit; every one is reported on every workload,
# as 0 where its layer does not run
LAYER_UNITS = {
    "operators.forcing.calls": "count",
    "operators.forcing.s": "s",
    "operators.forcing.first_s": "s",
    "operators.forcing.rest_ms.p50": "ms",
    "operators.duhamel.calls": "count",
    "operators.duhamel.s": "s",
    "operators.duhamel_ms.p50": "ms",
    "operators.free_group.calls": "count",
    "operators.free_group.s": "s",
    "fractional.frac_derivative.calls": "count",
    "fractional.frac_derivative.s": "s",
    "spectral.extend.s": "s",
    "spectral.sobolev_norm.calls": "count",
    "solver.map_applications": "count",
    "solver.apply.s": "s",
    "solver.apply.self_s": "s",
    "solver.mixed_norm.s": "s",
    "solver.self_s": "s",
    "solver.iterates": "count",
    "solver.halvings": "count",
    "solver.t_achieved_ratio": "1",
    "solver.useful_apps_ratio": "1",
    "cli.import_s": "s",
    "cli.solve_s": "s",
    "cli.write_field.s": "s",
    "cli.other_writes.s": "s",
    "cli.outputs.bytes": "bytes",
    "src.lines": "lines",
    "trace.overhead_frac": "1",
    "host.kernel_ms.p50": "ms",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    solve: int
    grid: list | None  # [t_max, m] of a returned field's time grid


def _grid_of(result):
    tg = getattr(result, "tgrid", None)
    return None if tg is None else [tg.t_max, tg.m]


class Tracer:
    """Records nested spans; one tracer per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve = 0
        self._stack: list[int] = []
        self._installed: list = []

    def call(self, name, fn, /, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named `name`."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.solve, None)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
            span.grid = _grid_of(result)
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self):
        """Wrap every target name present in an imported module."""
        for mod_name, attr, name in TARGETS:
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                print(f"trace: {mod_name}.{attr} not found", file=sys.stderr)
                continue

            def wrapper(*args, _orig=orig, _name=name, **kwargs):
                return self.call(_name, _orig, *args, **kwargs)

            setattr(module, attr, wrapper)
            self._installed.append((module, attr, orig))

    def uninstall(self):
        while self._installed:
            module, attr, orig = self._installed.pop()
            setattr(module, attr, orig)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def by_solve(spans: list[dict]) -> list[list[dict]]:
    """Split spans by solve id, with parent indices made local to each solve.

    One solve runs at a time, so each solve's spans are contiguous."""
    groups, first = {}, {}
    for i, s in enumerate(spans):
        base = first.setdefault(s["solve"], i)
        parent = None if s["parent"] is None else s["parent"] - base
        groups.setdefault(s["solve"], []).append(dict(s, parent=parent))
    return list(groups.values())


def solve_metrics(spans: list[dict]):
    """Per-layer numbers of one solve (or one CLI process) from its spans:
    (numbers, durations of forcing calls after the first on each time grid,
    durations of Duhamel calls).

    Durations are per solve. Self time is a span's duration minus that of
    its direct children; calls are sequential, so children never overlap.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child_sum = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child_sum[s["parent"]] += dur[i]

    def of(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return sum(dur[i] for i in of(name))

    forcing_first, forcing_rest, seen = 0.0, [], set()
    for i in of("operators.forcing"):
        key = tuple(spans[i]["grid"] or ())
        if key in seen:
            forcing_rest.append(dur[i])
        else:
            seen.add(key)
            forcing_first += dur[i]
    apps = of("solver.apply")
    final = spans[apps[-1]]["grid"] if apps else None
    useful = sum(1 for i in apps if spans[i]["grid"] == final)
    solves = of("solver.solve_ibvp")

    out = {
        "operators.forcing.calls": len(of("operators.forcing")),
        "operators.forcing.s": total("operators.forcing"),
        "operators.forcing.first_s": forcing_first,
        "operators.duhamel.calls": len(of("operators.duhamel")),
        "operators.duhamel.s": total("operators.duhamel"),
        "operators.free_group.calls": len(of("operators.free_group")),
        "operators.free_group.s": total("operators.free_group"),
        "fractional.frac_derivative.calls": len(of("fractional.frac_derivative")),
        "fractional.frac_derivative.s": total("fractional.frac_derivative"),
        "spectral.extend.s": total("spectral.extend"),
        "spectral.sobolev_norm.calls": len(of("spectral.sobolev_norm")),
        "solver.map_applications": len(apps),
        "solver.apply.s": total("solver.apply"),
        "solver.apply.self_s": sum(dur[i] - child_sum[i] for i in apps),
        "solver.mixed_norm.s": total("solver.mixed_norm"),
        "solver.self_s": sum(dur[i] - child_sum[i] for i in solves),
        "solver.useful_apps_ratio": useful / len(apps) if apps else 0.0,
        "cli.import_s": total("cli.import"),
        "cli.write_field.s": total("cli.write_field"),
    }
    cmd = total("cli.cmd_solve")
    out["cli.solve_s"] = total("solver.solve_ibvp") if cmd else 0.0
    # everything cmd_solve does besides building the problem, solving and
    # writing field.csv: the norm history and the four smaller outputs
    out["cli.other_writes.s"] = (
        cmd - total("cli.build_problem") - out["cli.solve_s"] - out["cli.write_field.s"]
        if cmd
        else 0.0
    )
    return out, forcing_rest, [dur[i] for i in of("operators.duhamel")]


def layer_metrics(solves: list[tuple], extra: dict) -> dict:
    """Median over traced solves of each per-solve number, the pooled
    medians of single forcing and Duhamel calls, and `extra` (numbers the
    spans do not hold); every name in LAYER_UNITS is present."""
    values = {name: 0.0 for name in LAYER_UNITS}
    for name in solves[0][0] if solves else ():
        values[name] = statistics.median(s[0][name] for s in solves)
    rest = [d for s in solves for d in s[1]]
    duh = [d for s in solves for d in s[2]]
    if rest:
        values["operators.forcing.rest_ms.p50"] = 1e3 * statistics.median(rest)
    if duh:
        values["operators.duhamel_ms.p50"] = 1e3 * statistics.median(duh)
    values.update(extra)
    return values
