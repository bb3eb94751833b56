"""Span tracing from outside the package, and the per-layer metrics derived from it.

``Tracer.install`` replaces every binding of the traced public functions in
every loaded ``qdphotocell`` module with a pass-through wrapper.  The package
imports names with ``from .x import y``, so one function can be bound in
several namespaces (``build_rates`` in ``model``, ``thermo`` and ``cli``);
each binding is patched.  A span is ``[name, start, end, parent, item, info]``;
spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np

# traced function -> layer (module) it belongs to
LAYER = {
    "parse_config": "cli",
    "run_fig2": "experiments", "run_fig3a": "experiments", "run_fig3b": "experiments",
    "write": "experiments",
    "efficiency_at_max_power_curve": "optimize", "maximize_power": "optimize",
    "nelder_mead": "optimize", "steady_observables_grid": "optimize",
    "build_rates": "model",
    "build_generator": "dynamics", "steady_state": "dynamics",
    "thermo_report": "thermo", "currents": "thermo",
}

# Two nelder_mead optima within this coordinate distance (relative to
# max(1, |x|)) count as the same basin.
_BASIN_TOL = 1e-4
# The first (best-seeded) start counts as a winner when its power is within
# this fraction of p_max, ten times the optimizer's default f_rel_tol.
_WIN_REL_TOL = 1e-8


def _info(name, out):
    if name == "steady_observables_grid":
        return int(np.size(out["power"]))
    if name == "nelder_mead":
        x_best, f_best, evals, converged = out[:4]
        return [float(v) for v in np.ravel(x_best)], float(f_best), int(evals), bool(converged)
    if name == "maximize_power":
        return float(out.p_max), int(out.evals), bool(out.converged), bool(out.degenerate)
    return None


class Tracer:
    """Records spans around the traced functions while ``enabled`` is set."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.enabled = False
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[5] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter()
            span[5] = _info(name, out)
            return out

        return wrapper

    def install(self):
        """Patch every binding of every traced function in the loaded package."""
        from qdphotocell.experiments import SweepTable

        mods = [m for n, m in sorted(sys.modules.items())
                if n == "qdphotocell" or n.startswith("qdphotocell.")]
        wrappers = {}
        for mod in mods:
            for name in LAYER:
                fn = getattr(mod, name, None)
                if name == "write" or not callable(fn):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(name, fn)
                self._patched.append((mod, name, fn))
                setattr(mod, name, wrappers[fn])
        self._patched.append((SweepTable, "write", SweepTable.write))
        SweepTable.write = self._wrap("write", SweepTable.write)

    def uninstall(self):
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item", "info"],
                       "spans": self.spans}, fh)

    def layer_counts(self) -> dict:
        counts = {layer: 0 for layer in sorted(set(LAYER.values()))}
        for span in self.spans:
            counts[LAYER[span[0]]] += 1
        return counts


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it (never below 50)."""
    if n <= 20:
        return 50
    return max(50, int(100.0 * (1.0 - 10.0 / n)))


def percentile(values, pct) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    k = min(len(ordered) - 1, max(0, round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[k]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, *, items: int, traced_wall: float, traced_wall_ref: float,
                  untraced_wall: float, untraced_serial_wall: float, workers: int) -> dict:
    """Per-layer metrics of one traced pass (see README.md for each definition).

    ``traced_wall`` is the traced pass as measured, the span times' base;
    ``traced_wall_ref`` the same pass at reference speed.  ``untraced_wall``
    is the untraced pass at the workload's worker count and
    ``untraced_serial_wall`` the untraced serial pass the traced one mirrors,
    both at reference speed.  A layer the workload never enters reports zero.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    kids = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
            kids.setdefault(s[3], []).append(i)
    self_t = [d - c for d, c in zip(dur, child)]
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s[0], []).append(i)

    def self_us(name):
        return _median([self_t[i] for i in by.get(name, [])]) * 1e6

    def self_share(name):
        return sum(self_t[i] for i in by.get(name, [])) / traced_wall

    def returned(name, kind):
        """Spans of ``name`` whose call returned (a raised call's info is a dict)."""
        return [i for i in by.get(name, []) if isinstance(spans[i][5], kind)]

    sog = returned("steady_observables_grid", int)
    scalar = [i for i in sog if spans[i][5] == 1]
    batched = [i for i in sog if spans[i][5] != 1]
    mp = returned("maximize_power", tuple)
    nm = returned("nelder_mead", tuple)

    not_first = same_basin = others = 0
    calls_with_starts = 0
    nm_set = set(nm)
    for i in mp:
        starts = [j for j in kids.get(i, []) if j in nm_set]
        if not starts:
            continue
        calls_with_starts += 1
        p_max = spans[i][5][0]
        winner = next((j for j in starts if -spans[j][5][1] == p_max), starts[0])
        not_first += -spans[starts[0]][5][1] < p_max - _WIN_REL_TOL * abs(p_max)
        xw = np.array(spans[winner][5][0])
        for j in starts:
            if j == winner:
                continue
            others += 1
            xj = np.array(spans[j][5][0])
            same_basin += bool(np.all(np.abs(xj - xw) <= _BASIN_TOL * np.maximum(1.0, np.abs(xw))))

    rows = [dur[i] for i in mp]
    tail = tail_percentile(len(rows))
    metrics = {
        "model.build_rates.calls_per_item": len(by.get("build_rates", [])) / items,
        "model.build_rates.self_us_p50": self_us("build_rates"),
        "dynamics.build_generator.self_us_p50": self_us("build_generator"),
        "dynamics.steady_state.self_us_p50": self_us("steady_state"),
        "dynamics.steady_state.refused": sum(
            1 for i in by.get("steady_state", [])
            if isinstance(spans[i][5], dict)
            and spans[i][5].get("raised") == "NoUniqueSteadyStateError"),
        "thermo.thermo_report.self_us_p50": self_us("thermo_report"),
        "thermo.currents.self_us_p50": self_us("currents"),
        "optimize.steady_observables_grid.scalar_calls": len(scalar),
        "optimize.steady_observables_grid.scalar_us_p50":
            _median([dur[i] for i in scalar]) * 1e6,
        "optimize.steady_observables_grid.batched_ns_per_pt":
            (sum(dur[i] for i in batched) / sum(spans[i][5] for i in batched) * 1e9
             if batched else 0.0),
        "optimize.steady_observables_grid.share": self_share("steady_observables_grid"),
        "optimize.maximize_power.ms_p50": _median(rows) * 1e3,
        "optimize.maximize_power.evals_per_call": _mean([spans[i][5][1] for i in mp]),
        "optimize.maximize_power.self_share": self_share("maximize_power"),
        "optimize.nelder_mead.starts_per_call": len(nm) / len(mp) if mp else 0.0,
        "optimize.nelder_mead.evals_per_start": _mean([spans[i][5][2] for i in nm]),
        "optimize.nelder_mead.self_share": self_share("nelder_mead"),
        "optimize.nelder_mead.converged_frac": _mean([float(spans[i][5][3]) for i in nm]),
        "optimize.nelder_mead.winner_not_first_frac":
            not_first / calls_with_starts if calls_with_starts else 0.0,
        "optimize.nelder_mead.same_basin_frac": same_basin / others if others else 0.0,
        "experiments.row_ms_p50": _median(rows) * 1e3,
        "experiments.row_ms_tail": percentile(rows, tail) * 1e3,
        "experiments.write_ms": _median([dur[i] for i in by.get("write", [])]) * 1e3,
        # busy share of the traced pass times the untraced serial wall: row busy
        # time at reference speed without the tracing overhead
        "experiments.parallel_efficiency":
            sum(rows) * (untraced_serial_wall / traced_wall) / (workers * untraced_wall)
            if rows else 0.0,
        "cli.parse_config_ms": _median([dur[i] for i in by.get("parse_config", [])]) * 1e3,
        "trace.overhead_frac": traced_wall_ref / untraced_serial_wall - 1.0,
    }
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (("_us_p50", "us"), ("_ns_per_pt", "ns"), ("_ms", "ms"),
                         ("ms_p50", "ms"), ("ms_tail", "ms"),
                         ("_frac", "ratio"), ("share", "ratio"), ("efficiency", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"
