"""Canned parameter sweeps producing plot-ready tables.

Three sweeps regenerate the converter's headline datasets: the coherence /
efficiency map over the two cross-coupling strengths at fixed bandgap, and
efficiency-at-maximum-power curves against Carnot efficiency for several
lead cross couplings and decoherence rates.  Tables carry their full input
echo per row so any row can be regenerated in isolation, plus a provenance
block (resolved configuration, package version, numpy build and SIMD
dispatch, timestamp).  Reruns with identical configuration are
byte-identical except for the timestamp.

Every sweep builds its table through one driver, :func:`_sweep`: all rows
are maximized together in one batched search, in a single process, and a
row that holds no optimum reads alike in every table.  A row's result does
not depend on the rows beside it, so a row computed alone equals the same
row inside the sweep, bit for bit.  The ``workers`` argument is accepted
and validated for compatibility but has no effect.
"""

from __future__ import annotations

import csv
import datetime as _dt
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

from . import __version__
from .errors import ConfigError, DomainError, OutputExistsError
from .model import INFINITE, ModelParams, _require_real, params_from_scaled, scaled_energies
from .optimize import _FREE_ORDER, _maximize_rows

__all__ = [
    "SWEEP_DEFAULTS",
    "FIG3_R_P",
    "FORMATS",
    "SweepTable",
    "run_fig2",
    "run_fig3a",
    "run_fig3b",
    "default_r_grid",
    "default_eta_c_grid",
]

#: Columns are (name, unit) pairs; "1" marks a dimensionless quantity.
_POWER_UNIT = "kB*temp_p*gamma_p"

#: Default sweep settings, keyed as in the config file's ``sweep`` block; the
#: one source for the sweeps, the CLI and its docs.
SWEEP_DEFAULTS = {
    "r_step": 0.05,
    "eta_c_lo": 0.05, "eta_c_hi": 0.95, "eta_c_step": 0.05,
    "r_l_values": (0.0, 0.3, 0.9),
    "tau_values": (0.0, 1.0, 10.0, INFINITE),
    "x_g": ModelParams().x_g,
}

#: Photon cross coupling of the fig3a/fig3b curve families.
FIG3_R_P = 0.9

#: The most points a sweep grid may have: a step that asks for more is refused
#: from its point count, before the grid is built.
MAX_GRID_POINTS = 10_001

#: Output formats of :meth:`SweepTable.write`, the first the default.
FORMATS = ("csv", "json")


def default_r_grid(step: float = SWEEP_DEFAULTS["r_step"]) -> list[float]:
    """Cross-coupling grid covering [0, 1] inclusive with the given step."""
    if not 0.0 < step <= 1.0:
        raise ConfigError(f"r grid step must lie in (0, 1], got {step}")
    n = round(1.0 / step)
    if n >= MAX_GRID_POINTS:
        raise ConfigError(f"r_step {step} asks for {n + 1} grid points, more than "
                          f"{MAX_GRID_POINTS}")
    if abs(n * step - 1.0) > 1e-9:
        raise ConfigError(f"r grid step {step} does not evenly divide [0, 1]")
    return [round(k * step, 12) for k in range(n + 1)]


def default_eta_c_grid(lo: float = SWEEP_DEFAULTS["eta_c_lo"],
                       hi: float = SWEEP_DEFAULTS["eta_c_hi"],
                       step: float = SWEEP_DEFAULTS["eta_c_step"]) -> list[float]:
    """Carnot-efficiency grid, endpoints inclusive."""
    if not (0.0 < lo <= hi < 1.0 and step > 0.0):
        raise ConfigError("eta_c grid needs 0 < lo <= hi < 1 and step > 0, got "
                          f"lo={lo}, hi={hi}, step={step}")
    if (hi - lo + 1e-12) / step >= MAX_GRID_POINTS:
        raise ConfigError(f"eta_c_step {step} asks for more than {MAX_GRID_POINTS} "
                          f"grid points over [{lo}, {hi}]")
    values = (round(lo + k * step, 12) for k in itertools.count())
    return [min(v, hi) for v in itertools.takewhile(lambda v: v <= hi + 1e-12, values)]


@dataclass(frozen=True)
class SweepTable:
    """Tabular sweep output: (name, unit) columns, row dicts, provenance."""

    columns: tuple
    rows: tuple
    provenance: dict = field(default_factory=dict)

    def column_names(self) -> list[str]:
        return [name for name, _unit in self.columns]

    # -- serialization ----------------------------------------------------

    @staticmethod
    def _cell(value) -> str:
        """17-significant-digit CSV cell; empty for absent, 'inf' for infinite."""
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float) and math.isfinite(value):
            return format(value, ".17g")
        return str(_jsonable(value))

    def to_csv(self, path, force: bool = False) -> None:
        """RFC-4180 CSV with a single header row of column names."""
        _refuse_overwrite(path, force)
        names = self.column_names()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(names)
            for row in self.rows:
                writer.writerow([self._cell(row.get(name)) for name in names])

    def to_json(self, path, force: bool = False) -> None:
        """JSON document with columns, rows, and the provenance block."""
        _refuse_overwrite(path, force)
        doc = {
            "columns": [{"name": n, "unit": u} for n, u in self.columns],
            "rows": [{k: _jsonable(v) for k, v in row.items()}
                     for row in self.rows],
            "provenance": self.provenance,
        }
        # encode before opening, so a refused document leaves no file behind
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    def write(self, path, fmt: str, force: bool = False) -> None:
        _check_format(fmt)
        getattr(self, f"to_{fmt}")(path, force=force)


def _check_format(fmt) -> None:
    if fmt not in FORMATS:
        raise ConfigError(f"output format must be {' or '.join(map(repr, FORMATS))}, "
                          f"got {fmt!r}")


def _refuse_overwrite(path, force: bool) -> None:
    if not force and os.path.exists(path):
        raise OutputExistsError(f"refusing to overwrite existing file {path!s} "
                                "(pass force=True / --force)")


def _numpy_build() -> dict:
    """numpy's version and the SIMD extensions its loops run on here: the
    baseline, and the dispatch targets the CPU has and the environment
    leaves on.  The table bits hold for one such build, since numpy's SIMD
    code paths can round differently."""
    return {"version": np.__version__, "baseline": list(_umath.__cpu_baseline__),
            "dispatch": [k for k in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(k)]}


def _provenance(config: dict) -> dict:
    return {
        "package": "qdphotocell",
        "version": __version__,
        "numpy": _numpy_build(),
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "config": config,
    }


def _jsonable(value):
    """``value`` for JSON: a non-finite float as "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    return value


def _resolve_workers(workers) -> int | None:
    """A worker count: an integer >= 1 or a numeric string such as "2",
    never a boolean or a float; None, no count, stays None.  The sweeps run
    in one process and only validate it."""
    if workers is None:
        return None
    try:
        count = int(workers) if isinstance(workers, str) else workers
    except ValueError:
        count = None
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise ConfigError(f"worker count must be an integer >= 1, got {workers!r}")
    return int(count)


# ---- the one sweep driver ---------------------------------------------------

def _sweep(sweep, columns, inputs, params, free, workers, opt_kwargs, config) -> SweepTable:
    """The table of one sweep: each ModelParams of ``params`` maximized over
    ``free`` in one batched search, each row written in ``columns`` from its
    ``inputs`` and its outcome.

    One rule for every table: a flagged row (a refused steady state, or a
    malformed option, which flags every row) holds its reason in ``error``,
    a degenerate row ``p_max`` 0 and ``error`` degenerate-operating-region,
    and either leaves every other outcome column empty, ``converged`` false.
    A won row holds its OptResult: the free coordinates of its optimum (a
    fixed one is an input), its power and efficiency, and the kernel's j and
    |Re rho12| there; Im rho12 = 0 at degenerate levels.
    """
    _resolve_workers(workers)
    try:
        results = _maximize_rows(params, free, **opt_kwargs)
    except DomainError as exc:
        results = [exc] * len(params)
    degenerate = {"p_max": 0.0, "error": "degenerate-operating-region"}
    outcomes = [{"error": str(res)} if isinstance(res, Exception)
                else degenerate if res.degenerate
                else {**res.x_opt, "p_max": res.p_max, "eta": res.eta_at_pmax,
                      "eta_at_pmax": res.eta_at_pmax, "abs_rho12": abs(res.rho12_re),
                      "j": res.j, "converged": res.converged} for res in results]
    rows = []
    for given, out in zip(inputs, outcomes):
        row = {"converged": False, **out, **given}
        rows.append({name: row.get(name) for name, _unit in columns})
    return SweepTable(columns=columns, rows=tuple(rows),
                      provenance=_provenance({"sweep": sweep, **config, "free": list(free),
                                              "optimizer": dict(opt_kwargs)}))


# ---- coherence/efficiency map over (r_p, r_l) ------------------------------

def run_fig2(r_grid=None, *, temp: float = ModelParams.temp,
             temp_p: float = ModelParams.temp_p, x_g: float = SWEEP_DEFAULTS["x_g"],
             tau: float = ModelParams.tau, gamma: float = ModelParams.gamma_p,
             workers=None, **opt_kwargs) -> SweepTable:
    """Efficiency and steady coherence at maximum power over (r_p, r_l).

    Per grid point the power is maximized over (x_l, x_r) at fixed bandgap;
    the row records the optimum, the efficiency there, and |rho12| of the
    corresponding steady state.  ``workers`` is validated and has no effect.
    """
    grid = list(r_grid) if r_grid is not None else default_r_grid()
    for r in grid:
        if not 0.0 <= r <= 1.0:
            raise ConfigError(f"r grid values must lie in [0, 1], got {r}")
    inputs = [{"r_p": r_p, "r_l": r_l, "x_g": x_g} for r_p in grid for r_l in grid]
    params = [params_from_scaled(x_g, 0.0, 0.0, temp=temp, temp_p=temp_p, gamma=gamma,
                                 tau=tau, r_p=row["r_p"], r_l=row["r_l"]) for row in inputs]
    columns = (
        ("r_p", "1"), ("r_l", "1"), ("x_g", "1"), ("x_l", "1"), ("x_r", "1"),
        ("p_max", _POWER_UNIT), ("eta", "1"), ("abs_rho12", "1"),
        ("j", "gamma_p"), ("converged", "bool"), ("error", "str"),
    )
    config = {"r_grid": grid, "x_g": x_g, "tau": _jsonable(tau),
              "temp": temp, "temp_p": temp_p, "gamma": gamma}
    return _sweep("fig2", columns, inputs, params, ("x_l", "x_r"), workers, opt_kwargs, config)


# ---- efficiency-at-max-power curves ----------------------------------------

_CURVE_COLUMNS_TAIL = (
    ("eta_c", "1"), ("temp", "K"), ("temp_p", "K"), ("eta_at_pmax", "1"),
    ("eta_ca", "1"), ("p_max", _POWER_UNIT),
    ("x_g", "1"), ("x_l", "1"), ("x_r", "1"),
    ("converged", "bool"), ("error", "str"),
)


def _run_curves(sweep, label, unit, values, eta_c_grid, params, workers,
                opt_kwargs) -> SweepTable:
    """One efficiency-at-max-power curve per value of the parameter ``label``,
    every point of every curve in one batched search.  A point is the default
    scaled operating point of :class:`ModelParams` at the knobs ``params``,
    its curve's value and the lead temperature (1 - eta_c) * temp_p; its
    eta_ca is the Curzon-Ahlborn efficiency 1 - sqrt(1 - eta_c).
    """
    eta_c_grid = list(eta_c_grid) if eta_c_grid is not None else default_eta_c_grid()
    grid = [float(e) for e in eta_c_grid]
    for e in grid:
        if not 0.0 < e < 1.0:
            raise DomainError(f"eta_c values must lie in (0, 1), got {e}")
    values = [float(v) for v in values]
    x, temp_p = scaled_energies(ModelParams()), _require_real("temp_p", params["temp_p"])
    points = [(v, e, (1.0 - e) * temp_p) for v, e in itertools.product(values, grid)]
    at = [params_from_scaled(*x, **{**params, label: v, "temp": t}) for v, _e, t in points]
    inputs = [{label: _jsonable(v), "eta_c": e, "temp": t, "temp_p": temp_p,
               "eta_ca": 1.0 - math.sqrt(1.0 - e)} for v, e, t in points]
    config = {**{k: _jsonable(v) for k, v in params.items()},
              f"{label}_values": [_jsonable(v) for v in values],
              "eta_c_grid": eta_c_grid}
    return _sweep(sweep, ((label, unit),) + _CURVE_COLUMNS_TAIL, inputs, at, _FREE_ORDER,
                  workers, opt_kwargs, config)


def run_fig3a(r_l_values=SWEEP_DEFAULTS["r_l_values"], eta_c_grid=None, *,
              r_p: float = FIG3_R_P, tau: float = ModelParams.tau,
              temp_p: float = ModelParams.temp_p, gamma: float = ModelParams.gamma_p,
              workers=None, **opt_kwargs) -> SweepTable:
    """Efficiency at maximum power vs Carnot efficiency for several r_l."""
    return _run_curves("fig3a", "r_l", "1", r_l_values, eta_c_grid,
                       {"r_p": r_p, "tau": tau, "temp_p": temp_p, "gamma": gamma},
                       workers, opt_kwargs)


def run_fig3b(tau_values=SWEEP_DEFAULTS["tau_values"], eta_c_grid=None, *,
              r_p: float = FIG3_R_P, r_l: float = ModelParams.r_l,
              temp_p: float = ModelParams.temp_p, gamma: float = ModelParams.gamma_p,
              workers=None, **opt_kwargs) -> SweepTable:
    """Efficiency at maximum power vs Carnot efficiency for several tau."""
    return _run_curves("fig3b", "tau", "gamma_p", tau_values, eta_c_grid,
                       {"r_p": r_p, "r_l": r_l, "temp_p": temp_p, "gamma": gamma},
                       workers, opt_kwargs)
