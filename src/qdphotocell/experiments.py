"""Canned parameter sweeps producing plot-ready tables.

Three sweeps regenerate the converter's headline datasets: the coherence /
efficiency map over the two cross-coupling strengths at fixed bandgap, and
efficiency-at-maximum-power curves against Carnot efficiency for several
lead cross couplings and decoherence rates.  Tables carry their full input
echo per row so any row can be regenerated in isolation, plus a provenance
block (resolved configuration, package version, numpy build and SIMD
dispatch, timestamp).  Reruns with identical configuration are
byte-identical except for the timestamp.

All rows of a sweep are maximized together in one batched search, in a
single process; a row's result does not depend on the rows beside it, so a
row computed alone equals the same row inside the sweep, bit for bit.  The
``workers`` argument is accepted and validated for compatibility but has no
effect.
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
from .model import INFINITE, ModelParams, params_from_scaled, scaled_energies
from .optimize import (_FREE_ORDER, _curve_params, _curve_point, _maximize_rows,
                       _steady_rows)

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

# the error of a row whose operating region is empty: no seed had positive power
_DEGENERATE = "degenerate-operating-region"

# fig2 maximizes at its fixed bandgap; the fig3 curves free all of _FREE_ORDER,
# efficiency_at_max_power_curve's default
_FIG2_FREE = ("x_l", "x_r")


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


# ---- coherence/efficiency map over (r_p, r_l) ------------------------------

def _fig2_rows(pairs, base_kwargs, opt_kwargs) -> list[dict]:
    """The fig2 rows of (r_p, r_l) pairs, maximized in one batched search.

    A malformed optimizer option flags every row with its DomainError, as a
    refused steady state flags its own row.
    """
    params = [params_from_scaled(r_p=r_p, r_l=r_l, **base_kwargs) for r_p, r_l in pairs]
    try:
        results = _maximize_rows(params, _FIG2_FREE, **opt_kwargs)
    except DomainError as exc:
        results = [exc] * len(params)
    # the kernel's j and Re rho12 at every optimum in one call; Im rho12 = 0
    # for degenerate levels
    won = [k for k, res in enumerate(results)
           if not isinstance(res, Exception) and not res.degenerate]
    observed = {}
    if won:
        _, j, _, _, _, u = _steady_rows([params[k] for k in won], [params[k].x_g for k in won],
                                        *([results[k].x_opt[name] for k in won]
                                          for name in _FIG2_FREE))
        observed = dict(zip(won, zip(j.tolist(), map(abs, u.tolist()))))
    rows = []
    for k, ((r_p, r_l), res) in enumerate(zip(pairs, results)):
        row = {"r_p": r_p, "r_l": r_l, "x_g": base_kwargs["x_g"],
               "x_l": None, "x_r": None, "p_max": None, "eta": None,
               "abs_rho12": None, "j": None, "converged": False, "error": None}
        if isinstance(res, Exception):
            row["error"] = str(res)
        elif res.degenerate:
            row.update(p_max=0.0, error=_DEGENERATE)
        else:
            row.update(x_l=res.x_opt["x_l"], x_r=res.x_opt["x_r"], p_max=res.p_max,
                       eta=res.eta_at_pmax, j=observed[k][0], abs_rho12=observed[k][1],
                       converged=res.converged)
        rows.append(row)
    return rows


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
    _resolve_workers(workers)
    base_kwargs = {"x_g": x_g, "x_l": 0.0, "x_r": 0.0, "temp": temp,
                   "temp_p": temp_p, "gamma": gamma, "tau": tau}
    rows = _fig2_rows([(r_p, r_l) for r_p in grid for r_l in grid], base_kwargs, opt_kwargs)
    columns = (
        ("r_p", "1"), ("r_l", "1"), ("x_g", "1"), ("x_l", "1"), ("x_r", "1"),
        ("p_max", _POWER_UNIT), ("eta", "1"), ("abs_rho12", "1"),
        ("j", "gamma_p"), ("converged", "bool"), ("error", "str"),
    )
    config = {"sweep": "fig2", "r_grid": grid, "x_g": x_g, "tau": _jsonable(tau),
              "temp": temp, "temp_p": temp_p, "gamma": gamma,
              "free": list(_FIG2_FREE), "optimizer": dict(opt_kwargs)}
    return SweepTable(columns=columns, rows=tuple(rows),
                      provenance=_provenance(config))


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
    the other knobs fixed at ``params``, every point of every curve in one
    batched search.

    The base point of a curve is the default scaled operating point of
    :class:`ModelParams` at the default lead temperature of
    :func:`params_from_scaled`.  A malformed optimizer option flags every
    row with its DomainError.
    """
    eta_c_grid = list(eta_c_grid) if eta_c_grid is not None else default_eta_c_grid()
    values = [float(v) for v in values]
    _resolve_workers(workers)
    points = [(v, float(e)) for v in values for e in eta_c_grid]
    x = scaled_energies(ModelParams())
    bases = [params_from_scaled(*x, **params, **{label: v}) for v in values]
    at = [_curve_params(base, e) for base in bases for e in eta_c_grid]
    try:
        results = _maximize_rows(at, _FREE_ORDER, **opt_kwargs)
    except DomainError as exc:
        results = [exc] * len(at)
    rows = []
    for (v, eta_c), p, res in zip(points, at, results):
        pt = _curve_point(eta_c, res)
        rows.append({
            label: _jsonable(v),
            "eta_c": pt.eta_c, "temp": p.temp, "temp_p": p.temp_p,
            "eta_at_pmax": pt.eta_at_pmax, "eta_ca": pt.eta_ca, "p_max": pt.p_max,
            "x_g": pt.x_opt.get("x_g"), "x_l": pt.x_opt.get("x_l"),
            "x_r": pt.x_opt.get("x_r"), "converged": pt.converged,
            "error": _DEGENERATE if pt.degenerate else pt.error,
        })
    config = {"sweep": sweep, **{k: _jsonable(v) for k, v in params.items()},
              f"{label}_values": [_jsonable(v) for v in values],
              "eta_c_grid": eta_c_grid, "free": list(_FREE_ORDER),
              "optimizer": dict(opt_kwargs)}
    return SweepTable(columns=((label, unit),) + _CURVE_COLUMNS_TAIL,
                      rows=tuple(rows), provenance=_provenance(config))


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
