"""Command-line front end.

Subcommands: ``steady`` (print the stationary state), ``thermo`` (currents,
power, efficiencies), ``maximize`` (power optimization), ``fig2`` / ``fig3a``
/ ``fig3b`` (canned sweeps written as CSV or JSON), and ``selftest``.

Configuration comes from an optional JSON file (--config) overlaid with
per-parameter flags; the fully resolved configuration is echoed on stdout
with every run so results are reproducible from their own output.  Human-
readable numbers are printed at 6 significant digits; machine formats go to
files at full precision.

Exit status: 0 success, 2 configuration or parameter error, 3 solver or
runtime failure, 4 output path exists without --force, 5 selftest failures.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field
from functools import partial

from . import __version__
from .dynamics import build_generator, steady_state
from .errors import ConfigError, DomainError, OutputExistsError, QdpcError
from .experiments import (
    FIG3_R_P,
    FORMATS,
    SWEEP_DEFAULTS,
    _check_format,
    _jsonable,
    _resolve_workers,
    default_eta_c_grid,
    default_r_grid,
    run_fig2,
    run_fig3a,
    run_fig3b,
)
from .model import (_ENERGY_FIELDS, _NON_ENERGY_FIELDS, INFINITE, ModelParams,
                    build_rates, params_from_scaled)
from .optimize import _FREE_ORDER, _MAXIMIZE, _validated_options, maximize_power
from .selftest import run_selftest
from .thermo import thermo_report

__all__ = ["RunConfig", "parse_config", "dispatch", "main"]

_WORKERS_ENV = "QDPHOTOCELL_WORKERS"

# every default of the scaled, physical and model blocks is ModelParams' own
_DEFAULT_PARAMS = ModelParams()
_DEFAULTS = {block: {k: getattr(_DEFAULT_PARAMS, k) for k in keys} for block, keys in (
    ("scaled", _FREE_ORDER), ("physical", _ENERGY_FIELDS), ("model", _NON_ENERGY_FIELDS))}

# the keys each block of a config document accepts
_BLOCK_KEYS = {
    "scaled": set(_DEFAULTS["scaled"]),
    "physical": set(_DEFAULTS["physical"]),
    "model": {*_DEFAULTS["model"], "gamma"},
    "optimizer": set(_MAXIMIZE.parameters) - {"params"},
    "sweep": set(SWEEP_DEFAULTS),
    "output": {"path", "format", "force", "workers"},
}

# the parameter flags, each spelled --name-with-dashes and read by parse_config
_PARAM_FLAGS = ("r_p", "r_l", "tau", "x_g", "x_l", "x_r", "temp", "temp_p", "gamma")


def _checked(convert, value, where: str):
    """``convert(value)``, with a malformed value reported as a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed value for {where}: {value!r} ({exc})") from None


def _number(value, where: str) -> float:
    """A config number as a float: a real or a numeric string, never a boolean."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise ConfigError(f"malformed value for {where}: {value!r} (not a number)")
    return _checked(float, value, where)


def _numbers(values, where: str, read=_number) -> tuple:
    """A config list as a tuple, each entry read by ``read``."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"malformed value for {where}: {values!r} (not a list)")
    return tuple(read(v, where) for v in values)


def _parse_tau(value, where: str):
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinite", "infinity"):
        return INFINITE
    return _number(value, f"{where} (a number or 'inf')")


# (parse, echo) of a sweep value, by key; the keys not listed are numbers
_SWEEP_VALUES = {"r_l_values": (_numbers, list),
                 "tau_values": (partial(_numbers, read=_parse_tau),
                                lambda v: [_jsonable(t) for t in v])}


@dataclass
class RunConfig:
    """Fully resolved run configuration."""

    params: ModelParams
    free: tuple = _MAXIMIZE.parameters["free"].default
    bounds: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=SWEEP_DEFAULTS.copy)  # keyed as SWEEP_DEFAULTS
    out: str | None = None
    fmt: str = FORMATS[0]
    force: bool = False
    workers: int | None = None
    explicit_model_keys: frozenset = frozenset()

    @property
    def sweep_x_g(self) -> float:
        """The fixed bandgap of fig2, ``sweep["x_g"]``."""
        return self.sweep["x_g"]

    def echo(self) -> dict:
        """JSON-serializable echo of every resolved setting."""
        p = self.params
        return {
            "version": __version__,
            "params": {**asdict(p), "tau": _jsonable(p.tau),
                       **{k: getattr(p, k) for k in _FREE_ORDER}},
            "optimizer": {"free": list(self.free),
                          "bounds": {k: list(v) for k, v in self.bounds.items()},
                          **self.optimizer},
            "sweep": {k: _SWEEP_VALUES.get(k, (float, float))[1](v)
                      for k, v in self.sweep.items()},
            "output": {"path": self.out, "format": self.fmt,
                       "force": self.force, "workers": self.workers},
        }


def _sweep_grids(sweep: dict) -> tuple[list, list]:
    """The r grid of fig2 and the eta_c grid of fig3a/fig3b of a sweep block."""
    try:
        return (default_r_grid(sweep["r_step"]),
                default_eta_c_grid(sweep["eta_c_lo"], sweep["eta_c_hi"], sweep["eta_c_step"]))
    except ConfigError as exc:
        raise ConfigError(f"sweep: {exc}") from None


def _block(value, where: str) -> dict:
    """A config block as a new dict: a JSON object, or null for none."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"malformed value for {where}: {value!r} (not a JSON object)")
    return dict(value)


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def parse_config(source: dict | None, overrides: dict | None = None) -> RunConfig:
    """Validate a config document plus flag overrides into a RunConfig.

    ``source`` is the parsed JSON config file (or None); ``overrides`` maps
    flag names (x_g, r_p, temp, ...) to values and wins over file values.
    At most one of the scaled/physical parameter blocks may be present; the
    defaults are those of :class:`ModelParams` and :data:`SWEEP_DEFAULTS`.
    Each value is checked here, before any run, by the module that owns its
    rule: ``optimize`` the optimizer options, ``experiments`` workers, format
    and the sweep grids.  The document and each block are JSON objects.
    """
    source = _block(source, "config")
    set_flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    _reject_unknown(source, set(_BLOCK_KEYS), "config")
    blocks = {}
    for name, allowed in _BLOCK_KEYS.items():
        blocks[name] = _block(source.get(name), f"config.{name}")
        _reject_unknown(blocks[name], allowed, f"config.{name}")
    scaled, physical, model, opt, sweep, output = blocks.values()

    if "scaled" in source and "physical" in source:
        raise ConfigError("config must contain at most one of the 'scaled' "
                          "and 'physical' parameter blocks, not both")

    model.update({k: v for k, v in set_flags.items() if k in _BLOCK_KEYS["model"]})
    explicit_model_keys = frozenset(model)
    scaled_overrides = {k: v for k, v in set_flags.items() if k in _BLOCK_KEYS["scaled"]}
    if scaled_overrides and physical:
        raise ConfigError("scaled overrides (--x-g/--x-l/--x-r) cannot be "
                          "combined with a 'physical' parameter block")
    scaled.update(scaled_overrides)

    # one keyword set for both parameter blocks; a rate set on its own wins
    # over the common "gamma"
    model_kw = {}
    for k, default in _DEFAULTS["model"].items():
        if k.startswith("gamma_") and model.get(k) is None:
            model_kw[k] = _number(model.get("gamma", default), "model.gamma")
        elif k == "tau":
            model_kw[k] = _parse_tau(model.get(k, default), "model.tau")
        else:
            model_kw[k] = _number(model.get(k, default), f"model.{k}")
    kind, build = ("physical", ModelParams) if physical else ("scaled", params_from_scaled)
    try:
        params = build(**{k: _number(blocks[kind].get(k, d), f"{kind}.{k}")
                          for k, d in _DEFAULTS[kind].items()}, **model_kw)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    free = opt.get("free", RunConfig.free)
    bounds = {k: _numbers(v, f"optimizer.bounds.{k}") for k, v in
              _checked(dict.items, opt.get("bounds") or {}, "optimizer.bounds")}
    # counts and tolerances are passed on unconverted
    optimizer = {k: v for k, v in opt.items() if k not in ("free", "bounds")}
    try:
        _validated_options(free, bounds, **optimizer)
    except DomainError as exc:
        raise ConfigError(f"optimizer.{exc}") from None

    # a count, checked and echoed; it has no effect, the sweeps run in one process
    workers, where = set_flags.get("workers", output.get("workers")), "output.workers"
    if workers is None and os.environ.get(_WORKERS_ENV):
        workers, where = os.environ[_WORKERS_ENV], _WORKERS_ENV
    if workers is not None:
        workers = _checked(_resolve_workers, workers, where)
    out = set_flags.get("out") or output.get("path")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"malformed value for output.path: {out!r}")
    force = output.get("force")
    if force is not None and not isinstance(force, bool):
        raise ConfigError(f"malformed value for output.force: {force!r}")

    fmt = set_flags.get("fmt") or output.get("format", FORMATS[0])
    _check_format(fmt)

    # fig2's bandgap defaults to the operating point's: the scaled x_g as set,
    # or eps_g / temp_p of a physical block
    x_g = params.x_g if physical else scaled.get("x_g", _DEFAULTS["scaled"]["x_g"])
    sweep = {k: _SWEEP_VALUES.get(k, (_number, float))[0](v, f"sweep.{k}")
             for k, v in {**SWEEP_DEFAULTS, "x_g": x_g, **sweep}.items()}
    _sweep_grids(sweep)

    return RunConfig(
        params=params, free=tuple(free), bounds=bounds, optimizer=optimizer,
        sweep=sweep,
        out=out,
        fmt=fmt,
        force=bool(set_flags.get("force") or force),
        workers=workers,
        explicit_model_keys=explicit_model_keys,
    )


def _fmt(value, digits=6) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and value == INFINITE:
        return "inf"
    return format(value, f".{digits}g")


def _cmd_steady(cfg: RunConfig) -> int:
    p = cfg.params
    sol = steady_state(build_generator(build_rates(p), p.delta21, p.tau))
    s = sol.state
    pops = s.populations_clamped
    print(f"x_g = {_fmt(p.x_g)}  x_l = {_fmt(p.x_l)}  x_r = {_fmt(p.x_r)}")
    for name, value in zip(("rho1", "rho2", "rho_e", "rho0"), pops):
        print(f"{name:6s} = {_fmt(value)}")
    print(f"rho12  = {_fmt(s.rho12.real)} + {_fmt(s.rho12.imag)}i "
          f"(|rho12| = {_fmt(abs(s.rho12))})")
    print(f"residual = {_fmt(sol.residual, 3)}  "
          f"replaced-row residual = {_fmt(sol.replaced_row_residual, 3)}")
    if sol.dark_state_branch:
        print("note: dark-state degeneracy resolved on the coherence-free branch")
    return 0


def _cmd_thermo(cfg: RunConfig) -> int:
    p = cfg.params
    sol = steady_state(build_generator(build_rates(p), p.delta21, p.tau))
    rep = thermo_report(sol.state, p)
    print(f"j_l = {_fmt(rep.j_l)}   j_r = {_fmt(rep.j_r)}   J = {_fmt(rep.j)}")
    print(f"q_dot_p = {_fmt(rep.q_dot_p)}   power = {_fmt(rep.power)}")
    print(f"eta = {_fmt(rep.eta)}   eta_c = {_fmt(rep.eta_c)}   "
          f"eta_ca = {_fmt(rep.eta_ca)}")
    print(f"stationary = {rep.stationary}")
    return 0


def _cmd_maximize(cfg: RunConfig) -> int:
    res = maximize_power(cfg.params, free=cfg.free, bounds=cfg.bounds,
                         **cfg.optimizer)
    x_desc = "  ".join(f"{k} = {_fmt(v)}" for k, v in res.x_opt.items())
    print(f"p_max = {_fmt(res.p_max)} kB*temp_p*gamma_p at {x_desc}")
    print(f"eta_at_pmax = {_fmt(res.eta_at_pmax)}   evals = {res.evals}   "
          f"starts = {res.starts}   converged = {res.converged}   "
          f"degenerate = {res.degenerate}")
    print(f"certificate: grad_rel = {_fmt(res.grad_rel, 3)}   "
          f"newton_step = {_fmt(res.newton_step, 3)}   "
          f"max_curvature = {_fmt(res.max_curvature, 3)}")
    if res.active_bounds:
        print(f"warning: optimum sits on bounds of {', '.join(res.active_bounds)}")
    return 0


def _cmd_sweep(cmd: str, cfg: RunConfig) -> int:
    """Run one canned sweep and write its table."""
    p, sweep = cfg.params, cfg.sweep
    # a sweep runs one coupling, gamma_p, on all three channels, at delta21 = 0
    for key, want in (("gamma_l", p.gamma_p), ("gamma_r", p.gamma_p), ("delta21", 0.0)):
        if getattr(p, key) != want:
            raise ConfigError(f"model.{key} = {getattr(p, key)} is not supported by {cmd}, "
                              "which runs gamma_l = gamma_r = gamma_p and delta21 = 0")
    r_grid, eta_grid = _sweep_grids(sweep)
    # the canonical curve families fix r_p unless it is set explicitly
    r_p = p.r_p if "r_p" in cfg.explicit_model_keys else FIG3_R_P
    # free is fixed by each sweep's definition; bounds only when set, so that
    # an unbounded sweep's provenance stays as it was
    common = {"temp_p": p.temp_p, "gamma": p.gamma_p, "workers": cfg.workers,
              **cfg.optimizer, **({"bounds": cfg.bounds} if cfg.bounds else {})}
    if cmd == "fig2":
        table = run_fig2(r_grid, temp=p.temp, x_g=sweep["x_g"],
                         tau=p.tau, **common)
    elif cmd == "fig3a":
        table = run_fig3a(sweep["r_l_values"], eta_grid, r_p=r_p, tau=p.tau, **common)
    else:
        table = run_fig3b(sweep["tau_values"], eta_grid, r_p=r_p, r_l=p.r_l, **common)
    out = cfg.out or f"{cmd}.{cfg.fmt}"
    table.write(out, cfg.fmt, force=cfg.force)
    print(f"{cmd}: wrote {len(table.rows)} rows to {out}")
    return 0


def _cmd_selftest(cfg: RunConfig) -> int:
    _passed, failed = run_selftest(report=print)
    return 0 if failed == 0 else 5


# (run, help) of each subcommand
_COMMANDS = {
    "steady": (_cmd_steady, "solve and print the stationary state"),
    "thermo": (_cmd_thermo, "print currents, power, and efficiencies"),
    "maximize": (_cmd_maximize, "maximize output power over scaled energies"),
    "fig2": (partial(_cmd_sweep, "fig2"), "sweep (r_p, r_l) map of efficiency and coherence"),
    "fig3a": (partial(_cmd_sweep, "fig3a"), "efficiency-at-max-power curves for several r_l"),
    "fig3b": (partial(_cmd_sweep, "fig3b"), "efficiency-at-max-power curves for several tau"),
    "selftest": (_cmd_selftest, "run built-in invariant checks"),
}


def dispatch(cmd: str, cfg: RunConfig) -> int:
    """Run one subcommand against a resolved configuration."""
    if cmd not in _COMMANDS:
        raise ConfigError(f"unknown command {cmd!r}")
    print("resolved-config: " + json.dumps(cfg.echo(), sort_keys=True))
    return _COMMANDS[cmd][0](cfg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdphotocell",
        description="Three-level quantum-dot photocell: steady states, "
                    "thermodynamics, and power optimization.")
    parser.add_argument("--version", action="version",
                        version=f"qdphotocell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_run, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        sp.add_argument("--out", metavar="PATH", help="output file for tables")
        sp.add_argument("--format", choices=FORMATS, dest="fmt")
        sp.add_argument("--workers", help=f"accepted and checked, no effect: sweeps run "
                                          f"in one process (default: ${_WORKERS_ENV}, "
                                          "else none, echoed as null)")
        sp.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
        for name in _PARAM_FLAGS:
            sp.add_argument("--" + name.replace("_", "-"), dest=name)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        source = None
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    source = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        cfg = parse_config(source, overrides)
        return dispatch(args.command, cfg)
    except QdpcError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        if isinstance(exc, OutputExistsError):
            return 4
        if isinstance(exc, (ConfigError, DomainError)):
            return 2
        return 3
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}),
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
