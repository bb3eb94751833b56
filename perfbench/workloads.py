"""The benchmark workloads: seeded inputs, the public call per item, and the correctness gate.

Every workload enters ``qdphotocell`` only through public functions, looked
up on their modules at call time so that the traced pass (see ``spans.py``)
sees the same calls.  Items are the units a caller waits for:

* ``map-2d``      one ``run_fig2`` sweep over a seeded 3x3 (r_p, r_l) grid on
                  the process pool, plus ``SweepTable.write``;
* ``curves-3d``   one serial ``run_fig3a`` or ``run_fig3b`` call (two curves
                  of two seeded eta_c points each), plus ``SweepTable.write``;
* ``steady-scan`` one draw through params_from_scaled -> build_rates ->
                  build_generator -> steady_state -> thermo_report;
* ``power-map``   one batched ``steady_observables_grid`` call over a seeded
                  64x64 (x_l, x_r) landscape.

``check`` returns a list of failure messages for one item's output; the
runner calls it outside the timed interval.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import random

import numpy as np

import qdphotocell
from qdphotocell import cli, dynamics, experiments, model, optimize, thermo

# Tolerances of the gate.  Power is compared in units of k_B * temp_p *
# gamma_p against the general path, relative to the largest current term
# times the bias prefactor, because power cancels near the window edges.
POWER_REL_TOL = 1e-9
# The state is normalised to trace 1, so a population is resolved to about
# 1e-16 absolute and a current term to about 1e-16 of its rate: deep below a
# lead's Fermi level, where the empty-state population is 1e-8 or less, the
# two paths differ by round-off of 1e-9 of the largest term.  No term counts
# below this fraction of its rate, which puts the tolerance at 1e-14 of it.
ROUNDOFF_FLOOR = 1e-5
ETA_TOL = 1e-9
STATE_TOL = 1e-10
# Probe step of the local-optimality check, in scaled-energy units.
PROBE_STEP = 1e-3
PROBE_REL_TOL = 1e-9
# Results digest: criterion 10 pins the optimizer to 1e-6 of its oracle.
DIGEST_TOL = 1e-6


def general_power(params):
    """Power, efficiency and the tolerance scale of one point via the general path.

    Returns ``(power, eta, scale)`` with power in k_B * temp_p * gamma_p units
    and ``scale`` = |bias prefactor| * largest term of the lead current, where
    no term counts below ROUNDOFF_FLOOR of its rate.
    """
    rates = model.build_rates(params)
    sol = dynamics.steady_state(dynamics.build_generator(rates, params.delta21, params.tau))
    rep = thermo.thermo_report(sol.state, params)
    gamma_ref = params.gamma_p if params.gamma_p > 0.0 else 1.0
    s = sol.state
    coeffs = (2.0 * (rates.f_l_plus[0, 0] + rates.f_l_plus[1, 1]),
              2.0 * rates.f_l_minus[0, 0],
              2.0 * rates.f_l_minus[1, 1],
              2.0 * (rates.f_l_minus[1, 0] + rates.f_l_minus[0, 1]))
    terms = (coeffs[0] * s.rho0, coeffs[1] * s.rho1, coeffs[2] * s.rho2,
             coeffs[3] * s.rho12.real)
    largest = max(max(abs(t) for t in terms), ROUNDOFF_FLOOR * max(abs(c) for c in coeffs))
    eta_c = 1.0 - params.temp / params.temp_p
    pref = params.x_g - (1.0 - eta_c) * (params.x_r - params.x_l)
    scale = abs(pref) * largest / gamma_ref
    return rep.power / (params.temp_p * gamma_ref), rep.eta, scale


class Workload:
    """Base: a workload resolves its config through the CLI parser and runs items."""

    name = ""
    sweep = False
    # items per pass at full and at self-test size
    pass_sizes = (1, 1)

    def __init__(self, nproc: int, tiny: bool = False):
        self.nproc = nproc
        self.tiny = tiny
        self.cfg = self.resolve_config()

    def config_doc(self) -> dict:
        return {"model": {"temp": 295.0, "temp_p": 5780.0}}

    def resolve_config(self):
        return cli.parse_config(self.config_doc())

    @property
    def workers(self) -> int:
        return 1

    def pass_items(self) -> int:
        return self.pass_sizes[1 if self.tiny else 0]

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, item, out_path, workers=None):
        """The timed call of one item; ``workers`` overrides the pool size of a sweep."""
        raise NotImplementedError

    def check(self, item, out) -> list:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """True when two runs of one item gave identical results."""
        raise NotImplementedError

    def perturb(self, item, out):
        """A copy of ``out`` with one result changed enough that the gate must fail it."""
        raise NotImplementedError

    def digest_rows(self, out) -> list:
        return []


# ---- sweeps ---------------------------------------------------------------

def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """One uniform draw per equal cell of [lo, hi), ascending."""
    width = (hi - lo) / n
    return [round(lo + (k + rng.random()) * width, 12) for k in range(n)]


def _check_sweep_row(row, params, free, eta_c, where) -> list:
    """Invariants, general-path recompute and a local-optimality probe for one row."""
    fails = []
    if row.get("error"):
        return [f"{where}: error {row['error']!r}"]
    if not row.get("converged"):
        fails.append(f"{where}: not converged")
    p_max = row["p_max"]
    eta = row["eta"] if "eta" in row else row["eta_at_pmax"]
    if p_max is None or not p_max > 0.0:
        return fails + [f"{where}: p_max {p_max!r} not positive"]
    if eta is None or not 0.0 <= eta <= eta_c + 1e-9:
        return fails + [f"{where}: eta {eta!r} outside [0, eta_c={eta_c}]"]
    try:
        p_gen, eta_gen, scale = general_power(params)
    except qdphotocell.QdpcError as exc:
        return fails + [f"{where}: general path refused the optimum: {exc}"]
    if abs(p_gen - p_max) > POWER_REL_TOL * scale + 1e-300:
        fails.append(f"{where}: p_max {p_max!r} but general path gives {p_gen!r}")
    if eta_gen is None or abs(eta_gen - eta) > ETA_TOL:
        fails.append(f"{where}: eta {eta!r} but general path gives {eta_gen!r}")
    # probe +-PROBE_STEP along each free coordinate, inside the search box
    x0 = {"x_g": params.x_g, "x_l": params.x_l, "x_r": params.x_r}
    probes = []
    for name in free:
        lo, hi = optimize.DEFAULT_BOUNDS[name]
        for sign in (-1.0, 1.0):
            x = dict(x0)
            x[name] = min(hi, max(lo, x0[name] + sign * PROBE_STEP))
            probes.append((x["x_g"], x["x_l"], x["x_r"]))
    xg, xl, xr = (np.array(c) for c in zip(*probes))
    p_probe = optimize.steady_observables_grid(params, xg, xl, xr)["power"]
    best = float(np.max(p_probe))
    if best > p_max * (1.0 + PROBE_REL_TOL):
        fails.append(f"{where}: probe found power {best!r} above p_max {p_max!r}")
    return fails


def read_back(path, table) -> list:
    """The written CSV must hold the table's rows with p_max round-tripping exactly."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(table.rows):
        return [f"{path}: {len(rows)} rows written, table has {len(table.rows)}"]
    for k, (got, want) in enumerate(zip(rows, table.rows)):
        cell = got["p_max"]
        value = None if cell == "" else float(cell)
        if value != want["p_max"] and not (value is not None and math.isnan(value)):
            return [f"{path}: row {k} p_max {cell!r} != {want['p_max']!r}"]
    return []


class Sweep(Workload):
    """A workload whose items are sweep calls returning a SweepTable.

    Passes hold an odd number of items, so the median item is one item and
    not the gap between two.
    """

    sweep = True
    eta_column = "eta"

    def same(self, a, b) -> bool:
        return a.rows == b.rows

    def perturb(self, item, out):
        rows = [dict(r) for r in out.rows]
        rows[0]["p_max"] *= 1.0 + 1e-6
        return experiments.SweepTable(columns=out.columns, rows=tuple(rows),
                                      provenance=out.provenance)

    def digest_rows(self, out) -> list:
        return [[r["p_max"], r[self.eta_column]] for r in out.rows]


class Map2D(Sweep):
    name = "map-2d"
    pass_sizes = (3, 1)
    grid_n = 3

    def config_doc(self) -> dict:
        return {"scaled": {"x_g": 2.0},
                "model": {"temp": 295.0, "temp_p": 5780.0, "tau": 0.0, "gamma": 1.0},
                "sweep": {"x_g": 2.0},
                "output": {"workers": self.nproc, "format": "csv", "force": True}}

    @property
    def workers(self) -> int:
        return int(self.cfg.workers)

    def make_inputs(self, seed: int) -> list:
        rng = random.Random(f"map-2d/{seed}")
        n = 2 if self.tiny else self.grid_n
        return [_stratified(rng, n, 0.0, 1.0) for _ in range(self.pass_items())]

    def run(self, item, out_path, workers=None):
        c = self.cfg
        table = experiments.run_fig2(
            item, temp=c.params.temp, temp_p=c.params.temp_p, x_g=c.sweep_x_g,
            tau=c.params.tau, gamma=c.params.gamma_p,
            workers=self.workers if workers is None else workers, **c.optimizer)
        table.write(out_path, c.fmt, force=c.force)
        return table

    def check(self, item, out) -> list:
        c = self.cfg
        eta_c = 1.0 - c.params.temp / c.params.temp_p
        fails = []
        if len(out.rows) != len(item) ** 2:
            fails.append(f"{len(out.rows)} rows for a {len(item)}x{len(item)} grid")
        for k, row in enumerate(out.rows):
            if row.get("error") or row.get("x_l") is None:
                fails.append(f"row {k}: error {row.get('error')!r}")
                continue
            params = model.params_from_scaled(
                row["x_g"], row["x_l"], row["x_r"], temp=c.params.temp,
                temp_p=c.params.temp_p, gamma=c.params.gamma_p, r_p=row["r_p"],
                r_l=row["r_l"], tau=c.params.tau)
            fails += _check_sweep_row(row, params, ("x_l", "x_r"), eta_c,
                                      f"r_p={row['r_p']} r_l={row['r_l']}")
        return fails


class Curves3D(Sweep):
    name = "curves-3d"
    pass_sizes = (3, 2)
    eta_column = "eta_at_pmax"
    r_p = 0.9

    def config_doc(self) -> dict:
        return {"model": {"temp_p": 5780.0, "gamma": 1.0, "r_p": self.r_p},
                "output": {"workers": 1, "format": "csv", "force": True}}

    def make_inputs(self, seed: int) -> list:
        """Alternating fig3a / fig3b calls, each two curves of two eta_c points.

        One eta_c point per call is near equilibrium (eta_c < 0.3), where the
        r_l = 0 maxima are flat; every fig3a call holds an r_l = 0 curve and
        every fig3b call a tau = inf curve.
        """
        rng = random.Random(f"curves-3d/{seed}")
        items = []
        for k in range(self.pass_items()):
            eta_c = [round(rng.uniform(0.05, 0.3), 12), round(rng.uniform(0.3, 0.95), 12)]
            if k % 2 == 0:
                items.append(("fig3a", (0.0, round(rng.uniform(0.05, 1.0), 12)), eta_c))
            else:
                tau = rng.choice((0.0, round(rng.uniform(0.0, 10.0), 12)))
                items.append(("fig3b", (tau, model.INFINITE), eta_c))
        if self.tiny:
            items = [(kind, labels[:1], eta_c[:1]) for kind, labels, eta_c in items]
        return items

    def run(self, item, out_path, workers=None):
        kind, labels, eta_c = item
        c = self.cfg
        common = dict(eta_c_grid=eta_c, r_p=c.params.r_p, temp_p=c.params.temp_p,
                      gamma=c.params.gamma_p, workers=c.workers, **c.optimizer)
        if kind == "fig3a":
            table = experiments.run_fig3a(labels, tau=c.params.tau, **common)
        else:
            table = experiments.run_fig3b(labels, r_l=c.params.r_l, **common)
        table.write(out_path, c.fmt, force=c.force)
        return table

    def check(self, item, out) -> list:
        kind, labels, eta_cs = item
        c = self.cfg
        fails = []
        if len(out.rows) != len(labels) * len(eta_cs):
            fails.append(f"{len(out.rows)} rows for {len(labels)}x{len(eta_cs)} points")
        for k, row in enumerate(out.rows):
            if row.get("error") or row.get("x_g") is None:
                fails.append(f"row {k}: error {row.get('error')!r}")
                continue
            if kind == "fig3a":
                r_l, tau = row["r_l"], c.params.tau
            else:
                tau = model.INFINITE if row["tau"] == "inf" else row["tau"]
                r_l = c.params.r_l
            params = model.params_from_scaled(
                row["x_g"], row["x_l"], row["x_r"], temp=row["temp"],
                temp_p=row["temp_p"], gamma=c.params.gamma_p, r_p=c.params.r_p,
                r_l=r_l, tau=tau)
            where = f"{kind} {'r_l' if kind == 'fig3a' else 'tau'}=" \
                    f"{row.get('r_l', row.get('tau'))} eta_c={row['eta_c']}"
            fails += _check_sweep_row(row, params, ("x_g", "x_l", "x_r"),
                                      row["eta_c"], where)
        return fails


# ---- one-at-a-time general path -------------------------------------------

class SteadyScan(Workload):
    name = "steady-scan"
    pass_sizes = (3000, 40)

    def make_inputs(self, seed: int) -> list:
        """Seeded draws; one in eight each is tau = inf, dark-state corner, delta21 > 0."""
        rng = random.Random(f"steady-scan/{seed}")
        temp, temp_p = self.cfg.params.temp, self.cfg.params.temp_p
        items = []
        for k in range(self.pass_items()):
            kw = dict(temp=temp, temp_p=temp_p, gamma=1.0, r_p=rng.random(),
                      r_l=rng.random(), tau=rng.choice((0.0, rng.uniform(0.0, 10.0))),
                      delta21=0.0)
            kind = k % 8
            if kind == 1:
                kw["tau"] = model.INFINITE
            elif kind == 2:
                kw.update(r_p=1.0, r_l=1.0, tau=0.0)
            elif kind == 3:
                kw["delta21"] = rng.uniform(0.01, 2.0) * temp
            items.append(((rng.uniform(0.5, 5.0), rng.uniform(-10.0, 10.0),
                           rng.uniform(-10.0, 10.0)), kw))
        return items

    def run(self, item, out_path=None, workers=None):
        (x_g, x_l, x_r), kw = item
        params = model.params_from_scaled(x_g, x_l, x_r, **kw)
        rates = model.build_rates(params)
        sol = dynamics.steady_state(dynamics.build_generator(rates, params.delta21, params.tau))
        return sol.state, thermo.thermo_report(sol.state, params)

    def check(self, item, out) -> list:
        state, rep = out
        fails = []
        if not abs(state.trace - 1.0) <= STATE_TOL:
            fails.append(f"trace deviates by {state.trace - 1.0:.3e}")
        if not abs(rep.j_l + rep.j_r) <= STATE_TOL:
            fails.append(f"|j_l + j_r| = {abs(rep.j_l + rep.j_r):.3e}")
        return fails

    def same(self, a, b) -> bool:
        return a == b

    def perturb(self, item, out):
        state, rep = out
        return state, dataclasses.replace(rep, j_l=rep.j_l + 1e-8)


# ---- batched landscapes ---------------------------------------------------

class PowerMap(Workload):
    """Dense (x_l, x_r) power landscapes, one batched kernel call per item.

    A 64 x 64 grid is 4,096 points; its (N, 6, 6) system array is 288 B a
    point, 1.1 MiB, inside one core's 4 MiB L2.
    """

    name = "power-map"
    pass_sizes = (150, 8)
    grid_n = 64
    samples = 4

    def make_inputs(self, seed: int) -> list:
        """Seeded (x_g, r_p, r_l, tau) per item over a jittered grid of the search box.

        One item in eight each is tau = inf and the dark-state corner
        (r_p = r_l = 1, tau = 0).
        """
        rng = random.Random(f"power-map/{seed}")
        temp, temp_p = self.cfg.params.temp, self.cfg.params.temp_p
        n = 8 if self.tiny else self.grid_n
        items = []
        for k in range(self.pass_items()):
            kw = dict(temp=temp, temp_p=temp_p, gamma=1.0, r_p=rng.random(),
                      r_l=rng.random(), tau=rng.choice((0.0, rng.uniform(0.0, 10.0))))
            if k % 8 == 1:
                kw["tau"] = model.INFINITE
            elif k % 8 == 2:
                kw.update(r_p=1.0, r_l=1.0, tau=0.0)
            x_g = rng.uniform(0.5, 5.0)
            axes = []
            for name in ("x_l", "x_r"):
                lo, hi = optimize.DEFAULT_BOUNDS[name]
                axes.append(lo + (np.arange(n) + rng.random()) * (hi - lo) / n)
            x_l, x_r = np.meshgrid(*axes, indexing="ij")
            picks = [(rng.randrange(n), rng.randrange(n)) for _ in range(self.samples)]
            items.append((model.params_from_scaled(x_g, 0.0, 0.0, **kw), x_g, x_l, x_r, picks))
        return items

    def run(self, item, out_path=None, workers=None):
        params, x_g, x_l, x_r, _ = item
        return optimize.steady_observables_grid(params, x_g, x_l, x_r)

    def check(self, item, out) -> list:
        """Seeded grid points against the general path, to 1e-9 of the largest current term."""
        params, x_g, x_l, x_r, picks = item
        power = out["power"]
        if power.shape != x_l.shape or not np.all(np.isfinite(power)):
            return [f"power has shape {power.shape} or non-finite values"]
        fails = []
        for i, j in picks:
            at = params.with_scaled(x_l=float(x_l[i, j]), x_r=float(x_r[i, j]))
            try:
                p_gen, _, scale = general_power(at)
            except qdphotocell.QdpcError as exc:
                fails.append(f"({i}, {j}): general path refused: {exc}")
                continue
            if abs(p_gen - power[i, j]) > POWER_REL_TOL * scale + 1e-300:
                fails.append(f"({i}, {j}): power {power[i, j]!r} but general path "
                             f"gives {p_gen!r}")
        return fails

    def same(self, a, b) -> bool:
        return all(np.array_equal(a[k], b[k]) for k in a)

    def perturb(self, item, out):
        i, j = item[4][0]
        power = out["power"].copy()
        power[i, j] += 1e-6 * max(1.0, abs(power[i, j]))
        return dict(out, power=power)


WORKLOADS = {w.name: w for w in (Map2D, Curves3D, SteadyScan, PowerMap)}
