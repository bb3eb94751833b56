"""Power maximization over scaled energy variables.

The output power is positive only inside the operating window
x_g < x_r - x_l < x_g / (1 - eta_c), which collapses to a thin diagonal
strip near equilibrium.  A plain rectangular seed grid in (x_l, x_r) can
miss the strip entirely, so whenever x_r is free the search runs in
window-relative coordinates: x_r = x_l + x_g * (1 + nu * eta_c / (1 - eta_c))
with nu in (0, 1).  Seeding uses a coarse grid per free dimension, of which
only the points at or above the ``refine_top``-th best power are ranked;
seeds are refined in rank order with a deterministic Nelder-Mead simplex
until a start lands in the basin of the best optimum so far (usually the
second start), or the ``refine_top`` seeds are used up.  No randomness
anywhere: identical configuration produces bit-identical results.

The simplex hands its objective tuples of Python floats, and the objective
evaluates the closed-form kernel on floats with the parameter constants
computed once per call (:func:`_kernel_constants`); the seed grid evaluates
the same kernel on arrays.

Points with non-positive power (or current flowing backwards) score zero so
the maximizer stays inside the converter regime; a vanished operating region
is reported via the ``degenerate`` flag rather than an error.
"""

from __future__ import annotations

import math
import numbers
from bisect import insort
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .errors import DomainError, NoUniqueSteadyStateError
from .model import (
    INFINITE,
    ModelParams,
    _bose_array,
    _fermi_array,
    _require_real,
    bose_occupation,
    fermi_occupation,
    scaled_energies,
)
from .thermo import lead_current

__all__ = [
    "DEFAULT_BOUNDS",
    "OptResult",
    "CurvePoint",
    "maximize_power",
    "efficiency_at_max_power_curve",
    "grid_search_power",
    "steady_observables_grid",
    "nelder_mead",
]

#: Default search box; occupations saturate beyond |x| ~ 20.
DEFAULT_BOUNDS = {
    "x_g": (0.1, 30.0),
    "x_l": (-20.0, 20.0),
    "x_r": (-20.0, 20.0),
}

_FREE_ORDER = ("x_g", "x_l", "x_r")

# the least value of each count option of maximize_power; its other options
# (f_rel_tol, x_rel_tol) are tolerances
_COUNT_LEAST = {"seeds_per_dim": 2, "refine_top": 1, "max_evals_per_seed": 1}

# Interior margin for the window coordinate; both window edges carry zero power.
_NU_MARGIN = 1e-9

# Two refined optima share a basin when their powers agree within f_rel_tol,
# relative, and each search coordinate within f_rel_tol ** _SAME_BASIN_X_EXP of
# its range: a flat maximum pins x only to the square root of the f tolerance.
_SAME_BASIN_X_EXP = 0.5

# Winning coordinates within this fraction of the box range of an edge are
# reported as active bounds.
_BOUND_FLAG_FRACTION = 1e-6

# The closed-form steady state is refused when its trace falls below this
# fraction of the product of the row norms it is built from.
_SINGULAR_REL = 1e-12


def _kernel_constants(params: ModelParams) -> tuple:
    """The constants :func:`_degenerate_steady` reads, computed once per params.

    (gamma_p, gamma_l, gamma_r, r_p, r_l, tau, pinned, 1 - eta_c, gamma_ref):
    ``pinned`` holds Re rho12 at zero (tau = INFINITE or the dark-state
    corner), and ``gamma_ref``, the power unit, is gamma_p, or 1 when the
    photon field is off.  Raises DomainError for split levels
    (delta21 != 0), which the closed form does not cover.
    """
    if params.delta21 != 0.0:
        raise DomainError("the closed-form kernel supports the degenerate "
                          "configuration only (delta21 = 0)")
    gp, gl, rp, rl, tau = params.gamma_p, params.gamma_l, params.r_p, params.r_l, params.tau
    dark = (tau == 0.0 and (gp == 0.0 or rp == 1.0) and (gl == 0.0 or rl == 1.0)
            and not (gp == 0.0 and gl == 0.0))
    eta_c = 1.0 - params.temp / params.temp_p
    return (gp, gl, params.gamma_r, rp, rl, tau, tau == INFINITE or dark,
            1.0 - eta_c, gp if gp > 0.0 else 1.0)


def _degenerate_steady(consts: tuple, x_g, x_l, x_r, n, fl, fr):
    """Closed-form steady state of the degenerate dot, elementwise.

    Works alike on Python floats and on broadcast numpy arrays; ``consts`` holds
    the parameter constants from :func:`_kernel_constants`, and ``n``,
    ``fl`` and ``fr`` are the Bose and Fermi occupations at x_g, x_l and
    x_r.  With delta21 = 0 the two ground rows of the generator coincide, so
    rho1 = rho2 = g and Im rho12 = 0, and the steady state is the null
    vector of the ground, excited and coherence rows in (g, rho_e, rho0, u),
    u = Re rho12.  That vector is their signed 3x3 cofactors, normalized by
    the trace 2 g + rho_e + rho0; every component, rho0 included, comes from
    its own cofactor, never from 1 - 2 g - rho_e, which loses rho0 to
    cancellation where the dot is nearly full.  u is pinned to zero for
    tau = INFINITE and in the dark-state corner, which selects the
    decoherence-continuity branch of its two-dimensional kernel.

    Returns (power, j, g, rho_e, rho0, u); raises NoUniqueSteadyStateError
    when the trace vanishes against the product of the three row norms.
    """
    gp, gl, gr, rp, rl, tau, pinned, one_minus_eta_c, gamma_ref = consts
    bp = gp * n
    bm = gp * (1.0 + n)
    flp = gl * fl
    flm = gl * (1.0 - fl)
    frp = gr * fr
    frm = gr * (1.0 - fr)

    # rows of build_generator with rho1 = rho2 = g substituted, columns
    # (g, rho_e, rho0, u): half the ground row, half the excited row, and the
    # coherence row minus the full ground row.  The last is the coherence
    # row's departure from the dark-state corner, where it vanishes; written
    # through 1 - r_p and 1 - r_l it keeps full relative precision near that
    # corner, where the coherence row itself nearly repeats the ground row.
    a0, a1, a2, a3 = -(bp + flm), bm, flp, -(rp * bp + rl * flm)
    b0, b1, b2, b3 = 2.0 * bp, -(2.0 * bm + frm), frp, 2.0 * rp * bp
    if pinned:
        c0 = c1 = c2 = 0.0
        c3 = 1.0
    else:
        c0 = (1.0 - rp) * bp + (1.0 - rl) * flm
        c1, c2 = -(1.0 - rp) * bm, -(1.0 - rl) * flp
        c3 = -(c0 + 0.5 * tau)

    # 2x2 minors of the excited and coherence rows, then cofactor expansion
    # along the ground row
    m01 = b0 * c1 - b1 * c0
    m02 = b0 * c2 - b2 * c0
    m03 = b0 * c3 - b3 * c0
    m12 = b1 * c2 - b2 * c1
    m13 = b1 * c3 - b3 * c1
    m23 = b2 * c3 - b3 * c2
    g = a1 * m23 - a2 * m13 + a3 * m12
    e = -(a0 * m23 - a2 * m03 + a3 * m02)
    z = a0 * m13 - a1 * m03 + a3 * m01
    u = -(a0 * m12 - a1 * m02 + a2 * m01)
    trace = 2.0 * g + e + z

    scale = ((a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3) ** 0.5
             * (b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3) ** 0.5
             * (c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3) ** 0.5)
    singular = abs(trace) <= _SINGULAR_REL * scale
    if singular if isinstance(singular, bool) else singular.any():
        raise NoUniqueSteadyStateError(
            "degenerate steady-state system is singular or ill-conditioned; "
            "the transition network likely does not connect all four dot states")
    g, e, z, u = g / trace, e / trace, z / trace, u / trace

    # the factors of 2 are exact: the bits of 4 flp z - 4 flm g - 4 rl flm u
    j = lead_current(2.0 * flp, flm, flm, 2.0 * rl * flm, z, g, g, u)
    power = (x_g - one_minus_eta_c * (x_r - x_l)) * j / gamma_ref
    return power, j, g, e, z, u


def _steady_at(params: ModelParams, x_g: float, x_l: float, x_r: float):
    """The kernel's (power, j, g, rho_e, rho0, u) at one point on Python floats.

    Degenerate levels (delta21 = 0) only.
    """
    return _degenerate_steady(_kernel_constants(params), x_g, x_l, x_r,
                              bose_occupation(x_g), fermi_occupation(x_l),
                              fermi_occupation(x_r))


def steady_observables_grid(params: ModelParams, x_g, x_l, x_r) -> dict:
    """Vectorized steady-state observables over broadcastable scaled energies.

    Returns a dict with arrays ``power`` (units k_B * temp_p * gamma_p),
    ``j`` (converter current) and ``rho12_re``; Im rho12 vanishes for
    degenerate levels.  Supports the degenerate configuration only
    (delta21 = 0), where the steady state has a closed form; tests pin it to
    :func:`qdphotocell.dynamics.steady_state` over the whole search box.
    Raises :class:`NoUniqueSteadyStateError` if any grid point has no unique
    steady state.
    """
    consts = _kernel_constants(params)
    x_g, x_l, x_r = np.broadcast_arrays(
        np.asarray(x_g, dtype=float), np.asarray(x_l, dtype=float),
        np.asarray(x_r, dtype=float))
    if np.any(x_g <= 0.0):
        raise DomainError("x_g must be positive everywhere on the grid")
    power, j, _, _, _, u = _degenerate_steady(
        consts, x_g, x_l, x_r, _bose_array(x_g), _fermi_array(x_l), _fermi_array(x_r))
    return {"power": power, "j": j, "rho12_re": u}


def nelder_mead(fn, x0, step, *, f_rel_tol=1e-9, x_rel_tol=1e-8,
                x_scale=None, max_evals=2000):
    """Deterministic Nelder-Mead minimization with relative tolerances.

    Vertices are tuples of Python floats, each step rounded as a numpy-array
    simplex rounds it, and ``fn`` receives the vertex tuple itself.  The
    simplex is one list of (f, vertex) pairs kept sorted, so every tie is
    ordered deterministically (Lagarias et al., SIAM J. Optim. 9, 112-147,
    1998): ties in f, mostly +-0.0 outside the operating window, break
    lexicographically on the coordinates, and an accepted vertex goes after
    the pairs equal to it, where a stable sort would put it.  Only a shrink
    re-sorts the whole list.

    Parameters
    ----------
    fn : callable
        Objective; must accept a tuple of floats.
    x0 : array
        Initial vertex; the simplex is completed by displacing each
        coordinate by ``step``.
    step : array
        Per-dimension initial displacement.
    f_rel_tol, x_rel_tol : float
        Termination when the simplex function spread falls below
        f_rel_tol * (|best| + tiny) and the coordinate spread below
        x_rel_tol per dimension relative to ``x_scale``.
    x_scale : array, optional
        Reference scale per dimension (defaults to max(|x0|, 1)).

    Returns
    -------
    (x_best, f_best, evals, converged, f_spread, x_spread)
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    if x_scale is None:
        x_scale = np.maximum(np.abs(x0), 1.0)
    scale = np.broadcast_to(np.asarray(x_scale, dtype=float), x0.shape).tolist()
    step = np.asarray(step, dtype=float).tolist()
    x0 = x0.tolist()

    gamma, rho, sigma = 2.0, 0.5, 0.5
    verts = [tuple(x0)]
    for d in range(dim):
        x = list(x0)
        x[d] += step[d]
        verts.append(tuple(x))
    simplex = sorted([(fn(v), v) for v in verts])
    evals = dim + 1
    converged = False

    def x_spread_of(simplex):
        cols = zip(*[v for _, v in simplex])
        return max([(max(col) - min(col)) / s for col, s in zip(cols, scale)])

    while evals < max_evals:
        f_best = simplex[0][0]
        if (simplex[-1][0] - f_best <= f_rel_tol * (abs(f_best) + 1e-300)
                and x_spread_of(simplex) <= x_rel_tol):
            converged = True
            break

        # left-to-right sum, never sum() (compensated on floats since 3.12)
        f_worst, worst = simplex.pop()
        centroid = [reduce(add, col) / dim for col in zip(*[v for _, v in simplex])]
        xr = tuple([c + (c - w) for c, w in zip(centroid, worst)])
        fr = fn(xr); evals += 1
        if f_best <= fr < simplex[-1][0]:
            insort(simplex, (fr, xr))
            continue
        if fr < f_best:
            xe = tuple([c + gamma * (c - w) for c, w in zip(centroid, worst)])
            fe = fn(xe); evals += 1
            insort(simplex, (fe, xe) if fe < fr else (fr, xr))
            continue
        xc = tuple([c + rho * (w - c) for c, w in zip(centroid, worst)])
        fc = fn(xc); evals += 1
        if fc < f_worst:
            insort(simplex, (fc, xc))
            continue
        simplex.append((f_worst, worst))
        best = simplex[0][1]
        for i in range(1, dim + 1):
            v = tuple([b + sigma * (x - b) for b, x in zip(best, simplex[i][1])])
            simplex[i] = (fn(v), v); evals += 1
        simplex.sort()

    fvals = [f for f, _ in simplex]
    f_best, x_best = simplex[0]
    return (np.array(x_best), f_best, evals, converged, max(fvals) - min(fvals),
            x_spread_of(simplex))


@dataclass(frozen=True)
class OptResult:
    """Outcome of a power maximization.

    ``p_max`` is in units of k_B * temp_p * gamma_p.  ``degenerate`` marks an
    empty operating region (no seed produced positive power); ``eta_at_pmax``
    is then None.  ``active_bounds`` lists free variables whose optimum sits
    on the search box within 1e-6 of the range.  ``starts`` counts the
    Nelder-Mead starts run, 0 when degenerate.
    """

    x_opt: dict
    p_max: float
    eta_at_pmax: float | None
    evals: int
    converged: bool
    degenerate: bool = False
    active_bounds: tuple = ()
    f_spread: float = math.nan
    x_spread: float = math.nan
    starts: int = 0


def _validated_options(free, bounds, **options):
    """``(free, box)`` of maximize_power's options: the free names in
    ``_FREE_ORDER`` order and a float (lo, hi) per variable.

    Counts are integers >= their ``_COUNT_LEAST``, tolerances real numbers;
    a boolean is neither.  A malformed value raises DomainError, its message
    led by the option's name (``bounds.<name>`` for one bound).
    """
    for name, value in options.items():
        least = _COUNT_LEAST.get(name)
        if least is None:
            _require_real(name, value)
        elif (isinstance(value, bool) or not isinstance(value, numbers.Integral)
              or value < least):
            raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    try:  # a non-iterable or an unhashable entry; a bare string's letters are no names
        names = set(free)
    except TypeError:
        names = set()
    if not names or not names <= set(_FREE_ORDER):
        raise DomainError("free must be a nonempty sequence of variable names from "
                          f"{_FREE_ORDER}, got {free!r}")
    bounds = {} if bounds is None else bounds
    if not isinstance(bounds, Mapping) or not set(bounds) <= set(_FREE_ORDER):
        raise DomainError(f"bounds must map names from {_FREE_ORDER} to (lo, hi), "
                          f"got {bounds!r}")
    box = {}
    for k in _FREE_ORDER:
        pair = bounds.get(k, DEFAULT_BOUNDS[k])
        is_pair = isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2
        lo, hi = pair if is_pair else (None, None)
        if (any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in (lo, hi))
                or not -math.inf < lo < hi < math.inf):
            raise DomainError(f"bounds.{k} must be a pair of finite numbers with "
                              f"lo < hi, got {pair!r}")
        box[k] = (float(lo), float(hi))
    if box["x_g"][0] <= 0.0:
        raise DomainError("bounds.x_g must have a positive lower bound, "
                          f"got {box['x_g'][0]}")
    return tuple(k for k in _FREE_ORDER if k in names), box


def _ranked_seeds(t_grid, p_grid, top):
    """Rows of ``t_grid`` to refine: the ``top`` best by power ``p_grid``
    (best first, ties broken lexicographically on the coordinates), less
    those without positive power.  Only the rows at or above the ``top``-th
    largest power are sorted."""
    n = p_grid.size
    cut = np.partition(p_grid, n - top)[n - top] if top < n else 0.0
    rows = np.flatnonzero((p_grid >= cut) & (p_grid > 0.0))
    order = np.lexsort(tuple(t_grid[rows].T[::-1]) + (-p_grid[rows],))
    return rows[order[:top]].tolist()


def maximize_power(params: ModelParams, free=("x_l", "x_r"), bounds=None, *,
                   seeds_per_dim: int = 16, refine_top: int = 8,
                   f_rel_tol: float = 1e-9, x_rel_tol: float = 1e-8,
                   max_evals_per_seed: int = 2000) -> OptResult:
    """Maximize output power over the chosen scaled energy variables.

    Multi-start derivative-free search: a coarse deterministic seed grid
    (``seeds_per_dim`` points per free dimension, window-relative in the
    x_r direction), followed by Nelder-Mead refinement of the best seeds in
    rank order.  The refinement stops after the first start whose optimum
    agrees with the best one so far (powers within ``f_rel_tol``, each
    search coordinate within sqrt(``f_rel_tol``) of its range), so two
    starts are the usual case; ``refine_top`` bounds the starts run.  The
    best refined point wins; ties break lexicographically on the coordinates.
    A malformed option raises DomainError (:func:`_validated_options`).
    """
    consts = _kernel_constants(params)
    free, box = _validated_options(
        free, bounds, seeds_per_dim=seeds_per_dim, refine_top=refine_top,
        f_rel_tol=f_rel_tol, x_rel_tol=x_rel_tol, max_evals_per_seed=max_evals_per_seed)
    eta_c = 1.0 - params.temp / params.temp_p
    base = {"x_g": params.x_g, "x_l": params.x_l, "x_r": params.x_r}

    if eta_c <= 0.0:
        # no free-energy source: power <= 0 everywhere
        return OptResult(x_opt={k: base[k] for k in free}, p_max=0.0,
                         eta_at_pmax=None, evals=0, converged=False,
                         degenerate=True)

    window = eta_c / (1.0 - eta_c)
    # slot of x_g, x_l, x_r in the search vector t, None where fixed
    ig, il, ir = (free.index(k) if k in free else None for k in _FREE_ORDER)
    xg0, xl0, xr0 = base.values()

    def decode(t):
        """(x_g, x_l, x_r) of a search vector, or of its rows for a batch."""
        xg = xg0 if ig is None else t[ig]
        xl = xl0 if il is None else t[il]
        if ir is None:
            return xg, xl, xr0
        return xg, xl, xl + xg * (1.0 + t[ir] * window)  # slot ir holds nu

    # clip raw coordinates into their boxes, nu into its margin interval; only
    # a free x_r, decoded from nu, can then leave its box
    r_lo, r_hi = box["x_r"] if ir is not None else (-math.inf, math.inf)
    lo_t, hi_t = zip(*[(_NU_MARGIN, 1.0 - _NU_MARGIN) if name == "x_r" else box[name]
                       for name in free])
    t_lo, t_hi = np.array(lo_t), np.array(hi_t)

    evals = 0

    def neg_power(t):
        # the Nelder-Mead objective: -power inside the box and the converter
        # regime, -0.0 elsewhere
        nonlocal evals
        evals += 1
        t = [lo if v < lo else hi if v > hi else v for v, lo, hi in zip(t, lo_t, hi_t)]
        xg, xl, xr = decode(t)
        if not r_lo <= xr <= r_hi:
            return -0.0
        p = _degenerate_steady(consts, xg, xl, xr, bose_occupation(xg),
                               fermi_occupation(xl), fermi_occupation(xr))[0]
        return -p if p > 0.0 else -0.0

    # ---- seed grid (vectorized) ----
    axes = [np.linspace(lo, hi, seeds_per_dim) for lo, hi in zip(t_lo, t_hi)]
    if ir is not None:
        # strictly interior window points seed better than edge-touching ones
        axes[ir] = np.linspace(0.5 / seeds_per_dim, 1.0 - 0.5 / seeds_per_dim,
                               seeds_per_dim)
    mesh = np.meshgrid(*axes, indexing="ij")
    t_grid = np.stack([m.ravel() for m in mesh], axis=-1)
    xg_a, xl_a, xr_a = np.broadcast_arrays(*decode(t_grid.T))
    obs = steady_observables_grid(params, xg_a, xl_a, xr_a)
    inside = (r_lo <= xr_a) & (xr_a <= r_hi)
    p_grid = np.where(inside & (obs["power"] > 0.0), obs["power"], 0.0)
    evals += t_grid.shape[0]

    seeds = _ranked_seeds(t_grid, p_grid, refine_top)
    if not seeds:
        return OptResult(x_opt={k: base[k] for k in free}, p_max=0.0,
                         eta_at_pmax=None, evals=evals, converged=False,
                         degenerate=True)

    # ---- refinement, until a start agrees with the incumbent ----
    t_range = t_hi - t_lo
    step = 0.05 * t_range
    x_tol = f_rel_tol ** _SAME_BASIN_X_EXP * t_range
    best = None  # (power, decoded point, t, converged, f_spread, x_spread)
    for starts, i in enumerate(seeds, 1):
        t0 = np.minimum(np.maximum(t_grid[i], t_lo + step), t_hi - step)
        tb, fb, used, conv, fs, xs = nelder_mead(
            neg_power, t0, step,
            f_rel_tol=f_rel_tol, x_rel_tol=x_rel_tol,
            x_scale=t_range, max_evals=max_evals_per_seed)
        tb = np.minimum(np.maximum(tb, t_lo), t_hi)
        p, x = -fb, decode(tb)
        agrees = best is not None and (
            abs(p - best[0]) <= f_rel_tol * abs(best[0])
            and bool(np.all(np.abs(tb - best[2]) <= x_tol)))
        if best is None or (-p, x) < (-best[0], best[1]):
            best = (p, x, tb, conv, fs, xs)
        if agrees:
            break
    p_best, (xg, xl, xr), _, conv, fs, xs = best

    x_opt = {name: float(v) for name, v in zip(_FREE_ORDER, (xg, xl, xr)) if name in free}
    active = tuple(
        name for name in free
        if min(abs(x_opt[name] - box[name][0]), abs(x_opt[name] - box[name][1]))
        <= _BOUND_FLAG_FRACTION * (box[name][1] - box[name][0]))
    eta = float(1.0 - (1.0 - eta_c) * (xr - xl) / xg) if p_best > 0.0 else None
    return OptResult(x_opt=x_opt, p_max=float(p_best), eta_at_pmax=eta,
                     evals=evals, converged=bool(conv),
                     degenerate=False, active_bounds=active,
                     f_spread=float(fs), x_spread=float(xs), starts=starts)


@dataclass(frozen=True)
class CurvePoint:
    """One point of an efficiency-at-maximum-power curve."""

    eta_c: float
    eta_ca: float
    eta_at_pmax: float | None
    p_max: float
    x_opt: dict = field(default_factory=dict)
    converged: bool = False
    degenerate: bool = False
    error: str | None = None


def efficiency_at_max_power_curve(base: ModelParams, eta_c_grid,
                                  free=_FREE_ORDER, bounds=None,
                                  **opt_kwargs) -> list[CurvePoint]:
    """Efficiency at maximum power as a function of Carnot efficiency.

    For each eta_c the lead temperature is set to (1 - eta_c) * temp_p with
    the photon temperature held at its base value, the scaled operating
    variables of ``base`` are carried over, and power is maximized over
    ``free``.  Optimizer failures at individual points are recorded as
    flagged gaps and the curve continues.
    """
    points = []
    for eta_c in eta_c_grid:
        eta_c = float(eta_c)
        if not 0.0 < eta_c < 1.0:
            raise DomainError(f"eta_c values must lie in (0, 1), got {eta_c}")
        eta_ca = 1.0 - math.sqrt(1.0 - eta_c)
        params = base.replace(temp=(1.0 - eta_c) * base.temp_p).with_scaled(
            *scaled_energies(base))
        try:
            res = maximize_power(params, free=free, bounds=bounds, **opt_kwargs)
        except NoUniqueSteadyStateError as exc:
            points.append(CurvePoint(eta_c=eta_c, eta_ca=eta_ca,
                                     eta_at_pmax=None, p_max=math.nan,
                                     error=str(exc)))
            continue
        points.append(CurvePoint(
            eta_c=eta_c, eta_ca=eta_ca, eta_at_pmax=res.eta_at_pmax,
            p_max=res.p_max, x_opt=res.x_opt, converged=res.converged,
            degenerate=res.degenerate))
    return points


def grid_search_power(params: ModelParams, free, bounds=None,
                      n_per_dim: int = 400, chunk: int = 65536):
    """Exhaustive rectangular grid search oracle over the original variables.

    Evaluates power on an ``n_per_dim`` grid per free dimension inside the
    box and returns (p_max, coords) with the grid's power clipped at zero
    exactly like the optimizer objective.  Intended as an independent check
    of :func:`maximize_power`, not for production use.
    """
    free, box = _validated_options(free, bounds)
    base = {"x_g": params.x_g, "x_l": params.x_l, "x_r": params.x_r}
    axes = [np.linspace(*box[name], n_per_dim) for name in free]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [m.ravel() for m in mesh]
    total = flat[0].size

    best_p = 0.0
    best_coords = {name: base[name] for name in free}
    for start in range(0, total, chunk):
        sl = slice(start, min(start + chunk, total))
        vals = {**base, **{name: arr[sl] for name, arr in zip(free, flat)}}
        obs = steady_observables_grid(params, vals["x_g"], vals["x_l"], vals["x_r"])
        p = np.where(obs["power"] > 0.0, obs["power"], 0.0)
        k = int(np.argmax(p))
        if p[k] > best_p:
            best_p = float(p[k])
            best_coords = {name: float(vals[name][k]) for name in free}
    return best_p, best_coords
