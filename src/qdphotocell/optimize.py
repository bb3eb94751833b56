"""Power maximization over scaled energy variables.

The output power is positive only inside the operating window
x_g < x_r - x_l < x_g / (1 - eta_c), a thin diagonal strip near equilibrium
that a rectangular seed grid can miss.  So the last free coordinate in
(x_g, x_l, x_r), the window coordinate, is seeded across the window, in
nu in (0, 1) with (x_r - x_l) / x_g = 1 + nu * eta_c / (1 - eta_c).  Of the
coarse seed grid the points at or above the ``refine_top``-th best power
are ranked and refined in rank order by projected Newton ascent in
(x_g, x_l, x_r), whose box is a box, until a start lands in the basin of
the best optimum so far (usually the second), or the seeds are used up.
Newton's stencil, step cap and stop test take the window coordinate's
steps across the window, in units of its width.  No randomness anywhere:
identical configuration produces bit-identical results.

The gradient is exact: a complex step through the closed-form kernel
(:func:`_power_gradient`).  The Hessian is central differences of it.  One
search runs any number of rows (parameter sets sharing the free variables,
box and options) at once (:class:`_Batch`): all rows' seed grids in chunked
array calls, ranked in one sort, then their starts in waves of lanes run in
lockstep, each round one kernel call for every lane's Newton stencil and
one per line-search trial for every lane still searching.  A kernel call
gathers its lanes' constants and takes every occupation through
:func:`_occupations`, at its coordinate's own shape, as every other caller
of the kernel does.  Every step is elementwise in the lanes, so a row's
result is the same alone or inside any batch.  A refused point reads NaN,
the kernel's one refusal signal: it flags only its own row.  Every optimum
carries its certificate: the relative gradient, the Newton step left and
the largest curvature there.

Points with non-positive power (or current flowing backwards) score zero in
the seed grid, and the ascent never leaves positive power, so the maximizer
stays inside the converter regime; a search none of whose seeds has
positive power is reported via the ``degenerate`` flag rather than an error.
"""

from __future__ import annotations

import inspect
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .dynamics import _is_dark_state_degenerate
from .errors import DomainError, NoUniqueSteadyStateError
from .model import (
    INFINITE,
    ModelParams,
    _bose_array,
    _fermi_array,
    _require_real,
)
from .thermo import lead_current

__all__ = [
    "DEFAULT_BOUNDS",
    "OptResult",
    "maximize_power",
    "grid_search_power",
    "steady_observables_grid",
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

# Two refined optima share a basin when their powers agree within f_rel_tol,
# relative, and each search coordinate within f_rel_tol ** _SAME_BASIN_X_EXP of
# its range.  Newton's stop pins a converged start closer than that; the
# square root is how closely a power within f_rel_tol pins a point near a
# maximum, so the test also holds for starts stopped on their power.
_SAME_BASIN_X_EXP = 0.5

# Complex-step size of the gradient: no difference is taken, so any step this
# small gives the derivative to rounding.  _OCC holds the occupations of
# (x_g, x_l, x_r), and _OCC_SIGN turns occ (1 + s occ) into n (1 + n) for the
# Bose and f (1 - f) for the two Fermi occupations.
_CS_STEP = 1e-30
_OCC = (_bose_array, _fermi_array, _fermi_array)
_OCC_SIGN = (1.0, -1.0, -1.0)

# The Hessian is central differences of the gradient over this fraction of
# each search coordinate's range, or of the operating window's width where
# that is less; its O(step^2) error slows Newton's rate but does not move the
# point where the gradient vanishes.
_HESS_STEP = 1e-4

# A Newton step is cut to at most this fraction of each coordinate's step
# unit (_Batch.ascend: a range, or the window's width along its coordinate);
# the line search then halves it at most _BACKTRACKS times and takes the first
# point that gains _ARMIJO of the first-order prediction.
_MAX_STEP = 0.1
_BACKTRACKS = 30
_ARMIJO = 1e-4

# Winning coordinates within this fraction of the box range of an edge are
# reported as active bounds.
_BOUND_FLAG_FRACTION = 1e-6

# The closed-form steady state is refused unless its trace exceeds this
# fraction of the product of the row norms it is built from (or of
# _row_bounds, raised by _ROW_SLACK, where that decides).
_SINGULAR_REL = 1e-12
_ROW_SLACK = 1.5

# Seed grids are evaluated in kernel calls of about this many points, all
# rows' grids in one pass: in-cache arrays keep the kernel near its best
# time per point.
_SEED_CHUNK = 4096
_GRID_CHUNK = 65536  # grid_search_power's points per kernel call
_SINGULAR_MESSAGE = ("degenerate steady-state system is singular or ill-conditioned; "
                     "the transition network likely does not connect all four dot states")


def _kernel_constants(params: ModelParams) -> tuple:
    """The constants :func:`_degenerate_steady` reads, computed once per params.

    (gamma_p, gamma_l, gamma_r, r_p, r_l, 1 - r_p, 1 - r_l, tau / 2,
    1 - eta_c, eta_c), the couplings and tau / 2 in units of gamma_ref
    (gamma_p, or 1 with the photon field off), which leaves the steady state
    as it is, puts power and j per gamma_ref, and makes a coupling that
    overflows in them refuse.  Where Re rho12 is pinned at zero (tau =
    INFINITE or the dark-state corner) the three coherence constants read
    0, 0, -1, which reduces the kernel's coherence row to u = 0.  Raises
    DomainError for split levels (delta21 != 0), which the closed form does
    not cover.
    """
    if params.delta21 != 0.0:
        raise DomainError("the closed-form kernel supports the degenerate "
                          "configuration only (delta21 = 0)")
    gp, gl, rp, rl, tau = params.gamma_p, params.gamma_l, params.r_p, params.r_l, params.tau
    # every rate entry is one of its channel's (gamma, r * gamma) weights times
    # one occupation, so the weights decide the corner as build_generator does
    photon, left = [[gp, rp * gp]] * 2, [[gl, rl * gl]] * 2
    dark = _is_dark_state_degenerate(photon, photon, left, left, 0.0, tau)
    ref = gp if gp > 0.0 else 1.0
    coherence = (0.0, 0.0, -1.0) if tau == INFINITE or dark else (1 - rp, 1 - rl, 0.5 * tau / ref)
    eta_c = 1.0 - params.temp / params.temp_p
    return (gp / ref, gl / ref, params.gamma_r / ref, rp, rl, *coherence, 1.0 - eta_c, eta_c)


def _row_bounds(gp, gl, gr, half_tau, n):
    """Upper bounds on the computed 2-norms of :func:`_degenerate_steady`'s
    ground, excited and coherence rows, at the shape of the constants and n.

    Every row entry is a channel weight times an occupation, f+ + f- = gamma
    on each lead, and r, 1 - r lie in [0, 1]; so the rows' 1-norms are at
    most u_a = gamma_p (3 n + 1) + 2 gamma_l, u_b = gamma_p (6 n + 2) +
    gamma_r and u_c = u_a + |tau / 2| (also for the pinned row u = 0), with
    n = Re n > 0.  Raised by _ROW_SLACK, a bound's square covers a computed
    sum of squares up to twice the exact one (squares rounding up in the
    subnormal range) and the ulps of both; squared, it overflows wherever
    its row's sum of squares does.
    """
    n = n.real
    u_a = _ROW_SLACK * (gp * (3.0 * n + 1.0) + 2.0 * gl)
    u_b = _ROW_SLACK * (gp * (6.0 * n + 2.0) + gr)
    u_c = u_a + _ROW_SLACK * abs(half_tau)
    return (u_a * u_a) ** 0.5, (u_b * u_b) ** 0.5, (u_c * u_c) ** 0.5


def _degenerate_steady(consts, x_g, x_l, x_r, n, fl, fr):
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
    cancellation where the dot is nearly full.  For tau = INFINITE and in
    the dark-state corner the constants make the coherence row read u = 0,
    which selects the decoherence-continuity branch of its two-dimensional
    kernel; floats, arrays, stacked rows and complex steps share this path.

    Returns (power, j, g, rho_e, rho0, u) and never raises.  A point is
    refused unless |Re trace| exceeds _SINGULAR_REL times the product of
    the 2-norms of its three rows' real parts, so also where that is NaN;
    its trace is then NaN, which the division carries into all six outputs,
    both parts where complex, silently.  Every other point keeps the bits
    it has alone.  A complex step (:func:`_power_gradient`) is thus refused
    where its real point is.  The norms are computed only when some trace
    does not clear the same fraction of :func:`_row_bounds`, which no
    computed norm exceeds.  ``consts`` may be a (constant, ...) array, one
    entry per point (a batch of rows).
    """
    gp, gl, gr, rp, rl, kp, kl, half_tau, one_minus_eta_c, _ = consts
    with np.errstate(over="ignore", invalid="ignore"):
        bp = gp * n
        bm = gp * (1.0 + n)
        flp = gl * fl
        flm = gl * (1.0 - fl)
        frp = gr * fr
        frm = gr * (1.0 - fr)

        # rows of build_generator with rho1 = rho2 = g substituted, columns
        # (g, rho_e, rho0, u): half the ground row, half the excited row, and
        # the coherence row minus the full ground row.  The last is the
        # coherence row's departure from the dark-state corner, where it
        # vanishes; written through 1 - r_p and 1 - r_l it keeps full
        # precision there, where the coherence row nearly repeats the ground one.
        # a0, a3, b1 and c3 are negative and held by their magnitudes na0 =
        # -a0, na3, nb1 and nc3, and m03, m12 and m23 by n03 = -m03, n12 and
        # n23, so no pass only negates.  Rounding to nearest is symmetric
        # under negation, so each minor and cofactor keeps its bits but for
        # the sign of an exact zero (x - x is +0 either way) or of a NaN: g,
        # e or z can read 0 of the other sign where a level is unreachable.
        # u keeps its outer negation, so a pinned Re rho12 keeps its signed zero.
        na0, a1, a2, na3 = bp + flm, bm, flp, rp * bp + rl * flm
        b0, nb1, b2, b3 = 2.0 * bp, 2.0 * bm + frm, frp, 2.0 * rp * bp
        c0 = kp * bp + kl * flm
        c1, c2, nc3 = -kp * bm, -kl * flp, c0 + half_tau

        # 2x2 minors of the excited and coherence rows, then cofactor
        # expansion along the ground row
        m01 = b0 * c1 + nb1 * c0
        m02 = b0 * c2 - b2 * c0
        n03 = b0 * nc3 + b3 * c0
        n12 = nb1 * c2 + b2 * c1
        m13 = nb1 * nc3 - b3 * c1
        n23 = b2 * nc3 + b3 * c2
        g = na3 * n12 - (a1 * n23 + a2 * m13)
        e = na3 * m02 - (na0 * n23 + a2 * n03)
        z = a1 * n03 - na0 * m13 - na3 * m01
        u = -(na0 * n12 - a1 * m02 + a2 * m01)
        trace = 2.0 * g + e + z
        size = abs(trace.real)
        # a row whose squares overflow reads an inf or NaN bound and norm and refuses
        cleared = size > _SINGULAR_REL * math.prod(_row_bounds(gp, gl, gr, half_tau, n))
        if not (cleared if isinstance(cleared, bool) else cleared.all()):
            scale = math.prod(sum(v.real * v.real for v in row) ** 0.5
                              for row in ((na0, a1, a2, na3), (b0, nb1, b2, b3), (c0, c1, c2, nc3)))
            trace = np.where(size > _SINGULAR_REL * scale, trace, math.nan)
        g, e, z, u = g / trace, e / trace, z / trace, u / trace

        # the factors of 2 are exact where no product is subnormal: the bits
        # of 4 flp z - 4 flm g - 4 rl flm u
        j = lead_current(2.0 * flp, flm, flm, 2.0 * rl * flm, z, g, g, u)
    return (x_g - one_minus_eta_c * (x_r - x_l)) * j, j, g, e, z, u


def _solved(out):
    """The kernel's outputs ``out`` if no point is refused (reads NaN)."""
    if np.isnan(out[0]).any():
        raise NoUniqueSteadyStateError(_SINGULAR_MESSAGE)
    return out


def _occupations(x):
    """The Bose occupation at x_g and the Fermi ones at x_l and x_r, of
    ``x`` = (x_g, x_l, x_r), at their real parts and their own shapes; a
    0-d occupation as a Python float, whose arithmetic costs no array call."""
    occ = [f(np.real(v)) for f, v in zip(_OCC, x)]
    return [o if o.ndim else float(o) for o in occ]


def steady_observables_grid(params: ModelParams, x_g, x_l, x_r) -> dict:
    """Vectorized steady-state observables over broadcastable scaled energies.

    Returns a dict with arrays ``power`` (units k_B * temp_p * gamma_ref),
    ``j`` (converter current per gamma_ref; gamma_ref is gamma_p, or 1 with
    the photon field off) and ``rho12_re``; Im rho12 vanishes for
    degenerate levels.  The inputs are not expanded: each occupation and
    each term of the kernel is computed at the shape of the inputs it reads
    (a scalar x_g once, open-mesh axes once per axis value), and numpy
    broadcasts them inside the kernel, so the outputs take the broadcast
    shape of (x_g, x_l, x_r).  Supports the degenerate configuration only
    (delta21 = 0), where the steady state has a closed form; tests pin it to
    :func:`qdphotocell.dynamics.steady_state` over the whole search box.
    Raises DomainError for inputs that do not broadcast together, are not
    finite, or have x_g <= 0, and :class:`NoUniqueSteadyStateError` if the
    kernel refuses any grid point (:func:`_solved`).
    """
    consts = _kernel_constants(params)
    x_g, x_l, x_r = x = [np.asarray(v, dtype=float) for v in (x_g, x_l, x_r)]
    try:
        np.broadcast_shapes(x_g.shape, x_l.shape, x_r.shape)
    except ValueError:
        raise DomainError(f"x_g, x_l and x_r must broadcast together, got shapes "
                          f"{x_g.shape}, {x_l.shape} and {x_r.shape}") from None
    # a NaN reads NaN in both reductions; initial lets an empty grid pass
    if not all(math.isfinite(v.min(initial=0.0)) and math.isfinite(v.max(initial=0.0))
               for v in x):
        raise DomainError("x_g, x_l and x_r must be finite everywhere on the grid")
    if (x_g <= 0.0).any():
        raise DomainError("x_g must be positive everywhere on the grid")
    # a 0-d coordinate goes in as a float, so its terms cost no array call
    x = [v if v.ndim else float(v) for v in x]
    power, j, _, _, _, u = _solved(_degenerate_steady(consts, *x, *_occupations(x)))
    return {"power": np.asarray(power), "j": np.asarray(j), "rho12_re": np.asarray(u)}


def _power_gradient(consts, points):
    """Derivatives of the power by complex step through :func:`_degenerate_steady`.

    ``points`` holds (x_g, x_l, x_r), each at its own shape, and their
    occupations are :func:`_occupations`'.  A complex coordinate is a point
    in its real part and ``_CS_STEP`` times the tangent of one search
    direction in its imaginary part, and its occupation is continued to
    first order, n' = -n (1 + n) and f' = -f (1 - f); a real one is fixed
    along every direction.  Im(power) / ``_CS_STEP`` is the directional
    derivative, exact to rounding since no difference is taken (Squire &
    Trapp, SIAM Rev. 40, 110-112, 1998); NaN where the real point is refused.
    """
    occ = [o - 1j * (o * (1.0 + s * o)) * x.imag if np.iscomplexobj(x) else o
           for x, o, s in zip(points, _occupations(points), _OCC_SIGN)]
    return _degenerate_steady(consts, *points, *occ)[0].imag / _CS_STEP


@dataclass(frozen=True)
class OptResult:
    """Outcome of a power maximization.

    ``p_max`` is in units of k_B * temp_p * gamma_p, and ``j`` (per gamma_ref,
    as in :func:`steady_observables_grid`) and ``rho12_re`` are the kernel's
    at the optimum, from the kernel call that gave ``p_max``.  ``degenerate``
    means no seed had positive power; ``eta_at_pmax`` is then None and ``j``
    and ``rho12_re`` NaN.  ``active_bounds`` lists free variables whose
    optimum sits on the search box within 1e-6 of the range.  ``starts``
    counts the Newton starts run, 0 when degenerate.

    The certificate is taken at the optimum, in the free variables among
    (x_g, x_l, x_r) that are not held at a bound: ``grad_rel`` is
    max |dP/dx_i| / P, ``newton_step`` max |H^-1 grad P| (the distance left
    to the stationary point; where H is not negative definite, the gradient
    step of _MAX_STEP of a step unit) and ``max_curvature`` the largest
    eigenvalue of H, negative at a strict maximum.  All three are NaN when
    degenerate; with every coordinate at a bound the first two are 0 and
    ``max_curvature`` is NaN.
    """

    x_opt: dict
    p_max: float
    eta_at_pmax: float | None
    evals: int
    converged: bool
    degenerate: bool = False
    active_bounds: tuple = ()
    grad_rel: float = math.nan
    newton_step: float = math.nan
    max_curvature: float = math.nan
    starts: int = 0
    j: float = math.nan
    rho12_re: float = math.nan


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


def _ranked_seeds(p_grid, top):
    """Per row of ``p_grid``, a (rows, n) stack of powers at the n points of
    a grid in C order on increasing axes, the points to refine: the ``top``
    best by power (best first, ties broken lexicographically on the
    coordinates, which is index order), less those without positive power.
    One sort finds each row's ``top``-th largest power; the entries at or
    above it, of every row, go to one stable lexsort keyed on row and power,
    and each row is cut at ``top``."""
    n_rows, n = p_grid.shape
    cuts = np.sort(p_grid, axis=1)[:, n - top] if top < n else np.zeros(n_rows)
    # rows ascending, and each row's indices ascending
    rows, at = np.nonzero((p_grid >= cuts[:, None]) & (p_grid > 0.0))
    order = np.lexsort((-p_grid[rows, at], rows))
    first, at = np.searchsorted(rows, np.arange(n_rows + 1)).tolist(), at[order].tolist()
    return [at[a:min(a + top, b)] for a, b in zip(first, first[1:])]


def _cholesky_solve(a, b):
    """x with a x = b in every lane at once, for ``a`` a (d, d, m) stack of
    symmetric matrices and ``b`` a (d, m) array, lane axis last, and the
    mask of the lanes where ``a`` is positive definite; x, (d, m), is
    meaningless in the others."""
    n, ok = len(b), np.ones(len(b[0]), dtype=bool)
    low, x = np.zeros_like(a), np.array(b)
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j]
            for k in range(j):
                s = s - low[i][k] * low[j][k]
            if i > j:
                low[i][j] = s / low[j][j]
            else:
                ok &= s > 0.0
                low[i][i] = np.sqrt(np.where(s > 0.0, s, 1.0))
    for i in range(n):
        for k in range(i):
            x[i] = x[i] - low[i][k] * x[k]
        x[i] = x[i] / low[i][i]
    for i in reversed(range(n)):
        for k in range(i + 1, n):
            x[i] = x[i] - low[k][i] * x[k]
        x[i] = x[i] / low[i][i]
    return x, ok


class _Starts:
    """The refined starts of one row, taken in rank order, and its stop rule.

    Two optima share a basin when their powers agree within ``f_rel_tol``
    and each search coordinate within f_rel_tol ** _SAME_BASIN_X_EXP of its
    range ``span``; the first start that agrees with the incumbent ends the
    row, as does the last seed.  A start displaces the incumbent only with
    a power more than ``f_rel_tol`` higher, so the better-ranked seed wins
    a tie, which rounding alone decides.
    """

    def __init__(self, seeds, span, f_rel_tol):
        self.seeds, self.span, self.f_rel_tol = seeds, span, f_rel_tol
        self.x_tol = [f_rel_tol ** _SAME_BASIN_X_EXP * s for s in span]
        self.best, self.starts, self.evals = None, 0, 0

    def add(self, t, p, evals, *found):
        """Take the next start's optimum: search vector ``t`` (a tuple of
        floats), power ``p``, its evaluations and its (j, u, converged,
        grad_rel, newton_step, hess); True once the row is done."""
        self.starts, self.evals = self.starts + 1, self.evals + evals
        best = self.best
        agrees = best is not None and (
            abs(p - best[0]) <= self.f_rel_tol * abs(best[0])
            and all(abs(a - b) <= tol for a, b, tol in zip(t, best[1], self.x_tol)))
        if best is None or p - best[0] > self.f_rel_tol * abs(best[0]):
            self.best = (p, t, found)
        return agrees or self.starts == len(self.seeds)


def _take(lanes, keep):
    """The lanes (a dict of arrays, lane axis last) where ``keep`` holds,
    ``lanes`` itself, not a copy, where it holds for every lane."""
    return lanes if keep.all() else {k: v[..., keep] for k, v in lanes.items()}


class _Batch:
    """The rows of one batched search, their shared frame, and the lockstep
    ascent of all their starts.

    Search coordinates t hold the free names in ``_FREE_ORDER`` order, in
    the box of those names; the others stay at each row's (x_g, x_l, x_r).
    Arrays of search vectors are (d, ..., m), one entry per coordinate and
    the lane axis last, read with an array of the rows of the lanes.
    ``consts``, the rows' :func:`_kernel_constants` as one (constant, row)
    array, is gathered for the lanes of each kernel call, which reads its
    points' occupations through :func:`_occupations`; its eta_c and
    1 - eta_c give each row's window and eta at the optimum.  Every step is
    elementwise in the lanes, so a row's result does not depend on the rows
    beside it.
    """

    def __init__(self, params, consts, free, box, seeds_per_dim, refine_top, f_rel_tol,
                 x_rel_tol, max_evals_per_seed):
        self.free, self.box, self.spd, self.top = free, box, seeds_per_dim, refine_top
        self.f_rel_tol, self.x_rel_tol, self.max_evals = f_rel_tol, x_rel_tol, max_evals_per_seed
        self.slots = tuple(free.index(k) if k in free else None for k in _FREE_ORDER)
        self.k_win = _FREE_ORDER.index(free[-1])  # the window coordinate, the last free one
        lo, hi = zip(*[box[k] for k in free])
        self.lo, self.hi = np.array(lo)[:, None], np.array(hi)[:, None]
        self.span = self.hi - self.lo
        self.steps = 1j * _CS_STEP * np.eye(len(free))[:, None, :, None]
        self.consts = consts
        self.base = np.array([(p.x_g, p.x_l, p.x_r) for p in params]).T
        self.window = consts[9] / consts[8]  # eta_c / (1 - eta_c) of each row
        self.flagged = np.zeros(len(params), dtype=bool)

    def decode(self, t, rows):
        """(x_g, x_l, x_r) of search vectors of the rows ``rows``."""
        return tuple(self.base[k, rows] if s is None else t[s] for k, s in enumerate(self.slots))

    def power(self, rows, *x):
        """The kernel's (power, j, u) at decoded points ``x`` of the rows
        ``rows`` in one array call; the rows of refused points are flagged."""
        power, j, _, _, _, u = _degenerate_steady(self.consts[:, rows], *x, *_occupations(x))
        self._flag(rows, power)
        return power, j, u

    def _flag(self, rows, values):
        bad = np.isnan(values)
        if bad.any():
            self.flagged[np.broadcast_to(rows, bad.shape)[bad]] = True

    def window_point(self, t, rows):
        """(x_g, x_l, x_r) of search vectors ``t`` of the rows ``rows`` whose
        window coordinate x_k holds nu, at which
        q = (x_r - x_l) / x_g = 1 + nu * eta_c / (1 - eta_c) gives
        x_g = (x_r - x_l) / q, x_l = x_r - x_g q or x_r = x_l + x_g q."""
        x = list(self.decode(t, rows))
        xg, xl, xr = x
        q = 1.0 + t[-1] * self.window[rows]
        k = self.k_win
        x[k] = (xr - xl) / q if k == 0 else xr - xg * q if k == 1 else xl + xg * q
        return x

    def grid_power(self, axes):
        """The seed-grid power of every row, (rows, points) with the points
        in the C order of the grid on ``axes`` (the window coordinate's in nu).

        A point scores zero where its decoded window coordinate lies outside
        that coordinate's box (the kernel sees it clipped into the box) and
        where its power is not positive.  The grid is evaluated on its axes,
        an open mesh (``np.ix_``) with the rows on a leading axis, so each
        term of the kernel is computed once per value of the coordinates it
        reads; all rows' grids go in kernel calls of about _SEED_CHUNK points.
        """
        k, (lo, hi) = self.k_win, self.box[self.free[-1]]
        n_rows, size, mesh = len(self.window), math.prod(map(len, axes)), np.ix_(*axes)
        p_grid = np.empty((n_rows, size))
        per = max(1, _SEED_CHUNK // size)
        for first in range(0, n_rows, per):
            rows = np.arange(first, min(first + per, n_rows)).reshape((-1,) + (1,) * len(axes))
            x = self.window_point(mesh, rows)
            decoded, x[k] = x[k], np.minimum(np.maximum(x[k], lo), hi)
            power = self.power(rows, *x)[0]
            p_grid[first:first + per] = np.where((x[k] == decoded) & (power > 0.0),
                                                 power, 0.0).reshape(len(rows), size)
        return p_grid

    def seed(self):
        """The seed grid of every row and each row's ranked seeds.

        The window coordinate is gridded in nu (:meth:`window_point`), and
        :meth:`grid_power` scores the grid in C order, whose flat indices
        the ranking and the parabola moves read.  Returns (points per
        grid, seed indices per row, starts), starts (d, n) holding each ranked
        seed of every row, in row and rank order, moved along each grid axis
        by at most half a grid step to the vertex of the parabola through its
        power and its two grid neighbours', where all three are positive and
        the parabola opens down, then decoded and clipped into the box.  Not
        along x_g, nor along nu where x_g is the window coordinate: across its
        coarse grid the power is far from quadratic, and moving x_g too made
        fig3-like 3-D runs longer.
        """
        spd, ig = self.spd, self.slots[0]
        axes = [np.linspace(lo, hi, spd) for lo, hi in zip(self.lo[:, 0], self.hi[:, 0])]
        # strictly interior window points seed better than edge-touching ones
        axes[-1] = np.linspace(0.5 / spd, 1.0 - 0.5 / spd, spd)
        size, p_grid = spd ** len(axes), self.grid_power(axes)
        seeds = _ranked_seeds(p_grid, self.top)

        rows = np.array([r for r, s in enumerate(seeds) for _ in s], dtype=int)
        at = np.array([i for s in seeds for i in s], dtype=int)
        index = np.unravel_index(at, (spd,) * len(axes))
        starts = np.array([axis[i] for axis, i in zip(axes, index)])
        for j, axis in enumerate(axes):
            if j == ig:
                continue
            stride = spd ** (len(axes) - 1 - j)
            inner = (index[j] > 0) & (index[j] < spd - 1)
            pm, p0, pp = (p_grid[rows, np.where(inner, at + k * stride, at)] for k in (-1, 0, 1))
            bend = pm - 2.0 * p0 + pp
            move = inner & (pm > 0.0) & (pp > 0.0) & (bend < 0.0)
            shift = np.minimum(np.maximum(0.5 * (pm - pp) / np.where(move, bend, -1.0), -0.5), 0.5)
            starts[j] = np.where(move, starts[j] + shift * float(axis[1] - axis[0]), starts[j])
        starts[-1] = self.window_point(starts, rows)[self.k_win]
        return size, seeds, np.minimum(np.maximum(starts, self.lo), self.hi)

    def ascend(self, lanes):
        """One lockstep round of projected Newton ascent over ``lanes``.

        ``lanes`` maps row, rank (of the lane's seed in its row), t, p, j
        and u (the kernel's power, j and Re rho12 at t), evals and polished
        (the last step a full Newton step taken without the line search) to
        arrays over the m lanes.  Every per-coordinate quantity is a
        (coordinate, lane) array: t, the gradient, the free mask and the step
        (d, m), the Hessian (d, d, m).
        A round evaluates every lane's stencil in one gradient call: the
        points of t and of one point either side of it along each
        coordinate, each with one imaginary step per coordinate
        (:func:`_power_gradient`), not expanded: a free coordinate is
        complex, (2 d + 1, d, m), and a fixed one real, (m,).  On the
        coordinates not held at a bound (Bertsekas, SIAM J. Control Optim.
        20, 221-246, 1982) the step is Newton's, or the gradient cut to
        _MAX_STEP where -H is not positive definite; a backtracking line
        search, one kernel call per trial for all lanes still searching, each
        trial clipped into the box, takes it.  A coordinate steps in units of its range, the window
        coordinate x_k in units of the window's width W along it, capped at
        its range, measured across the window as the step of x_k alone that
        moves q = (x_r - x_l) / x_g as far: near equilibrium the window is a
        strip far thinner than any range.  The Hessian is central
        differences over _HESS_STEP of each unit, and of W where that is less,
        but at least an ulp of t, so that even a window or a box too thin to
        resolve has a stencil of nonzero width.

        A lane stops, converged, where H is negative definite on the free
        coordinates and the Newton step is within ``x_rel_tol`` of a unit,
        or where a full Newton step with a decrement g.(-H)^-1.g within
        ``f_rel_tol`` of the power, a gain the kernel cannot resolve and so
        taken without the line search, is followed by another such.  It
        stops unconverged when the line search fails or its evaluations
        (stencil points and trials) reach ``max_evals_per_seed``.

        Returns the lanes left and, per stopped lane, (row, rank, t, p,
        evals, j, u, converged, grad_rel, newton_step, hess): t a tuple of
        floats, and the certificate at t as in :class:`OptResult`, the
        Hessian on the free coordinates in place of its largest eigenvalue.
        """
        dim = len(self.free)
        rows, t = lanes["row"], lanes["t"]
        unit = self.span.repeat(len(rows), axis=1)
        xg, xl, xr = self.decode(t, rows)
        # slope = |dq/dx_k| x_g for the window coordinate x_k, q = (x_r - x_l) / x_g:
        # the window's width along x_k is x_g eta_c / (1 - eta_c) over it, and a
        # step crosses the window by |dx_r - dx_l - dx_g q| = |dx_k| slope
        slope = (xr - xl) / xg if self.k_win == 0 else 1.0
        unit[-1] = np.minimum(xg * self.window[rows] / slope, self.span[-1])
        cross = unit[-1] * slope
        reach = np.maximum(_HESS_STEP * np.minimum(self.span, unit[-1]), np.spacing(np.abs(t)))
        up, down = np.minimum(t + reach, self.hi), np.maximum(t - reach, self.lo)
        stencil, j = np.repeat(t[:, None, None], 2 * dim + 1, axis=1), np.arange(dim)
        stencil[j, 1 + 2 * j, 0], stencil[j, 2 + 2 * j, 0] = up, down
        grad = _power_gradient(self.consts[:, rows], self.decode(stencil + self.steps, rows))
        self._flag(rows, grad)
        width, keep = up - down, ~self.flagged[rows]
        if not keep.all():
            lanes, grad, unit = _take(lanes, keep), grad[..., keep], unit[:, keep]
            width, cross = width[:, keep], cross[keep]
        rows, t, p = lanes["row"], lanes["t"], lanes["p"]
        lanes["evals"] = lanes["evals"] + (2 * dim + 1) * dim
        # slope[j, i]: the central difference of dP/dt_i along t_j
        g, slope = grad[0], (grad[1::2] - grad[2::2]) / width[:, None]
        hess = 0.5 * (slope.swapaxes(0, 1) + slope)
        free = ~((t <= self.lo) & (g < 0.0) | (t >= self.hi) & (g > 0.0))

        # the Newton step on the free coordinates, in their step units
        gs = np.where(free, g * unit, 0.0)
        neg_h = np.where(free[:, None] & free, -hess * unit[:, None] * unit,
                         np.eye(dim)[:, :, None])
        x, ok = _cholesky_solve(neg_h, gs)
        # where -H is not positive definite there, the gradient step cut to _MAX_STEP
        top = np.max(np.abs(gs), axis=0)
        x = np.where(ok, x, gs * (_MAX_STEP / np.where(top > 0.0, top, 1.0)))
        dx, decrement = x * unit, sum(gs * x)
        # the window coordinate's step across the window
        extent, (xg, xl, xr) = np.abs(x), self.decode(t, rows)
        dg, dl, dr = (0.0 if k is None else dx[k] for k in self.slots)
        extent[-1] = np.abs(dr - dl - dg * (xr - xl) / xg) / cross
        step = np.max(extent, axis=0)
        newton = ok & (decrement <= self.f_rel_tol * p)
        converged = ok & ((step <= self.x_rel_tol) | lanes["polished"] & newton)
        stop = converged | (lanes["evals"] >= self.max_evals) | (step == 0.0)

        # the line search: a full Newton step below resolution is taken untried
        move = np.minimum(1.0, _MAX_STEP / np.where(stop, 1.0, step)) * dx
        searching = ~stop
        for k in range(_BACKTRACKS):
            idx = np.flatnonzero(searching)
            if not idx.size:
                break
            trial = np.minimum(np.maximum(t[:, idx] + 0.5 ** k * move[:, idx], self.lo), self.hi)
            p_trial, j_trial, u_trial = self.power(rows[idx], *self.decode(trial, rows[idx]))
            lanes["evals"][idx] += 1
            gain = sum(g[:, idx] * (trial - t[:, idx]))
            took = ~np.isnan(p_trial) & (newton[idx] | (p_trial > p[idx])
                                         & (p_trial - p[idx] >= _ARMIJO * gain))
            hit = idx[took]
            t[:, hit], p[hit], lanes["polished"][hit] = trial[:, took], p_trial[took], newton[hit]
            lanes["j"][hit], lanes["u"][hit] = j_trial[took], u_trial[took]
            searching[idx[took | newton[idx] | np.isnan(p_trial)]] = False
        done = (stop | searching) & ~self.flagged[rows]

        stopped = []
        if done.any():
            free_done = free[:, done]
            newton_step = np.max(np.where(free_done, np.abs(dx[:, done]), 0.0), axis=0)
            grad_rel = np.max(np.where(free_done, np.abs(g[:, done]), 0.0), axis=0) / p[done]
            for k, lane in enumerate(np.flatnonzero(done).tolist()):
                kept = free[:, lane]
                stopped.append((int(rows[lane]), int(lanes["rank"][lane]),
                                tuple(t[:, lane].tolist()), float(p[lane]),
                                int(lanes["evals"][lane]), float(lanes["j"][lane]),
                                float(lanes["u"][lane]), bool(converged[lane]),
                                float(grad_rel[k]), float(newton_step[k]),
                                hess[kept][:, kept, lane].tolist()))
        return _take(lanes, ~done & ~self.flagged[rows]), stopped

    def run(self):
        """One OptResult, or the NoUniqueSteadyStateError that flags it, per row.

        The starts run in waves, every lane of a wave in lockstep: the
        first wave holds each row's two best seeds, and a row whose starts
        disagree so far (:class:`_Starts`) has its next seed in the next
        wave.  A wave's starting powers, j and u take one kernel call.
        Lanes are independent, so a row's result does not depend on the
        wave its starts run in.
        """
        size, seeds, starts = self.seed()
        first = np.cumsum([0] + [len(s) for s in seeds]).tolist()
        span = self.span[:, 0].tolist()
        books = [_Starts(s, span, self.f_rel_tol) for s in seeds]
        wave = [(r, k) for r, s in enumerate(seeds) if not self.flagged[r]
                for k in range(min(2, len(s)))]
        while wave:
            m, (rows, ranks) = len(wave), np.array(wave, dtype=int).T
            t = starts[:, [first[r] + k for r, k in wave]]
            p, j, u = self.power(rows, *self.decode(t, rows))
            lanes = {"row": rows, "rank": ranks, "t": t, "p": p, "j": j, "u": u,
                     "evals": np.ones(m, dtype=int), "polished": np.zeros(m, dtype=bool)}
            finished = {}
            while lanes["row"].size:
                lanes, stopped = self.ascend(lanes)
                for row, *result in stopped:
                    finished.setdefault(row, []).append(result)
            # a row's starts go to its stop rule in rank order; a row they
            # leave undecided runs its next seed in the next wave
            wave = [(row, books[row].starts) for row, found in sorted(finished.items())
                    if not self.flagged[row]
                    and not any(books[row].add(*result) for _, *result in sorted(found))]
        return self.results(books, size)

    def results(self, books, size):
        """The OptResult of each row from its starts, or the error that flags it."""
        out = []
        for row, book in enumerate(books):
            if self.flagged[row]:
                out.append(NoUniqueSteadyStateError(_SINGULAR_MESSAGE))
                continue
            base = dict(zip(_FREE_ORDER, self.base[:, row].tolist()))
            if book.best is None:  # no seed had positive power
                out.append(OptResult(x_opt={k: base[k] for k in self.free}, p_max=0.0,
                                     eta_at_pmax=None, evals=size, converged=False,
                                     degenerate=True))
                continue
            p, t, (j, u, conv, grad_rel, newton_step, hess) = book.best
            x_opt = dict(zip(self.free, t))
            xg, xl, xr = {**base, **x_opt}.values()
            box = self.box
            active = tuple(k for k in self.free
                           if min(abs(x_opt[k] - box[k][0]), abs(x_opt[k] - box[k][1]))
                           <= _BOUND_FLAG_FRACTION * (box[k][1] - box[k][0]))
            eta = 1.0 - float(self.consts[8, row]) * (xr - xl) / xg if p > 0.0 else None
            out.append(OptResult(
                x_opt=x_opt, p_max=p, eta_at_pmax=eta, evals=size + book.evals,
                converged=conv, degenerate=False, active_bounds=active,
                grad_rel=grad_rel, newton_step=newton_step,
                max_curvature=float(np.linalg.eigvalsh(hess)[-1]) if hess else math.nan,
                starts=book.starts, j=j, rho12_re=u))
        return out


def _maximize_rows(params, free=("x_l", "x_r"), bounds=None, **options):
    """:func:`maximize_power` of every ModelParams in ``params`` at once, in
    one batched search: one OptResult per params, or the QdpcError that
    flags its row (a refused steady state, or split levels).  A malformed
    option, the same for every row, raises DomainError before any row runs.
    Each row's result is the one :func:`maximize_power` gives it alone, bit
    for bit."""
    args = _MAXIMIZE.bind(None, free, bounds, **options)
    args.apply_defaults()
    options = {k: v for k, v in args.arguments.items() if k not in ("params", "free", "bounds")}
    free, box = _validated_options(free, bounds, **options)
    out, live, consts = [None] * len(params), [], []
    for k, p in enumerate(params):
        try:
            c = _kernel_constants(p)
        except DomainError as exc:
            out[k] = exc
            continue
        if c[9] <= 0.0:
            # no free-energy source (eta_c <= 0): power <= 0 everywhere
            out[k] = OptResult(x_opt={name: getattr(p, name) for name in free},
                               p_max=0.0, eta_at_pmax=None, evals=0,
                               converged=False, degenerate=True)
        else:
            live.append(k)
            consts.append(c)
    if live:
        batch = _Batch([params[k] for k in live], np.array(consts).T, free, box, **options)
        for k, res in zip(live, batch.run()):
            out[k] = res
    return out


def maximize_power(params: ModelParams, free=("x_l", "x_r"), bounds=None, *,
                   seeds_per_dim: int = 16, refine_top: int = 8,
                   f_rel_tol: float = 1e-9, x_rel_tol: float = 1e-8,
                   max_evals_per_seed: int = 2000) -> OptResult:
    """Maximize output power over the chosen scaled energy variables.

    Multi-start Newton search: a coarse deterministic seed grid
    (``seeds_per_dim`` points per free dimension, window-relative along the
    last free one), then projected Newton ascent (:meth:`_Batch.ascend`)
    from the best seeds in rank order, each moved first to the vertex of a
    parabola through its grid neighbours.  The starts run in waves
    (:meth:`_Batch.run`): the two best seeds together, then one more seed
    per wave.  The refinement stops after the first start whose optimum
    agrees with the best one so far (powers within ``f_rel_tol``, each
    search coordinate within sqrt(``f_rel_tol``) of its range), so two
    starts are the usual case; ``refine_top`` bounds the starts run, and
    ``max_evals_per_seed`` the kernel evaluations of each.  The best
    refined point wins; powers within ``f_rel_tol`` of each other tie, and
    the better-ranked seed wins a tie, since rounding alone orders them.  A
    malformed option raises DomainError (:func:`_validated_options`).  This
    is the one-row case of the batched search the sweeps run, and it gives
    a row exactly what the row gets inside any sweep.
    """
    (res,) = _maximize_rows([params], free, bounds, seeds_per_dim=seeds_per_dim,
                            refine_top=refine_top, f_rel_tol=f_rel_tol,
                            x_rel_tol=x_rel_tol, max_evals_per_seed=max_evals_per_seed)
    if isinstance(res, Exception):
        raise res
    return res


_MAXIMIZE = inspect.signature(maximize_power)


def grid_search_power(params: ModelParams, free, bounds=None, n_per_dim: int = 400):
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
    for start in range(0, total, _GRID_CHUNK):
        sl = slice(start, min(start + _GRID_CHUNK, total))
        vals = {**base, **{name: arr[sl] for name, arr in zip(free, flat)}}
        obs = steady_observables_grid(params, vals["x_g"], vals["x_l"], vals["x_r"])
        p = np.where(obs["power"] > 0.0, obs["power"], 0.0)
        k = int(np.argmax(p))
        if p[k] > best_p:
            best_p = float(p[k])
            best_coords = {name: float(vals[name][k]) for name in free}
    return best_p, best_coords
