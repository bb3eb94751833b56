"""Power maximization over scaled energy variables.

The output power is positive only inside the operating window
x_g < x_r - x_l < x_g / (1 - eta_c), which collapses to a thin diagonal
strip near equilibrium.  A plain rectangular seed grid in (x_l, x_r) can
miss the strip entirely, so whenever x_r is free the search runs in
window-relative coordinates: x_r = x_l + x_g * (1 + nu * eta_c / (1 - eta_c))
with nu in (0, 1).  Seeding uses a coarse grid per free dimension, of which
only the points at or above the ``refine_top``-th best power are ranked.
The best seeds are refined in rank order by projected Newton ascent until a
start lands in the basin of the best optimum so far (usually the second
start), or the ``refine_top`` seeds are used up.  No randomness anywhere:
identical configuration produces bit-identical results.

The gradient is exact: a complex step through the closed-form kernel
(:func:`_power_gradient`).  The Hessian is central differences of it.  Each
Newton iteration evaluates its whole stencil, for the first two starts at
once, in one batched kernel call.  The line search evaluates the same kernel
on Python floats, with the parameter constants computed once per call
(:func:`_kernel_constants`), and the seed grid on arrays.  Every optimum
carries its certificate: the relative gradient, the Newton step left and the
largest curvature there.

Points with non-positive power (or current flowing backwards) score zero in
the seed grid, and the ascent never leaves positive power, so the maximizer
stays inside the converter regime; a vanished operating region is reported
via the ``degenerate`` flag rather than an error.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field

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
# its range.  Newton's stop pins a start's own coordinates closer, but on a
# face of x_r's box a start converges in x_g and x_l, and the nu it implies
# moves with them by more than x_rel_tol.
_SAME_BASIN_X_EXP = 0.5

# Complex-step size of the gradient: no difference is taken, so any step this
# small gives the derivative to rounding.  _OCC_SIGN turns occ (1 + s occ)
# into n (1 + n) for the Bose and f (1 - f) for the two Fermi occupations.
_CS_STEP = 1e-30
_OCC_SIGN = np.array([[1.0], [-1.0], [-1.0]])

# The Hessian is central differences of the gradient over this fraction of
# each search coordinate's range; its O(step^2) error slows Newton's rate but
# does not move the point where the gradient vanishes.
_HESS_STEP = 1e-4

# A Newton step is cut to at most this fraction of each coordinate's range;
# the line search then halves it at most _BACKTRACKS times and takes the first
# point that gains _ARMIJO of the first-order prediction.
_MAX_STEP = 0.1
_BACKTRACKS = 30
_ARMIJO = 1e-4

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
    when the trace vanishes against the product of the three row norms.  The
    gate reads real parts, so complex-step inputs (:func:`_power_gradient`)
    are refused exactly where their real points are.
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
    singular = abs(trace.real) <= _SINGULAR_REL * scale.real
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


def _power_gradient(consts: tuple, points):
    """Derivatives of the power by complex step through :func:`_degenerate_steady`.

    ``points`` is a (3, m) complex array of (x_g, x_l, x_r): real part a
    point, imaginary part ``_CS_STEP`` times the tangent of one search
    direction there.  The occupations are continued to first order,
    n' = -n (1 + n) and f' = -f (1 - f), and Im(power) / ``_CS_STEP`` is the
    directional derivative, exact to rounding since no difference is taken
    (Squire & Trapp, SIAM Rev. 40, 110-112, 1998).  Refuses where the real
    points refuse.
    """
    occ = np.concatenate([_bose_array(points[0].real)[None], _fermi_array(points[1:].real)])
    occ = occ - 1j * (occ * (1.0 + _OCC_SIGN * occ)) * points.imag
    return _degenerate_steady(consts, *points, *occ)[0].imag / _CS_STEP


@dataclass(frozen=True)
class OptResult:
    """Outcome of a power maximization.

    ``p_max`` is in units of k_B * temp_p * gamma_p.  ``degenerate`` marks an
    empty operating region (no seed produced positive power); ``eta_at_pmax``
    is then None.  ``active_bounds`` lists free variables whose optimum sits
    on the search box within 1e-6 of the range.  ``starts`` counts the
    Newton starts run, 0 when degenerate.

    The certificate is taken at the optimum, in the search coordinates t of
    its start (see :func:`maximize_power`; on a face of the x_r box, t less
    nu) and over the coordinates not held at a bound: ``grad_rel`` is max |dP/dt_i| / P, ``newton_step`` max
    |H^-1 grad P| (the distance left to the stationary point) and
    ``max_curvature`` the largest eigenvalue of the Hessian H, negative at a
    strict maximum.  All three are NaN when degenerate; with every
    coordinate at a bound the first two are 0 and ``max_curvature`` is NaN.
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


class _Frame:
    """Search coordinates t of one refinement, and their box.

    t holds the free names in ``_FREE_ORDER`` order; the others stay at
    ``base`` = (x_g, x_l, x_r).  A free x_r is held as the window coordinate
    nu in (_NU_MARGIN, 1 - _NU_MARGIN), x_r = x_l + x_g (1 + nu * window),
    and x_r's own box then bounds nu through x_g and x_l.
    """

    def __init__(self, free, base, box, window):
        self.free, self.base, self.box, self.window = free, base, box, window
        self.slots = tuple(free.index(k) if k in free else None for k in _FREE_ORDER)
        self.lo, self.hi = zip(*[(_NU_MARGIN, 1.0 - _NU_MARGIN) if k == "x_r" else box[k]
                                 for k in free])
        self.span = [hi - lo for lo, hi in zip(self.lo, self.hi)]
        # one imaginary step per coordinate, as (coordinate, point, direction)
        self.steps = 1j * _CS_STEP * np.eye(len(free))[:, None, :]

    def decode(self, t):
        """(x_g, x_l, x_r) of a search vector, or of its rows for a batch."""
        ig, il, ir = self.slots
        xg = self.base[0] if ig is None else t[ig]
        xl = self.base[1] if il is None else t[il]
        if ir is None:
            return xg, xl, self.base[2]
        return xg, xl, xl + xg * (1.0 + t[ir] * self.window)  # slot ir holds nu

    def nu_limits(self, t):
        """The nu at which x_r meets either end of its box, at t's x_g and x_l."""
        xg, xl, _ = self.decode(t)
        return [((r - xl) / xg - 1.0) / self.window for r in self.box["x_r"]]

    def retract(self, t):
        """t clipped into the box, a free nu further to keep x_r in its box."""
        t, ir = [min(max(v, lo), hi) for v, lo, hi in zip(t, self.lo, self.hi)], self.slots[2]
        if ir is not None:
            lo, hi = self.nu_limits(t)
            t[ir] = min(max(t[ir], lo), hi)
        return tuple(t)

    def point(self, t):
        """(x_g, x_l, x_r) of a retracted search vector, x_r clipped into its
        box against the rounding of the decode."""
        xg, xl, xr = self.decode(t)
        return xg, xl, xr if self.slots[2] is None else min(max(xr, self.box["x_r"][0]),
                                                           self.box["x_r"][1])

    def power(self, consts, t):
        """The kernel's power at a retracted search vector, on Python floats."""
        xg, xl, xr = self.point(t)
        return _degenerate_steady(consts, xg, xl, xr, bose_occupation(xg),
                                  fermi_occupation(xl), fermi_occupation(xr))[0]


def _cholesky_solve(a, b):
    """x with a x = b for a symmetric matrix ``a`` (nested lists), on Python
    floats; None when ``a`` is not positive definite."""
    n = len(b)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j]
            for k in range(j):
                s -= low[i][k] * low[j][k]
            if i > j:
                low[i][j] = s / low[j][j]
            elif s > 0.0:
                low[i][i] = math.sqrt(s)
            else:
                return None
    x = list(b)
    for i in range(n):
        for k in range(i):
            x[i] -= low[i][k] * x[k]
        x[i] /= low[i][i]
    for i in reversed(range(n)):
        for k in range(i + 1, n):
            x[i] -= low[k][i] * x[k]
        x[i] /= low[i][i]
    return x


def _largest_eigenvalue(h):
    """The largest eigenvalue of a symmetric matrix of order 1 to 3 (nested
    lists) in closed form, on Python floats (Smith, Commun. ACM 4, 168, 1961)."""
    if len(h) == 1:
        return h[0][0]
    if len(h) == 2:
        (a, b), (_, c) = h
        return 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
    q = (h[0][0] + h[1][1] + h[2][2]) / 3.0
    off = h[0][1] * h[0][1] + h[0][2] * h[0][2] + h[1][2] * h[1][2]
    p = math.sqrt(((h[0][0] - q) ** 2 + (h[1][1] - q) ** 2 + (h[2][2] - q) ** 2
                   + 2.0 * off) / 6.0)
    if p == 0.0:
        return q
    (a, b, c), (_, d, e), (_, _, f) = [[v / p for v in row] for row in h]
    a, d, f = a - q / p, d - q / p, f - q / p
    half_det = 0.5 * (a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c))
    return q + 2.0 * p * math.cos(math.acos(min(1.0, max(-1.0, half_det))) / 3.0)


def _ascent(frame, t, consts, f_rel_tol, x_rel_tol, max_evals):
    """Projected Newton ascent of the power from search vector ``t``.

    A generator: each iteration yields its stencil, the (3, m) complex
    decoded points of t and of one point either side of it along each
    coordinate, each with one imaginary step per coordinate, and is sent
    their m derivatives (:func:`_power_gradient`).  On the coordinates not
    held at a bound (Bertsekas, SIAM J. Control Optim. 20, 221-246, 1982),
    -H plus a Levenberg term, grown tenfold until Cholesky succeeds, gives
    the step; a backtracking line search on the float objective, each trial
    retracted into the box, takes it.  At a face of x_r's box, which is no
    face of the box in t, the ascent goes on with x_r pinned there.

    It stops, converged, where H is negative definite on the free
    coordinates and the Newton step is within ``x_rel_tol`` of every range,
    or where a full Newton step with a decrement g.(-H)^-1.g within
    ``f_rel_tol`` of the power, a gain the float objective cannot resolve
    and so taken without the line search, is followed by another such.  It
    stops unconverged when the line search fails or its evaluations (stencil
    points and trials) reach ``max_evals``.  Returns (t, p, evals,
    converged, grad_rel, newton_step, hess), the certificate at t as in
    :class:`OptResult` with the Hessian on the free coordinates in place of
    its largest eigenvalue.
    """
    box_frame, ir, face = frame, frame.slots[2], None
    p, evals, polished = frame.power(consts, t), 1, False
    while True:
        dim, lo, hi, span = len(t), list(frame.lo), list(frame.hi), frame.span
        pts, width = [t], []
        for j in range(dim):
            a, b = min(t[j] + _HESS_STEP * span[j], hi[j]), max(t[j] - _HESS_STEP * span[j], lo[j])
            pts += [t[:j] + (a,) + t[j + 1:], t[:j] + (b,) + t[j + 1:]]
            width.append(a - b)
        points = np.empty((3, 2 * dim + 1, dim), dtype=complex)
        points[0], points[1], points[2] = frame.decode(np.array(pts).T[:, :, None] + frame.steps)
        grad = (yield points.reshape(3, -1)).reshape(2 * dim + 1, dim).tolist()
        evals += (2 * dim + 1) * dim
        g = grad[0]
        hess = [[0.5 * ((grad[1 + 2 * j][i] - grad[2 + 2 * j][i]) / width[j]
                        + (grad[1 + 2 * i][j] - grad[2 + 2 * i][j]) / width[i])
                 for j in range(dim)] for i in range(dim)]
        if frame is box_frame and ir is not None:
            limits = frame.nu_limits(t)
            out = (t[ir] <= limits[0] and g[ir] < 0.0, t[ir] >= limits[1] and g[ir] > 0.0)
            end = next((e for e in (0, 1) if out[e] and lo[ir] < limits[e] < hi[ir]), None)
            if end is not None and dim > 1:
                # nu is held at a face of x_r's box with the gradient pointing
                # out, and another coordinate is left: pin x_r to that face
                face, (xg, xl, _) = frame.box["x_r"][end], frame.decode(t)
                frame = _Frame(frame.free[:ir] + frame.free[ir + 1:], (xg, xl, face),
                               frame.box, frame.window)
                t = t[:ir] + t[ir + 1:]
                p, evals, polished = frame.power(consts, t), evals + 1, False
                continue
            lo[ir], hi[ir] = max(lo[ir], limits[0]), min(hi[ir], limits[1])
        free = [j for j in range(dim)
                if not (t[j] <= lo[j] and g[j] < 0.0 or t[j] >= hi[j] and g[j] > 0.0)]

        # the Newton step on the free coordinates, scaled by their ranges
        gs = [g[j] * span[j] for j in free]
        neg_h = [[-hess[i][j] * span[i] * span[j] for j in free] for i in free]
        lam, x = 0.0, _cholesky_solve(neg_h, gs)
        while x is None:
            lam = 10.0 * lam or 1e-6 * max([abs(neg_h[i][i]) for i in range(len(free))] + [1.0])
            x = _cholesky_solve([[v + lam * (i == j) for j, v in enumerate(row)]
                                 for i, row in enumerate(neg_h)], gs)
        step, decrement = max(map(abs, x), default=0.0), 0.0
        for gi, xi in zip(gs, x):
            decrement += gi * xi
        newton = lam == 0.0 and decrement <= f_rel_tol * p
        converged = lam == 0.0 and (step <= x_rel_tol or polished and newton)
        if converged or evals >= max_evals or step == 0.0:
            break
        d = [0.0] * dim
        for j, xj in zip(free, x):
            d[j] = min(1.0, _MAX_STEP / step) * xj * span[j]
        for alpha in [1.0] if newton else [0.5 ** k for k in range(_BACKTRACKS)]:
            trial = frame.retract([v + alpha * s for v, s in zip(t, d)])
            p_trial = frame.power(consts, trial)
            evals += 1
            gain = 0.0
            for gj, a, b in zip(g, trial, t):
                gain += gj * (a - b)
            if newton or p_trial > p and p_trial - p >= _ARMIJO * gain:
                break
        else:
            break
        t, p, polished = trial, p_trial, newton

    newton_step = max([abs(x[k]) * span[j] for k, j in enumerate(free)], default=0.0)
    grad_rel = max([abs(g[j]) for j in free], default=0.0) / p
    hess = [[hess[i][j] for j in free] for i in free]
    if face is not None:  # back to nu
        xg, xl, _ = frame.decode(t)
        t = t[:ir] + (((face - xl) / xg - 1.0) / box_frame.window,) + t[ir:]
    return t, p, evals, converged, grad_rel, newton_step, hess


def _refine(frame, consts, seeds, f_rel_tol, x_rel_tol, max_evals):
    """:func:`_ascent` from each search vector in ``seeds`` in lockstep, one
    kernel call per iteration for the stencils of all running starts;
    returns their results in the order of ``seeds``."""
    runs = {k: _ascent(frame, t, consts, f_rel_tol, x_rel_tol, max_evals)
            for k, t in enumerate(seeds)}
    results, sent = [None] * len(seeds), dict.fromkeys(runs)
    while runs:
        stencils = {}
        for k, run in list(runs.items()):
            try:
                stencils[k] = run.send(sent[k])
            except StopIteration as stop:
                results[k] = stop.value
                del runs[k]
        if stencils:
            grad, end = _power_gradient(consts, np.concatenate(list(stencils.values()), 1)), 0
            for k, points in stencils.items():
                sent[k], end = grad[end:end + points.shape[1]], end + points.shape[1]
    return results


def maximize_power(params: ModelParams, free=("x_l", "x_r"), bounds=None, *,
                   seeds_per_dim: int = 16, refine_top: int = 8,
                   f_rel_tol: float = 1e-9, x_rel_tol: float = 1e-8,
                   max_evals_per_seed: int = 2000) -> OptResult:
    """Maximize output power over the chosen scaled energy variables.

    Multi-start Newton search: a coarse deterministic seed grid
    (``seeds_per_dim`` points per free dimension, window-relative in the
    x_r direction), then projected Newton ascent (:func:`_ascent`) from the
    best seeds in rank order, the first two in lockstep, each moved first to
    the vertex of a parabola through its grid neighbours.  The refinement
    stops after the first start whose optimum agrees with the best one so
    far (powers within ``f_rel_tol``, each search coordinate within
    sqrt(``f_rel_tol``) of its range), so two starts are the usual case;
    ``refine_top`` bounds the starts run, and ``max_evals_per_seed`` the
    kernel evaluations of each.  The best refined point wins; powers within
    ``f_rel_tol`` of each other tie, and the better-ranked seed wins a tie,
    since rounding alone orders them.  A malformed option raises
    DomainError (:func:`_validated_options`).
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

    frame = _Frame(free, tuple(base.values()), box, eta_c / (1.0 - eta_c))

    # ---- seed grid (vectorized) ----
    axes = [np.linspace(lo, hi, seeds_per_dim) for lo, hi in zip(frame.lo, frame.hi)]
    ir = frame.slots[2]
    if ir is not None:
        # strictly interior window points seed better than edge-touching ones
        axes[ir] = np.linspace(0.5 / seeds_per_dim, 1.0 - 0.5 / seeds_per_dim,
                               seeds_per_dim)
    mesh = np.meshgrid(*axes, indexing="ij")
    t_grid = np.stack([m.ravel() for m in mesh], axis=-1)
    xg_a, xl_a, xr_a = np.broadcast_arrays(*frame.decode(t_grid.T))
    obs = steady_observables_grid(params, xg_a, xl_a, xr_a)
    r_lo, r_hi = box["x_r"] if ir is not None else (-math.inf, math.inf)
    inside = (r_lo <= xr_a) & (xr_a <= r_hi)
    p_grid = np.where(inside & (obs["power"] > 0.0), obs["power"], 0.0)
    evals = t_grid.shape[0]

    seeds = _ranked_seeds(t_grid, p_grid, refine_top)
    if not seeds:
        return OptResult(x_opt={k: base[k] for k in free}, p_max=0.0,
                         eta_at_pmax=None, evals=evals, converged=False,
                         degenerate=True)

    # ---- refinement, the first two seeds together, then one at a time
    # until a start agrees with the incumbent ----
    shape = (seeds_per_dim,) * len(free)
    p_mesh = p_grid.reshape(shape)

    def start(i):
        """Seed i moved along each axis, by at most half a grid step, to the
        vertex of the parabola through its power and its two grid
        neighbours', where all three are positive and the parabola opens
        down.  Not along x_g: across its coarse grid the power is far from
        quadratic, and moving x_g too made fig3-like 3-D runs longer."""
        idx, t = np.unravel_index(i, shape), t_grid[i].tolist()
        for j, axis in enumerate(axes):
            if j != frame.slots[0] and 0 < idx[j] < seeds_per_dim - 1:
                pm, p0, pp = (float(p_mesh[idx[:j] + (idx[j] + k,) + idx[j + 1:]])
                              for k in (-1, 0, 1))
                bend = pm - 2.0 * p0 + pp
                if pm > 0.0 and pp > 0.0 and bend < 0.0:
                    t[j] += (min(max(0.5 * (pm - pp) / bend, -0.5), 0.5)
                             * float(axis[1] - axis[0]))
        return frame.retract(t)

    x_tol = [f_rel_tol ** _SAME_BASIN_X_EXP * s for s in frame.span]
    results = (result for batch in [seeds[:2]] + [[i] for i in seeds[2:]]
               for result in _refine(frame, consts, [start(i) for i in batch],
                                     f_rel_tol, x_rel_tol, max_evals_per_seed))
    best = None
    for starts, (t, p, used, *rest) in enumerate(results, 1):
        evals += used
        agrees = best is not None and (
            abs(p - best[0]) <= f_rel_tol * abs(best[0])
            and all(abs(a - b) <= tol for a, b, tol in zip(t, best[2], x_tol)))
        if best is None or p - best[0] > f_rel_tol * abs(best[0]):
            best = (p, frame.point(t), t, rest)
        if agrees:
            break
    p_best, (xg, xl, xr), _, (conv, grad_rel, newton_step, hess) = best
    curvature = _largest_eigenvalue(hess) if hess else math.nan

    x_opt = {name: float(v) for name, v in zip(_FREE_ORDER, (xg, xl, xr)) if name in free}
    active = tuple(
        name for name in free
        if min(abs(x_opt[name] - box[name][0]), abs(x_opt[name] - box[name][1]))
        <= _BOUND_FLAG_FRACTION * (box[name][1] - box[name][0]))
    eta = float(1.0 - (1.0 - eta_c) * (xr - xl) / xg) if p_best > 0.0 else None
    return OptResult(x_opt=x_opt, p_max=float(p_best), eta_at_pmax=eta,
                     evals=evals, converged=bool(conv),
                     degenerate=False, active_bounds=active, grad_rel=grad_rel,
                     newton_step=newton_step, max_curvature=curvature, starts=starts)


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
