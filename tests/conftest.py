"""Shared draw helpers for the property suites, the near-equilibrium
expansion of the efficiency at maximum power, and test-side oracles."""

import itertools
import math
from bisect import insort
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np
import pytest

from qdphotocell import (
    INFINITE,
    OptResult,
    build_generator,
    build_rates,
    currents,
    maximize_power,
    params_from_scaled,
    steady_observables_grid,
    steady_state,
)
from qdphotocell.dynamics import (
    _COND_LIMIT,
    _NORM_ROW_INDEX,
    _TRACE_ROW,
    DensityState,
    Generator,
    SteadySolution,
    spectral_gap,
)
from qdphotocell.errors import DomainError, NoUniqueSteadyStateError
from qdphotocell.model import ModelParams, RateSet, bose_occupation, fermi_occupation
from qdphotocell.optimize import (
    _BOUND_FLAG_FRACTION,
    _FREE_ORDER,
    _SAME_BASIN_X_EXP,
    _SINGULAR_REL,
    _degenerate_steady,
    _kernel_constants,
    _solved,
    _validated_options,
)
from qdphotocell.selftest import draw_params

# Interior margin of the window coordinate nu in reference_maximize_power's
# simplex; both window edges carry zero power.
_NU_MARGIN = 1e-9


def draw_fast_mixing_params(rng, min_gap=0.11, **fixed):
    """Draw parameters whose slowest relaxation rate is at least ``min_gap``.

    The time-integration oracle runs for a fixed duration, so its transient
    must decay below the comparison tolerance; draws with a smaller spectral
    gap are rejected (the oracle-equivalence statement presumes the
    transient has died out).
    """
    while True:
        p = draw_params(rng, **fixed)
        gen = build_generator(build_rates(p), p.delta21, p.tau)
        if spectral_gap(gen) >= min_gap:
            return p, gen


def general_path_observables(p):
    """Power, converter current and Re rho12 from build_generator +
    steady_state + thermo.currents, with the largest term of the lead
    current.  No term counts below 1e-5 of its rate: a trace-1 state
    resolves a population to ~1e-16, so a term's round-off is ~1e-16 of
    its rate whatever its size."""
    r = build_rates(p)
    s = steady_state(build_generator(r, p.delta21, p.tau)).state
    j_l, _ = currents(s, p)
    coeffs = (2.0 * (r.f_l_plus[0, 0] + r.f_l_plus[1, 1]), 2.0 * r.f_l_minus[0, 0],
              2.0 * r.f_l_minus[1, 1], 2.0 * (r.f_l_minus[1, 0] + r.f_l_minus[0, 1]))
    terms = (coeffs[0] * s.rho0, coeffs[1] * s.rho1, coeffs[2] * s.rho2,
             coeffs[3] * s.rho12.real)
    largest = max(max(map(abs, terms)), 1e-5 * max(coeffs))
    power = (p.mu_r - p.mu_l) * j_l / (p.temp_p * p.gamma_p)
    return power, j_l, s.rho12.real, largest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


# ---- near-equilibrium expansion of eta* -------------------------------------

#: Carnot efficiencies of the small-eta_c fit, well below the fig3a grid.
NEAR_EQ_ETA_C = (0.005, 0.01, 0.02)

# Central-difference step in (x_g, x_l, nu).  Its h^2 truncation bias and
# the round-off of P / h each move the polished eta* by ~1e-11, i.e. b by
# < 1e-6 at eta_c = 0.005; a step of 1e-2 already shifts b by 4e-5.
_FD_STEP = 1e-3

_PAIRS = tuple(itertools.combinations(range(3), 2))


def _stencil(h):
    """Offsets of the 19-point central-difference stencil in three variables:
    the centre, +-h along each axis, then the four corners of each plane."""
    e = np.eye(3) * h
    offsets = [np.zeros(3)]
    for i in range(3):
        offsets += [e[i], -e[i]]
    for i, j in _PAIRS:
        offsets += [e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j]]
    return np.array(offsets)


def _power_gradient_hessian(params, eta_c, t, h=_FD_STEP):
    """Power, gradient and Hessian at t = (x_g, x_l, nu) by central differences.

    nu is the optimizer's window coordinate,
    x_r = x_l + x_g * (1 + nu * eta_c / (1 - eta_c)).
    """
    pts = t + _stencil(h)
    xg, xl, nu = pts[:, 0], pts[:, 1], pts[:, 2]
    xr = xl + xg * (1.0 + nu * eta_c / (1.0 - eta_c))
    f = steady_observables_grid(params, xg, xl, xr)["power"]
    grad = np.empty(3)
    hess = np.empty((3, 3))
    for i in range(3):
        fp, fm = f[1 + 2 * i], f[2 + 2 * i]
        grad[i] = (fp - fm) / (2.0 * h)
        hess[i, i] = (fp - 2.0 * f[0] + fm) / h ** 2
    for k, (i, j) in enumerate(_PAIRS):
        fpp, fpm, fmp, fmm = f[7 + 4 * k:11 + 4 * k]
        hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h ** 2)
    return float(f[0]), grad, hess


@dataclass(frozen=True)
class PolishedOptimum:
    """Power maximum over (x_g, x_l, x_r) at one eta_c, polished by Newton
    steps on grad P = 0 from the :func:`maximize_power` optimum.

    In the window coordinate nu the efficiency is eta = eta_c * (1 - nu).
    ``grad_rel`` is max |dP/dt_i| / P and ``newton_step`` max |H^-1 grad P|
    (the distance left to the stationary point), both at the polished
    point; ``max_curvature`` is the largest eigenvalue of the Hessian
    ``hess`` in (x_g, x_l, nu), negative at a strict maximum.  ``result`` is
    the :func:`maximize_power` optimum it started from.
    """

    eta_c: float
    eta: float
    power: float
    grad_rel: float
    newton_step: float
    max_curvature: float
    hess: np.ndarray
    result: OptResult


def polish_max_power(eta_c, tau):
    """Maximum power at ``eta_c`` in the fig3a/fig3b setup (r_p = 0.9,
    r_l = 0, unit rates, lead temperature (1 - eta_c) * 5780 K), certified
    to first and second order."""
    temp_p = 5780.0
    params = params_from_scaled(2.0, 0.0, 0.0, temp=(1.0 - eta_c) * temp_p,
                                temp_p=temp_p, r_p=0.9, r_l=0.0, tau=tau)
    res = maximize_power(params, free=("x_g", "x_l", "x_r"))
    xg, xl, xr = (res.x_opt[k] for k in ("x_g", "x_l", "x_r"))
    t = np.array([xg, xl, ((xr - xl) / xg - 1.0) * (1.0 - eta_c) / eta_c])
    for _ in range(6):  # converges in a few steps; later ones sit at the noise floor
        _, grad, hess = _power_gradient_hessian(params, eta_c, t)
        t = t - np.linalg.solve(hess, grad)
    power, grad, hess = _power_gradient_hessian(params, eta_c, t)
    return PolishedOptimum(
        eta_c=eta_c, eta=eta_c * (1.0 - t[2]), power=power,
        grad_rel=float(np.abs(grad).max() / power),
        newton_step=float(np.abs(np.linalg.solve(hess, grad)).max()),
        max_curvature=float(np.linalg.eigvalsh(hess).max()),
        hess=hess, result=res)


@dataclass(frozen=True)
class NearEquilibriumFit:
    """eta* = eta_c/2 + b eta_c^2 + c eta_c^3 + d eta_c^4 + ..., with b, c, d
    interpolated through three polished optima."""

    b: float
    c: float
    d: float
    points: tuple

    def eta(self, eta_c):
        """The expansion through the eta_c^3 term."""
        return eta_c / 2.0 + self.b * eta_c ** 2 + self.c * eta_c ** 3

    def tolerance(self, eta_c):
        """Bound on the truncation error of :meth:`eta`: the next-order term
        d eta_c^4, doubled, which bounds the whole tail as long as each
        further term is at most half the one before (|e| eta_c <= |d| / 2,
        and so on)."""
        return 2.0 * abs(self.d) * eta_c ** 4


def fit_near_equilibrium(points):
    """b, c, d from (eta*/eta_c - 1/2) / eta_c = b + c eta_c + d eta_c^2,
    solved exactly through three points."""
    ec = np.array([pt.eta_c for pt in points])
    z = (np.array([pt.eta for pt in points]) / ec - 0.5) / ec
    d, c, b = np.linalg.solve(np.vander(ec, 3), z)
    return NearEquilibriumFit(b=float(b), c=float(c), d=float(d),
                              points=tuple(points))


@pytest.fixture(scope="session")
def near_equilibrium_fits():
    """Small-eta_c fits of the fig3a r_l = 0 curve (r_p = 0.9, tau = 0) and
    of its coherence-free twin, the fig3b tau = inf curve; keyed by tau."""
    return {tau: fit_near_equilibrium(
                [polish_max_power(ec, tau) for ec in NEAR_EQ_ETA_C])
            for tau in (0.0, INFINITE)}


# ---- Nelder-Mead oracles -----------------------------------------------------

# The derivative-free simplex that refined maximize_power's seeds before
# projected Newton did.  A test-side oracle, not used by the package, and the
# simplex of reference_maximize_power; it keeps its simplex on Python floats
# and must return exactly what the array simplex below returns.
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


# The simplex held in numpy arrays, the reference the float simplex is pinned to.
def reference_nelder_mead(fn, x0, step, *, f_rel_tol=1e-9, x_rel_tol=1e-8,
                          x_scale=None, max_evals=2000):
    """Deterministic Nelder-Mead minimization with relative tolerances.

    Parameters
    ----------
    fn : callable
        Objective; must accept a 1-D numpy array.
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
    step = np.asarray(step, dtype=float)
    dim = x0.size
    if x_scale is None:
        x_scale = np.maximum(np.abs(x0), 1.0)
    x_scale = np.asarray(x_scale, dtype=float)

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    verts = [x0.copy()]
    for d in range(dim):
        x = x0.copy()
        x[d] += step[d]
        verts.append(x)
    fvals = [fn(v) for v in verts]
    evals = dim + 1
    converged = False

    def spread():
        fs = max(fvals) - min(fvals)
        arr = np.array(verts)
        xs = float(np.max((arr.max(axis=0) - arr.min(axis=0)) / x_scale))
        return fs, xs

    while evals < max_evals:
        order = sorted(range(dim + 1), key=lambda i: (fvals[i], tuple(verts[i])))
        verts = [verts[i] for i in order]
        fvals = [fvals[i] for i in order]
        f_spread, x_spread = spread()
        if f_spread <= f_rel_tol * (abs(fvals[0]) + 1e-300) and x_spread <= x_rel_tol:
            converged = True
            break

        centroid = np.mean(verts[:-1], axis=0)
        xr = centroid + alpha * (centroid - verts[-1])
        fr = fn(xr); evals += 1
        if fvals[0] <= fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
            continue
        if fr < fvals[0]:
            xe = centroid + gamma * (centroid - verts[-1])
            fe = fn(xe); evals += 1
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
            continue
        xc = centroid + rho * (verts[-1] - centroid)
        fc = fn(xc); evals += 1
        if fc < fvals[-1]:
            verts[-1], fvals[-1] = xc, fc
            continue
        for i in range(1, dim + 1):
            verts[i] = verts[0] + sigma * (verts[i] - verts[0])
            fvals[i] = fn(verts[i]); evals += 1

    order = sorted(range(dim + 1), key=lambda i: (fvals[i], tuple(verts[i])))
    best = order[0]
    f_spread, x_spread = spread()
    return verts[best], fvals[best], evals, converged, f_spread, x_spread


# ---- lead-current oracle ------------------------------------------------------

# qdphotocell.thermo.currents as it read before the left-lead current got one
# expression shared with the closed-form kernel: numpy-scalar arithmetic,
# summed left to right.  A test-side oracle, not used by the package.
def reference_currents(state: DensityState, params: ModelParams) -> tuple[float, float]:
    """Electron currents (j_l, j_r) from the left/right lead into the dot.

    Both are the trace of the number operator against the respective lead
    dissipator, so they include the coherence contribution on the left side
    (both ground levels couple to the same lead) and satisfy j_l = -j_r at
    any steady state.
    """
    r = build_rates(params)
    u = state.rho12.real
    j_l = (2.0 * (r.f_l_plus[0, 0] + r.f_l_plus[1, 1]) * state.rho0
           - 2.0 * r.f_l_minus[0, 0] * state.rho1
           - 2.0 * r.f_l_minus[1, 1] * state.rho2
           - 2.0 * (r.f_l_minus[1, 0] + r.f_l_minus[0, 1]) * u)
    j_r = 2.0 * r.f_r_plus * state.rho0 - 2.0 * r.f_r_minus * state.rho_e
    return j_l, j_r


# ---- closed-form coherence and kernel points ---------------------------------

@dataclass(frozen=True)
class CoherenceStructure:
    """Structural evaluation of the closed-form steady-coherence numerator.

    ``numerator`` is the occupation-factor form
    2 * gamma_p * (r_p - r_l) * {n(x_g) f(x_l) - [1 + n(x_g) - f(x_l)] f(x_r)}
    and ``product_form`` the equivalent csch/sech/sinh product; the two are
    algebraically identical and ``rel_discrepancy`` reports their floating-
    point disagreement.  ``steady_sign`` is the sign the numerically solved
    steady-state Re rho12 takes: the *negative* of the numerator's sign
    (equivalently sign[(r_p - r_l) * sinh((x_g + x_l - x_r)/2)]), a
    convention pinned against the linear solve across the operating plane.
    """

    numerator: float
    product_form: float
    rel_discrepancy: float
    zero_when_r_equal: bool
    zero_when_resonant: bool
    steady_sign: int


def analytic_coherence_structure(params: ModelParams) -> CoherenceStructure:
    """Evaluate the closed-form coherence numerator and its zero loci.

    Only valid in the degenerate symmetric configuration (delta21 = 0).
    The numerator vanishes on two loci: equal cross couplings r_p = r_l,
    and the resonance x_g + x_l - x_r = 0 where the transition network
    satisfies detailed balance.  A test-side oracle against the solve.
    """
    if params.delta21 != 0.0:
        raise DomainError("analytic coherence structure requires degenerate "
                          f"ground levels (delta21 = 0), got {params.delta21}")
    x_g, x_l, x_r = params.x_g, params.x_l, params.x_r
    if x_g <= 0.0:
        raise DomainError(f"x_g must be positive, got {x_g}")
    n = bose_occupation(x_g)
    f_l = fermi_occupation(x_l)
    f_r = fermi_occupation(x_r)
    numerator = 2.0 * params.gamma_p * (params.r_p - params.r_l) * (
        n * f_l - (1.0 + n - f_l) * f_r)
    product_form = (0.5 * params.gamma_p * (params.r_l - params.r_p)
                    / math.sinh(0.5 * x_g)
                    / math.cosh(0.5 * x_l)
                    / math.cosh(0.5 * x_r)
                    * math.sinh(0.5 * (x_g + x_l - x_r)))
    scale = max(abs(numerator), abs(product_form))
    rel = abs(numerator - product_form) / scale if scale > 0.0 else 0.0
    resonant = x_g + x_l - x_r == 0.0
    sign = 0 if numerator == 0.0 else (-1 if numerator > 0.0 else 1)
    return CoherenceStructure(
        numerator=numerator,
        product_form=product_form,
        rel_discrepancy=rel,
        zero_when_r_equal=params.r_p == params.r_l,
        zero_when_resonant=resonant,
        steady_sign=sign,
    )


def steady_at(params: ModelParams, x_g: float, x_l: float, x_r: float):
    """The kernel's (power, j, g, rho_e, rho0, u) at one point on Python floats.

    Degenerate levels (delta21 = 0) only.  Raises NoUniqueSteadyStateError
    where the kernel refuses the point (reads NaN).
    """
    return _solved(_degenerate_steady(_kernel_constants(params), x_g, x_l, x_r,
                                      bose_occupation(x_g), fermi_occupation(x_l),
                                      fermi_occupation(x_r)))


def reference_refusal_gate(consts, n, fl, fr):
    """The kernel's refusal gate without its rate bound: the rows and
    cofactor trace of :func:`_degenerate_steady`, then the 2-norms of the
    three rows' real parts, computed at every point.

    A test-side oracle: returns (singular, norms), singular where not
    |Re trace| > _SINGULAR_REL * (product of the three ``norms``), so also
    where that product is NaN.
    """
    gp, gl, gr, rp, rl, kp, kl, half_tau = consts[:8]
    bp, bm, flp, flm, frp, frm = (gp * n, gp * (1.0 + n), gl * fl, gl * (1.0 - fl),
                                  gr * fr, gr * (1.0 - fr))
    a0, a1, a2, a3 = -(bp + flm), bm, flp, -(rp * bp + rl * flm)
    b0, b1, b2, b3 = 2.0 * bp, -(2.0 * bm + frm), frp, 2.0 * rp * bp
    c0 = kp * bp + kl * flm
    c1, c2, c3 = -kp * bm, -kl * flp, -(c0 + half_tau)
    m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
    m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
    trace = (2.0 * (a1 * m23 - a2 * m13 + a3 * m12) + -(a0 * m23 - a2 * m03 + a3 * m02)
             + (a0 * m13 - a1 * m03 + a3 * m01))
    norms = tuple(sum(v.real * v.real for v in row) ** 0.5
                  for row in ((a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3)))
    return np.logical_not(abs(trace.real) > _SINGULAR_REL * (norms[0] * norms[1] * norms[2])), norms


# ---- general-path oracle ----------------------------------------------------

# build_rates, build_generator, steady_state and DensityState.from_vector
# with numpy bookkeeping.  A test-side oracle, not used by the package: the
# float-native functions in qdphotocell.model and qdphotocell.dynamics must
# return exactly what these return, and refuse where these refuse.

def reference_build_rates(params: ModelParams) -> RateSet:
    """Evaluate all dissipation coefficients for the given parameters.

    In the degenerate configuration (delta21 = 0) the diagonal photon
    coefficients are gamma_p * n(x_g) and gamma_p * (1 + n(x_g)), the lead
    coefficients carry the Fermi factors at x_l and x_r, and every cross
    entry is the matching diagonal entry scaled by r_p or r_l.  For
    delta21 > 0 each entry is evaluated at its own transition energy.
    """
    t = params.temp
    tp = params.temp_p
    # transition energies: level 1 at eps_l, level 2 at eps_l + delta21
    eps_1 = params.eps_g                     # eps_e - eps_g1
    eps_2 = params.eps_g - params.delta21    # eps_e - eps_g2
    x_1 = eps_1 / tp
    x_2 = eps_2 / tp
    x_g1 = (params.eps_l - params.mu_l) / t
    x_g2 = (params.eps_l + params.delta21 - params.mu_l) / t
    x_r = (params.eps_l + params.eps_g - params.mu_r) / t

    n = (bose_occupation(x_1), bose_occupation(x_2))
    f = (fermi_occupation(x_g1), fermi_occupation(x_g2))
    fr = fermi_occupation(x_r)

    gp = np.array([[1.0, params.r_p], [params.r_p, 1.0]]) * params.gamma_p
    gl = np.array([[1.0, params.r_l], [params.r_l, 1.0]]) * params.gamma_l

    b_plus = np.empty((2, 2))
    b_minus = np.empty((2, 2))
    f_l_plus = np.empty((2, 2))
    f_l_minus = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            b_plus[i, j] = gp[i, j] * n[j]
            b_minus[i, j] = gp[i, j] * (1.0 + n[j])
            f_l_plus[i, j] = gl[i, j] * f[j]
            f_l_minus[i, j] = gl[i, j] * (1.0 - f[j])

    return RateSet(
        b_plus=b_plus, b_minus=b_minus,
        f_l_plus=f_l_plus, f_l_minus=f_l_minus,
        f_r_plus=params.gamma_r * fr,
        f_r_minus=params.gamma_r * (1.0 - fr),
    )


def _reference_is_dark_state_degenerate(rates: RateSet, delta21: float, tau: float) -> bool:
    if delta21 != 0.0 or tau != 0.0:
        return False
    photon_dead = rates.b_minus[0, 0] == 0.0 and rates.b_plus[0, 0] == 0.0
    left_dead = rates.f_l_plus[0, 0] == 0.0 and rates.f_l_minus[0, 0] == 0.0
    photon_max = (rates.b_plus[0, 1] == rates.b_plus[0, 0]
                  and rates.b_minus[0, 1] == rates.b_minus[0, 0])
    left_max = (rates.f_l_plus[0, 1] == rates.f_l_plus[0, 0]
                and rates.f_l_minus[0, 1] == rates.f_l_minus[0, 0])
    if photon_dead and left_dead:
        return False  # fully disconnected doublet: generic singular handling
    return (photon_dead or photon_max) and (left_dead or left_max)


def reference_build_generator(rates: RateSet, delta21: float = 0.0, tau: float = 0.0) -> Generator:
    """Assemble the 6x6 generator from the dissipation coefficients.

    Parameters
    ----------
    rates : RateSet
        Coefficients from :func:`qdphotocell.model.build_rates`.
    delta21 : float
        Ground-level splitting; couples Re rho12 and Im rho12.
    tau : float
        Decoherence rate (>= 0) or ``INFINITE``.  The infinite mode removes
        the coherence rows structurally rather than using a large number, so
        it is free of stiffness artifacts.
    """
    if tau != INFINITE:
        if not math.isfinite(tau):
            raise DomainError(f"tau must be finite or INFINITE, got {tau!r}")
        if tau < 0.0:
            raise DomainError(f"tau must be >= 0, got {tau}")
    if not math.isfinite(delta21) or delta21 < 0.0:
        raise DomainError(f"delta21 must be finite and >= 0, got {delta21!r}")

    bp, bm = rates.b_plus, rates.b_minus
    flp, flm = rates.f_l_plus, rates.f_l_minus
    frp, frm = rates.f_r_plus, rates.f_r_minus

    A = np.zeros((6, 6))
    # ground level 1
    A[0, 0] = -2.0 * (bp[0, 0] + flm[0, 0])
    A[0, 2] = 2.0 * bm[0, 0]
    A[0, 3] = 2.0 * flp[0, 0]
    A[0, 4] = -2.0 * (bp[0, 1] + flm[0, 1])
    # ground level 2
    A[1, 1] = -2.0 * (bp[1, 1] + flm[1, 1])
    A[1, 2] = 2.0 * bm[1, 1]
    A[1, 3] = 2.0 * flp[1, 1]
    A[1, 4] = -2.0 * (bp[1, 0] + flm[1, 0])
    # excited level
    A[2, 0] = 2.0 * bp[0, 0]
    A[2, 1] = 2.0 * bp[1, 1]
    A[2, 2] = -2.0 * (bm[0, 0] + bm[1, 1] + frm)
    A[2, 3] = 2.0 * frp
    A[2, 4] = 2.0 * (bp[1, 0] + bp[0, 1])
    # empty state
    A[3, 0] = 2.0 * flm[0, 0]
    A[3, 1] = 2.0 * flm[1, 1]
    A[3, 2] = 2.0 * frm
    A[3, 3] = -2.0 * (flp[0, 0] + flp[1, 1] + frp)
    A[3, 4] = 2.0 * (flm[1, 0] + flm[0, 1])

    if tau == INFINITE:
        # coherence pinned to zero; unit relaxation keeps the solve square
        A[4, 4] = -1.0
        A[5, 5] = -1.0
    else:
        decay = bp[0, 0] + bp[1, 1] + flm[0, 0] + flm[1, 1] + tau
        A[4, 0] = -(bp[1, 0] + flm[1, 0])
        A[4, 1] = -(bp[0, 1] + flm[0, 1])
        A[4, 2] = bm[1, 0] + bm[0, 1]
        A[4, 3] = flp[1, 0] + flp[0, 1]
        A[4, 4] = -decay
        A[4, 5] = -delta21
        A[5, 4] = delta21
        A[5, 5] = -decay

    return Generator(matrix=A, delta21=delta21, tau=tau,
                     dark_state_degenerate=_reference_is_dark_state_degenerate(rates, delta21, tau))


def _reference_from_vector(v) -> DensityState:
    v = np.asarray(v, dtype=float)
    if v.shape != (6,):
        raise DomainError(f"state vector must have shape (6,), got {v.shape}")
    return DensityState(rho1=float(v[0]), rho2=float(v[1]), rho_e=float(v[2]),
                        rho0=float(v[3]), rho12=complex(v[4], v[5]))


def reference_steady_state(gen: Generator, residual_tol: float = 1e-10) -> SteadySolution:
    """Solve A v = 0 with unit trace; unique for irreducible dynamics.

    The empty-state row is replaced by the normalization row and the square
    system solved by partial-pivot elimination.  Raises
    :class:`NoUniqueSteadyStateError` when the replaced system is singular or
    ill-conditioned (for example a disconnected transition network), except
    in the dark-state degeneracy, where the coherence-free branch is the
    unique limit of any positive decoherence rate and is returned flagged.
    """
    A = gen.matrix
    M = A.copy()
    M[_NORM_ROW_INDEX] = _TRACE_ROW
    rhs = np.zeros(6)
    rhs[_NORM_ROW_INDEX] = 1.0

    dark_branch = False
    if gen.dark_state_degenerate:
        # unique limit tau -> 0+ : coherence vanishes, populations decouple
        M[4] = 0.0
        M[4, 4] = 1.0
        dark_branch = True

    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NoUniqueSteadyStateError(
            "steady-state system is singular or ill-conditioned "
            f"(cond ~ {cond:.3e}); the transition network likely does not "
            "connect all four dot states")
    try:
        v = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoUniqueSteadyStateError(
            f"steady-state solve failed: {exc}") from exc

    full_residual = float(np.abs(A @ v).max())
    replaced_residual = float(abs(A[_NORM_ROW_INDEX] @ v))
    if replaced_residual > residual_tol * max(1.0, float(np.abs(A).max())):
        raise NoUniqueSteadyStateError(
            f"replaced-row residual {replaced_residual:.3e} exceeds tolerance; "
            "the computed kernel vector is not a steady state")

    state = _reference_from_vector(v)
    state.validate(trace_tol=1e-9, pop_tol=1e-9, coherence_tol=1e-9)
    return SteadySolution(state=state, residual=full_residual,
                          replaced_row_residual=replaced_residual,
                          dark_state_branch=dark_branch)


# ---- maximize_power oracle ----------------------------------------------------

# qdphotocell.optimize.maximize_power as it read with a Nelder-Mead refinement:
# the objective clips, decodes the window coordinate nu and box-tests on
# floats, the kernel constants computed once, and all 4,096 (or 256) seeds
# are lexsorted.  It runs on the float simplex above, which the array simplex
# pins bit for bit, so it is wholly test-side, the derivative-free oracle of
# the package's Newton search.
# ``all_starts`` refines all ``refine_top`` best seeds, as the search did
# before it stopped at the first start that agrees with the incumbent.
def reference_maximize_power(params: ModelParams, free=("x_l", "x_r"), bounds=None, *,
                             seeds_per_dim: int = 16, refine_top: int = 8,
                             f_rel_tol: float = 1e-9, x_rel_tol: float = 1e-8,
                             max_evals_per_seed: int = 2000,
                             all_starts: bool = False) -> OptResult:
    """Maximize output power over the chosen scaled energy variables.

    Multi-start derivative-free search: a coarse deterministic seed grid
    (``seeds_per_dim`` points per free dimension, window-relative in the
    x_r direction), followed by Nelder-Mead refinement of the best seeds in
    rank order.  The refinement stops after the first start whose optimum
    agrees with the best one so far (powers within ``f_rel_tol``, each
    search coordinate within sqrt(``f_rel_tol``) of its range), so two
    starts are the usual case; ``refine_top`` bounds the starts run.  The
    best refined point wins; ties break lexicographically on the coordinates.
    """
    if params.delta21 != 0.0:
        raise DomainError("power maximization supports the degenerate "
                          "configuration only (delta21 = 0)")
    if seeds_per_dim < 2 or refine_top < 1 or max_evals_per_seed < 1:
        raise DomainError("need seeds_per_dim >= 2, refine_top >= 1, and "
                          "max_evals_per_seed >= 1")
    free, box = _validated_options(free, bounds)
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
    t_box = [(_NU_MARGIN, 1.0 - _NU_MARGIN) if name == "x_r" else box[name]
             for name in free]
    t_lo, t_hi = (np.array(b) for b in zip(*t_box))

    evals = 0
    consts = _kernel_constants(params)

    def neg_power(t):
        # the Nelder-Mead objective on any sequence of floats: -power inside
        # the box and the converter regime, -0.0 elsewhere
        nonlocal evals
        evals += 1
        t = [min(max(v, lo), hi) for v, (lo, hi) in zip(t, t_box)]
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

    if not np.any(p_grid > 0.0):
        return OptResult(x_opt={k: base[k] for k in free}, p_max=0.0,
                         eta_at_pmax=None, evals=evals, converged=False,
                         degenerate=True)

    # best power first, ties broken lexicographically on the coordinates
    ranked = np.lexsort(tuple(t_grid.T[::-1]) + (-p_grid,))
    seeds = [i for i in ranked[:refine_top] if p_grid[i] > 0.0]

    # ---- refinement, until a start agrees with the incumbent ----
    t_range = t_hi - t_lo
    step = 0.05 * t_range
    x_tol = f_rel_tol ** _SAME_BASIN_X_EXP * t_range
    best = None  # (power, decoded point, t, converged)
    for starts, i in enumerate(seeds, 1):
        t0 = np.minimum(np.maximum(t_grid[i], t_lo + step), t_hi - step)
        tb, fb, used, conv, _, _ = nelder_mead(
            neg_power, t0, step,
            f_rel_tol=f_rel_tol, x_rel_tol=x_rel_tol,
            x_scale=t_range, max_evals=max_evals_per_seed)
        tb = np.minimum(np.maximum(tb, t_lo), t_hi)
        p, x = -fb, decode(tb)
        agrees = best is not None and (
            abs(p - best[0]) <= f_rel_tol * abs(best[0])
            and bool(np.all(np.abs(tb - best[2]) <= x_tol)))
        if best is None or (-p, x) < (-best[0], best[1]):
            best = (p, x, tb, conv)
        if agrees and not all_starts:
            break
    p_best, (xg, xl, xr), _, conv = best

    x_opt = {name: float(v) for name, v in zip(_FREE_ORDER, (xg, xl, xr)) if name in free}
    active = tuple(
        name for name in free
        if min(abs(x_opt[name] - box[name][0]), abs(x_opt[name] - box[name][1]))
        <= _BOUND_FLAG_FRACTION * (box[name][1] - box[name][0]))
    eta = float(1.0 - (1.0 - eta_c) * (xr - xl) / xg) if p_best > 0.0 else None
    return OptResult(x_opt=x_opt, p_max=float(p_best), eta_at_pmax=eta,
                     evals=evals, converged=bool(conv),
                     degenerate=False, active_bounds=active, starts=starts)
