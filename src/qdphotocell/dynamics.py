"""Evolution generator, steady-state solve, and time-integration oracle.

The density matrix of the four-state dot is reduced to the real vector

    v = (rho1, rho2, rho_e, rho0, Re rho12, Im rho12)

where rho12 is the coherence between the two ground levels; its conjugate
partner is eliminated analytically.  The master equation is then a linear
system v' = A v with a 6x6 real generator A whose first four rows conserve
probability exactly (the row vector (1,1,1,1,0,0) is a left null vector).

The nonequilibrium steady state is the kernel of A normalized to unit trace,
computed by replacing the redundant empty-state row with the normalization
row and solving the square system by partial-pivot elimination.  A fixed-step
fourth-order integrator provides an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoUniqueSteadyStateError, StepInstabilityError
from .model import INFINITE, RateSet, _all_finite, _require_real, _require_real_array

__all__ = [
    "DensityState",
    "Generator",
    "SteadySolution",
    "build_generator",
    "steady_state",
    "evolve",
    "spectral_gap",
]

_TRACE_ROW = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])

# Row replaced by the normalization condition: the empty-state balance row,
# whose content is implied by trace preservation.
_NORM_ROW_INDEX = 3

# Right-hand side of the replaced-row system: unit trace, every other row zero.
_RHS = np.zeros(6)
_RHS[_NORM_ROW_INDEX] = 1.0
_RHS.setflags(write=False)

# Condition-number gate beyond which the replaced-row solve is treated as
# having no unique solution.
_COND_LIMIT = 1e12

# Largest replaced-row residual of a steady state, relative to max(1, |A_ij|).
_RESIDUAL_TOL = 1e-10

# Largest trace drift of a stable integration at a block boundary.
_TRACE_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class DensityState:
    """Populations and ground-doublet coherence of the four-state dot."""

    rho1: float
    rho2: float
    rho_e: float
    rho0: float
    rho12: complex = 0.0 + 0.0j

    @property
    def trace(self) -> float:
        return self.rho1 + self.rho2 + self.rho_e + self.rho0

    @property
    def populations(self) -> tuple[float, float, float, float]:
        return (self.rho1, self.rho2, self.rho_e, self.rho0)

    @property
    def populations_clamped(self) -> tuple[float, float, float, float]:
        """Populations clamped to [0, 1] for reporting."""
        return tuple(min(1.0, max(0.0, p)) for p in self.populations)

    def as_vector(self) -> np.ndarray:
        return np.array([self.rho1, self.rho2, self.rho_e, self.rho0,
                         self.rho12.real, self.rho12.imag])

    @classmethod
    def from_vector(cls, v) -> "DensityState":
        v = np.asarray(v, dtype=float)
        if v.shape != (6,):
            raise DomainError(f"state vector must have shape (6,), got {v.shape}")
        rho1, rho2, rho_e, rho0, re12, im12 = v.tolist()
        return cls(rho1=rho1, rho2=rho2, rho_e=rho_e, rho0=rho0,
                   rho12=complex(re12, im12))

    def validate(self, trace_tol: float = 1e-10, pop_tol: float = 1e-12,
                 coherence_tol: float = 1e-12) -> None:
        """Raise DomainError if the state violates its physical invariants."""
        if abs(self.trace - 1.0) > trace_tol:
            raise DomainError(f"state trace {self.trace!r} deviates from 1 "
                              f"by more than {trace_tol}")
        for name, p in zip(("rho1", "rho2", "rho_e", "rho0"), self.populations):
            if not -pop_tol <= p <= 1.0 + pop_tol:
                raise DomainError(f"population {name} = {p!r} outside [0, 1]")
        if abs(self.rho12) ** 2 > self.rho1 * self.rho2 + coherence_tol:
            raise DomainError(
                f"|rho12|^2 = {abs(self.rho12)**2!r} exceeds rho1*rho2 = "
                f"{self.rho1 * self.rho2!r}: ground-doublet block not positive")


@dataclass(frozen=True)
class Generator:
    """Linear evolution generator acting on the reduced state vector.

    ``matrix`` reproduces the population/coherence equations of motion built
    from a :class:`RateSet` by :func:`build_generator`; ``delta21`` is the
    ground-level splitting and ``tau`` the decoherence rate (``INFINITE``
    pins the coherence to zero exactly instead of damping it).  When the cross
    couplings are maximal on every ground-coupling channel and tau = 0 with
    degenerate levels, the antisymmetric ground combination decouples from
    all baths ("dark state") and the kernel is two-dimensional;
    ``dark_state_degenerate`` records that situation so the steady-state
    solver can select the decoherence-continuity branch.  ``matrix`` is
    stored as a read-only float64 copy; one numpy cannot read as 6x6 finite
    real numbers raises DomainError.
    """

    matrix: np.ndarray
    delta21: float
    tau: float
    dark_state_degenerate: bool

    def __post_init__(self):
        m = _require_real_array("generator matrix", self.matrix)
        if m.shape != (6, 6):
            raise DomainError(f"generator matrix must be 6x6, got {m.shape}")
        if not _all_finite(m.ravel().tolist()):
            raise DomainError("generator matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def left_null_residual(self) -> float:
        """Max |(1,1,1,1,0,0) . A| over columns; zero when trace is conserved."""
        return float(np.abs(_TRACE_ROW @ self.matrix).max())


def _is_dark_state_degenerate(bp, bm, flp, flm, delta21: float, tau: float) -> bool:
    """Dark-state test on nested lists of the photon and left-lead coefficients or weights."""
    if delta21 != 0.0 or tau != 0.0:
        return False
    photon_dead = bm[0][0] == 0.0 and bp[0][0] == 0.0
    left_dead = flp[0][0] == 0.0 and flm[0][0] == 0.0
    photon_max = bp[0][1] == bp[0][0] and bm[0][1] == bm[0][0]
    left_max = flp[0][1] == flp[0][0] and flm[0][1] == flm[0][0]
    if photon_dead and left_dead:
        return False  # fully disconnected doublet: generic singular handling
    return (photon_dead or photon_max) and (left_dead or left_max)


def build_generator(rates: RateSet, delta21: float = 0.0, tau: float = 0.0) -> Generator:
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
    tau = _require_real("tau", tau)
    delta21 = _require_real("delta21", delta21)
    if tau != INFINITE:
        if not math.isfinite(tau):
            raise DomainError(f"tau must be finite or INFINITE, got {tau!r}")
        if tau < 0.0:
            raise DomainError(f"tau must be >= 0, got {tau}")
    if not math.isfinite(delta21) or delta21 < 0.0:
        raise DomainError(f"delta21 must be finite and >= 0, got {delta21!r}")

    bp, bm = rates.b_plus.tolist(), rates.b_minus.tolist()
    flp, flm = rates.f_l_plus.tolist(), rates.f_l_minus.tolist()
    frp, frm = rates.f_r_plus, rates.f_r_minus

    A = [
        # ground level 1
        [-2.0 * (bp[0][0] + flm[0][0]), 0.0, 2.0 * bm[0][0], 2.0 * flp[0][0],
         -2.0 * (bp[0][1] + flm[0][1]), 0.0],
        # ground level 2
        [0.0, -2.0 * (bp[1][1] + flm[1][1]), 2.0 * bm[1][1], 2.0 * flp[1][1],
         -2.0 * (bp[1][0] + flm[1][0]), 0.0],
        # excited level
        [2.0 * bp[0][0], 2.0 * bp[1][1], -2.0 * (bm[0][0] + bm[1][1] + frm),
         2.0 * frp, 2.0 * (bp[1][0] + bp[0][1]), 0.0],
        # empty state
        [2.0 * flm[0][0], 2.0 * flm[1][1], 2.0 * frm,
         -2.0 * (flp[0][0] + flp[1][1] + frp), 2.0 * (flm[1][0] + flm[0][1]), 0.0],
    ]
    if tau == INFINITE:
        # coherence pinned to zero; unit relaxation keeps the solve square
        A.append([0.0, 0.0, 0.0, 0.0, -1.0, 0.0])
        A.append([0.0, 0.0, 0.0, 0.0, 0.0, -1.0])
    else:
        decay = bp[0][0] + bp[1][1] + flm[0][0] + flm[1][1] + tau
        A.append([-(bp[1][0] + flm[1][0]), -(bp[0][1] + flm[0][1]),
                  bm[1][0] + bm[0][1], flp[1][0] + flp[0][1], -decay, -delta21])
        A.append([0.0, 0.0, 0.0, 0.0, delta21, -decay])

    return Generator(matrix=A, delta21=delta21, tau=tau,
                     dark_state_degenerate=_is_dark_state_degenerate(
                         bp, bm, flp, flm, delta21, tau))


@dataclass(frozen=True)
class SteadySolution:
    """Steady state plus solver diagnostics.

    residual : float
        Max-norm of A v over all six generator rows at the solution.
    replaced_row_residual : float
        Residual of the empty-state row that was swapped for normalization.
    dark_state_branch : bool
        True when the two-dimensional-kernel degeneracy was resolved by
        pinning the coherence to its decoherence-continuity value (zero).
    """

    state: DensityState
    residual: float
    replaced_row_residual: float
    dark_state_branch: bool = False


def steady_state(gen: Generator) -> SteadySolution:
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

    dark_branch = False
    if gen.dark_state_degenerate:
        # unique limit tau -> 0+ : coherence vanishes, populations decouple
        M[4] = 0.0
        M[4, 4] = 1.0
        dark_branch = True

    # the 2-norm condition number, as np.linalg.cond computes it
    s = np.linalg.svd(M, compute_uv=False).tolist()
    cond = s[0] / s[-1] if s[-1] > 0.0 else math.inf
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise NoUniqueSteadyStateError(
            "steady-state system is singular or ill-conditioned "
            f"(cond ~ {cond:.3e}); the transition network likely does not "
            "connect all four dot states")
    try:
        v = np.linalg.solve(M, _RHS)
    except np.linalg.LinAlgError as exc:
        raise NoUniqueSteadyStateError(
            f"steady-state solve failed: {exc}") from exc

    # numpy's max of |A v|, NaN if any entry is: a sum of magnitudes is NaN
    # only when one of them is
    residuals = list(map(abs, (A @ v).tolist()))
    full_residual = max(residuals) if not math.isnan(sum(residuals)) else math.nan
    replaced_residual = float(abs(A[_NORM_ROW_INDEX] @ v))
    # the scale max(1, max |A_ij|) is >= 1, so it is taken only past the bare
    # tolerance; A is finite (Generator checks), so this float max is numpy's
    if replaced_residual > _RESIDUAL_TOL and (
            replaced_residual > _RESIDUAL_TOL * max(1.0, *map(abs, A.ravel().tolist()))):
        raise NoUniqueSteadyStateError(
            f"replaced-row residual {replaced_residual:.3e} exceeds tolerance; "
            "the computed kernel vector is not a steady state")

    rho1, rho2, rho_e, rho0, re12, im12 = v.tolist()
    state = DensityState(rho1=rho1, rho2=rho2, rho_e=rho_e, rho0=rho0,
                         rho12=complex(re12, im12))
    state.validate(trace_tol=1e-9, pop_tol=1e-9, coherence_tol=1e-9)
    return SteadySolution(state=state, residual=full_residual,
                          replaced_row_residual=replaced_residual,
                          dark_state_branch=dark_branch)


def spectral_gap(gen: Generator) -> float:
    """Slowest nonzero relaxation rate of the generator.

    Returns -max(Re lambda) over eigenvalues away from the stationary
    kernel; exp(-gap * t) bounds how fast transients die out, which decides
    how long the time-integration oracle must run to reach a given accuracy.
    """
    ev = np.linalg.eigvals(gen.matrix)
    nonzero = ev[np.abs(ev) > 1e-12]
    if nonzero.size == 0:
        return 0.0
    return float(-np.max(nonzero.real))


def _rk4_step_matrix(A: np.ndarray, h: float) -> np.ndarray:
    """One-step propagator of classical RK4 for the linear system v' = A v."""
    B = h * A
    M = np.eye(6) + B
    term = B
    for k in (2.0, 3.0, 4.0):
        term = term @ B / k
        M = M + term
    return M


def evolve(gen: Generator, initial: DensityState, duration: float, dt: float) -> DensityState:
    """Integrate v' = A v with fixed-step fourth-order Runge-Kutta.

    For a linear autonomous system the four RK4 stages collapse into a
    constant one-step propagator; steps are applied in blocks of up to 1024
    via exact binary powering, with the probability trace monitored at every
    block boundary.  Instability (trace drift beyond _TRACE_DRIFT_TOL or
    non-finite values) raises :class:`StepInstabilityError`.

    With ``dt <= 1e-3 / gamma`` the trace is preserved to 1e-9 over
    durations up to 1e3 / gamma.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(duration) and duration >= 0.0):
        raise DomainError(f"duration must be >= 0 and finite, got {duration!r}")
    initial.validate(trace_tol=1e-9, pop_tol=1e-9, coherence_tol=1e-9)
    if duration == 0.0:
        return initial

    v = initial.as_vector()
    if gen.tau == INFINITE:
        # infinite decoherence removes the coherence before any dynamics
        v[4] = 0.0
        v[5] = 0.0

    n_steps = max(1, math.ceil(duration / dt - 1e-12))
    h = duration / n_steps
    block = 1024
    # overflow during divergence is the detection signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        M = _rk4_step_matrix(gen.matrix, h)
        if not np.all(np.isfinite(M)):
            raise StepInstabilityError("step matrix is not finite; reduce dt")
        for first in range(0, n_steps, block):
            P = np.linalg.matrix_power(M, min(block, n_steps - first))
            if not np.all(np.isfinite(P)):
                raise StepInstabilityError(
                    f"integration diverged with dt = {h:.3e}; reduce the step size")
            v = P @ v
            drift = abs(v[:4].sum() - 1.0)
            if not np.all(np.isfinite(v)) or drift > _TRACE_DRIFT_TOL:
                raise StepInstabilityError(
                    f"trace drift {drift:.3e} exceeds {_TRACE_DRIFT_TOL:.1e} with "
                    f"dt = {h:.3e}; reduce the step size")
    return DensityState.from_vector(v)
