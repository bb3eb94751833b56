"""Currents, heat flux, power, and efficiencies of a steady state.

Sign conventions: ``j_l`` and ``j_r`` are electron number currents flowing
from the left and right lead *into* the dot, obtained by tracing the number
operator against the corresponding dissipator.  With these definitions
probability conservation forces j_l + j_r = 0 at any steady state.  The
converter current is J = j_l (positive when electrons are pumped from the
left lead through the dot into the right lead against the bias).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import DensityState
from .errors import DomainError, SecondLawViolationError
from .model import ModelParams, _lead_rates

__all__ = [
    "ThermoReport",
    "lead_current",
    "currents",
    "thermo_report",
    "reference_efficiencies",
]

# |j_l + j_r| <= tol * max(1, |j_l|) qualifies a state as stationary
_STATIONARY_TOL = 1e-8

# Headroom on the Carnot bound before a positive-power stationary point is
# treated as a second-law violation (hard failure).
_SECOND_LAW_SLACK = 1e-9

# a sum of a few products of doubles below this share of its largest term is round-off
_ROUNDOFF_FLOOR = 64.0 * 2.3e-16


def lead_current(f_in, f_out1, f_out2, f_cross, rho0, rho1, rho2, u):
    """Left-lead electron current into the dot, on floats or arrays alike:
    ``f_in`` is the summed injection coefficient of both ground levels,
    ``f_out1``/``f_out2`` their extraction coefficients, ``f_cross`` the
    summed cross extraction coefficient, and ``u`` = Re rho12.

    Each term carries a factor of 2, taken once outside the sum.  Scaling by
    2 is exact in binary floating point, so this keeps the bits of the sum
    of the doubled terms, except where a product of a coefficient and a
    state component is subnormal (the subnormal rounding step is absolute,
    so it does not double with the product) or where a doubled term
    overflows and the sum does not."""
    return 2.0 * (f_in * rho0 - (f_out1 * rho1 + f_out2 * rho2) - f_cross * u)


def _lead_current_args(state: DensityState, f_l_plus: list, f_l_minus: list) -> tuple:
    """The arguments of :func:`lead_current` as Python floats, from the
    nested lists :func:`qdphotocell.model._lead_rates` returns."""
    (flp11, _), (_, flp22) = f_l_plus
    (flm11, flm12), (flm21, flm22) = f_l_minus
    return (flp11 + flp22, flm11, flm22, flm21 + flm12,
            state.rho0, state.rho1, state.rho2, state.rho12.real)


def currents(state: DensityState, params: ModelParams) -> tuple[float, float]:
    """Electron currents (j_l, j_r) from the left/right lead into the dot.

    Both are the trace of the number operator against the respective lead
    dissipator, so they include the coherence contribution on the left side
    (both ground levels couple to the same lead) and satisfy j_l = -j_r at
    any steady state.  The lead coefficients come from
    :func:`qdphotocell.model._lead_rates`, the single source
    :func:`qdphotocell.model.build_rates` takes them from.
    """
    f_l_plus, f_l_minus, f_r_plus, f_r_minus = _lead_rates(params)
    j_r = 2.0 * f_r_plus * state.rho0 - 2.0 * f_r_minus * state.rho_e
    return lead_current(*_lead_current_args(state, f_l_plus, f_l_minus)), j_r


@dataclass(frozen=True)
class ThermoReport:
    """Steady-state thermodynamic observables.

    ``eta`` is power / q_dot_p in every regime, None when the converter
    current vanishes (0/0 efficiency).  Above temp_p it is negative (-0.107
    at x_g = 5, x_l = -2, x_r = 2, temp = 8000 K) and is not the efficiency
    of the heat engine the leads then drive.
    ``stationary`` is False when the input state failed the current-balance
    check; the values are still reported but should not be read as
    steady-state thermodynamics.
    """

    j_l: float
    j_r: float
    j: float
    q_dot_p: float
    power: float
    eta: float | None
    eta_c: float
    eta_ca: float
    stationary: bool


def reference_efficiencies(temp: float, temp_p: float) -> tuple[float, float]:
    """Carnot and Curzon-Ahlborn efficiencies for lead/photon temperatures.

    eta_c = 1 - temp/temp_p and eta_ca = 1 - sqrt(temp/temp_p); requires
    0 < temp <= temp_p.
    """
    if not (temp > 0.0 and math.isfinite(temp) and math.isfinite(temp_p)):
        raise DomainError(f"temperatures must be positive and finite, "
                          f"got temp={temp!r}, temp_p={temp_p!r}")
    if temp > temp_p:
        raise DomainError(f"temp = {temp} exceeds temp_p = {temp_p}; "
                          "the converter needs temp <= temp_p")
    ratio = temp / temp_p
    return 1.0 - ratio, 1.0 - math.sqrt(ratio)


def thermo_report(state: DensityState, params: ModelParams) -> ThermoReport:
    """Full thermodynamic report for a (nominally steady) state.

    The output power is computed both as bias times current and in the
    scaled-energy form temp_p * [x_g - (1 - eta_c)(x_r - x_l)] * J; the two
    algebraic forms are asserted equal to 1e-12 relative.  Where
    temp <= temp_p, a stationary point with positive power and eta > eta_c
    raises :class:`SecondLawViolationError`, unless its current is round-off
    of a zero current, below the floor of its largest term.  Above temp_p the
    leads are the hot bath, eta_c < 0 bounds nothing and eta_ca is NaN.
    """
    j_l, j_r = currents(state, params)
    stationary = abs(j_l + j_r) <= _STATIONARY_TOL * max(1.0, abs(j_l))
    j = j_l
    q_dot_p = params.eps_g * j
    power = (params.mu_r - params.mu_l) * j

    eta_c = 1.0 - params.temp / params.temp_p
    x_g, x_l, x_r = params.x_g, params.x_l, params.x_r
    power_scaled_form = params.temp_p * (x_g - (1.0 - eta_c) * (x_r - x_l)) * j
    # near zero bias both forms are differences of large terms; the identity
    # is only meaningful above the cancellation floor of those terms
    floor = _ROUNDOFF_FLOOR * abs(j) * (abs(params.mu_r) + abs(params.mu_l)
                                        + params.temp_p * (abs(x_g) + abs(x_r - x_l)))
    tol = max(1e-12 * max(abs(power), abs(power_scaled_form)), floor)
    if abs(power - power_scaled_form) > tol:
        raise AssertionError(
            f"power forms disagree: {power!r} vs {power_scaled_form!r}")

    eta = power / q_dot_p if q_dot_p != 0.0 else None
    converter = params.temp <= params.temp_p  # else no converter regime
    eta_ca = reference_efficiencies(params.temp, params.temp_p)[1] if converter else math.nan

    if (converter and stationary and power > 0.0 and eta is not None
            and eta > eta_c + _SECOND_LAW_SLACK):
        # the floor reads the lead coefficients a second time, so only where
        # the bound is crossed
        args = _lead_current_args(state, *_lead_rates(params)[:2])
        largest = 2.0 * max(abs(f * x) for f, x in zip(args[:4], args[4:]))
        if abs(j) > _ROUNDOFF_FLOOR * largest:
            raise SecondLawViolationError(
                f"stationary point with power {power!r} has eta = {eta!r} above "
                f"the Carnot bound {eta_c!r}")

    return ThermoReport(j_l=j_l, j_r=j_r, j=j, q_dot_p=q_dot_p, power=power,
                        eta=eta, eta_c=eta_c, eta_ca=eta_ca, stationary=stationary)
