"""Physical parameters, bath occupation functions, and dissipation rates.

The converter is a four-state quantum dot (empty state, two quasi-degenerate
ground levels, one excited level) exchanging electrons with two leads at
temperature ``temp`` and photons with a radiation field at ``temp_p``.
This module owns the parameter record, the Bose/Fermi occupation functions
in overflow-safe form, the scaled-energy maps, and the assembly of all
dissipation rate coefficients.

Units: k_B = 1 and hbar = 1 throughout.  Energies are absolute (same unit as
the temperatures); rates carry the unit of the ``gamma_*`` couplings.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DomainError

__all__ = [
    "INFINITE",
    "ModelParams",
    "RateSet",
    "bose_occupation",
    "fermi_occupation",
    "scaled_energies",
    "params_from_scaled",
    "build_rates",
]

#: Sentinel for an infinitely fast decoherence rate (coherence removed exactly).
INFINITE = math.inf

# Above this argument exp(x) ~ expm1(x) to full double precision and the
# asymptotic forms avoid overflow up to x ~ 1e308.
_EXP_SWITCH = 350.0


def bose_occupation(x: float) -> float:
    """Mean photon number 1/(exp(x) - 1) at scaled energy ``x > 0``.

    Evaluated via ``expm1`` for small ``x`` and via ``exp(-x)`` beyond
    x = 350 so that arguments up to several hundred neither overflow nor
    lose precision.
    """
    if not (type(x) is float or isinstance(x, numbers.Real)) or not math.isfinite(x):
        raise DomainError(f"bose_occupation: argument must be a finite real, got {x!r}")
    x = float(x)
    if x == 0.0:
        raise DomainError("bose_occupation: x = 0 is the distribution's singularity")
    if x < 0.0:
        raise DomainError(f"bose_occupation: x must be positive, got {x}")
    if x > _EXP_SWITCH:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def fermi_occupation(x: float) -> float:
    """Fermi factor 1/(exp(x) + 1) for any finite real ``x``.

    Uses the logistic form exp(-|x|)/(1 + exp(-|x|)) so that fermi(x) and
    1 - fermi(-x) agree to rounding and |x| up to ~700 cannot overflow.
    """
    if not (type(x) is float or isinstance(x, numbers.Real)) or not math.isfinite(x):
        raise DomainError(f"fermi_occupation: argument must be a finite real, got {x!r}")
    x = float(x)
    if x >= 0.0:
        e = math.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(x))


def _bose_array(x):
    """Vectorized bose_occupation without domain checks (callers guarantee x > 0)."""
    x = np.asarray(x, dtype=float)
    big = x > _EXP_SWITCH
    safe = np.where(big, 1.0, x)
    out = 1.0 / np.expm1(safe)
    return np.where(big, np.exp(-x), out)


def _fermi_array(x):
    """Vectorized fermi_occupation without domain checks (same logistic form)."""
    x = np.asarray(x, dtype=float)
    z = np.exp(-np.abs(x))
    # numerator 1 for x < 0, else z; z <= 1, and NaN stays NaN
    return np.maximum(z, x < 0.0) / (1.0 + z)


def _require_real(name: str, value) -> float:
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _all_finite(values: list) -> bool:
    """True when every float of ``values`` is finite.  An inf or NaN entry
    makes the sum inf or NaN, so a finite sum proves it, and only a sum that
    overflows is read again entry by entry."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


# numpy dtype kinds read as real numbers: float, signed and unsigned integer,
# and bool (0 and 1, as numpy casts it)
_REAL_KINDS = "fiub"


def _require_real_array(name: str, value) -> np.ndarray:
    """``value`` as a new float64 array, or DomainError naming ``name`` when numpy
    cannot read it as a regular array of real numbers: ragged, or of string,
    complex or object (None) entries."""
    try:
        arr = np.array(value)
    except ValueError as exc:
        raise DomainError(f"{name} must be an array of real numbers: {exc}") from None
    if arr.dtype.kind not in _REAL_KINDS:
        raise DomainError(f"{name} must be an array of real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


@dataclass(frozen=True)
class ModelParams:
    """All physical knobs of the converter.

    Attributes
    ----------
    eps_g : float
        Bandgap energy (excited level minus lower ground level), > 0.
    eps_l : float
        Energy of the lower ground level g1 (both levels when degenerate).
    delta21 : float
        Ground-level splitting eps_g2 - eps_g1 >= 0.  The validated
        configuration is delta21 = 0; nonzero splittings are handled by
        the same equations but are an extrapolation.
    mu_l, mu_r : float
        Lead chemical potentials; mu_r - mu_l is the applied bias energy.
    temp : float
        Common lead temperature, > 0.
    temp_p : float
        Photon temperature, > 0.
    gamma_p, gamma_l, gamma_r : float
        Diagonal transition rates for the photon, left-lead, and right-lead
        channels, >= 0.  A zero rate disconnects that channel; steady-state
        uniqueness is then decided by the solver's conditioning check.
    r_p, r_l : float
        Cross-coupling strengths in [0, 1] for the photon and left-lead
        channels; the cross rates are taken real and symmetric.
    tau : float
        Phenomenological decoherence rate >= 0, or ``INFINITE`` to remove
        the coherence from the dynamics exactly.
    """

    eps_g: float = 11560.0
    eps_l: float = 0.0
    delta21: float = 0.0
    mu_l: float = 0.0
    mu_r: float = 11560.0
    temp: float = 295.0
    temp_p: float = 5780.0
    gamma_p: float = 1.0
    gamma_l: float = 1.0
    gamma_r: float = 1.0
    r_p: float = 0.0
    r_l: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        for name in _FIELDS:
            value = getattr(self, name)
            # a Python float is stored as given; anything else is read once
            if type(value) is not float:
                value = _require_real(name, value)
                object.__setattr__(self, name, value)
            if name != "tau" and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.eps_g <= 0.0:
            raise DomainError(f"eps_g must be > 0, got {self.eps_g}")
        if self.temp <= 0.0 or self.temp_p <= 0.0:
            raise DomainError("temp and temp_p must be > 0 "
                              f"(got temp={self.temp}, temp_p={self.temp_p})")
        for name in ("gamma_p", "gamma_l", "gamma_r"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("r_p", "r_l"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise DomainError(f"{name} must satisfy 0 <= {name} <= 1, got {r}")
        if not self.delta21 >= 0.0:
            raise DomainError(f"delta21 must be >= 0, got {self.delta21}")
        if self.delta21 >= self.eps_g:
            raise DomainError("delta21 must be smaller than eps_g so both optical "
                              f"transition energies stay positive (delta21={self.delta21}, "
                              f"eps_g={self.eps_g})")
        if self.tau != INFINITE and not math.isfinite(self.tau):
            raise DomainError(f"tau must be finite or INFINITE, got {self.tau}")
        if self.tau < 0.0:
            raise DomainError(f"tau must be >= 0, got {self.tau}")

    # -- scaled variables ---------------------------------------------------

    @property
    def x_g(self) -> float:
        """Bandgap over photon temperature, eps_g / temp_p."""
        return self.eps_g / self.temp_p

    @property
    def x_l(self) -> float:
        """Lead-referenced ground-level energy, (eps_l - mu_l) / temp."""
        return (self.eps_l - self.mu_l) / self.temp

    @property
    def x_r(self) -> float:
        """Lead-referenced excited-level energy, (eps_l + eps_g - mu_r) / temp."""
        return (self.eps_l + self.eps_g - self.mu_r) / self.temp

    def with_scaled(self, x_g=None, x_l=None, x_r=None) -> "ModelParams":
        """Copy of these parameters with the given scaled energies substituted."""
        x = [s if v is None else v for s, v in zip(scaled_energies(self), (x_g, x_l, x_r))]
        return params_from_scaled(*x, **{n: getattr(self, n) for n in _NON_ENERGY_FIELDS})

    def replace(self, **changes) -> "ModelParams":
        return replace(self, **changes)


_FIELDS = tuple(f.name for f in fields(ModelParams))
# the fields the scaled energies fix (the physical block of a config), and
# the fields params_from_scaled takes as they are
_ENERGY_FIELDS = ("eps_g", "eps_l", "mu_l", "mu_r")
_NON_ENERGY_FIELDS = tuple(name for name in _FIELDS if name not in _ENERGY_FIELDS)


def scaled_energies(params: ModelParams) -> tuple[float, float, float]:
    """Return (x_g, x_l, x_r) for the given parameters."""
    return params.x_g, params.x_l, params.x_r


def params_from_scaled(x_g: float, x_l: float, x_r: float, *,
                       temp: float = ModelParams.temp, temp_p: float = ModelParams.temp_p,
                       gamma: float = ModelParams.gamma_p, gamma_p=None, gamma_l=None,
                       gamma_r=None, r_p: float = ModelParams.r_p,
                       r_l: float = ModelParams.r_l, tau: float = ModelParams.tau,
                       delta21: float = ModelParams.delta21) -> ModelParams:
    """Build ModelParams from scaled energies.

    Gauge choice: eps_l = 0 and mu_l = 0 - x_l * temp (+0.0 at x_l = 0).
    Only energy differences enter any observable, so the gauge is free.  The scaled -> physical ->
    scaled round trip holds to rounding only: x_g and x_l can come back an
    ulp off, and x_r, recovered as (eps_g - mu_r) / temp, carries an error of
    order 1e-16 * eps_g / temp.
    """
    x_g = _require_real("x_g", x_g)
    x_l = _require_real("x_l", x_l)
    x_r = _require_real("x_r", x_r)
    temp, temp_p = _require_real("temp", temp), _require_real("temp_p", temp_p)
    eps_l = 0.0
    eps_g = x_g * temp_p
    mu_l = 0.0 - x_l * temp
    mu_r = eps_l + eps_g - x_r * temp
    return ModelParams(
        eps_g=eps_g, eps_l=eps_l, delta21=delta21, mu_l=mu_l, mu_r=mu_r,
        temp=temp, temp_p=temp_p,
        gamma_p=gamma if gamma_p is None else gamma_p,
        gamma_l=gamma if gamma_l is None else gamma_l,
        gamma_r=gamma if gamma_r is None else gamma_r,
        r_p=r_p, r_l=r_l, tau=tau,
    )


_RATE_MATRICES = ("b_plus", "b_minus", "f_l_plus", "f_l_minus")


@dataclass(frozen=True)
class RateSet:
    """Evaluated dissipation coefficients feeding the evolution generator.

    Index convention: entry [i][j] is the coefficient with level indices
    (i+1, j+1) evaluated at the transition energy of level j+1, which is the
    argument the defining expressions use.  Because the cross rates are real
    and symmetric, every coefficient the equations of motion need at either
    transition energy is one of the stored entries.

    b_plus / b_minus : (2, 2) arrays
        Photon absorption / emission coefficients.
    f_l_plus / f_l_minus : (2, 2) arrays
        Left-lead injection / extraction coefficients.
    f_r_plus / f_r_minus : float
        Right-lead injection / extraction coefficients at the excited level.

    The matrices are stored as read-only float64 views of one (4, 2, 2)
    block, the two floats as Python floats.  DomainError names the field of
    a matrix numpy cannot read as (2, 2) real numbers (a bool reads as 0 or
    1) and of a float field that is not a real number or is a bool; it is
    also raised for an entry that is not finite and non-negative.
    """

    b_plus: np.ndarray
    b_minus: np.ndarray
    f_l_plus: np.ndarray
    f_l_minus: np.ndarray
    f_r_plus: float
    f_r_minus: float

    def __post_init__(self):
        # the four matrices as one read-only (4, 2, 2) block, each field a view
        # of it; field by field only to name the one numpy cannot read
        try:
            block = np.array((self.b_plus, self.b_minus, self.f_l_plus, self.f_l_minus))
        except ValueError:
            block = None
        if block is None or block.shape != (4, 2, 2) or block.dtype.kind not in _REAL_KINDS:
            # four (2, 2) arrays of real numbers would stack, so one field raises
            for name in _RATE_MATRICES:
                if _require_real_array(f"RateSet.{name}", getattr(self, name)).shape != (2, 2):
                    raise DomainError(f"RateSet.{name} must have shape (2, 2)")
        block = block.astype(float, copy=False)
        block.setflags(write=False)
        for name, arr in zip(_RATE_MATRICES, block):
            object.__setattr__(self, name, arr)
        entries = block.ravel().tolist()
        for name in ("f_r_plus", "f_r_minus"):
            value = getattr(self, name)
            if type(value) is not float:
                value = _require_real(f"RateSet.{name}", value)
                object.__setattr__(self, name, value)
            entries.append(value)
        if not _all_finite(entries):
            raise DomainError("RateSet entries must be finite")
        if min(entries) < 0.0:
            raise DomainError("RateSet entries must be non-negative")


def _lead_rates(params: ModelParams) -> tuple[list, list, float, float]:
    """The lead coefficients of :func:`build_rates`, their single source:
    ``f_l_plus`` and ``f_l_minus`` as nested lists of floats, ``f_r_plus``
    and ``f_r_minus`` as floats, without RateSet's checks."""
    t = params.temp
    # level 1 at eps_l, level 2 at eps_l + delta21, the excited level at eps_l + eps_g
    f1 = fermi_occupation((params.eps_l - params.mu_l) / t)
    f2 = fermi_occupation((params.eps_l + params.delta21 - params.mu_l) / t)
    fr = fermi_occupation((params.eps_l + params.eps_g - params.mu_r) / t)
    # entry [i][j] is the (gamma, r * gamma) weight times the occupation at level j + 1
    gl, cl = params.gamma_l, params.r_l * params.gamma_l
    return ([[gl * f1, cl * f2], [cl * f1, gl * f2]],
            [[gl * (1.0 - f1), cl * (1.0 - f2)], [cl * (1.0 - f1), gl * (1.0 - f2)]],
            params.gamma_r * fr, params.gamma_r * (1.0 - fr))


def build_rates(params: ModelParams) -> RateSet:
    """Evaluate all dissipation coefficients for the given parameters.

    In the degenerate configuration (delta21 = 0) the diagonal photon
    coefficients are gamma_p * n(x_g) and gamma_p * (1 + n(x_g)), the lead
    coefficients carry the Fermi factors at x_l and x_r, and every cross
    entry is the matching diagonal entry scaled by r_p or r_l.  For
    delta21 > 0 each entry is evaluated at its own transition energy.  The
    four lead fields come from :func:`_lead_rates`, which
    :func:`qdphotocell.thermo.currents` reads too.
    """
    tp = params.temp_p
    # transition energies eps_e - eps_g1 = eps_g and eps_e - eps_g2 = eps_g - delta21
    n1 = bose_occupation(params.eps_g / tp)
    n2 = bose_occupation((params.eps_g - params.delta21) / tp)
    f_l_plus, f_l_minus, f_r_plus, f_r_minus = _lead_rates(params)

    # entry [i][j] is the channel's (gamma, r * gamma) weight times the
    # occupation factor at the transition energy of level j + 1
    gp, cp = params.gamma_p, params.r_p * params.gamma_p
    return RateSet(
        b_plus=[[gp * n1, cp * n2], [cp * n1, gp * n2]],
        b_minus=[[gp * (1.0 + n1), cp * (1.0 + n2)], [cp * (1.0 + n1), gp * (1.0 + n2)]],
        f_l_plus=f_l_plus, f_l_minus=f_l_minus, f_r_plus=f_r_plus, f_r_minus=f_r_minus,
    )
