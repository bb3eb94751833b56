"""Built-in invariant checks runnable from the installed command line.

A compact, seeded subset of the package's property suite: probability
conservation, current balance, the coherence zero loci, oracle equivalence
between the linear solve and time integration, detailed balance of the
rates, the algebraic power/efficiency identities, the Carnot bound,
optimizer determinism, and a sweep row computed alone equal to the same row
inside a sweep.  Intended as a quick health check of an
installation, not a replacement for the full pytest suite.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import DensityState, build_generator, evolve, spectral_gap, steady_state
from .experiments import run_fig2
from .model import ModelParams, build_rates, params_from_scaled
from .optimize import maximize_power
from .thermo import currents, reference_efficiencies, thermo_report

__all__ = ["run_selftest", "draw_params"]

_SEED = 20260810


def draw_params(rng, **fixed) -> ModelParams:
    """One draw over the property-test ranges, every value drawn in this order
    before ``fixed`` replaces some: x_g in [0.5, 10]; x_l, x_r in [-5, 5];
    r_p, r_l in [0, 1]; tau in [0, 10]; unit rates; 295 K / 5780 K."""
    values = dict(
        x_g=rng.uniform(0.5, 10.0),
        x_l=rng.uniform(-5.0, 5.0),
        x_r=rng.uniform(-5.0, 5.0),
        r_p=rng.uniform(0.0, 1.0),
        r_l=rng.uniform(0.0, 1.0),
        tau=rng.uniform(0.0, 10.0),
    )
    return params_from_scaled(**{**values, **fixed})


def _check_conservation(n=200):
    rng = np.random.default_rng(_SEED)
    failures = []
    for k in range(n):
        p = draw_params(rng)
        gen = build_generator(build_rates(p), p.delta21, p.tau)
        if gen.left_null_residual() > 1e-12:
            failures.append(f"draw {k}: left-null residual {gen.left_null_residual():.2e}")
        sol = steady_state(gen)
        if abs(sol.state.trace - 1.0) > 1e-10:
            failures.append(f"draw {k}: steady trace off by {sol.state.trace - 1.0:.2e}")
    return n, failures


def _check_current_balance(n=200):
    rng = np.random.default_rng(_SEED + 1)
    failures = []
    for k in range(n):
        p = draw_params(rng)
        sol = steady_state(build_generator(build_rates(p), p.delta21, p.tau))
        j_l, j_r = currents(sol.state, p)
        if abs(j_l + j_r) > 1e-10 * max(1.0, abs(j_l)):
            failures.append(f"draw {k}: |j_l + j_r| = {abs(j_l + j_r):.2e}")
    return n, failures


def _check_coherence_zero(n=50):
    rng = np.random.default_rng(_SEED + 2)
    failures = []
    for k in range(n):
        r = rng.uniform(0.0, 1.0)
        p = params_from_scaled(rng.uniform(0.5, 10.0), rng.uniform(-5, 5),
                               rng.uniform(-5, 5), r_p=r, r_l=r,
                               tau=rng.uniform(0.0, 10.0))
        sol = steady_state(build_generator(build_rates(p), p.delta21, p.tau))
        if abs(sol.state.rho12) > 1e-12:
            failures.append(f"draw {k}: r_p=r_l but |rho12|={abs(sol.state.rho12):.2e}")
    for k in range(n):
        x_g = rng.uniform(0.5, 10.0)
        x_l = rng.uniform(-5.0, 5.0)
        p = params_from_scaled(x_g, x_l, x_g + x_l, r_p=rng.uniform(0, 1),
                               r_l=rng.uniform(0, 1), tau=rng.uniform(0.0, 10.0))
        sol = steady_state(build_generator(build_rates(p), p.delta21, p.tau))
        if abs(sol.state.rho12) > 1e-12:
            failures.append(f"resonant draw {k}: |rho12|={abs(sol.state.rho12):.2e}")
    return 2 * n, failures


def _check_oracle_equivalence(n=5):
    rng = np.random.default_rng(_SEED + 3)
    failures = []
    taken = 0
    while taken < n:
        p = draw_params(rng)
        gen = build_generator(build_rates(p), p.delta21, p.tau)
        if spectral_gap(gen) < 0.11:
            continue  # transient would not die out within the fixed duration
        taken += 1
        sol = steady_state(gen)
        ev = evolve(gen, DensityState(0.0, 0.0, 0.0, 1.0), 200.0, 1e-3)
        diff = float(np.abs(ev.as_vector() - sol.state.as_vector()).max())
        if diff > 1e-8:
            failures.append(f"draw {taken}: solve vs integration diff {diff:.2e}")
    return n, failures


def _check_detailed_balance():
    failures = []
    xs = np.linspace(0.25, 20.0, 40)
    checks = 0
    for x in xs:
        p = params_from_scaled(x, x / 3.0 - 2.0, x / 2.0, r_p=0.4, r_l=0.7)
        r = build_rates(p)
        pairs = (
            (r.b_plus[0, 0] / r.b_minus[0, 0], math.exp(-p.x_g), "photon"),
            (r.f_l_plus[0, 0] / r.f_l_minus[0, 0], math.exp(-p.x_l), "left"),
            (r.f_r_plus / r.f_r_minus, math.exp(-p.x_r), "right"),
        )
        for got, want, channel in pairs:
            checks += 1
            if abs(got - want) > 1e-12 * abs(want):
                failures.append(f"{channel} ratio at x_g={x:.3f}: {got!r} vs {want!r}")
    return checks, failures


def _check_thermo_identities(n=100):
    rng = np.random.default_rng(_SEED + 4)
    failures = []
    for k in range(n):
        p = draw_params(rng)
        sol = steady_state(build_generator(build_rates(p), p.delta21, p.tau))
        rep = thermo_report(sol.state, p)  # dual power forms asserted inside
        if rep.eta is not None:
            want = 1.0 - (1.0 - rep.eta_c) * (p.x_r - p.x_l) / p.x_g
            if abs(rep.eta - want) > 1e-12 * max(1.0, abs(want)):
                failures.append(f"draw {k}: eta identity off by {rep.eta - want:.2e}")
        if rep.stationary and rep.power > 0.0 and rep.eta is not None:
            if rep.eta > rep.eta_c + 1e-9:
                failures.append(f"draw {k}: eta {rep.eta} above Carnot {rep.eta_c}")
    return n, failures


def _check_equilibrium_null():
    failures = []
    # equal temperatures and equal chemical potentials: a true equilibrium
    p = ModelParams(eps_g=2.0 * 295.0, eps_l=0.0, mu_l=100.0, mu_r=100.0,
                    temp=295.0, temp_p=295.0, r_p=0.8, r_l=0.1, tau=0.3)
    sol = steady_state(build_generator(build_rates(p), p.delta21, p.tau))
    j_l, j_r = currents(sol.state, p)
    if abs(j_l) > 1e-12 or abs(j_r) > 1e-12:
        failures.append(f"equilibrium currents nonzero: j_l={j_l:.2e}, j_r={j_r:.2e}")
    if abs(sol.state.rho12) > 1e-12:
        failures.append(f"equilibrium coherence nonzero: {abs(sol.state.rho12):.2e}")
    eta_c, eta_ca = reference_efficiencies(295.0, 295.0)
    if eta_c != 0.0 or eta_ca != 0.0:
        failures.append("reference efficiencies at equal temperatures not zero")
    return 3, failures


def _check_optimizer():
    failures = []
    p = params_from_scaled(2.0, 0.0, 0.0, r_p=0.6, r_l=0.1)
    a = maximize_power(p, free=("x_l", "x_r"))
    b = maximize_power(p, free=("x_l", "x_r"))
    if a != b:
        failures.append("identical optimizer runs differ")
    if not (a.converged and a.max_curvature < 0.0 and a.grad_rel <= 1e-6):
        failures.append(f"optimum not certified: converged = {a.converged}, "
                        f"max_curvature = {a.max_curvature:.3g}, grad_rel = {a.grad_rel:.3g}")
    eq = params_from_scaled(2.0, 0.0, 0.0, temp=500.0, temp_p=500.0)
    d = maximize_power(eq, free=("x_l", "x_r"))
    if not d.degenerate or d.p_max != 0.0:
        failures.append("equal-temperature run not flagged degenerate")
    return 3, failures


def _check_sweep_row():
    failures = []
    # the middle row of a 3x3 sweep, and the same (r_p, r_l) swept alone
    middle = run_fig2([0.0, 0.5, 1.0], workers=1).rows[4]
    (alone,) = run_fig2([0.5], workers=1).rows
    if repr(alone) != repr(middle):
        failures.append(f"fig2 row (0.5, 0.5) alone {alone} differs from the same "
                        f"row in a 3x3 sweep {middle}")
    return 1, failures


_SUITES = (
    ("generator-conservation", _check_conservation),
    ("current-balance", _check_current_balance),
    ("coherence-zero-loci", _check_coherence_zero),
    ("oracle-equivalence", _check_oracle_equivalence),
    ("detailed-balance", _check_detailed_balance),
    ("thermo-identities", _check_thermo_identities),
    ("equilibrium-null", _check_equilibrium_null),
    ("optimizer-determinism", _check_optimizer),
    ("sweep-row-alone", _check_sweep_row),
)


def run_selftest(report=print) -> tuple[int, int]:
    """Run all suites; returns (passed, failed) counts over individual checks."""
    total_pass = 0
    total_fail = 0
    for name, suite in _SUITES:
        checks, failures = suite()
        total_pass += checks - len(failures)
        total_fail += len(failures)
        if failures:
            report(f"FAIL {name}: {len(failures)}/{checks} checks failed")
            for f in failures[:5]:
                report(f"     {f}")
        else:
            report(f"ok   {name} ({checks} checks)")
    report(f"selftest: {total_pass} passed, {total_fail} failed")
    return total_pass, total_fail
