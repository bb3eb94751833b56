"""Currents, power/efficiency identities, and the analytic coherence check."""

import math

import numpy as np
import pytest

from qdphotocell import (
    INFINITE,
    DensityState,
    DomainError,
    RateSet,
    SecondLawViolationError,
    build_generator,
    build_rates,
    currents,
    params_from_scaled,
    reference_efficiencies,
    steady_state,
    thermo_report,
)
from conftest import analytic_coherence_structure, draw_params, reference_currents


def solve(p):
    return steady_state(build_generator(build_rates(p), p.delta21, p.tau)).state


class TestCurrents:
    def test_empty_dot_injection_rates(self):
        # all weight on the empty state, symmetric Fermi factors at 1/2:
        # the left lead injects through two channels, the right through one
        p = params_from_scaled(2.0, 0.0, 0.0, gamma=1.0)
        st = DensityState(0.0, 0.0, 0.0, 1.0)
        j_l, j_r = currents(st, p)
        assert j_l == pytest.approx(2.0, rel=1e-15, abs=0.0)
        assert j_r == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_balance_at_steady_state(self, rng):
        for _ in range(300):
            p = draw_params(rng)
            j_l, j_r = currents(solve(p), p)
            assert abs(j_l + j_r) <= 1e-10 * max(1.0, abs(j_l))

    def test_balance_with_split_levels(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            p = p.replace(delta21=rng.uniform(0.0, 0.2) * p.eps_g)
            j_l, j_r = currents(solve(p), p)
            assert abs(j_l + j_r) <= 1e-10 * max(1.0, abs(j_l))

    def test_equilibrium_null(self):
        temp = 500.0
        p = params_from_scaled(1.7, -0.4, 1.3, temp=temp, temp_p=temp,
                               r_p=0.7, r_l=0.2, tau=0.1)
        j_l, j_r = currents(solve(p), p)
        assert abs(j_l) < 1e-12 and abs(j_r) < 1e-12

    def test_coherence_term_enters_left_current(self):
        # two states differing only in coherence must give different j_l
        p = params_from_scaled(2.0, -1.0, 3.0, r_l=0.5)
        a = DensityState(0.3, 0.3, 0.2, 0.2)
        b = DensityState(0.3, 0.3, 0.2, 0.2, rho12=-0.1 + 0.0j)
        assert currents(a, p)[0] != currents(b, p)[0]
        assert currents(a, p)[1] == currents(b, p)[1]


# unit round-off of a double
_U = 2.0 ** -53

_CURRENT_DRAWS = {
    "tau-zero": lambda rng: draw_params(rng, tau=0.0),
    "tau-finite": lambda rng: draw_params(rng),
    "tau-infinite": lambda rng: draw_params(rng, tau=INFINITE),
    "dark-corner": lambda rng: draw_params(rng, r_p=1.0, r_l=1.0, tau=0.0),
    "split-levels": lambda rng: draw_params(rng, delta21=rng.uniform(0.01, 2.0) * 295.0),
}


class TestCurrentsMatchOracle:
    """currents against the expression it replaced (conftest), whose terms it
    computes bit for bit and sums in another order."""

    @pytest.mark.parametrize("kind", sorted(_CURRENT_DRAWS))
    def test_left_within_summation_bound_right_exact(self, kind):
        rng = np.random.default_rng(sorted(_CURRENT_DRAWS).index(kind) + 707)
        for _ in range(300):
            p = _CURRENT_DRAWS[kind](rng)
            st = solve(p)
            j_l, j_r = currents(st, p)
            want_l, want_r = reference_currents(st, p)
            r = build_rates(p)
            terms = (2.0 * (r.f_l_plus[0, 0] + r.f_l_plus[1, 1]) * st.rho0,
                     2.0 * r.f_l_minus[0, 0] * st.rho1,
                     2.0 * r.f_l_minus[1, 1] * st.rho2,
                     2.0 * (r.f_l_minus[1, 0] + r.f_l_minus[0, 1]) * st.rho12.real)
            # a sum of four terms in any order lies within 3u sum|terms| of
            # the exact sum, so two orders lie within 6u of each other
            assert abs(j_l - want_l) <= 6.0 * _U * sum(map(abs, terms))
            assert j_r.hex() == float(want_r).hex()
            assert type(j_l) is float and type(j_r) is float

    def test_report_fields_are_python_scalars(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            rep = thermo_report(solve(p), p)
            for name in ("j_l", "j_r", "j", "q_dot_p", "power", "eta", "eta_c", "eta_ca"):
                assert type(getattr(rep, name)) is float, name
            assert type(rep.stationary) is bool


class TestThermoReport:
    def test_zero_bias_zero_power(self):
        from qdphotocell import ModelParams
        p = ModelParams(eps_g=11560.0, eps_l=0.0, mu_l=250.0, mu_r=250.0,
                        temp=295.0, temp_p=5780.0)
        st = DensityState(0.3, 0.3, 0.2, 0.2)
        rep = thermo_report(st, p)
        assert rep.power == 0.0

    def test_bias_prefactor_identity(self):
        p = params_from_scaled(2.0, 0.5, 1.0)
        assert (p.mu_r - p.mu_l) / p.temp_p == pytest.approx(
            2.0 - (295.0 / 5780.0) * 0.5, rel=1e-12)

    def test_reference_values_at_solar_temperatures(self):
        p = params_from_scaled(2.0, -1.0, 3.0)
        rep = thermo_report(solve(p), p)
        assert rep.eta_c == pytest.approx(0.9489619, abs=5e-8)
        assert rep.eta_ca == pytest.approx(0.7740839, abs=5e-8)

    def test_eta_identity_and_dual_power_form(self, rng):
        for _ in range(200):
            p = draw_params(rng)
            rep = thermo_report(solve(p), p)
            assert rep.stationary
            if rep.eta is not None:
                want = 1.0 - (1.0 - rep.eta_c) * (p.x_r - p.x_l) / p.x_g
                assert rep.eta == pytest.approx(want, rel=1e-12, abs=0.0)
                assert rep.power == pytest.approx(rep.eta * rep.q_dot_p, rel=1e-12)

    def test_second_law_over_operating_grid(self):
        # every stationary point with positive power must respect eta <= eta_c
        for x_l in np.linspace(-4.0, 2.0, 12):
            for x_r in np.linspace(-2.0, 6.0, 12):
                p = params_from_scaled(2.0, float(x_l), float(x_r),
                                       r_p=0.9, r_l=0.0)
                rep = thermo_report(solve(p), p)  # raises on violation
                if rep.power > 0.0:
                    assert rep.eta <= rep.eta_c + 1e-9

    def test_round_off_current_is_no_second_law_violation(self):
        # photon channel off: the exact current vanishes and the solve leaves
        # round-off, whose eta = (mu_r - mu_l) / eps_g may exceed eta_c
        rng = np.random.default_rng(606)
        crossed = 0
        for k in range(600):
            p = draw_params(rng, gamma_p=0.0, tau=(0.0, 2.0, INFINITE)[k % 3])
            rep = thermo_report(solve(p), p)
            crossed += rep.stationary and rep.power > 0.0 and rep.eta > rep.eta_c + 1e-9
        assert crossed > 100

    def test_balanced_state_above_carnot_raises(self):
        # a stationary-balanced state with a large current, eta = 0.962 > eta_c
        p = params_from_scaled(2.0, -1.0, 0.5)
        r = build_rates(p)
        f_in = r.f_l_plus[0, 0] + r.f_l_plus[1, 1]
        rho0 = 1.0 / (1.0 + (f_in + r.f_r_plus) / r.f_r_minus)
        st = DensityState(0.0, 0.0, 1.0 - rho0, rho0)
        with pytest.raises(SecondLawViolationError, match="above the Carnot bound"):
            thermo_report(st, p)

    def test_report_and_currents_build_no_rate_set(self, monkeypatch):
        # both read model._lead_rates; the balanced state crosses the Carnot
        # predicate, so the report also reaches its second-law floor
        p = params_from_scaled(2.0, -1.0, 0.5)
        r = build_rates(p)
        f_in = r.f_l_plus[0, 0] + r.f_l_plus[1, 1]
        rho0 = 1.0 / (1.0 + (f_in + r.f_r_plus) / r.f_r_minus)
        balanced = DensityState(0.0, 0.0, 1.0 - rho0, rho0)
        q = params_from_scaled(2.0, -1.0, 3.0, r_p=0.9)
        stationary = solve(q)
        built = []
        post_init = RateSet.__post_init__

        def spy(rates):
            built.append(rates)
            post_init(rates)

        monkeypatch.setattr(RateSet, "__post_init__", spy)
        assert thermo_report(stationary, q).stationary
        currents(stationary, q)
        with pytest.raises(SecondLawViolationError, match="above the Carnot bound"):
            thermo_report(balanced, p)
        currents(balanced, p)
        assert built == []
        build_rates(p)  # the spy does see a RateSet built
        assert len(built) == 1

    def test_leads_hotter_than_photons_are_no_violation(self):
        # above temp_p the leads are the hot bath and eta_c < 0 bounds nothing:
        # this heat engine takes 202.5 from the leads, gives 182.9 to the
        # photons and produces entropy
        p = params_from_scaled(5.0, -2.0, 2.0, temp=8000.0)
        rep = thermo_report(solve(p), p)
        assert rep.stationary and rep.power > 0.0 and rep.eta_c < 0.0
        assert math.isnan(rep.eta_ca)
        heat_from_leads = rep.power - rep.q_dot_p
        assert -rep.q_dot_p / p.temp_p - heat_from_leads / p.temp > 0.0

    def test_nonstationary_input_flagged(self):
        p = params_from_scaled(2.0, -1.0, 3.0)
        rep = thermo_report(DensityState(0.0, 0.0, 0.0, 1.0), p)
        assert not rep.stationary


class TestReferenceEfficiencies:
    def test_equilibrium(self):
        assert reference_efficiencies(300.0, 300.0) == (0.0, 0.0)

    def test_solar_values(self):
        eta_c, eta_ca = reference_efficiencies(295.0, 5780.0)
        assert eta_c == pytest.approx(0.9489619, abs=5e-8)
        assert eta_ca == pytest.approx(0.7740839, abs=5e-8)

    def test_ca_from_carnot_identity(self):
        for eta_c in np.linspace(0.001, 0.999, 200):
            temp_p = 1000.0
            temp = (1.0 - eta_c) * temp_p
            got_c, got_ca = reference_efficiencies(temp, temp_p)
            assert abs(got_ca - (1.0 - math.sqrt(1.0 - got_c))) <= 1e-15

    def test_ordering(self):
        eta_c, eta_ca = reference_efficiencies(295.0, 5780.0)
        assert 0.0 <= eta_ca <= eta_c < 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reference_efficiencies(400.0, 300.0)
        with pytest.raises(DomainError):
            reference_efficiencies(0.0, 300.0)


class TestAnalyticCoherenceStructure:
    def test_equal_couplings_zero(self):
        p = params_from_scaled(2.0, -1.0, 3.0, r_p=0.5, r_l=0.5)
        cs = analytic_coherence_structure(p)
        assert cs.numerator == 0.0
        assert cs.zero_when_r_equal

    def test_resonance_zero(self):
        p = params_from_scaled(2.0, 1.0, 3.0, r_p=0.9, r_l=0.1)
        cs = analytic_coherence_structure(p)
        assert cs.zero_when_resonant
        assert abs(cs.numerator) < 1e-12
        assert abs(cs.product_form) < 1e-12

    def test_two_printed_forms_agree(self, rng):
        worst = 0.0
        for _ in range(300):
            p = draw_params(rng)
            cs = analytic_coherence_structure(p)
            worst = max(worst, cs.rel_discrepancy)
        assert worst <= 1e-12

    def test_steady_sign_matches_solver_on_grid(self):
        # pinned convention: Re rho12 at the solved steady state carries the
        # opposite sign of the printed numerator, across the operating plane
        checked = 0
        for x_l in np.linspace(-4.0, 4.0, 20):
            for x_r in np.linspace(-4.0, 4.0, 20):
                p = params_from_scaled(2.0, float(x_l), float(x_r),
                                       r_p=0.9, r_l=0.2)
                cs = analytic_coherence_structure(p)
                u = solve(p).rho12.real
                if abs(u) > 1e-13:
                    checked += 1
                    assert math.copysign(1.0, u) == cs.steady_sign
                    assert cs.steady_sign == -math.copysign(1.0, cs.numerator)
        assert checked > 350

    def test_sign_flips_with_coupling_order(self):
        p_plus = params_from_scaled(2.0, -1.0, 3.0, r_p=0.9, r_l=0.1)
        p_minus = params_from_scaled(2.0, -1.0, 3.0, r_p=0.1, r_l=0.9)
        assert (analytic_coherence_structure(p_plus).steady_sign
                == -analytic_coherence_structure(p_minus).steady_sign)

    def test_split_levels_rejected(self):
        p = params_from_scaled(2.0, -1.0, 3.0, delta21=100.0)
        with pytest.raises(DomainError):
            analytic_coherence_structure(p)
