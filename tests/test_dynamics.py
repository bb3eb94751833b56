"""Generator structure, steady-state solve, and the time-integration oracle."""

import math
import warnings

import numpy as np
import pytest

from qdphotocell import (
    INFINITE,
    DensityState,
    DomainError,
    Generator,
    NoUniqueSteadyStateError,
    RateSet,
    StepInstabilityError,
    build_generator,
    build_rates,
    evolve,
    params_from_scaled,
    steady_state,
)
from qdphotocell.dynamics import spectral_gap
from conftest import draw_fast_mixing_params, draw_params, reference_steady_state

TRACE_ROW = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])


def make_gen(p):
    return build_generator(build_rates(p), p.delta21, p.tau)


# ---------------------------------------------------------------------------
# independent oracle: full 16x16 superoperator built directly from the
# dissipator definitions in the four-state basis (g1, g2, e, empty)
# ---------------------------------------------------------------------------

def _superoperator_steady(p):
    def op(i, j):
        m = np.zeros((4, 4))
        m[i, j] = 1.0
        return m

    def sandwich(a, b):
        return np.kron(a, b.T)

    eye = np.eye(4)

    def lindblad_term(a, b):
        return sandwich(a, b) - 0.5 * (sandwich(eye, b @ a) + sandwich(b @ a, eye))

    n = 1.0 / math.expm1(p.x_g)
    fl = 1.0 / (math.exp(p.x_l) + 1.0)
    fr = 1.0 / (math.exp(p.x_r) + 1.0)
    g_phot = p.gamma_p * np.array([[1.0, p.r_p], [p.r_p, 1.0]])
    g_lead = p.gamma_l * np.array([[1.0, p.r_l], [p.r_l, 1.0]])
    sig_p = [op(0, 2), op(1, 2)]
    sig_l = [op(3, 0), op(3, 1)]
    sig_r = op(3, 2)

    L = np.zeros((16, 16))
    for i in range(2):
        for j in range(2):
            L += 2 * g_phot[i, j] * n * lindblad_term(sig_p[i].T, sig_p[j])
            L += 2 * g_phot[j, i] * (1 + n) * lindblad_term(sig_p[i], sig_p[j].T)
            L += 2 * g_lead[i, j] * fl * lindblad_term(sig_l[i].T, sig_l[j])
            L += 2 * g_lead[j, i] * (1 - fl) * lindblad_term(sig_l[i], sig_l[j].T)
    L += 2 * p.gamma_r * fr * lindblad_term(sig_r.T, sig_r)
    L += 2 * p.gamma_r * (1 - fr) * lindblad_term(sig_r, sig_r.T)
    L[1, 1] -= p.tau   # vec index of |g1><g2|
    L[4, 4] -= p.tau   # vec index of |g2><g1|

    M = L.copy()
    trace_row = np.zeros(16)
    trace_row[[0, 5, 10, 15]] = 1.0
    M[15] = trace_row
    b = np.zeros(16)
    b[15] = 1.0
    return np.linalg.solve(M, b).reshape(4, 4)


class TestDensityState:
    @pytest.mark.parametrize("state, match", [
        (DensityState(1.2, 0.0, -0.2, 0.0), "population rho1"),
        (DensityState(0.5, 0.5, 0.0, 0.0, 0.6), "exceeds rho1\\*rho2"),
    ])
    def test_validate_refuses(self, state, match):
        with pytest.raises(DomainError, match=match):
            state.validate()

    def test_from_vector_refuses_wrong_length(self):
        with pytest.raises(DomainError, match=r"shape \(6,\), got \(5,\)"):
            DensityState.from_vector(np.zeros(5))


class TestGeneratorStructure:
    def test_left_null_vector_over_draws(self, rng):
        for _ in range(300):
            gen = make_gen(draw_params(rng))
            assert gen.left_null_residual() <= 1e-12

    def test_left_null_vector_with_split_levels(self, rng):
        for _ in range(100):
            p = draw_params(rng)
            p = p.replace(delta21=rng.uniform(0.0, 0.2) * p.eps_g)
            assert make_gen(p).left_null_residual() <= 1e-12

    def test_no_cross_coupling_decouples_coherence(self):
        p = params_from_scaled(2.0, -1.0, 3.0, r_p=0.0, r_l=0.0, tau=0.3)
        A = make_gen(p).matrix
        assert np.all(A[:4, 4:] == 0.0)   # no coherence feedback on populations
        assert np.all(A[4:, :4] == 0.0)   # no population source for coherence

    def test_imaginary_row_has_no_population_source(self, rng):
        for _ in range(50):
            A = make_gen(draw_params(rng)).matrix
            assert np.all(A[5, :4] == 0.0)

    @staticmethod
    def _generator(matrix):
        return Generator(matrix=matrix, delta21=0.0, tau=0.0, dark_state_degenerate=False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_refused(self, bad):
        for i, j in ((0, 0), (2, 3), (5, 5)):
            m = np.ones((6, 6))
            m[i, j] = bad
            with pytest.raises(DomainError, match="must be finite"):
                self._generator(m)
            # the bad entry among finite ones whose sum overflows
            m = np.full((6, 6), 1e308)
            m[i, j] = bad
            with pytest.raises(DomainError, match="must be finite"):
                self._generator(m)

    def test_overflowing_replaced_row_refused_as_reference(self):
        # steady_state swaps row 3 for the trace row, so no gate sees it; a
        # row 3 whose product with the state overflows must be refused alike
        gen = make_gen(params_from_scaled(2.0, -2.0, 5.0, r_p=0.9))
        v = steady_state(gen).state.as_vector()
        assert np.abs(v).sum() > 1.06  # 1.7e308 * sum |v_i| overflows
        m = np.array(gen.matrix)
        m[3] = 1.7e308 * np.sign(v)
        for solve in (steady_state, reference_steady_state):
            with np.errstate(over="ignore"), pytest.raises(
                    NoUniqueSteadyStateError, match="replaced-row residual inf"):
                solve(self._generator(m))

    @pytest.mark.parametrize("shape", [(6,), (5, 6), (6, 7), (1, 6, 6)])
    def test_wrong_shape_refused(self, shape):
        with pytest.raises(DomainError, match="must be 6x6"):
            self._generator(np.zeros(shape))

    @pytest.mark.parametrize("kind", ["ragged", "string", "None", "complex"])
    def test_malformed_matrix_refused(self, kind):
        rows = np.ones((6, 6)).tolist()
        if kind == "ragged":
            rows[5] = rows[5][:5]
        else:
            rows[2][3] = {"string": "x", "None": None, "complex": 0.5j}[kind]
        with pytest.raises(DomainError, match="^generator matrix must be an array of real numbers"):
            self._generator(rows)

    @pytest.mark.parametrize("bad", [[0.0, [0.0]], "x", None, True],
                             ids=["ragged", "string", "None", "bool"])
    @pytest.mark.parametrize("name", ["tau", "delta21"])
    def test_malformed_tau_or_splitting_refused(self, name, bad):
        r = build_rates(params_from_scaled(2.0, 0.0, 0.0))
        with pytest.raises(DomainError, match=f"^{name} must be a real number, got "):
            build_generator(r, **{"delta21": 0.0, "tau": 0.0, name: bad})

    @pytest.mark.parametrize("value", [-0.0, 1, np.float64(0.25)])
    def test_real_tau_splitting_and_matrix_stored_as_float(self, value):
        gen = build_generator(build_rates(params_from_scaled(2.0, 0.0, 0.0)), value, value)
        for stored in (gen.delta21, gen.tau):
            assert type(stored) is float and stored == value
            assert math.copysign(1.0, stored) == math.copysign(1.0, value)
        m = self._generator(np.full((6, 6), value).tolist()).matrix
        assert m.dtype == np.float64 and np.all(m == value)
        # numpy casts a bool to 0 or 1; only tau and delta21 refuse a bool
        m = self._generator(np.eye(6, dtype=bool).tolist()).matrix
        assert m.dtype == np.float64 and np.array_equal(m, np.eye(6))

    def test_negative_tau_rejected(self):
        r = build_rates(params_from_scaled(2.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            build_generator(r, 0.0, -1.0)

    @pytest.mark.parametrize("delta21, tau, name", [
        (0.0, math.nan, "tau"), (-1.0, 0.0, "delta21"), (math.nan, 0.0, "delta21")])
    def test_bad_tau_or_splitting_rejected(self, delta21, tau, name):
        r = build_rates(params_from_scaled(2.0, 0.0, 0.0))
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            build_generator(r, delta21, tau)

    def test_matches_full_superoperator_oracle(self, rng):
        # the reduced 6x6 generator's steady state must agree with the
        # stationary density matrix of the full 16x16 dissipator
        for _ in range(40):
            p = draw_params(rng)
            rho = _superoperator_steady(p)
            st = steady_state(make_gen(p)).state
            assert abs(rho[0, 0] - st.rho1) < 1e-12
            assert abs(rho[1, 1] - st.rho2) < 1e-12
            assert abs(rho[2, 2] - st.rho_e) < 1e-12
            assert abs(rho[3, 3] - st.rho0) < 1e-12
            assert abs(rho[0, 1] - st.rho12) < 1e-12

    def test_dropped_offdiagonals_stay_zero_in_full_solve(self, rng):
        # the omitted coherences (ground-excited, excited-empty) vanish at
        # stationarity, which is what justifies the reduced vector
        p = draw_params(rng)
        rho = _superoperator_steady(p)
        assert abs(rho[0, 2]) < 1e-14 and abs(rho[1, 2]) < 1e-14
        assert abs(rho[2, 3]) < 1e-14


class TestSteadyState:
    def test_symmetric_equilibrium_quarters(self):
        p = params_from_scaled(2.0, 0.0, 0.0, gamma_p=0.0)
        sol = steady_state(make_gen(p))
        for pop in sol.state.populations:
            assert pop == pytest.approx(0.25, abs=1e-12)
        assert abs(sol.state.rho12) == 0.0

    def test_equal_cross_couplings_kill_coherence(self, rng):
        for _ in range(100):
            r = rng.uniform(0.0, 1.0)
            p = draw_params(rng, r_p=r, r_l=r)
            sol = steady_state(make_gen(p))
            assert abs(sol.state.rho12) < 1e-12

    def test_global_equilibrium_is_gibbs(self):
        # equal temperatures and chemical potentials: populations must follow
        # the grand-canonical weights exp(-(eps - mu N)/T)
        temp = 400.0
        p = params_from_scaled(1.3, -0.7, 1.3 + (-0.7), temp=temp, temp_p=temp,
                               r_p=0.8, r_l=0.1, tau=0.5)
        assert p.mu_l == pytest.approx(p.mu_r, rel=1e-12)
        sol = steady_state(make_gen(p))
        st = sol.state
        assert st.rho1 / st.rho0 == pytest.approx(math.exp(-p.x_l), rel=1e-10)
        assert st.rho2 / st.rho0 == pytest.approx(math.exp(-p.x_l), rel=1e-10)
        assert st.rho_e / st.rho0 == pytest.approx(math.exp(-p.x_r), rel=1e-10)
        assert abs(st.rho12) < 1e-13

    def test_invariants_over_draws(self, rng):
        for _ in range(300):
            sol = steady_state(make_gen(draw_params(rng)))
            st = sol.state
            assert abs(st.trace - 1.0) <= 1e-10
            assert all(-1e-12 <= q <= 1.0 + 1e-12 for q in st.populations)
            assert abs(st.rho12) ** 2 <= st.rho1 * st.rho2 + 1e-12
            assert sol.residual <= 1e-10
            assert sol.replaced_row_residual <= 1e-10

    @pytest.mark.parametrize("gamma", [1e6, 1e8, 1e10])
    def test_large_couplings_pass_the_scaled_residual_gate(self, gamma):
        # the replaced-row residual grows with the rates (8.2e-11, 4.7e-9 and
        # 4.4e-7 here); above 1e6 only the max |A_ij| scale admits it
        gen = make_gen(params_from_scaled(2.0, -1.0, 3.0, gamma=gamma, r_p=0.9, tau=0.5))
        sol = steady_state(gen)
        assert repr(sol) == repr(reference_steady_state(gen))
        assert (sol.replaced_row_residual > 1e-10) == (gamma > 1e6)

    def test_disconnected_network_raises(self):
        p = params_from_scaled(2.0, 0.0, 0.0, gamma_l=0.0, gamma_r=0.0)
        with pytest.raises(NoUniqueSteadyStateError, match="connect"):
            steady_state(make_gen(p))

    @pytest.mark.parametrize("tau", [0.0, 1.0, INFINITE])
    def test_singular_system_refused_without_warning(self, tau):
        # all rates zero: the replaced system keeps only the trace row (and
        # the coherence relaxation at tau = inf), so its smallest singular
        # value is exactly zero
        zero = [[0.0, 0.0], [0.0, 0.0]]
        gen = build_generator(RateSet(zero, zero, zero, zero, 0.0, 0.0), 0.0, tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoUniqueSteadyStateError, match=r"\(cond ~ inf\)"):
                steady_state(gen)

    def test_dark_state_corner_uses_continuity_branch(self):
        p = params_from_scaled(2.0, -1.0, 3.0, r_p=1.0, r_l=1.0, tau=0.0)
        gen = make_gen(p)
        assert gen.dark_state_degenerate
        sol = steady_state(gen)
        assert sol.dark_state_branch
        assert abs(sol.state.rho12) == 0.0
        # continuity: a small positive decoherence rate gives the same state
        p_eps = p.replace(tau=1e-8)
        sol_eps = steady_state(make_gen(p_eps))
        assert np.allclose(sol.state.as_vector(), sol_eps.state.as_vector(),
                           atol=1e-9)
        # and so does the same configuration with couplings just below maximal
        p_near = params_from_scaled(2.0, -1.0, 3.0, r_p=1.0 - 1e-9,
                                    r_l=1.0 - 1e-9, tau=0.0)
        sol_near = steady_state(make_gen(p_near))
        assert np.allclose(sol.state.as_vector(), sol_near.state.as_vector(),
                           atol=1e-6)

    def test_monotone_decoherence(self):
        taus = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
        values = []
        for tau in taus:
            p = params_from_scaled(2.0, -1.0, 3.0, r_p=0.9, r_l=0.1, tau=tau)
            values.append(abs(steady_state(make_gen(p)).state.rho12))
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]

    def test_split_levels_solve_and_balance(self, rng):
        # the non-degenerate configuration is an extrapolation but must keep
        # its structural invariants
        for _ in range(50):
            p = draw_params(rng)
            p = p.replace(delta21=rng.uniform(0.0, 0.2) * p.eps_g)
            sol = steady_state(make_gen(p))
            assert abs(sol.state.trace - 1.0) <= 1e-10
            assert sol.residual <= 1e-10


class TestInfiniteDecoherence:
    def _rate_oracle(self, p):
        """Independent 4-state rate-equation model from the diagonal rates."""
        r = build_rates(p)
        K = np.zeros((4, 4))  # order: g1, g2, e, 0
        pairs = (
            (0, 2, 2 * r.b_plus[0, 0], 2 * r.b_minus[0, 0]),   # g1 <-> e
            (1, 2, 2 * r.b_plus[1, 1], 2 * r.b_minus[1, 1]),   # g2 <-> e
            (3, 0, 2 * r.f_l_plus[0, 0], 2 * r.f_l_minus[0, 0]),  # 0 <-> g1
            (3, 1, 2 * r.f_l_plus[1, 1], 2 * r.f_l_minus[1, 1]),  # 0 <-> g2
            (3, 2, 2 * r.f_r_plus, 2 * r.f_r_minus),           # 0 <-> e
        )
        for a, b, rate_ab, rate_ba in pairs:
            K[b, a] += rate_ab
            K[a, a] -= rate_ab
            K[a, b] += rate_ba
            K[b, b] -= rate_ba
        M = K.copy()
        M[3] = 1.0
        rhs = np.array([0.0, 0.0, 0.0, 1.0])
        return np.linalg.solve(M, rhs)

    def test_matches_rate_equation_model(self, rng):
        for _ in range(100):
            p = draw_params(rng, tau=INFINITE)
            sol = steady_state(make_gen(p))
            want = self._rate_oracle(p)
            assert np.allclose(sol.state.as_vector()[:4], want, atol=1e-12)
            assert sol.state.rho12 == 0.0

    def test_mode_flag(self):
        p = params_from_scaled(2.0, 0.0, 0.0, tau=INFINITE)
        assert make_gen(p).tau == INFINITE
        assert make_gen(p.replace(tau=3.0)).tau == 3.0


class TestEvolve:
    def test_zero_duration_is_identity(self):
        p = params_from_scaled(2.0, -1.0, 3.0, r_p=0.4, r_l=0.2)
        st = DensityState(0.25, 0.25, 0.25, 0.25)
        assert evolve(make_gen(p), st, 0.0, 1e-3) is st

    def test_trace_conserved(self, rng):
        p, gen = draw_fast_mixing_params(rng)
        out = evolve(gen, DensityState(0.0, 0.0, 0.0, 1.0), 200.0, 1e-3)
        assert abs(out.trace - 1.0) <= 1e-9

    def test_matches_steady_state(self, rng):
        for _ in range(20):
            p, gen = draw_fast_mixing_params(rng)
            sol = steady_state(gen)
            out = evolve(gen, DensityState(0.0, 0.0, 0.0, 1.0), 200.0, 1e-3)
            assert np.abs(out.as_vector() - sol.state.as_vector()).max() <= 1e-8

    def test_imaginary_coherence_decays(self):
        p = params_from_scaled(2.0, -1.0, 3.0, r_p=0.9, r_l=0.3, tau=0.0)
        gen = make_gen(p)
        start = DensityState(0.3, 0.3, 0.2, 0.2, rho12=0.1 + 0.2j)
        out = evolve(gen, start, 60.0, 1e-3)
        assert abs(out.rho12.imag) < 1e-10
        sol = steady_state(gen)
        assert np.abs(out.as_vector() - sol.state.as_vector()).max() < 1e-8

    def test_infinite_tau_projects_coherence(self):
        p = params_from_scaled(2.0, -1.0, 3.0, r_p=0.9, r_l=0.3, tau=INFINITE)
        gen = make_gen(p)
        start = DensityState(0.3, 0.3, 0.2, 0.2, rho12=0.1 + 0.1j)
        out = evolve(gen, start, 30.0, 1e-3)
        assert out.rho12 == 0.0
        assert np.allclose(out.as_vector()[:4],
                           steady_state(gen).state.as_vector()[:4], atol=1e-8)

    def test_unstable_step_raises(self):
        p = params_from_scaled(2.0, -1.0, 3.0, r_p=0.4, r_l=0.2)
        with pytest.raises(StepInstabilityError):
            evolve(make_gen(p), DensityState(0.0, 0.0, 0.0, 1.0), 2000.0, 5.0)

    @pytest.mark.parametrize("duration, dt, match", [
        # the step matrix overflows: refused without a RuntimeWarning first
        (1e300, 1e300, "step matrix is not finite"),
        # a finite step matrix whose steps let the trace run away
        (1e4, 1e3, "trace drift .* exceeds"),
    ])
    def test_unstable_step_messages(self, duration, dt, match):
        p = params_from_scaled(2.0, -1.0, 3.0, r_p=0.9)
        with pytest.raises(StepInstabilityError, match=match):
            evolve(make_gen(p), DensityState(0.0, 0.0, 0.0, 1.0), duration, dt)

    @pytest.mark.parametrize("duration,dt", [(-1.0, 1e-3), (1.0, 0.0),
                                             (1.0, -1e-3), (math.nan, 1e-3)])
    def test_bad_arguments(self, duration, dt):
        p = params_from_scaled(2.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            evolve(make_gen(p), DensityState(0.0, 0.0, 0.0, 1.0), duration, dt)

    def test_invalid_initial_state_rejected(self):
        p = params_from_scaled(2.0, 0.0, 0.0)
        bad = DensityState(0.9, 0.9, 0.0, 0.0)  # trace 1.8
        with pytest.raises(DomainError):
            evolve(make_gen(p), bad, 1.0, 1e-3)


def test_spectral_gap_positive_for_connected_network():
    p = params_from_scaled(2.0, -1.0, 3.0, r_p=0.5, r_l=0.5)
    assert spectral_gap(make_gen(p)) > 0.1


def test_spectral_gap_is_zero_when_nothing_relaxes():
    # every channel off with tau = 0: the generator is zero, all its
    # eigenvalues are in the stationary kernel and no transient decays
    p = params_from_scaled(2.0, -1.0, 3.0, gamma_p=0.0, gamma_l=0.0, gamma_r=0.0)
    gen = make_gen(p)
    assert not gen.matrix.any()
    assert spectral_gap(gen) == 0.0
