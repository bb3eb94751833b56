"""Optimizer correctness: oracle agreement, determinism, orderings."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from qdphotocell import (
    DEFAULT_BOUNDS,
    INFINITE,
    DomainError,
    ModelParams,
    NoUniqueSteadyStateError,
    build_generator,
    build_rates,
    currents,
    grid_search_power,
    maximize_power,
    params_from_scaled,
    run_fig2,
    run_fig3a,
    run_fig3b,
    steady_observables_grid,
    steady_state,
)
from qdphotocell import optimize
from qdphotocell.model import _bose_array, _fermi_array, bose_occupation, fermi_occupation
from qdphotocell.optimize import (
    _CS_STEP,
    _FREE_ORDER,
    _OCC_SIGN,
    _degenerate_steady,
    _kernel_constants,
    _occupations,
    _power_gradient,
    _ranked_seeds,
    _row_bounds,
)
from conftest import (
    _power_gradient_hessian,
    draw_params,
    general_path_observables,
    nelder_mead,
    reference_maximize_power,
    reference_nelder_mead,
    reference_refusal_gate,
    steady_at,
)


def _box_draws(rng, n_sets, per_set, corner):
    """(params, x_g, x_l, x_r) blocks over the default search box.

    Uniform blocks cycle tau through 0, U(0, 10) and INFINITE, one in five
    at the dark-state corner (r_p = r_l = 1, tau = 0).  ``corner`` blocks sit
    next to that corner with the left lead filled (x_l < -8, r_p > 0.99,
    tau = 0), where the coherence row nearly repeats the ground row and the
    empty-state population is tiny: forms that take rho0 as 1 - 2 g - rho_e,
    or that keep the raw coherence row, lose it there.
    """
    for k in range(n_sets):
        tau = (0.0, rng.uniform(0.0, 10.0), INFINITE)[k % 3]
        r_p, r_l = rng.uniform(0.0, 1.0, 2)
        x_l = rng.uniform(*DEFAULT_BOUNDS["x_l"], per_set)
        if corner:
            r_p, tau = rng.uniform(0.99, 1.0), 0.0
            x_l = rng.uniform(DEFAULT_BOUNDS["x_l"][0], -8.0, per_set)
        elif k % 5 == 4:
            r_p, r_l, tau = 1.0, 1.0, 0.0
        p = params_from_scaled(2.0, 0.0, 0.0, r_p=r_p, r_l=r_l, tau=tau)
        yield (p, rng.uniform(*DEFAULT_BOUNDS["x_g"], per_set), x_l,
               rng.uniform(*DEFAULT_BOUNDS["x_r"], per_set))


# The float simplex, a test-side oracle since projected Newton replaced it in
# maximize_power (conftest.nelder_mead), and its array twin.
class TestNelderMead:
    def test_quadratic(self):
        def f(x):
            return (x[0] - 1.0) ** 2 + 2.0 * (x[1] + 2.0) ** 2

        x, fx, evals, converged, _, _ = nelder_mead(
            f, np.array([4.0, 4.0]), np.array([0.5, 0.5]))
        assert converged
        assert np.allclose(x, [1.0, -2.0], atol=1e-6)
        assert fx < 1e-11

    def test_respects_eval_budget(self):
        calls = []

        def f(x):
            calls.append(1)
            return math.fsum(v * v for v in x)

        nelder_mead(f, np.ones(3), 0.1 * np.ones(3), max_evals=50)
        assert len(calls) <= 55  # budget plus the final shrink batch


def _is_float_tuple(t, dim):
    return type(t) is tuple and len(t) == dim and all(type(v) is float for v in t)


class TestObjectiveContract:
    """The float simplex hands its objective tuples of Python floats, and the
    batched Newton search hands each row's stop rule its optima as such."""

    def test_nelder_mead_hands_fn_float_tuples(self):
        seen = []

        def f(x):
            seen.append(x)
            return _quadratic(x)

        nelder_mead(f, np.array([2.0, -1.0, 0.5]), np.full(3, 0.25))
        assert len(seen) > 4 and all(_is_float_tuple(t, 3) for t in seen)

    @pytest.mark.parametrize("free", [("x_l", "x_r"), ("x_g", "x_l", "x_r")])
    def test_maximize_power_objective_on_float_tuples(self, monkeypatch, free):
        # the optima the lanes hand the stop rule, and the certificate returned
        seen, scores = [], []
        add = optimize._Starts.add

        def spy(book, t, p, *rest):
            seen.append(t)
            scores.append(p)
            return add(book, t, p, *rest)

        monkeypatch.setattr(optimize._Starts, "add", spy)
        res = maximize_power(params_from_scaled(2.0, 0.0, 0.0, r_p=0.9), free=free)
        assert seen and all(_is_float_tuple(t, len(free)) for t in seen)
        assert all(type(f) is float for f in scores)
        assert all(type(v) is float
                   for v in (res.grad_rel, res.newton_step, res.max_curvature))


# The objectives take any sequence of floats (the float simplex hands them
# tuples, the array oracle arrays) and return Python floats.
def _quadratic(x):
    terms = [(k + 1) * (v - 0.3) for k, v in enumerate(x)]
    return math.fsum(t * t for t in terms)


def _rosenbrock(x):
    a, b = x
    return float((1.0 - a) * (1.0 - a) + 100.0 * (b - a * a) * (b - a * a))


def _plateau(x):
    """A small bowl in a plateau that scores +0.0 or -0.0 by half-plane, so
    most comparisons are ties that only the vertex order breaks."""
    r2 = math.fsum(v * v for v in x)
    if r2 < 1.0:
        return r2 - 1.0
    return -0.0 if x[0] < 2.0 else 0.0


def _assert_same_run(fn, x0, step, **kwargs):
    got = nelder_mead(fn, x0, step, **kwargs)
    want = reference_nelder_mead(fn, x0, step, **kwargs)
    assert np.array_equal(got[0], want[0])
    assert got[0].tobytes() == want[0].tobytes()  # signed zeros too
    assert got[1:] == want[1:]
    assert repr(got[1:]) == repr(want[1:])
    return got


class TestNelderMeadMatchesArrayOracle:
    """The float simplex returns exactly what the numpy-array simplex does."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_quadratic(self, dim):
        x0 = np.linspace(2.0, -1.5, dim)
        res = _assert_same_run(_quadratic, x0, np.full(dim, 0.25))
        assert res[3]

    def test_rosenbrock(self):
        res = _assert_same_run(_rosenbrock, np.array([-1.2, 1.0]), np.array([0.1, 0.1]),
                               max_evals=5000)
        assert np.allclose(res[0], 1.0, atol=1e-6)

    @pytest.mark.parametrize("x0", [[5.0, 5.0], [2.1, -0.4], [1.9, 1.5, -0.3], [0.8, 0.5]])
    def test_signed_zero_plateau(self, x0):
        x0 = np.array(x0)
        _assert_same_run(_plateau, x0, np.full(x0.size, 0.5),
                         x_scale=np.full(x0.size, 4.0))

    def test_budget_runs_out_inside_a_shrink(self):
        # four starting evaluations, then reflect, contract and a three-point
        # shrink that crosses the budget of 7
        res = _assert_same_run(_plateau, np.array([5.0, 5.0, 5.0]), np.full(3, 0.5),
                               max_evals=7)
        assert res[2] == 9 and not res[3]


class TestBatchedEvaluatorConsistency:
    def test_matches_generator_pipeline(self, rng):
        # the vectorized assembly must agree with the reference path
        for _ in range(200):
            p = draw_params(rng)
            obs = steady_observables_grid(p, p.x_g, p.x_l, p.x_r)
            sol = steady_state(build_generator(build_rates(p), p.delta21, p.tau))
            j_l, _ = currents(sol.state, p)
            assert float(obs["j"]) == pytest.approx(j_l, rel=1e-12, abs=1e-13)
            assert float(obs["rho12_re"]) == pytest.approx(
                sol.state.rho12.real, rel=1e-12, abs=1e-14)
            want_p = (p.mu_r - p.mu_l) * j_l / (p.temp_p * p.gamma_p)
            assert float(obs["power"]) == pytest.approx(want_p, rel=1e-9, abs=1e-13)

    def test_infinite_tau_consistency(self, rng):
        for _ in range(30):
            p = draw_params(rng, tau=INFINITE)
            obs = steady_observables_grid(p, p.x_g, p.x_l, p.x_r)
            sol = steady_state(build_generator(build_rates(p), p.delta21, p.tau))
            assert float(obs["rho12_re"]) == 0.0
            _, _, g, rho_e, rho0, _ = steady_at(p, p.x_g, p.x_l, p.x_r)
            assert np.allclose([g, g, rho_e, rho0],
                               sol.state.as_vector()[:4], atol=1e-12)

    @pytest.mark.parametrize("corner", [False, True])
    def test_kernel_matches_general_path_over_search_box(self, rng, corner):
        # power to 1e-9 of |bias prefactor| x the largest lead-current term,
        # the current to 1e-9 of that term: power cancels at the window edges
        eta_c = 1.0 - 295.0 / 5780.0
        for p, xg, xl, xr in _box_draws(rng, 100, 10, corner):
            obs = steady_observables_grid(p, xg, xl, xr)
            for k in range(xg.size):
                at = p.with_scaled(x_g=xg[k], x_l=xl[k], x_r=xr[k])
                want_p, want_j, want_u, largest = general_path_observables(at)
                tol = 1e-9 * largest
                ptol = abs(xg[k] - (1.0 - eta_c) * (xr[k] - xl[k])) * tol
                scalar = steady_at(p, float(xg[k]), float(xl[k]), float(xr[k]))[0]
                assert abs(scalar - want_p) <= ptol
                assert abs(obs["power"][k] - want_p) <= ptol
                assert abs(obs["j"][k] - want_j) <= tol
                assert abs(obs["rho12_re"][k] - want_u) <= 1e-10

    def test_broadcasting(self):
        p = params_from_scaled(2.0, 0.0, 0.0, r_p=0.4, r_l=0.1)
        xl = np.linspace(-3.0, 0.0, 7)
        xr = np.linspace(2.5, 5.0, 5)
        obs = steady_observables_grid(p, 2.0, xl[:, None], xr[None, :])
        assert obs["power"].shape == (7, 5)

    @pytest.mark.parametrize("fixed", [{"tau": 0.0}, {"tau": 1.5}, {"tau": INFINITE},
                                       {"r_p": 1.0, "r_l": 1.0, "tau": 0.0}])
    def test_unexpanded_inputs_give_the_bits_of_dense_ones(self, rng, fixed):
        # the kernel broadcasts inside: a scalar x_g with 2-D x_l and x_r,
        # open-mesh axes and all-0-d inputs give the bits of dense copies
        p = params_from_scaled(2.0, 0.0, 0.0, **{"r_p": 0.4, "r_l": 0.1, **fixed})
        cases = [
            (2.5, rng.uniform(-5.0, 5.0, (7, 5)), rng.uniform(-5.0, 5.0, (7, 5))),
            np.ix_(rng.uniform(0.5, 10.0, 4), rng.uniform(-5.0, 5.0, 6),
                   rng.uniform(-5.0, 5.0, 3)),
            (rng.uniform(0.5, 10.0, (3, 1)), rng.uniform(-5.0, 5.0, (1, 5)), 1.5),
            (np.array(2.5), -1.0, np.float64(1.5)),
        ]
        for x in cases:
            got = steady_observables_grid(p, *x)
            want = steady_observables_grid(p, *map(np.array, np.broadcast_arrays(*x)))
            shape = np.broadcast_shapes(*(np.shape(v) for v in x))
            for k in ("power", "j", "rho12_re"):
                assert np.shape(got[k]) == shape
                assert np.asarray(got[k]).tobytes() == np.asarray(want[k]).tobytes()
                assert isinstance(got[k], np.ndarray) and got[k].ndim == len(shape)

    def test_non_positive_bandgap_rejected(self):
        p = params_from_scaled(2.0, 0.0, 0.0)
        with pytest.raises(DomainError, match="^x_g must be positive everywhere on the grid$"):
            steady_observables_grid(p, [1.0, -0.5], 0.0, 1.0)

    @pytest.mark.parametrize("x", [(2.0, math.nan, 1.0), (math.inf, 0.0, 1.0),
                                   (2.0, 0.0, [1.0, -math.inf]), ([2.0, math.nan], 0.0, 1.0),
                                   (-math.inf, 0.0, 1.0)])
    def test_non_finite_inputs_rejected(self, x):
        p = params_from_scaled(2.0, 0.0, 0.0)
        with pytest.raises(DomainError,
                           match="^x_g, x_l and x_r must be finite everywhere on the grid$"):
            steady_observables_grid(p, *x)

    def test_shapes_that_do_not_broadcast_rejected(self):
        p = params_from_scaled(2.0, 0.0, 0.0)
        with pytest.raises(DomainError, match=re.escape(
                "x_g, x_l and x_r must broadcast together, got shapes (), (3,) and (4, 1, 2)")):
            steady_observables_grid(p, 2.0, np.zeros(3), np.ones((4, 1, 2)))

    @pytest.mark.parametrize("free", [("x_g",), ("x_l",), ("x_r",), ("x_g", "x_l"),
                                      ("x_g", "x_r"), ("x_l", "x_r"), ("x_g", "x_l", "x_r")])
    def test_seed_grid_matches_the_flat_evaluation(self, rng, free):
        # the open-mesh seed grid gives the bits of the flattened meshgrid's
        # evaluation: the kernel's power, the clip mask, the seeds and the
        # starts.  20 rows in a box whose window coordinate's face clips
        # part of every grid; 2-D and 3-D grids take several kernel chunks
        bounds = {"x_g": (0.5, 3.0), "x_l": (-3.0, 1.0), "x_r": (-1.0, 4.0)}
        params = [params_from_scaled(rng.uniform(0.5, 3.0), rng.uniform(-3.0, 1.0),
                                     rng.uniform(-1.0, 4.0), r_p=rng.uniform(0.0, 1.0),
                                     r_l=rng.uniform(0.0, 1.0), tau=rng.uniform(0.0, 10.0),
                                     temp=rng.uniform(300.0, 4000.0)) for _ in range(20)]
        free, box = optimize._validated_options(free, bounds)
        consts = np.array([_kernel_constants(p) for p in params]).T
        new, ref = (optimize._Batch(params, consts, free, box, 16, 8, 1e-9, 1e-8, 2000)
                    for _ in range(2))
        flat, raw = {}, []

        def flat_grid_power(axes):  # all rows at every point of the flattened grid
            k, (lo, hi) = ref.k_win, ref.box[ref.free[-1]]
            t_grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
            rows = np.arange(len(params))[:, None]
            x = ref.window_point(t_grid.T, rows)
            decoded, x[k] = x[k], np.minimum(np.maximum(x[k], lo), hi)
            flat["raw"] = power = ref.power(rows, *x)[0]
            flat["clipped"] = x[k] != decoded
            flat["p"] = np.where((x[k] == decoded) & (power > 0.0), power, 0.0)
            return flat["p"]

        def grid_power(axes):
            flat["got"] = grid(axes)
            return flat["got"]

        def power(rows, *x):
            out = kernel(rows, *x)
            raw.append(out[0])
            return out

        ref.grid_power = flat_grid_power
        grid, kernel = new.grid_power, new.power
        new.grid_power, new.power = grid_power, power
        want, got = ref.seed(), new.seed()
        raw = np.concatenate([chunk.reshape(len(chunk), -1) for chunk in raw])
        assert raw.tobytes() == flat["raw"].tobytes()
        assert flat["got"].tobytes() == flat["p"].tobytes()
        # the points the clip zeroes, and that there are some
        zeroed = flat["clipped"] & (flat["raw"] > 0.0)
        assert np.array_equal((flat["got"] == 0.0) & (raw > 0.0), zeroed) and zeroed.any()
        assert got[:2] == want[:2] and any(got[1])
        assert got[2].tobytes() == want[2].tobytes()
        assert not new.flagged.any() and not ref.flagged.any()

    def test_split_levels_rejected(self):
        p = params_from_scaled(2.0, 0.0, 0.0, delta21=10.0)
        with pytest.raises(DomainError):
            steady_observables_grid(p, 2.0, 0.0, 3.0)
        with pytest.raises(DomainError):
            steady_at(p, 2.0, 0.0, 3.0)


# (gamma_p, gamma_l, r_p, r_l, tau) around the dark-state corner, and a
# subnormal gamma_p whose r_p * gamma_p rounds to gamma_p
DARK_CORNERS = (*itertools.product((0.0, 1.0), (0.0, 1.0), (0.0, 0.5, 1.0), (0.0, 0.5, 1.0),
                                   (0.0, 1.0, INFINITE)), (5e-324, 1.0, 0.9, 1.0, 0.0))


def corner_params(gamma_p, gamma_l, r_p, r_l, tau):
    return params_from_scaled(2.0, 0.0, 0.0, gamma_p=gamma_p, gamma_l=gamma_l,
                              r_p=r_p, r_l=r_l, tau=tau)


class TestKernelPinning:
    """The kernel pins Re rho12 at zero exactly where the general path takes
    its dark-state branch, also with one ground channel switched off."""

    XG, XL, XR = np.array([2.0, 5.0, 1.0]), np.array([-1.0, 0.5, -3.0]), np.array([3.0, 7.0, 1.5])

    @pytest.mark.parametrize("corner", DARK_CORNERS)
    def test_one_dark_state_decision(self, corner):
        p = corner_params(*corner)
        dark = build_generator(build_rates(p), 0.0, p.tau).dark_state_degenerate
        assert (_kernel_constants(p)[5:8] == (0.0, 0.0, -1.0)) == (dark or p.tau == INFINITE)

    @pytest.mark.parametrize("fixed,dark", [
        ({"gamma_p": 0.0, "r_l": 1.0}, True),
        ({"gamma_l": 0.0, "r_p": 1.0}, True),
        ({"gamma_p": 0.0, "r_l": 0.5}, False),
    ])
    def test_pinned_where_the_generator_is_dark(self, fixed, dark):
        p = params_from_scaled(2.0, 0.0, 0.0, tau=0.0, **fixed)
        # the coherence constants (1 - r_p, 1 - r_l, tau / 2) read (0, 0, -1) when pinned
        assert (_kernel_constants(p)[5:8] == (0.0, 0.0, -1.0)) == dark
        obs = steady_observables_grid(p, self.XG, self.XL, self.XR)
        for k in range(self.XG.size):
            at = p.with_scaled(x_g=self.XG[k], x_l=self.XL[k], x_r=self.XR[k])
            gen = build_generator(build_rates(at), at.delta21, at.tau)
            assert gen.dark_state_degenerate == dark
            state = steady_state(gen).state
            j_l, _ = currents(state, at)
            _, j, *_, u = steady_at(p, *(float(v[k]) for v in (self.XG, self.XL, self.XR)))
            for got_j, got_u in ((obs["j"][k], obs["rho12_re"][k]), (j, u)):
                assert abs(got_j - j_l) <= 1e-12
                if dark:
                    assert got_u == 0.0
                else:
                    assert abs(got_u - state.rho12.real) <= 1e-12


class TestKernelLeadCurrent:
    """The kernel's j is thermo.lead_current with every factor of 2 exact, so
    it keeps the bits of the expression it replaced, on the rates in units
    of gamma_ref = gamma_p."""

    @staticmethod
    def _replaced_j(p, fl, g, z, u):
        gl = p.gamma_l / p.gamma_p  # as _kernel_constants scales it
        flp, flm = gl * fl, gl * (1.0 - fl)
        return 4.0 * flp * z - 4.0 * flm * g - 4.0 * p.r_l * flm * u

    @pytest.mark.parametrize("corner", [False, True])
    def test_bits_on_arrays_and_floats(self, rng, corner):
        for p, xg, xl, xr in _box_draws(rng, 40, 250, corner):
            p = p.replace(gamma_p=float(np.exp(rng.uniform(-2.3, 2.3))),
                          gamma_l=float(np.exp(rng.uniform(-2.3, 2.3))))
            fl = _fermi_array(xl)
            _, j, g, _, z, u = _degenerate_steady(_kernel_constants(p), xg, xl, xr,
                                                  _bose_array(xg), fl, _fermi_array(xr))
            assert j.tobytes() == self._replaced_j(p, fl, g, z, u).tobytes()
            for a, b, c in zip(xg[:25].tolist(), xl[:25].tolist(), xr[:25].tolist()):
                _, j, g, _, z, u = steady_at(p, a, b, c)
                assert j.hex() == self._replaced_j(p, fermi_occupation(b), g, z, u).hex()


class TestKernelPower:
    """The kernel's power is the bias x_g - (1 - eta_c)(x_r - x_l), with
    eta_c = 1 - temp/temp_p, times its j, which is per gamma_ref = gamma_p,
    bit for bit."""

    def test_bits_on_arrays_and_floats(self, rng):
        for p, xg, xl, xr in _box_draws(rng, 30, 100, False):
            p = p.replace(temp=float(rng.uniform(100.0, 5700.0)),
                          gamma_p=float(np.exp(rng.uniform(-2.3, 2.3))))
            eta_c = 1.0 - p.temp / p.temp_p
            power, j, *_ = _degenerate_steady(_kernel_constants(p), xg, xl, xr,
                                              _bose_array(xg), _fermi_array(xl),
                                              _fermi_array(xr))
            want = (xg - (1.0 - eta_c) * (xr - xl)) * j
            assert power.tobytes() == want.tobytes()
            for a, b, c in zip(xg[:25].tolist(), xl[:25].tolist(), xr[:25].tolist()):
                power, j, *_ = steady_at(p, a, b, c)
                assert power.hex() == ((a - (1.0 - eta_c) * (c - b)) * j).hex()


class TestKernelUnit:
    """The kernel solves on the rates in units of gamma_ref (gamma_p, or 1
    with the photon field off): its outputs do not move when every coupling
    and tau scale together, and a coupling that overflows in those units
    refuses its point, silently, instead of overflowing the power."""

    def test_scaling_every_rate_keeps_the_bits(self, rng):
        xg, xl, xr = (rng.uniform(0.5, 10.0, 50), rng.uniform(-5.0, 5.0, 50),
                      rng.uniform(-5.0, 5.0, 50))
        obs = [steady_observables_grid(params_from_scaled(2.0, 0.0, 0.0, r_p=0.9, r_l=0.3,
                                                          gamma_p=g, gamma_l=g, gamma_r=g,
                                                          tau=g), xg, xl, xr)
               for g in (1.0, 2.0)]
        for k in ("power", "j", "rho12_re"):
            assert obs[0][k].tobytes() == obs[1][k].tobytes()

    @pytest.mark.parametrize("gamma_p", [1e-320, 5e-324])
    @pytest.mark.parametrize("r_l", [0.0, 1.0])
    def test_subnormal_photon_coupling_refuses_silently(self, gamma_p, r_l):
        # gamma_l / gamma_p overflows, and so do the rows it enters
        p = params_from_scaled(2.0, -1.0, 3.0, gamma_p=gamma_p, r_p=0.9, r_l=r_l, tau=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoUniqueSteadyStateError):
                steady_observables_grid(p, [2.0, 5.0], [-1.0, 0.5], [3.0, 7.0])

    def test_draw_whose_rates_overflow_refuses_on_every_path(self, rng, monkeypatch):
        # draw 455 of TestRefusalBound: gamma_p = 1.6e-162 with the left lead
        # off, far out (x_l = 648, x_r = -559); gamma_r / gamma_p squares past
        # the largest float, and the general path refuses the point too
        params = []
        monkeypatch.setattr(f"{__name__}._kernel_constants",
                            lambda p: params.append(p) or optimize._kernel_constants(p))
        consts, (x, _), (x_cs, occ_cs) = TestRefusalBound._draws_and_steps(rng)
        k = 455
        p = params[k // TestRefusalBound.PER_SET]
        assert (p.gamma_p, p.gamma_l, p.tau) == (1.6e-162, 0.0, 0.0)
        point = [float(v[k]) for v in x]
        power = _degenerate_steady(tuple(consts[:, k].tolist()), *point, bose_occupation(
            point[0]), fermi_occupation(point[1]), fermi_occupation(point[2]))[0]
        step = _degenerate_steady(consts[:, k:k + 1], *(v[k:k + 1] for v in x_cs),
                                  *(o[k:k + 1] for o in occ_cs))[0]
        assert math.isnan(power) and np.isnan(step.real).all() and np.isnan(step.imag).all()
        at = p.with_scaled(x_g=point[0], x_l=point[1], x_r=point[2])
        with pytest.raises(NoUniqueSteadyStateError):
            steady_state(build_generator(build_rates(at), at.delta21, at.tau))

    def test_every_solved_draw_reads_a_finite_power(self, rng):
        consts, (x, occ), _ = TestRefusalBound._draws_and_steps(rng)
        power = _degenerate_steady(consts, *x, *occ)[0]
        solved = ~np.isnan(power)
        assert 0 < solved.sum() < len(power) and np.isfinite(power[solved]).all()


class TestKernelRefusal:
    """Both kernel paths refuse exactly where steady_state does, silently.

    Points are drawn over the property-test ranges of ``draw_params``.  Far
    out in the search box, with a lead or the photon field switched off,
    each path can refuse a point the other solves, because steady_state
    gates the conditioning of the 6x6 system and the kernel the trace of its
    cofactor vector against its row norms.
    """

    @staticmethod
    def _outcome(fn):
        try:
            fn()
        except NoUniqueSteadyStateError:
            return "refused"
        return "solved"

    # pairs of zero rates disconnect the dot; the dark-state corner does not
    CASES = [
        ({"gamma_p": 0.0, "gamma_l": 0.0}, True),
        ({"gamma_p": 0.0, "gamma_r": 0.0}, True),
        ({"gamma_l": 0.0, "gamma_r": 0.0}, True),
        ({"gamma_p": 0.0}, False),
        ({"gamma_l": 0.0}, False),
        ({"gamma_r": 0.0}, False),
        ({"r_p": 1.0, "r_l": 1.0, "tau": 0.0}, False),
    ]

    @pytest.mark.parametrize("fixed,refused", CASES)
    def test_parity_with_general_path(self, rng, fixed, refused):
        want = ["refused" if refused else "solved"] * 8
        for tau in (0.0, 1.5, INFINITE):
            p = draw_params(rng, **{"tau": tau, **fixed})
            xg, xl, xr = (rng.uniform(0.5, 10.0, 8), rng.uniform(-5.0, 5.0, 8),
                          rng.uniform(-5.0, 5.0, 8))
            points = [p.with_scaled(x_g=a, x_l=b, x_r=c)
                      for a, b, c in zip(xg.tolist(), xl.tolist(), xr.tolist())]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                general = [self._outcome(lambda q=q: steady_state(build_generator(
                    build_rates(q), q.delta21, q.tau))) for q in points]
                scalar = [self._outcome(lambda q=q: steady_at(p, q.x_g, q.x_l, q.x_r))
                          for q in points]
                batched = self._outcome(lambda: steady_observables_grid(p, xg, xl, xr))
            assert general == scalar == want
            assert batched == want[0]

    @staticmethod
    def _read(values):
        nan = np.isnan(values)
        return "refused" if nan.all() else "solved" if not nan.any() else "partly refused"

    @pytest.mark.parametrize("fixed,refused", CASES)
    def test_gradient_refuses_where_the_float_kernel_does(self, rng, fixed, refused):
        # the complex-step gradient gates on real parts, so it reads NaN in
        # every direction exactly at the points the float kernel refuses,
        # warning about none
        steps = 1j * _CS_STEP * np.eye(3)
        for tau in (0.0, 1.5, INFINITE):
            p = draw_params(rng, **{"tau": tau, **fixed})
            consts = _kernel_constants(p)
            points = list(zip(rng.uniform(0.5, 10.0, 8).tolist(),
                              rng.uniform(-5.0, 5.0, 8).tolist(),
                              rng.uniform(-5.0, 5.0, 8).tolist()))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scalar = [self._outcome(lambda x=x: steady_at(p, *x)) for x in points]
                gradient = [self._read(_power_gradient(consts, x))
                            for x in np.array(points)[:, :, None] + steps]
            assert gradient == scalar == ["refused" if refused else "solved"] * 8

    def test_refuse_false_marks_only_the_refused_points(self, rng):
        # one batch of refused and solved points, a row of every case per
        # point, on real and on complex-step inputs: all six outputs are NaN,
        # in both parts where complex, at each point the float kernel
        # refuses, and elsewhere read the bits the solved points read alone
        params = [draw_params(rng, **fixed) for _ in range(4) for fixed, _ in self.CASES]
        consts = np.array([_kernel_constants(p) for p in params]).T
        x = [rng.uniform(0.5, 10.0, len(params)), rng.uniform(-5.0, 5.0, len(params)),
             rng.uniform(-5.0, 5.0, len(params))]
        refused = np.array([self._outcome(lambda k=k: steady_at(p, *(v[k] for v in x)))
                            == "refused" for k, p in enumerate(params)])
        assert refused.any() and not refused.all()
        occ = _occupations(x)
        for x_l in (x[1], x[1] + 1j * _CS_STEP):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch = _degenerate_steady(consts, x[0], x_l, x[2], *occ)
                alone = _degenerate_steady(consts[:, ~refused], x[0][~refused], x_l[~refused],
                                           x[2][~refused], *(o[~refused] for o in occ))
            assert np.iscomplexobj(batch[0]) == np.iscomplexobj(x_l)
            for out, want in zip(batch, alone):
                parts = [out] if np.isrealobj(out) else [out.real, out.imag]
                assert all(np.array_equal(np.isnan(part), refused) for part in parts)
                assert out[~refused].tobytes() == want.tobytes()


class TestRefusalBound:
    """The rate bound of the kernel's refusal gate only ever clears a point:
    on float, array and complex-step inputs the kernel refuses exactly where
    the three-norm gate (``reference_refusal_gate``) does, and the bound is
    at least the computed norm product wherever both are finite.

    Drawn over the channel-off cases, the dark-state corners and one
    subnormal, tiny or huge coupling each, alone or beside a channel off,
    at tau 0, 1.5, 1e300 and INFINITE, on points in the search box and out
    to |x| = 700.
    """

    # 1.6e-162 squares to 2.6e-324, which rounds up to 4.9e-324: a row of
    # that one entry has a computed norm 1.39 times its exact one
    COUPLINGS = (5e-324, 1e-320, 1.6e-162, 1e300)
    TAUS = (0.0, 1.5, 1e300, INFINITE)
    PER_SET = 8

    @classmethod
    def _draws(cls, rng):
        fixed = [f for f, _ in TestKernelRefusal.CASES]
        gammas = ("gamma_p", "gamma_l", "gamma_r")
        fixed += [{name: g, **{off: 0.0 for off in offs}} for name in gammas
                  for g in cls.COUPLINGS for offs in [(), *((o,) for o in gammas if o != name)]]
        params = [draw_params(rng, **{**f, "tau": tau}) for f in fixed for tau in cls.TAUS]
        params += [corner_params(*c[:4], tau) for c in DARK_CORNERS for tau in (c[4], *cls.TAUS)]
        consts = np.repeat(np.array([_kernel_constants(p) for p in params]).T, cls.PER_SET, axis=1)
        m = consts.shape[1]
        # x_g log-uniform, so that small x_g, where n is large, is drawn often
        box = [np.exp(rng.uniform(*np.log(DEFAULT_BOUNDS["x_g"]), m)),
               *(rng.uniform(*DEFAULT_BOUNDS[k], m) for k in _FREE_ORDER[1:])]
        far = [np.exp(rng.uniform(np.log(0.1), np.log(700.0), m)),
               rng.uniform(-700.0, 700.0, m), rng.uniform(-700.0, 700.0, m)]
        near = rng.random(m) < 0.5
        return consts, [np.where(near, b, f) for b, f in zip(box, far)]

    @staticmethod
    def _check(consts, x, occ):
        power, j, *_ = _degenerate_steady(consts, *x, *occ)
        singular, norms = reference_refusal_gate(consts, *occ)
        # the kernel's own power with the three-norm gate's NaNs
        want = np.where(singular, math.nan, (x[0] - consts[8] * (x[2] - x[1])) * j / consts[9])
        assert np.array_equal(np.isnan(power), np.isnan(want))
        bounds = _row_bounds(*consts[:3], consts[7], occ[0])
        pairs = [*zip(bounds, norms), (bounds[0] * bounds[1] * bounds[2],
                                       norms[0] * norms[1] * norms[2])]
        for bound, norm in pairs:
            finite = np.isfinite(bound) & np.isfinite(norm)
            assert np.all(bound[finite] >= norm[finite])
        return singular

    @classmethod
    def _draws_and_steps(cls, rng):
        """The constants, then (x, occupations) of the draws on floats and
        with a random complex step each."""
        consts, x = cls._draws(rng)
        occ = _occupations(x)
        steps = 1j * _CS_STEP * rng.standard_normal((3, len(x[0])))
        x_cs = [v + s for v, s in zip(x, steps)]
        occ_cs = [o - 1j * (o * (1.0 + s * o)) * v.imag for v, o, s in zip(x_cs, occ, _OCC_SIGN)]
        return consts, (x, occ), (x_cs, occ_cs)

    def test_bound_only_clears(self, rng):
        consts, (x, occ), (x_cs, occ_cs) = self._draws_and_steps(rng)
        with np.errstate(all="ignore"):
            singular = self._check(consts, x, occ)
            self._check(consts, x_cs, occ_cs)
            assert 0 < singular.sum() < len(singular)
            for k in range(0, len(singular), self.PER_SET):  # one float point per set
                c, point = tuple(consts[:, k].tolist()), [float(v[k]) for v in x]
                occ_k = [f(v) for f, v in zip((bose_occupation, fermi_occupation,
                                               fermi_occupation), point)]
                refused = np.isnan(_degenerate_steady(c, *point, *occ_k)[0])
                assert refused == reference_refusal_gate(c, *occ_k)[0]


class TestRefusalIsNaN:
    """NaN is the kernel's one refusal signal, the same on floats, arrays and
    complex steps and the same for a point alone or inside any batch;
    ``steady_observables_grid`` raises through it.  The draws and steps are
    ``TestRefusalBound``'s."""

    @staticmethod
    def _all_nan(values):
        values = np.asarray(values)
        parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
        return all(np.isnan(part).all() for part in parts)

    def test_disconnected_dot_with_an_overflowing_row_refuses(self):
        # photon field and left lead off: the norm product is 0 times the
        # coherence row's overflowing squares, NaN, and that refuses
        p = ModelParams(gamma_p=0.0, gamma_l=0.0, tau=1e300)
        consts = _kernel_constants(p)
        x = (np.array([2.0, 2.0]), np.array([-1.0, 0.5]), np.array([3.0, 1.0]))
        step = 1j * _CS_STEP * np.array([[1.0], [-2.0], [0.5]])
        x_cs = [v + s for v, s in zip(x, step)]
        occ_cs = [o - 1j * (o * (1.0 + s * o)) * v.imag
                  for v, o, s in zip(x_cs, _occupations(x), _OCC_SIGN)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NoUniqueSteadyStateError):
                steady_observables_grid(p, *x)
            for point in zip(*(v.tolist() for v in x)):  # Python floats
                occ = [f(v) for f, v in zip((bose_occupation, fermi_occupation,
                                             fermi_occupation), point)]
                assert all(map(self._all_nan, _degenerate_steady(consts, *point, *occ)))
            assert all(map(self._all_nan, _degenerate_steady(consts, *x, *_occupations(x))))
            complex_step = _degenerate_steady(consts, *x_cs, *occ_cs)
            assert np.iscomplexobj(complex_step[0]) and all(map(self._all_nan, complex_step))

    def test_overflowing_row_refuses_without_warnings(self):
        # the gate's bounds and norms overflow to inf or NaN by design there;
        # the call raises and warns nothing, with no errstate around it
        p = ModelParams(gamma_p=0.0, gamma_l=0.0, tau=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoUniqueSteadyStateError):
                steady_observables_grid(p, 2.0, [-1.0, 0.5], [3.0, 1.0])

    def test_complex_step_refuses_where_its_real_point_does(self, rng):
        consts, (x, occ), (x_cs, occ_cs) = TestRefusalBound._draws_and_steps(rng)
        with np.errstate(all="ignore"):
            real = np.isnan(_degenerate_steady(consts, *x, *occ)[0])
            power = _degenerate_steady(consts, *x_cs, *occ_cs)[0]
        assert 0 < real.sum() < len(real)
        assert self._all_nan(power[real])

    def test_a_point_reads_alone_what_it_reads_in_the_batch(self, rng):
        consts, _, (x_cs, occ_cs) = TestRefusalBound._draws_and_steps(rng)
        with np.errstate(all="ignore"):
            batch = _degenerate_steady(consts, *x_cs, *occ_cs)
            refused = np.isnan(batch[0].real)
            assert refused.any() and not refused.all()
            for k in range(consts.shape[1]):
                at = slice(k, k + 1)
                alone = _degenerate_steady(consts[:, at], *(v[at] for v in x_cs),
                                           *(o[at] for o in occ_cs))
                for a, b in zip(alone, batch):
                    assert np.array_equal(a.real, b.real[at], equal_nan=True)
                    assert np.array_equal(a.imag, b.imag[at], equal_nan=True)


def _search_gradient(params, eta_c, t):
    """The package's complex-step gradient of the power in the window
    coordinates t = (x_g, x_l, nu) of a 3-D seed grid."""
    xg, xl, nu = (np.asarray(t, dtype=complex) + 1j * _CS_STEP * np.eye(3)).T
    xr = xl + xg * (1.0 + nu * eta_c / (1.0 - eta_c))
    return _power_gradient(_kernel_constants(params), (xg, xl, xr))


class TestPowerGradient:
    def test_matches_central_differences(self, rng):
        # a difference step of 1e-5 leaves the central differences within
        # 3e-8 of the largest entry
        for k in range(12):
            eta_c, tau = (0.05, 0.5, 0.9)[k % 3], (0.0, 1.0, INFINITE)[k % 3 - 1]
            p = params_from_scaled(2.0, 0.0, 0.0, temp=(1.0 - eta_c) * 5780.0,
                                   temp_p=5780.0, r_p=0.9, r_l=(0.0, 0.3)[k % 2], tau=tau)
            t = np.array([rng.uniform(0.5, 4.0), rng.uniform(-3.0, 1.0), rng.uniform(0.1, 0.9)])
            _, want, _ = _power_gradient_hessian(p, eta_c, t, h=1e-5)
            got = _search_gradient(p, eta_c, t)
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_is_the_certificate_at_the_optimum(self):
        # a converged optimum is within x_rel_tol (1e-8) of each range of the
        # stationary point, where the gradient in the window coordinates
        # vanishes too: within an absolute 1e-12 of grad_rel, which is taken
        # in (x_g, x_l, x_r).  Both are ~1e-14 and differ by more than rel
        # 1e-3, so the absolute 1e-12 (approx's default) decides the clause
        p = params_from_scaled(2.0, 0.0, 0.0, r_p=0.9)
        res = maximize_power(p, free=("x_g", "x_l", "x_r"))
        eta_c = 1.0 - p.temp / p.temp_p
        xg, xl, xr = (res.x_opt[k] for k in ("x_g", "x_l", "x_r"))
        t = [xg, xl, ((xr - xl) / xg - 1.0) * (1.0 - eta_c) / eta_c]
        grad_rel = np.abs(_search_gradient(p, eta_c, t)).max() / res.p_max
        assert res.converged and res.newton_step <= 1e-8 * 29.9 and grad_rel <= 1e-6
        assert grad_rel == pytest.approx(res.grad_rel, rel=1e-3, abs=1e-12)

    def test_certificate_is_in_the_box_coordinates(self):
        # Newton runs in (x_g, x_l, x_r), so grad_rel is the largest
        # derivative of the power along them at x_opt, over the power; both
        # are ~1e-14, so no absolute tolerance
        p = params_from_scaled(2.0, 0.0, 0.0, r_p=0.9)
        res = maximize_power(p, free=("x_g", "x_l", "x_r"))
        x = np.array([res.x_opt[k] for k in ("x_g", "x_l", "x_r")])
        x = x[:, None] + 1j * _CS_STEP * np.eye(3)
        grad = _power_gradient(_kernel_constants(p), x)
        assert res.converged and not res.active_bounds
        assert np.abs(grad).max() / res.p_max == pytest.approx(res.grad_rel, rel=1e-3, abs=0.0)


class TestGradientStencil:
    """The engine passes its gradient stencil to the kernel unexpanded: a
    fixed coordinate real, one value per lane, and the bits are those of
    dense complex inputs."""

    @pytest.fixture
    def params(self):
        return list(_x_r_fixed_draws(np.random.default_rng(5), 6))

    def test_fixed_x_g_enters_real_per_lane(self, monkeypatch, params):
        kernel, calls = optimize._degenerate_steady, []

        def spy(consts, x_g, x_l, x_r, *rest):
            calls.append((x_g, x_l, x_r))
            return kernel(consts, x_g, x_l, x_r, *rest)

        monkeypatch.setattr(optimize, "_degenerate_steady", spy)
        optimize._maximize_rows(params, ("x_l", "x_r"))
        gradient = [c for c in calls if np.iscomplexobj(c[1])]
        assert gradient
        for x_g, x_l, x_r in gradient:
            assert x_g.dtype == np.float64 and x_g.shape == (x_l.shape[-1],)
            assert x_l.shape == x_r.shape == (5, 2) + x_g.shape

    @pytest.mark.parametrize("free", [("x_g",), ("x_l",), ("x_g", "x_r"), ("x_l", "x_r"),
                                      ("x_g", "x_l", "x_r")])
    def test_gives_the_bits_of_dense_inputs(self, monkeypatch, params, free):
        gradient, calls = optimize._power_gradient, []

        def spy(consts, points):
            calls.append((consts, points, gradient(consts, points)))
            return calls[-1][-1]

        monkeypatch.setattr(optimize, "_power_gradient", spy)
        optimize._maximize_rows(params, free)
        assert calls
        for consts, points, got in calls:
            dense = np.array(np.broadcast_arrays(*points), dtype=complex)
            want = gradient(consts, dense)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestGradientRefusal:
    """A lane whose Newton stencil reaches past a refusal boundary flags its
    row in the stencil's own gradient call, before any line search, and
    leaves the round at once; the other lanes go on as if alone."""

    @staticmethod
    def _ascend_all(params, starts):
        """Each row's OptResult, or its error, after projected Newton ascent
        from one start per row, run as :meth:`_Batch.run` runs a wave."""
        free, box = optimize._validated_options(("x_l", "x_r"), None)
        consts = np.array([_kernel_constants(p) for p in params]).T
        batch = optimize._Batch(params, consts, free, box, 16, 8, 1e-9, 1e-8, 2000)
        m, t = len(params), np.array(starts).T
        rows = np.arange(m)
        p, j, u = batch.power(rows, *batch.decode(t, rows))
        lanes = {"row": rows, "rank": np.zeros(m, dtype=int), "t": t, "p": p, "j": j, "u": u,
                 "evals": np.ones(m, dtype=int), "polished": np.zeros(m, dtype=bool)}
        assert not batch.flagged.any()
        books = [optimize._Starts([0], batch.span[:, 0].tolist(), 1e-9) for _ in params]
        while lanes["row"].size:
            lanes, stopped = batch.ascend(lanes)
            for row, _, *result in stopped:
                books[row].add(*result)
        return batch.results(books, 0)

    def test_lane_straddling_a_refusal_leaves_at_its_stencil(self, monkeypatch):
        # the scan of the search box at the left lead off, tau = 0 and
        # r_p = r_l = 0.9 (one of REFUSAL_SCAN_SETS in tests/same_bits.py)
        # refuses at (x_g, x_l, x_r) = (13.9, -20, 15) and solves at
        # (13.9, -20, 14); a start on the solved side of the
        # boundary between them, bisected to 1e-6, has the refused side
        # inside its stencil's reach (_HESS_STEP of the 40-wide range)
        edge = ModelParams(gamma_l=0.0, r_p=0.9, r_l=0.9).with_scaled(x_g=13.9, x_l=-20.0)
        consts = _kernel_constants(edge)

        def refused(x_r):
            return bool(np.isnan(_degenerate_steady(consts, 13.9, -20.0, x_r, *(
                f(v) for f, v in zip((bose_occupation, fermi_occupation, fermi_occupation),
                                     (13.9, -20.0, x_r))))[0]))

        solved, past = 14.0, 15.0
        assert not refused(solved) and refused(past)
        while past - solved > 1e-6:
            mid = 0.5 * (solved + past)
            solved, past = (solved, mid) if refused(mid) else (mid, past)
        params = [edge, params_from_scaled(2.0, 0.0, 0.0, r_p=0.9),
                  params_from_scaled(2.0, 0.0, 0.0, r_p=0.5, r_l=0.2)]
        starts = [(-20.0, solved), (0.0, 3.0), (-1.0, 2.5)]

        gradient, calls = optimize._power_gradient, []

        def spy(consts, points):
            calls.append(gradient(consts, points))
            return calls[-1]

        monkeypatch.setattr(optimize, "_power_gradient", spy)
        out = self._ascend_all(params, starts)
        # the first round's stencil refuses the first lane only
        assert np.isnan(calls[0][..., 0]).any() and not np.isnan(calls[0][..., 1:]).any()
        assert isinstance(out[0], NoUniqueSteadyStateError)
        for k in (1, 2):
            assert repr(out[k]) == repr(self._ascend_all([params[k]], [starts[k]])[0])


class TestMaximizePower:
    def test_equilibrium_is_degenerate(self):
        p = params_from_scaled(2.0, 0.0, 0.0, temp=500.0, temp_p=500.0)
        res = maximize_power(p, free=("x_l", "x_r"))
        assert res.degenerate
        assert res.p_max == 0.0
        assert res.eta_at_pmax is None
        assert res.starts == 0

    def test_fig2_incoherent_efficiency_below_087(self):
        p = params_from_scaled(2.0, 0.0, 0.0, r_p=0.5, r_l=0.5)
        res = maximize_power(p, free=("x_l", "x_r"))
        assert res.converged and not res.degenerate
        assert res.eta_at_pmax < 0.87
        assert not res.active_bounds

    def test_determinism_bit_identical(self):
        p = params_from_scaled(2.0, 0.0, 0.0, r_p=0.6, r_l=0.1, tau=0.5)
        a = maximize_power(p, free=("x_l", "x_r"))
        b = maximize_power(p, free=("x_l", "x_r"))
        assert a == b  # dataclass equality is exact on every float

    def test_three_variable_search(self):
        p = params_from_scaled(2.0, 0.0, 0.0, r_p=0.9, r_l=0.0)
        res = maximize_power(p, free=("x_g", "x_l", "x_r"))
        assert set(res.x_opt) == {"x_g", "x_l", "x_r"}
        assert res.p_max > 0.1
        # maximizing over one more variable can only help
        res2 = maximize_power(p, free=("x_l", "x_r"))
        assert res.p_max >= res2.p_max - 1e-12

    def test_single_variable_window_coordinate(self):
        p = params_from_scaled(2.0, -1.0, 0.0, r_p=0.4, r_l=0.1)
        res = maximize_power(p, free=("x_r",))
        assert set(res.x_opt) == {"x_r"}
        assert res.p_max > 0.0

    def test_active_bounds_flagged(self):
        p = params_from_scaled(2.0, 0.0, 0.0, r_p=0.5, r_l=0.5)
        res = maximize_power(p, free=("x_l", "x_r"),
                             bounds={"x_r": (-20.0, 3.0)})
        assert "x_r" in res.active_bounds
        assert res.x_opt["x_r"] <= 3.0

    def test_narrow_window_near_equilibrium_found(self):
        # eta_c = 0.02: the operating window is ~2% of the bandgap wide, far
        # below any rectangular seed spacing
        temp_p = 5780.0
        p = params_from_scaled(2.0, 0.0, 0.0, temp=0.98 * temp_p, temp_p=temp_p,
                               r_p=0.3, r_l=0.3)
        res = maximize_power(p, free=("x_l", "x_r"))
        assert not res.degenerate
        assert res.p_max > 0.0
        assert 0.0 < res.eta_at_pmax < 0.02

    @pytest.mark.parametrize("free", [(), ("x_q",), ("x_g", "bogus"), [["x_l"]], 5])
    def test_bad_free_sets(self, free):
        p = params_from_scaled(2.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            maximize_power(p, free=free)

    def test_bad_bounds(self):
        p = params_from_scaled(2.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            maximize_power(p, free=("x_g",), bounds={"x_g": (-1.0, 5.0)})
        with pytest.raises(DomainError):
            maximize_power(p, free=("x_l",), bounds={"x_l": (3.0, 1.0)})


class TestRankedSeeds:
    """Ranking only the seeds at or above the refine_top-th largest power
    picks what a lexsort of the whole grid on its coordinates picks, for
    grids in C order on increasing axes, as the seed grid is."""

    @staticmethod
    def _full_lexsort(t_grid, p_grid, top):
        ranked = np.lexsort(tuple(t_grid.T[::-1]) + (-p_grid,))
        return [int(i) for i in ranked[:top] if p_grid[i] > 0.0]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_full_lexsort_with_ties(self, rng, dim):
        for _ in range(150):
            side = int(rng.integers(2, 9))
            axes = [np.sort(rng.uniform(-1.0, 1.0, side)) for _ in range(dim)]
            mesh = np.meshgrid(*axes, indexing="ij")
            t_grid = np.stack([m.ravel() for m in mesh], axis=-1)
            n = len(t_grid)
            # a few distinct levels, so equal positive powers straddle the
            # cut, and a share of +0.0 cells from none to nearly all
            levels = rng.uniform(0.1, 1.0, int(rng.integers(1, 5)))
            p_grid = rng.choice(levels, n)
            p_grid[rng.random(n) < rng.choice([0.0, 0.5, 0.9, 0.99, 1.0])] = 0.0
            for top in {1, 2, 8, n - 1, n, n + 3, int(rng.integers(1, n + 1))}:
                want = self._full_lexsort(t_grid, p_grid, top)
                assert _ranked_seeds(p_grid[None], top)[0] == want
                assert len(want) == min(top, int(np.count_nonzero(p_grid)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stack_ranks_each_row_as_alone(self, rng, dim):
        # a (rows, n) stack gives, row by row, the one-row stack's seeds: rows of
        # few levels, so equal positive powers straddle a row's cut, all-zero
        # rows, top >= n, and rows with fewer positive points than top
        for _ in range(60):
            side = int(rng.integers(2, 7))
            axes = [np.sort(rng.uniform(-1.0, 1.0, side)) for _ in range(dim)]
            mesh = np.meshgrid(*axes, indexing="ij")
            t_grid = np.stack([m.ravel() for m in mesh], axis=-1)
            n, n_rows = len(t_grid), int(rng.integers(1, 10))
            levels = rng.uniform(0.1, 1.0, int(rng.integers(1, 4)))
            p_rows = rng.choice(levels, (n_rows, n))
            zeros = rng.choice([0.0, 0.5, 0.9, 1.0], (n_rows, 1))
            p_rows[rng.random((n_rows, n)) < zeros] = 0.0
            for top in {1, 2, 8, n - 1, n, n + 3, int(rng.integers(1, n + 1))}:
                want = [_ranked_seeds(p[None], top)[0] for p in p_rows]
                assert _ranked_seeds(p_rows, top) == want
                assert want == [self._full_lexsort(t_grid, p, top) for p in p_rows]

    def test_fewer_positive_points_than_refine_top(self):
        p_grid = np.zeros(16)
        p_grid[[9, 3, 12]] = (0.5, 0.5, 0.7)
        assert _ranked_seeds(p_grid[None], 8) == [[12, 3, 9]]
        assert _ranked_seeds(p_grid[None], 2) == [[12, 3]]
        assert _ranked_seeds(np.zeros((1, 16)), 8) == [[]]


class TestCountValidation:
    PARAMS = params_from_scaled(2.0, 0.0, 0.0, r_p=0.9)

    @pytest.mark.parametrize("name, value", [
        ("seeds_per_dim", 8.0), ("seeds_per_dim", True), ("seeds_per_dim", 1),
        ("refine_top", 2.5), ("refine_top", True), ("refine_top", 0),
        ("max_evals_per_seed", 1.5), ("max_evals_per_seed", False),
        ("max_evals_per_seed", "200"),
    ])
    def test_non_integer_or_boolean_count_refused(self, name, value):
        with pytest.raises(DomainError, match=name):
            maximize_power(self.PARAMS, **{name: value})

    def test_numpy_integers_accepted(self):
        got = maximize_power(self.PARAMS, seeds_per_dim=np.int64(8), refine_top=np.int32(2))
        assert got == maximize_power(self.PARAMS, seeds_per_dim=8, refine_top=2)

    def test_bad_count_flags_a_fig2_row(self):
        # a DomainError is a QdpcError: the sweep flags the row and goes on
        table = run_fig2([0.5], workers=1, refine_top=2.5)
        assert [row["error"] for row in table.rows] == [
            "refine_top must be an integer >= 1, got 2.5"]

    def test_bare_string_free_refused(self):
        with pytest.raises(DomainError, match="sequence of variable names"):
            maximize_power(self.PARAMS, free="x_l")

    @pytest.mark.parametrize("kwargs, name", [
        ({"bounds": {"x_l": 3.0}}, "bounds.x_l"),
        ({"bounds": {"x_l": (-3.0, 0.0, 3.0)}}, "bounds.x_l"),
        ({"bounds": {"x_l": (False, 3.0)}}, "bounds.x_l"),
        ({"bounds": {"x_l": (-math.inf, 0.0)}}, "bounds.x_l"),
        ({"bounds": [(-3.0, 3.0)]}, "bounds"),
        ({"f_rel_tol": "1e-9"}, "f_rel_tol"),
        ({"x_rel_tol": True}, "x_rel_tol"),
    ])
    def test_malformed_bound_or_tolerance_is_a_domain_error(self, kwargs, name):
        # never a bare TypeError or ValueError, which would abort a sweep; the
        # message leads with the option's name
        with pytest.raises(DomainError, match=f"^{name} "):
            maximize_power(self.PARAMS, **kwargs)


# (free, r_p, r_l, tau, temp, bounds): 2-D and 3-D, tau = inf, the dark-state
# corner, eta_c = 0.05 (temp = 0.95 temp_p) and custom boxes
_NM_ORACLE_CONFIGS = [
    (("x_l", "x_r"), 0.6, 0.1, 0.5, 295.0, None),
    (("x_g", "x_l", "x_r"), 0.9, 0.0, 0.0, 295.0, None),
    (("x_g", "x_l", "x_r"), 0.9, 0.0, INFINITE, 295.0, None),
    (("x_l", "x_r"), 1.0, 1.0, 0.0, 295.0, None),
    (("x_g", "x_l", "x_r"), 0.9, 0.3, 1.0, 0.95 * 5780.0, None),
    (("x_l", "x_r"), 0.5, 0.5, 0.0, 295.0, {"x_l": (-3.0, 1.0), "x_r": (-20.0, 3.0)}),
    (("x_g", "x_r"), 0.4, 0.2, 3.0, 1000.0, {"x_g": (1.0, 6.0)}),
]


def _assert_same_optimum(got, want):
    """The Newton optimum is the array simplex's from all eight seeds, to the
    simplex's own tolerance."""
    assert not want.degenerate and not got.degenerate and got.converged
    assert abs(got.p_max - want.p_max) <= 1e-10 * want.p_max
    assert abs(got.eta_at_pmax - want.eta_at_pmax) <= 1e-7
    assert got.active_bounds == want.active_bounds


@pytest.mark.parametrize("free, r_p, r_l, tau, temp, bounds", _NM_ORACLE_CONFIGS)
def test_maximize_power_matches_array_oracle(free, r_p, r_l, tau, temp, bounds):
    p = params_from_scaled(2.0, -1.0, 0.5, r_p=r_p, r_l=r_l, tau=tau, temp=temp)
    got = maximize_power(p, free=free, bounds=bounds)
    _assert_same_optimum(got, reference_maximize_power(p, free=free, bounds=bounds,
                                                       all_starts=True))


def _multistart_draws(rng, n):
    """(params, free) pairs: eta_c in U[0.02, 0.98], each rate log-uniform in
    [0.1, 10], r_p and r_l in U[0, 1], tau cycling through 0, U(0, 10) and
    INFINITE, 2-D and 3-D free sets alternating, and every fifth draw at the
    dark-state corner (r_p = r_l = 1, tau = 0)."""
    for k in range(n):
        eta_c = rng.uniform(0.02, 0.98)
        gamma_p, gamma_l, gamma_r = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3))
        r_p, r_l = rng.uniform(0.0, 1.0, 2)
        tau = (0.0, rng.uniform(0.0, 10.0), INFINITE)[k % 3]
        if k % 5 == 4:
            r_p, r_l, tau = 1.0, 1.0, 0.0
        p = params_from_scaled(2.0, 0.0, 0.0, temp=(1.0 - eta_c) * 5780.0,
                               temp_p=5780.0, gamma_p=gamma_p, gamma_l=gamma_l,
                               gamma_r=gamma_r, r_p=r_p, r_l=r_l, tau=tau)
        yield p, (("x_l", "x_r"), ("x_g", "x_l", "x_r"))[k % 2]


def test_stop_rule_matches_eight_start_oracle(rng):
    # stopping once a start agrees with the incumbent moves the answer by
    # simplex-tolerance amounts only
    for p, free in _multistart_draws(rng, 60):
        got = maximize_power(p, free=free)
        want = reference_maximize_power(p, free=free, all_starts=True)
        assert not want.degenerate and not got.degenerate
        assert 1 <= got.starts <= 8
        assert abs(got.p_max - want.p_max) <= 1e-10 * want.p_max
        assert abs(got.eta_at_pmax - want.eta_at_pmax) <= 1e-7


def _bit_identity_draws(rng, n):
    """``_multistart_draws`` with a drawn box on every third draw, one in two
    of them with upper x_g and x_l bounds below the usual optimum, and every
    seventh draw over (x_g, x_r) and every eleventh over x_r alone."""
    for k, (p, free) in enumerate(_multistart_draws(rng, n)):
        bounds = None
        if k % 6 == 2:
            bounds = {"x_g": (rng.uniform(0.1, 1.5), rng.uniform(4.0, 30.0)),
                      "x_l": (rng.uniform(-20.0, -2.0), rng.uniform(0.0, 20.0)),
                      "x_r": (rng.uniform(-20.0, 0.0), rng.uniform(2.0, 20.0))}
        elif k % 6 == 5:
            bounds = {"x_g": (0.1, rng.uniform(0.5, 1.2)),
                      "x_l": (-20.0, rng.uniform(-4.0, -1.0))}
        if k % 7 == 6:
            free = ("x_g", "x_r")
        elif k % 11 == 10:
            free = ("x_r",)
        yield p, free, bounds


def test_matches_all_starts_oracle_on_bounded_draws(rng):
    # drawn boxes, optima on their faces and (x_g, x_r) or x_r alone free
    for p, free, bounds in _bit_identity_draws(rng, 66):
        got = maximize_power(p, free=free, bounds=bounds)
        _assert_same_optimum(got, reference_maximize_power(p, free=free, bounds=bounds,
                                                           all_starts=True))


def test_optimum_on_a_face_of_the_x_r_box():
    # the optimum of this draw sits on the upper face of the x_r box, and a
    # search that stops at the face without moving along it ends 8.7e-6
    # relative below the simplex's p_max
    p, free, bounds = list(_bit_identity_draws(np.random.default_rng(1), 66))[20]
    got = maximize_power(p, free=free, bounds=bounds)
    assert free == ("x_g", "x_r") and got.active_bounds == ("x_r",)
    assert got.x_opt["x_r"] == bounds["x_r"][1]
    assert got.max_curvature < 0.0 and got.grad_rel <= 1e-6
    _assert_same_optimum(got, reference_maximize_power(p, free=free, bounds=bounds,
                                                       all_starts=True))


def test_x_r_face_still_binds():
    # at every optimum on a face of the x_r box the power still rises through
    # that face (dP/dx_r at fixed x_g, x_l points out of the box), so the
    # projected search held a constraint that binds.  The draws run in one
    # batch per (free, bounds) group; TestBatchInvariance pins that a row's
    # result does not depend on the batch
    groups = {}
    for seed in (2, 3, 4):
        for p, free, bounds in _bit_identity_draws(np.random.default_rng(seed), 120):
            key = free, None if bounds is None else tuple(bounds.items())
            groups.setdefault(key, []).append(p)
    faces = 0
    for (free, bounds), params in groups.items():
        bounds = None if bounds is None else dict(bounds)
        for p, res in zip(params, optimize._maximize_rows(params, free, bounds)):
            if isinstance(res, NoUniqueSteadyStateError):
                continue
            if "x_r" not in res.active_bounds:
                continue
            faces += 1
            x = {"x_g": p.x_g, "x_l": p.x_l, **res.x_opt}
            lo, hi = {**DEFAULT_BOUNDS, **(bounds or {})}["x_r"]
            point = np.array([[x["x_g"]], [x["x_l"]], [x["x_r"] + 1j * _CS_STEP]])
            slope = _power_gradient(_kernel_constants(p), point)[0]
            outward = 1.0 if abs(x["x_r"] - hi) < abs(x["x_r"] - lo) else -1.0
            assert outward * slope > 0.0
    assert faces >= 1


def _x_r_fixed_draws(rng, n):
    """Params for searches with x_r fixed: x_g in U[0.5, 10], x_l and x_r in
    U[-5, 5], r_p and r_l in U[0, 1], tau in U[0, 10], temp in U[300, 5000] K."""
    for _ in range(n):
        x_g = rng.uniform(0.5, 10.0)
        x_l, x_r = rng.uniform(-5.0, 5.0, 2)
        r_p, r_l = rng.uniform(0.0, 1.0, 2)
        yield params_from_scaled(x_g, x_l, x_r, r_p=r_p, r_l=r_l, tau=rng.uniform(0.0, 10.0),
                                 temp=rng.uniform(300.0, 5000.0))


def _assert_finds_the_grids_best(p, free, n_per_dim):
    """The search reaches the rectangular grid's best power, to 1e-9 relative,
    and is neither degenerate nor unconverged where that power is positive;
    the grid's power."""
    want, _ = grid_search_power(p, free, n_per_dim=n_per_dim)
    got = maximize_power(p, free=free)
    assert got.p_max >= (1.0 - 1e-9) * want
    if want > 0.0:
        assert not got.degenerate and got.converged
    return want


class TestOptimumObservables:
    """An OptResult's j and rho12_re are the kernel's at its optimum, from
    the kernel call that gave its p_max: ``steady_observables_grid`` there
    gives the same bits.  A result without an optimum reads NaN in both."""

    @staticmethod
    def _draws():
        # 2-D and 3-D draws with drawn boxes, (x_g, x_r) and x_r alone,
        # fig3-like rows at tau = 0, 1 and inf, and x_r-fixed free sets
        yield from _bit_identity_draws(np.random.default_rng(3), 60)
        for k, ec in enumerate((0.05, 0.3, 0.6, 0.95)):
            yield (params_from_scaled(2.0, 0.0, 0.0, temp=(1.0 - ec) * 5780.0, temp_p=5780.0,
                                      r_p=0.9, tau=(0.0, 1.0, INFINITE)[k % 3]),
                   _FREE_ORDER, None)
        frees = (("x_g",), ("x_l",), ("x_g", "x_l"))
        for k, p in enumerate(_x_r_fixed_draws(np.random.default_rng(5), 6)):
            yield p, frees[k % 3], None

    def test_match_the_grid_at_the_optimum(self):
        seen = set()
        for p, free, bounds in self._draws():
            try:
                res = maximize_power(p, free=free, bounds=bounds)
            except NoUniqueSteadyStateError:
                continue
            if res.degenerate:
                continue
            seen.add(len(free))
            x = {"x_g": p.x_g, "x_l": p.x_l, "x_r": p.x_r, **res.x_opt}
            obs = steady_observables_grid(p, x["x_g"], x["x_l"], x["x_r"])
            want = np.array([obs[k] for k in ("power", "j", "rho12_re")])
            assert np.array([res.p_max, res.j, res.rho12_re]).tobytes() == want.tobytes()
        assert seen == {1, 2, 3}

    @pytest.mark.parametrize("temp, bounds", [
        (5780.0, None),  # eta_c = 0: no seed grid runs
        (6000.0, None),  # eta_c < 0
        (300.0, {"x_g": (0.1, 1.0), "x_l": (-20.0, -19.0), "x_r": (19.0, 20.0)}),
    ])
    def test_nan_without_an_optimum(self, temp, bounds):
        p = params_from_scaled(2.0, 0.0, 0.0, temp=temp, r_p=0.9)
        res = maximize_power(p, free=_FREE_ORDER, bounds=bounds)
        assert res.degenerate and math.isnan(res.j) and math.isnan(res.rho12_re)


class TestWindowWithXrFixed:
    """The last free coordinate is gridded across the operating window
    whichever it is; the simplex oracle stops short on such searches, so the
    exhaustive grid referees them."""

    @pytest.mark.parametrize("free, kwargs", [
        (("x_g",), {"r_p": 0.6, "r_l": 0.1, "tau": 1.0, "temp": 1500.0}),
        (("x_l",), {"r_p": 0.9, "temp": 5491.0}),
    ])
    def test_points_a_rectangular_grid_misses(self, free, kwargs):
        p = params_from_scaled(2.0, -1.0, 0.5, **kwargs)
        assert _assert_finds_the_grids_best(p, free, 4000) > 0.0

    @pytest.mark.parametrize("free", [("x_g",), ("x_l",), ("x_g", "x_l")])
    def test_matches_the_grid_on_draws(self, rng, free):
        n_per_dim = 2000 if len(free) == 1 else 200
        powers = [_assert_finds_the_grids_best(p, free, n_per_dim)
                  for p in _x_r_fixed_draws(rng, 12)]
        assert sum(w > 0.0 for w in powers) >= 4


class TestBatchInvariance:
    """A row computed alone equals the same row inside any batch, bit for
    bit; batch lengths 1, 7, 8, 9 and 441 hit numpy's SIMD loop tails."""

    @pytest.fixture(scope="class")
    def fig2(self):
        # the default fig2 sweep (441 rows), the params of its rows, and the
        # engine's results for all of them
        table = run_fig2(workers=1)
        params = [params_from_scaled(row["x_g"], 0.0, 0.0, r_p=row["r_p"], r_l=row["r_l"])
                  for row in table.rows]
        return table, params, optimize._maximize_rows(params)

    @staticmethod
    def _same(results, rows):
        assert [repr(r) for r in results] == [repr(r) for r in rows]

    def test_engine_matches_the_fig2_table(self, fig2):
        table, _, whole = fig2
        for row, res in zip(table.rows, whole):
            assert (row["p_max"], row["x_l"], row["x_r"], row["eta"]) == (
                res.p_max, res.x_opt["x_l"], res.x_opt["x_r"], res.eta_at_pmax)

    @pytest.mark.parametrize("length", [1, 7, 8, 9])
    def test_sub_batches_match_the_whole_sweep(self, fig2, length):
        _, params, whole = fig2
        for first in (0, 215, 441 - length):
            self._same(optimize._maximize_rows(params[first:first + length]),
                       whole[first:first + length])

    def test_maximize_power_alone_matches_the_sweep(self, fig2):
        _, params, whole = fig2
        for k in (0, 21, 220, 439, 440):  # 440 is the dark-state corner
            self._same([maximize_power(params[k])], whole[k:k + 1])

    def test_third_starts_in_a_batch_match_the_rows_alone(self, fig2, monkeypatch):
        # displace the second start of the rows whose best seed has an even
        # grid index: they run a third start in the next wave, beside rows
        # that stopped after two
        _, params, _ = fig2
        add = optimize._Starts.add
        starts = []

        def wrapper(book, t, p, *rest):
            if book.starts == 1 and book.seeds[0] % 2 == 0:
                t = tuple((np.array(t) + 1e-3 * np.array(book.span)).tolist())
            done = add(book, t, p, *rest)
            if done:
                starts.append(book.starts)
            return done

        monkeypatch.setattr(optimize._Starts, "add", wrapper)
        rows = params[270:279]
        batch = optimize._maximize_rows(rows)
        assert sorted(set(starts)) == [2, 3]
        self._same(batch, [maximize_power(p) for p in rows])

    @pytest.mark.parametrize("length", [7, 8, 9])
    def test_three_variable_batches(self, length):
        # fig3-like rows: eta_c and tau vary along the batch
        params = [params_from_scaled(2.0, 0.0, 0.0, temp=(1.0 - ec) * 5780.0, temp_p=5780.0,
                                     r_p=0.9, tau=(0.0, 1.0, INFINITE)[k % 3])
                  for k, ec in enumerate(np.linspace(0.05, 0.95, length))]
        free = ("x_g", "x_l", "x_r")
        self._same(optimize._maximize_rows(params, free),
                   [maximize_power(p, free=free) for p in params])

    @pytest.mark.parametrize("free", [("x_g",), ("x_l",), ("x_g", "x_l")])
    def test_x_r_fixed_batches(self, free):
        # rows whose window coordinate is x_g or x_l, at different operating points
        params = list(_x_r_fixed_draws(np.random.default_rng(5), 9))
        self._same(optimize._maximize_rows(params, free),
                   [maximize_power(p, free=free) for p in params])

    def test_refused_row_flags_only_itself(self):
        good = params_from_scaled(2.0, 0.0, 0.0, r_p=0.9)
        cut = params_from_scaled(2.0, 0.0, 0.0, r_p=0.9, gamma_p=0.0, gamma_l=0.0)
        split = good.replace(delta21=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = optimize._maximize_rows([good, cut, good, split])
        assert repr(results[0]) == repr(results[2]) == repr(maximize_power(good))
        assert isinstance(results[1], NoUniqueSteadyStateError)
        with pytest.raises(NoUniqueSteadyStateError, match=f"^{results[1]}$"):
            maximize_power(cut)
        assert isinstance(results[3], DomainError) and "delta21 = 0" in str(results[3])


class TestStopRule:
    """The refinement stops at the first start that agrees with the incumbent,
    and runs at most refine_top starts."""

    PARAMS = params_from_scaled(2.0, 0.0, 0.0, r_p=0.9, r_l=0.0)

    @staticmethod
    def _patched(monkeypatch, displace):
        """Count the starts; ``displace[n]`` maps start n's (t, p, span)."""
        calls = []
        add = optimize._Starts.add

        def wrapper(book, t, p, *rest):
            calls.append(1)
            if len(calls) in displace:
                t, p = displace[len(calls)](np.array(t), p, np.array(book.span))
                t = tuple(t.tolist())
            return add(book, t, p, *rest)

        monkeypatch.setattr(optimize._Starts, "add", wrapper)
        return calls

    @staticmethod
    def _moved(t, p, span):
        # 1e-3 of each coordinate's range, beyond sqrt(f_rel_tol)
        return t + 1e-3 * span, p

    # a power 1e-6 off is beyond f_rel_tol
    @pytest.mark.parametrize("displace", [
        _moved,
        lambda t, p, span: (t, p * (1.0 - 1e-6)),
    ], ids=["x", "power"])
    def test_disagreeing_second_start_runs_a_third(self, monkeypatch, displace):
        want = maximize_power(self.PARAMS)
        assert want.starts == 2
        calls = self._patched(monkeypatch, {2: displace})
        got = maximize_power(self.PARAMS)
        assert got.starts == len(calls) == 3
        assert got.p_max == want.p_max and got.x_opt == want.x_opt

    def test_better_displaced_start_wins_after_all_starts(self, monkeypatch):
        want = maximize_power(self.PARAMS)
        calls = self._patched(monkeypatch, {2: lambda t, p, span: (
            self._moved(t, p * (1.0 + 1e-6), span))})
        got = maximize_power(self.PARAMS)
        # no honest start agrees with the displaced incumbent
        assert got.starts == len(calls) == 8
        assert got.p_max == pytest.approx(want.p_max * (1.0 + 1e-6), rel=1e-12, abs=0.0)
        assert got.x_opt["x_l"] == pytest.approx(want.x_opt["x_l"] + 0.04, abs=1e-5)

    def test_refine_top_one_runs_one_start(self, monkeypatch):
        calls = self._patched(monkeypatch, {})
        assert maximize_power(self.PARAMS, refine_top=1).starts == len(calls) == 1

    def test_refine_top_bounds_disagreeing_starts(self, monkeypatch):
        calls = self._patched(monkeypatch, {2: self._moved})
        assert maximize_power(self.PARAMS, refine_top=2).starts == len(calls) == 2


class TestIndefiniteHessianStep:
    """Where -H is not positive definite on a lane's free coordinates, the lane
    steps along its range-scaled gradient.  No workload meets such a Hessian,
    so the first Cholesky solve of each search is made to fail on every lane,
    and the search must still reach the optimum it reaches unforced."""

    @staticmethod
    def _first_solve_fails(monkeypatch):
        solve, calls = optimize._cholesky_solve, []

        def forced(a, b):
            x, ok = solve(a, b)
            calls.append(ok.size)
            return x, ok & (len(calls) > 1)

        monkeypatch.setattr(optimize, "_cholesky_solve", forced)
        return calls

    @staticmethod
    def _same(got, want):
        assert got.converged and want.converged
        assert abs(got.p_max - want.p_max) <= 1e-12 * want.p_max
        assert abs(got.eta_at_pmax - want.eta_at_pmax) <= 1e-7

    @pytest.mark.parametrize("free, kwargs", [
        (("x_l", "x_r"), {"r_p": 0.9}),
        (("x_g", "x_l", "x_r"), {"r_p": 0.6, "r_l": 0.1, "tau": 1.0}),
        (("x_g", "x_l", "x_r"), {"r_p": 0.9, "tau": INFINITE, "temp": 1500.0}),
    ])
    def test_maximize_power(self, monkeypatch, free, kwargs):
        p = params_from_scaled(2.0, -1.0, 0.5, **kwargs)
        want = maximize_power(p, free=free)
        calls = self._first_solve_fails(monkeypatch)
        self._same(maximize_power(p, free=free), want)
        assert calls[0] >= 2  # every lane of the first wave took the gradient step

    def test_fig2_sweep(self, monkeypatch):
        want = run_fig2([0.0, 0.5, 1.0], workers=1).rows
        calls = self._first_solve_fails(monkeypatch)
        got = run_fig2([0.0, 0.5, 1.0], workers=1).rows
        assert calls[0] == 18 and len(got) == 9
        for row, ref in zip(got, want):
            assert not row["error"] and row["converged"] and ref["converged"]
            assert abs(row["p_max"] - ref["p_max"]) <= 1e-12 * ref["p_max"]
            assert abs(row["eta"] - ref["eta"]) <= 1e-7


class TestNewtonStopRules:
    """The lane stop rules the workloads never reach: every lane of the
    default sweeps stops on a Newton step within x_rel_tol."""

    PARAMS = params_from_scaled(2.0, 0.0, 0.0, r_p=0.9)

    def test_resolution_rule_converges_below_x_rel_tol(self):
        # a Newton step of 1e-15 of the range is below what the kernel
        # resolves; two full Newton steps with a decrement within f_rel_tol
        # of the power converge the lane with a larger step left
        res = maximize_power(self.PARAMS, x_rel_tol=1e-15)
        assert res.converged and res.starts == 2
        assert res.newton_step > 40 * 1e-15

    def test_evaluation_cap_stops_every_start(self):
        full = maximize_power(self.PARAMS)
        res = maximize_power(self.PARAMS, max_evals_per_seed=5)
        # no start converges, so none agrees with another and all eight run
        assert not res.converged and res.starts == 8
        assert 0.0 < res.p_max <= full.p_max


class TestThinStencil:
    """The Hessian stencil reaches at least an ulp of t either side, so a
    window thinner than about 1e-12 (eta_c below that) or a box a few ulps
    wide still has differences of nonzero width: the search ends in an
    OptResult with no 0/0 and no failed eigenvalue solve.  Below the power's
    rounding the window's optimum is not resolved, so it ends unconverged."""

    @staticmethod
    def _fig3a_row():
        (row,) = run_fig3a([0.0], [1e-12], workers=1).rows
        assert row["error"] is None and row["p_max"] > 0.0 and row["converged"] is False

    @staticmethod
    def _thin_window():
        p = params_from_scaled(2.0, 0.0, 0.0, temp=(1.0 - 1e-14) * 5780.0, temp_p=5780.0,
                               r_p=0.9)
        res = maximize_power(p)
        assert not res.degenerate and res.p_max > 0.0 and res.converged is False

    @staticmethod
    def _ulp_box():
        p = params_from_scaled(2.0, 0.0, 0.0, r_p=0.9)
        res = maximize_power(p, free=_FREE_ORDER,
                             bounds={"x_g": (2.0, float(np.nextafter(2.0, 3.0)))})
        assert not res.degenerate and res.p_max > 0.0 and res.active_bounds[0] == "x_g"

    @pytest.mark.parametrize("case", ["_fig3a_row", "_thin_window", "_ulp_box"])
    def test_ends_in_an_optimum_without_warnings(self, case):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            getattr(self, case)()


class TestCholeskySolve:
    """The hand-written lane solver agrees with LAPACK on seeded stacks that
    mix positive-definite and indefinite lanes."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_lapack(self, dim):
        rng = np.random.default_rng(dim)
        m = 64
        q = np.linalg.qr(rng.normal(size=(m, dim, dim)))[0]
        eig = rng.uniform(0.1, 10.0, size=(m, dim)) * np.where(
            rng.random((m, dim)) < 0.25, -1.0, 1.0)
        a = q @ (eig[:, :, None] * q.swapaxes(1, 2))
        a = 0.5 * (a + a.swapaxes(1, 2))
        b = rng.normal(size=(m, dim))
        x, ok = optimize._cholesky_solve(a.transpose(1, 2, 0), b.T)
        want_ok = np.linalg.eigvalsh(a)[..., 0] > 0.0
        assert 0 < want_ok.sum() < m
        assert np.array_equal(ok, want_ok)
        want = np.linalg.solve(a[ok], b[ok][..., None])[..., 0]
        err = np.linalg.norm(x.T[ok] - want, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))


# Five pinned oracle configurations: (r_p, r_l, tau, temp, box around the
# optimum).  Box widths are sized so a 400-point axis resolves the quadratic
# peak to well below the 1e-6 relative gate.
ORACLE_CONFIGS = [
    (0.5, 0.5, 0.0, 295.0, {"x_l": (-4.0, -2.0), "x_r": (2.8, 4.8)}),
    (0.9, 0.0, 0.0, 295.0, {"x_l": (-2.4, -0.4), "x_r": (3.5, 5.5)}),
    (0.0, 0.9, 0.0, 295.0, {"x_l": (-4.2, -2.2), "x_r": (2.8, 4.8)}),
    (0.7, 0.2, 1.0, 295.0, {"x_l": (-4.0, -2.0), "x_r": (2.8, 4.8)}),
    (0.9, 0.9, 0.0, 2890.0, {"x_l": (-1.25, -0.85), "x_r": (1.6, 2.0)}),
]


class TestGridOracle:
    @pytest.mark.parametrize("r_p,r_l,tau,temp,box", ORACLE_CONFIGS)
    def test_simplex_matches_dense_grid(self, r_p, r_l, tau, temp, box):
        p = params_from_scaled(2.0, 0.0, 0.0, temp=temp, temp_p=5780.0,
                               r_p=r_p, r_l=r_l, tau=tau)
        res = maximize_power(p, free=("x_l", "x_r"), bounds=box)
        p_grid, _coords = grid_search_power(p, ("x_l", "x_r"), bounds=box,
                                            n_per_dim=400)
        assert abs(res.p_max - p_grid) <= 1e-6 * max(res.p_max, 1e-12)

    def test_full_box_agreement_at_grid_resolution(self):
        # over the full default box a 400-point grid resolves the peak to
        # about its spacing squared times the curvature
        p = params_from_scaled(2.0, 0.0, 0.0, r_p=0.9, r_l=0.0)
        res = maximize_power(p, free=("x_l", "x_r"))
        p_grid, _ = grid_search_power(p, ("x_l", "x_r"), n_per_dim=400)
        assert res.p_max >= p_grid - 1e-9
        assert abs(res.p_max - p_grid) <= 2e-4 * res.p_max


class TestCurve:
    """The efficiency-at-max-power curves, as the fig3 sweeps compute them."""

    def test_small_eta_c_gives_small_eta(self):
        (row,) = run_fig3a([0.0], [0.01]).rows
        assert row["eta_at_pmax"] is not None
        assert 0.0 < row["eta_at_pmax"] < 0.01

    def test_lead_coupling_ordering(self):
        etas = {}
        for row in run_fig3a((0.0, 0.3, 0.9), [0.3, 0.6, 0.9]).rows:
            etas.setdefault(row["r_l"], []).append(row["eta_at_pmax"])
        for i in range(3):
            assert etas[0.0][i] >= etas[0.3][i] - 1e-7
            assert etas[0.3][i] >= etas[0.9][i] - 1e-7

    def test_decoherence_ordering(self):
        etas = {}
        for row in run_fig3b((0.0, 1.0, 10.0, INFINITE), [0.5, 0.9]).rows:
            etas.setdefault(row["tau"], []).append(row["eta_at_pmax"])
        order = [0.0, 1.0, 10.0, "inf"]
        for i in range(2):
            for a, b in zip(order, order[1:]):
                assert etas[a][i] >= etas[b][i] - 1e-7

    @pytest.mark.parametrize("eta_c", [0.0, 1.0])
    def test_bad_eta_c_rejected(self, eta_c):
        with pytest.raises(DomainError, match=re.escape(
                f"eta_c values must lie in (0, 1), got {eta_c}")):
            run_fig3a([0.0], [eta_c])

    def test_eta_at_pmax_is_a_python_float(self):
        # as annotated, and as every other number of OptResult and of a row
        base = params_from_scaled(2.0, 0.0, 0.0, r_p=0.9)
        res = maximize_power(base, seeds_per_dim=8, refine_top=2)
        (row,) = run_fig3a([0.0], [0.5], seeds_per_dim=8, refine_top=2).rows
        assert type(res.eta_at_pmax) is float
        assert type(row["eta_at_pmax"]) is float

    @pytest.mark.parametrize("run, label, knobs", [
        (run_fig3a, "r_l", {"r_p": 0.6, "tau": 2.5}),
        (run_fig3b, "tau", {"r_p": 0.9, "r_l": 0.3, "temp_p": 6000.0, "gamma": 0.5}),
    ])
    def test_row_is_maximize_power_at_its_params(self, run, label, knobs):
        # a curve point at any other couplings, free set or box is a
        # maximize_power call at its params: a row is that call, bit for bit
        eta_c, value = 0.35, 0.4
        (row,) = run([value], [eta_c], seeds_per_dim=8, refine_top=2, **knobs).rows
        p = params_from_scaled(2.0, 0.0, 0.0, temp=(1.0 - eta_c) * knobs.get("temp_p", 5780.0),
                               **{**knobs, label: value})
        res = maximize_power(p, free=_FREE_ORDER, seeds_per_dim=8, refine_top=2)
        assert row["temp"] == p.temp and row["eta_ca"] == 1.0 - math.sqrt(1.0 - eta_c)
        assert res.converged and row["converged"]
        assert row["p_max"] == res.p_max and row["eta_at_pmax"] == res.eta_at_pmax
        assert {k: row[k] for k in _FREE_ORDER} == res.x_opt


class TestNearEquilibriumExpansion:
    """eta* = eta_c/2 + b eta_c^2 + ... at eta_c << 0.05, in the fig3a setup
    (r_p = 0.9, r_l = 0); left-right-symmetric tight-coupling models have
    b = 1/8, the eta_c^2 coefficient of Curzon-Ahlborn."""

    def test_optima_certified(self, near_equilibrium_fits):
        for fit in near_equilibrium_fits.values():
            for pt in fit.points:
                res = pt.result
                assert res.converged and not res.degenerate
                assert not res.active_bounds
                assert pt.max_curvature < 0.0
                assert pt.grad_rel <= 1e-8
                assert pt.newton_step <= 1e-7
                # the Newton optimum is already the polished stationary point
                assert pt.power == pytest.approx(res.p_max, rel=1e-10, abs=0.0)
                assert abs(pt.eta - res.eta_at_pmax) <= 1e-8

    def test_newton_optimum_is_the_polished_one(self, near_equilibrium_fits):
        # the finite-difference polish from the Newton optimum moves it by
        # less than the difference step's own bias
        for fit in near_equilibrium_fits.values():
            for pt in fit.points:
                res = pt.result
                assert res.p_max == pytest.approx(pt.power, rel=5e-12, abs=0.0)
                assert abs(res.eta_at_pmax - pt.eta) <= 1e-9
                # the engine's curvature is in (x_g, x_l, x_r), the polish's in
                # (x_g, x_l, nu): pull the polished Hessian back through
                # d(x_g, x_l, nu)/d(x_g, x_l, x_r), nu = ((x_r - x_l)/x_g - 1)/window
                xg, xl, xr = (res.x_opt[k] for k in ("x_g", "x_l", "x_r"))
                width = xg * pt.eta_c / (1.0 - pt.eta_c)
                jac = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                [(xl - xr) / (xg * width), -1.0 / width, 1.0 / width]])
                curvature = np.linalg.eigvalsh(jac.T @ pt.hess @ jac).max()
                assert res.max_curvature == pytest.approx(curvature, rel=1e-4)
                assert res.grad_rel <= 1e-6 and res.newton_step <= 1e-6

    def test_coherence_raises_b_short_of_curzon_ahlborn(self, near_equilibrium_fits):
        coherent = near_equilibrium_fits[0.0]
        coherence_free = near_equilibrium_fits[INFINITE]
        assert coherence_free.b < coherent.b < 1.0 / 8.0
        # both gaps are resolved: newton_step <= 1e-7 bounds each polished
        # eta* error by 1e-7 * eta_c, which moves the interpolated b by < 1e-4
        assert coherent.b - coherence_free.b > 1e-3
        assert 1.0 / 8.0 - coherent.b > 1e-3
