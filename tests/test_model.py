"""Occupation functions, parameter validation, scaled maps, and rate assembly."""

import math

import numpy as np
import pytest

from qdphotocell import (
    INFINITE,
    DomainError,
    ModelParams,
    RateSet,
    bose_occupation,
    build_rates,
    fermi_occupation,
    params_from_scaled,
    scaled_energies,
)
from conftest import draw_params


def _rate_entries(r: RateSet) -> np.ndarray:
    """All 18 coefficients of ``r`` as a flat array."""
    return np.concatenate([r.b_plus.ravel(), r.b_minus.ravel(), r.f_l_plus.ravel(),
                           r.f_l_minus.ravel(), [r.f_r_plus, r.f_r_minus]])


class TestBoseOccupation:
    def test_ln2_gives_one(self):
        assert bose_occupation(math.log(2.0)) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_at_one(self):
        # 1/(e - 1)
        assert bose_occupation(1.0) == pytest.approx(0.5819767068693265, rel=1e-12, abs=0.0)

    def test_large_argument_decays_without_overflow(self):
        assert 0.0 < bose_occupation(50.0) < 1e-21
        assert bose_occupation(700.0) == pytest.approx(math.exp(-700.0), rel=1e-12, abs=0.0)
        assert bose_occupation(900.0) >= 0.0  # underflows to zero, no exception

    def test_zero_is_a_distinct_singularity_error(self):
        with pytest.raises(DomainError, match="singular"):
            bose_occupation(0.0)

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, math.inf, math.nan, "x"])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            bose_occupation(bad)

    def test_mean_occupation_identity(self):
        # n(x) * (e^x - 1) = 1; the stable expm1 evaluates the parenthesis
        for x in np.geomspace(1e-6, 30.0, 200):
            assert bose_occupation(float(x)) * math.expm1(x) == pytest.approx(
                1.0, rel=1e-12)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.01, 40.0, 100)
        vals = [bose_occupation(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestFermiOccupation:
    def test_symmetry_point(self):
        assert fermi_occupation(0.0) == 0.5

    def test_closed_form(self):
        assert fermi_occupation(2.0) == pytest.approx(0.1192029220221175, rel=1e-12, abs=0.0)
        assert fermi_occupation(-2.0) == pytest.approx(0.8807970779778823, rel=1e-12, abs=0.0)

    def test_particle_hole_symmetry(self):
        for x in np.linspace(-30.0, 30.0, 301):
            assert abs(fermi_occupation(float(x)) + fermi_occupation(float(-x)) - 1.0) <= 1e-15

    def test_extreme_arguments(self):
        assert fermi_occupation(700.0) == pytest.approx(math.exp(-700.0), rel=1e-12, abs=0.0)
        assert fermi_occupation(-700.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, None])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            fermi_occupation(bad)


@pytest.mark.parametrize("fn", [bose_occupation, fermi_occupation])
class TestOccupationArgumentChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1.0", None, 1j])
    def test_non_finite_or_non_real_refused(self, fn, bad):
        with pytest.raises(DomainError):
            fn(bad)

    @pytest.mark.parametrize("arg, as_float", [
        (2, 2.0), (True, 1.0), (np.float64(0.7), 0.7), (np.float64(35.5), 35.5)])
    def test_other_reals_give_the_float_value(self, fn, arg, as_float):
        got = fn(arg)
        assert type(got) is float
        assert got == fn(as_float)


class TestScaledEnergies:
    def test_definitions(self):
        p = ModelParams(eps_g=2.0 * 5780.0, eps_l=7.0, mu_l=7.0, mu_r=7.0,
                        temp=295.0, temp_p=5780.0)
        x_g, x_l, x_r = scaled_energies(p)
        assert x_g == 2.0
        assert x_l == 0.0
        assert x_r == pytest.approx(2.0 * 5780.0 / 295.0, rel=1e-15, abs=0.0)

    def test_fig2_temperatures(self):
        p = params_from_scaled(2.0, 0.0, 0.0)
        assert (p.temp, p.temp_p) == (295.0, 5780.0)
        assert p.eps_g == 2.0 * 5780.0
        assert p.x_g == 2.0

    def test_zero_x_l_gives_positive_zero_mu_l(self):
        # -x_l * temp would be -0.0 at x_l = 0, and print so in the config echo
        for x_l in (0.0, -0.0):
            assert math.copysign(1.0, params_from_scaled(2.0, x_l, 0.0).mu_l) == 1.0
        assert params_from_scaled(2.0, 1.5, 0.0).mu_l == -1.5 * 295.0

    def test_round_trip_at_nominal_scale(self, rng):
        for _ in range(100):
            x_l = rng.uniform(-5.0, 5.0)
            x_r = rng.uniform(-5.0, 5.0)
            p = params_from_scaled(2.0, x_l, x_r)
            assert p.x_g == pytest.approx(2.0, abs=1e-14)
            assert p.x_l == pytest.approx(x_l, abs=1e-14)
            assert p.x_r == pytest.approx(x_r, abs=1e-14)

    def test_round_trip_general(self, rng):
        # recovering x_r cancels the bandgap term, so its error carries the
        # scale eps_g / temp; x_g and x_l invert to rounding
        for _ in range(300):
            x_g = rng.uniform(0.5, 10.0)
            x_l = rng.uniform(-5.0, 5.0)
            x_r = rng.uniform(-5.0, 5.0)
            p = params_from_scaled(x_g, x_l, x_r)
            assert p.x_g == pytest.approx(x_g, rel=1e-14, abs=0.0)
            assert p.x_l == pytest.approx(x_l, abs=1e-14)
            assert abs(p.x_r - x_r) <= 1e-14 * max(1.0, p.eps_g / p.temp)


class TestModelParamsValidation:
    def test_cross_coupling_range(self):
        with pytest.raises(DomainError, match="0 <= r_p <= 1"):
            params_from_scaled(2.0, 0.0, 0.0, r_p=1.5)
        with pytest.raises(DomainError, match="0 <= r_l <= 1"):
            params_from_scaled(2.0, 0.0, 0.0, r_l=-0.1)

    def test_complex_cross_coupling_rejected(self):
        with pytest.raises(DomainError, match="real"):
            params_from_scaled(2.0, 0.0, 0.0, r_p=0.5 + 0.1j)

    @pytest.mark.parametrize("kwargs", [
        {"eps_g": -1.0}, {"eps_g": 0.0}, {"temp": 0.0}, {"temp_p": -5.0},
        {"gamma_p": -1.0}, {"tau": -0.5}, {"tau": math.nan},
        {"delta21": -1.0}, {"delta21": 11560.0}, {"mu_l": math.inf},
    ])
    def test_invalid_fields(self, kwargs):
        base = dict(eps_g=11560.0, eps_l=0.0, mu_l=0.0, mu_r=0.0,
                    temp=295.0, temp_p=5780.0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            ModelParams(**base)

    def test_infinite_tau_allowed(self):
        p = params_from_scaled(2.0, 0.0, 0.0, tau=INFINITE)
        assert p.tau == INFINITE

    def test_zero_gamma_allowed(self):
        # a disconnected channel is legal; uniqueness is the solver's concern
        p = params_from_scaled(2.0, 0.0, 0.0, gamma_p=0.0)
        assert p.gamma_p == 0.0


class TestModelParamsArgumentChecks:
    """Every field goes through the float fast path or the full check."""

    _FIELDS = tuple(ModelParams.__dataclass_fields__)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False,
                                     "1.0", None])
    def test_refused_on_every_field(self, bad):
        for name in self._FIELDS:
            if name == "tau" and bad == INFINITE:
                continue  # INFINITE is tau's own sentinel
            with pytest.raises(DomainError):
                ModelParams(**{name: bad})
        for k in range(3):
            x = [2.0, 0.0, 0.0]
            x[k] = bad
            with pytest.raises(DomainError):
                params_from_scaled(*x)
        # params_from_scaled multiplies both temperatures into the energies
        for name in ("temp", "temp_p"):
            with pytest.raises(DomainError):
                params_from_scaled(2.0, 0.0, 0.0, **{name: bad})

    def test_other_reals_give_the_float_value(self):
        class Real(float):
            pass

        for arg in (2, np.float64(2.0), Real(2.0)):
            p = ModelParams(temp=arg, gamma_l=arg, tau=arg)
            q = params_from_scaled(arg, 0.0, 0.0, temp=arg)
            for value in (p.temp, p.gamma_l, p.tau, q.x_g, q.temp):
                assert type(value) is float and value == 2.0


class TestRateSetChecks:
    """RateSet raises the same messages whichever entry is bad."""

    @staticmethod
    def _entries(**changes):
        good = {name: [[0.5, 0.25], [0.25, 0.5]] for name in
                ("b_plus", "b_minus", "f_l_plus", "f_l_minus")}
        return {**good, "f_r_plus": 0.5, "f_r_minus": 0.5, **changes}

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "RateSet entries must be finite"),
        (math.inf, "RateSet entries must be finite"),
        (-math.inf, "RateSet entries must be finite"),
        (-1e-300, "RateSet entries must be non-negative"),
    ])
    def test_bad_entry_refused(self, bad, message):
        for name in ("b_plus", "b_minus", "f_l_plus", "f_l_minus"):
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                rows = [[0.5, 0.25], [0.25, 0.5]]
                rows[i][j] = bad
                with pytest.raises(DomainError, match=f"^{message}$"):
                    RateSet(**self._entries(**{name: rows}))
        for name in ("f_r_plus", "f_r_minus"):
            with pytest.raises(DomainError, match=f"^{message}$"):
                RateSet(**self._entries(**{name: bad}))

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (3, 2), (1, 2, 2)])
    def test_wrong_shape_refused(self, shape):
        for name in ("b_plus", "b_minus", "f_l_plus", "f_l_minus"):
            with pytest.raises(DomainError, match=rf"^RateSet.{name} must have shape \(2, 2\)$"):
                RateSet(**self._entries(**{name: np.ones(shape)}))

    def test_arrays_are_read_only_float64_copies(self):
        rows = [[1, 0], [0, 1]]
        r = RateSet(**self._entries(b_plus=rows))
        rows[0][0] = 7
        assert r.b_plus.dtype == np.float64 and r.b_plus[0, 0] == 1.0
        for name in ("b_plus", "b_minus", "f_l_plus", "f_l_minus"):
            assert not getattr(r, name).flags.writeable
        assert r.f_r_plus == 0.5 and _rate_entries(r).shape == (18,)
        # signed zeros are non-negative
        RateSet(**self._entries(f_l_minus=[[-0.0, 0.0], [0.0, -0.0]], f_r_plus=-0.0))

    # one malformed value of each kind: a matrix numpy cannot read as real
    # numbers, and a float field _require_real refuses
    _BAD_MATRICES = {"ragged": [[0.5, 0.25], [0.25]], "string": [["x", 0.25], [0.25, 0.5]],
                     "None": [[None, 0.25], [0.25, 0.5]], "complex": [[0.5j, 0.25], [0.25, 0.5]]}
    _BAD_FLOATS = {"ragged": [0.5, [0.5]], "string": "x", "None": None, "bool": True}

    @pytest.mark.parametrize("kind", sorted(_BAD_MATRICES))
    @pytest.mark.parametrize("name", ["b_plus", "b_minus", "f_l_plus", "f_l_minus"])
    def test_malformed_matrix_refused(self, name, kind):
        with pytest.raises(DomainError, match=rf"^RateSet\.{name} must be an array of real numbers"):
            RateSet(**self._entries(**{name: self._BAD_MATRICES[kind]}))

    @pytest.mark.parametrize("kind", sorted(_BAD_FLOATS))
    @pytest.mark.parametrize("name", ["f_r_plus", "f_r_minus"])
    def test_malformed_float_refused(self, name, kind):
        with pytest.raises(DomainError, match=rf"^RateSet\.{name} must be a real number, got "):
            RateSet(**self._entries(**{name: self._BAD_FLOATS[kind]}))

    @pytest.mark.parametrize("value", [-0.0, 1, np.float64(0.25)])
    def test_real_floats_stored_as_float(self, value):
        r = RateSet(**self._entries(f_r_plus=value, f_r_minus=value,
                                    b_plus=[[value, value], [value, value]]))
        for stored in (r.f_r_plus, r.f_r_minus):
            assert type(stored) is float and stored == value
            assert math.copysign(1.0, stored) == math.copysign(1.0, value)
        assert r.b_plus.dtype == np.float64 and np.all(r.b_plus == value)

    @pytest.mark.parametrize("name", ["b_plus", "b_minus", "f_l_plus", "f_l_minus"])
    def test_bool_matrix_reads_as_zero_and_one(self, name):
        # numpy casts a bool to 0 or 1 whatever the other fields hold; only
        # the two float fields refuse a bool, as ModelParams does
        eye = [[True, False], [False, True]]
        for r in (RateSet(**self._entries(**{name: eye})),
                  RateSet(eye, eye, eye, eye, 0.5, 0.5)):
            assert getattr(r, name).dtype == np.float64
            assert getattr(r, name).tolist() == [[1.0, 0.0], [0.0, 1.0]]


class TestBuildRates:
    def test_photon_cross_terms_vanish_without_coupling(self):
        r = build_rates(params_from_scaled(2.0, 0.3, 1.0, r_p=0.0, r_l=0.4))
        assert r.b_plus[0, 1] == 0.0 and r.b_plus[1, 0] == 0.0
        assert r.b_minus[0, 1] == 0.0 and r.b_minus[1, 0] == 0.0
        assert r.f_l_plus[0, 1] != 0.0  # lead cross coupling still present

    def test_diagonal_absorption_value(self):
        r = build_rates(params_from_scaled(2.0, 0.0, 0.0, gamma=1.0))
        assert r.b_plus[0, 0] == pytest.approx(0.15651764274966565, rel=1e-12, abs=0.0)

    def test_cross_to_diagonal_ratio_is_r(self, rng):
        for _ in range(200):
            p = draw_params(rng)
            r = build_rates(p)
            if p.r_p > 0:
                assert r.b_plus[0, 1] / r.b_plus[0, 0] == pytest.approx(p.r_p, rel=1e-15, abs=0.0)
                assert r.b_minus[0, 1] / r.b_minus[0, 0] == pytest.approx(p.r_p, rel=1e-15, abs=0.0)
            if p.r_l > 0:
                assert r.f_l_plus[0, 1] / r.f_l_plus[0, 0] == pytest.approx(p.r_l, rel=1e-15,
                                                                            abs=0.0)

    def test_degenerate_symmetry(self, rng):
        for _ in range(100):
            r = build_rates(draw_params(rng))
            assert r.b_plus[0, 0] == r.b_plus[1, 1]
            assert r.b_minus[0, 0] == r.b_minus[1, 1]
            assert r.f_l_plus[0, 0] == r.f_l_plus[1, 1]
            assert r.f_l_minus[0, 0] == r.f_l_minus[1, 1]
            assert r.b_plus[0, 1] == r.b_plus[1, 0]

    def test_all_entries_nonnegative(self, rng):
        for _ in range(1000):
            assert np.all(_rate_entries(build_rates(draw_params(rng))) >= 0.0)

    def test_detailed_balance_ratios(self, rng):
        for _ in range(300):
            p = draw_params(rng)
            r = build_rates(p)
            assert r.b_plus[0, 0] / r.b_minus[0, 0] == pytest.approx(
                math.exp(-p.x_g), rel=1e-12, abs=0.0)
            assert r.f_l_plus[0, 0] / r.f_l_minus[0, 0] == pytest.approx(
                math.exp(-p.x_l), rel=1e-12, abs=0.0)
            assert r.f_r_plus / r.f_r_minus == pytest.approx(
                math.exp(-p.x_r), rel=1e-12, abs=0.0)

    def test_split_levels_use_their_own_transition_energies(self):
        p = params_from_scaled(2.0, 0.5, 1.5, r_p=0.4, r_l=0.6, delta21=590.0)
        r = build_rates(p)
        x_1 = p.eps_g / p.temp_p
        x_2 = (p.eps_g - p.delta21) / p.temp_p
        assert r.b_plus[0, 0] == pytest.approx(bose_occupation(x_1), rel=1e-14, abs=0.0)
        assert r.b_plus[1, 1] == pytest.approx(bose_occupation(x_2), rel=1e-14, abs=0.0)
        # cross entries carry the column's energy argument
        assert r.b_plus[0, 1] == pytest.approx(0.4 * bose_occupation(x_2), rel=1e-14, abs=0.0)
        assert r.b_plus[1, 0] == pytest.approx(0.4 * bose_occupation(x_1), rel=1e-14, abs=0.0)
        x_g2 = (p.eps_l + p.delta21 - p.mu_l) / p.temp
        assert r.f_l_plus[1, 1] == pytest.approx(fermi_occupation(x_g2), rel=1e-14, abs=0.0)
