"""The general path (build_rates -> build_generator -> steady_state ->
thermo_report) against its numpy oracle in conftest, bit for bit."""

import numpy as np
import pytest

from qdphotocell import (
    INFINITE,
    NoUniqueSteadyStateError,
    QdpcError,
    build_generator,
    build_rates,
    model,
    params_from_scaled,
    steady_state,
    thermo,
    thermo_report,
)
from conftest import (
    draw_params,
    reference_build_generator,
    reference_build_rates,
    reference_steady_state,
)

_RATE_ARRAYS = ("b_plus", "b_minus", "f_l_plus", "f_l_minus")


def _far_draw(rng):
    """Scaled energies beyond |x| = 350, where the occupations switch to
    their asymptotic forms."""
    sign = rng.choice([-1.0, 1.0], 2)
    return params_from_scaled(rng.uniform(350.0, 700.0),
                              sign[0] * rng.uniform(350.0, 700.0),
                              sign[1] * rng.uniform(350.0, 700.0),
                              r_p=rng.uniform(0.0, 1.0), r_l=rng.uniform(0.0, 1.0),
                              tau=(0.0, rng.uniform(0.0, 10.0), INFINITE)[rng.integers(3)])


_DRAWS = {
    "tau-zero": lambda rng: draw_params(rng, tau=0.0),
    "tau-finite": lambda rng: draw_params(rng),
    "tau-infinite": lambda rng: draw_params(rng, tau=INFINITE),
    "dark-corner": lambda rng: draw_params(rng, r_p=1.0, r_l=1.0, tau=0.0),
    "split-levels": lambda rng: draw_params(
        rng, delta21=rng.uniform(0.01, 2.0) * 295.0,
        tau=(0.0, rng.uniform(0.0, 10.0), INFINITE)[rng.integers(3)]),
    "far-arguments": _far_draw,
}

_ZERO_COUPLINGS = ({"gamma_p": 0.0}, {"gamma_l": 0.0}, {"gamma_r": 0.0},
                   {"gamma_p": 0.0, "gamma_l": 0.0}, {"gamma_p": 0.0, "gamma_r": 0.0},
                   {"gamma_l": 0.0, "gamma_r": 0.0})


def _path(params, rates_fn, generator_fn, steady_fn):
    """Rates, generator, and the solution with its report, or the refusal's
    type and message in their place."""
    rates = rates_fn(params)
    gen = generator_fn(rates, params.delta21, params.tau)
    try:
        sol = steady_fn(gen)
        return rates, gen, (sol, thermo_report(sol.state, params))
    except QdpcError as exc:
        return rates, gen, (type(exc), str(exc))


def _reference_lead_rates(params):
    """model._lead_rates' four values, taken from the numpy oracle's RateSet."""
    r = reference_build_rates(params)
    return r.f_l_plus.tolist(), r.f_l_minus.tolist(), r.f_r_plus, r.f_r_minus


def _assert_identical(params, monkeypatch):
    got = _path(params, build_rates, build_generator, steady_state)
    with monkeypatch.context() as m:
        # the report's own lead coefficients come from the oracle too
        m.setattr(thermo, "_lead_rates", _reference_lead_rates)
        want = _path(params, reference_build_rates, reference_build_generator,
                     reference_steady_state)
    (rates, gen, out), (ref_rates, ref_gen, ref_out) = got, want
    for name in _RATE_ARRAYS:
        a, b = getattr(rates, name), getattr(ref_rates, name)
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape == (2, 2)
        assert a.tobytes() == b.tobytes() and not a.flags.writeable
    assert repr((rates.f_r_plus, rates.f_r_minus)) == repr(
        (ref_rates.f_r_plus, ref_rates.f_r_minus))
    assert gen.matrix.dtype == np.float64 and not gen.matrix.flags.writeable
    assert gen.matrix.tobytes() == ref_gen.matrix.tobytes()
    assert gen.dark_state_degenerate == ref_gen.dark_state_degenerate
    assert repr((gen.tau, gen.delta21)) == repr((ref_gen.tau, ref_gen.delta21))
    # repr tells -0.0 from 0.0 and np.float64 from float
    assert repr(out) == repr(ref_out)
    return out[0] is NoUniqueSteadyStateError


@pytest.mark.parametrize("kind", sorted(_DRAWS))
def test_general_path_matches_numpy_oracle(kind, monkeypatch):
    rng = np.random.default_rng(sorted(_DRAWS).index(kind) + 505)
    refused = [_assert_identical(_DRAWS[kind](rng), monkeypatch) for _ in range(150)]
    if kind != "far-arguments":
        assert not any(refused)


@pytest.mark.parametrize("zero", _ZERO_COUPLINGS, ids=lambda z: "+".join(sorted(z)))
def test_zero_couplings_refused_alike(zero, monkeypatch):
    rng = np.random.default_rng(606)
    refused = [_assert_identical(draw_params(rng, **{"tau": tau, **zero}), monkeypatch)
               for tau in (0.0, 2.0, INFINITE) for _ in range(20)]
    # one channel off leaves the network connected; two disconnect a state
    assert all(refused) if len(zero) == 2 else not any(refused)


def _lead_entries_hex(f_l_plus, f_l_minus, f_r_plus, f_r_minus):
    entries = [*f_l_plus[0], *f_l_plus[1], *f_l_minus[0], *f_l_minus[1], f_r_plus, f_r_minus]
    return [float.hex(x) for x in entries]  # float.hex takes Python floats only


@pytest.mark.parametrize("kind", sorted(_DRAWS) + ["zero-couplings"])
def test_lead_rates_helper_is_build_rates_lead_fields(kind):
    # thermo reads model._lead_rates in place of a RateSet, so both must agree bit for bit
    rng = np.random.default_rng(707)
    if kind == "zero-couplings":
        draws = [draw_params(rng, **{"tau": tau, **zero})
                 for zero in _ZERO_COUPLINGS for tau in (0.0, 2.0, INFINITE)]
    else:
        draws = [_DRAWS[kind](rng) for _ in range(100)]
    for params in draws:
        r = build_rates(params)
        assert _lead_entries_hex(*model._lead_rates(params)) == _lead_entries_hex(
            r.f_l_plus.tolist(), r.f_l_minus.tolist(), r.f_r_plus, r.f_r_minus)
