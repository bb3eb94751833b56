"""Digests of the optimizer's results, for checking that a change keeps their bits.

Run from the repository root on two checkouts and compare the printed lines:

    PYTHONPATH=src python3 tests/same_bits.py

It prints one sha256 digest per line:

- the bytes of the default fig2, fig3a and fig3b CSV tables;
- the reprs of ``maximize_power`` on the 600 ``_bit_identity_draws`` of
  seeds 1 to 5, a refused draw recorded by its error's repr;
- the reprs of ``_maximize_rows`` for each of the seven free sets on 40
  ``_x_r_fixed_draws`` of seed 7;
- the reprs of ``efficiency_at_max_power_curve`` on the default base at
  r_p = 0.9, for tau 0 and inf and eta_c 0.1, 0.5 and 0.9;
- the bytes of ``steady_observables_grid`` on an 8 x 8 (x_l, x_r) grid at
  each ``DARK_CORNERS`` params set, a refused set recorded by its error's repr.

The name has no ``test_`` prefix, so pytest does not collect it.
"""

import hashlib
import itertools
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from qdphotocell import (INFINITE, ModelParams, NoUniqueSteadyStateError,
                         efficiency_at_max_power_curve, maximize_power, run_fig2, run_fig3a,
                         run_fig3b, steady_observables_grid)
from qdphotocell.optimize import _FREE_ORDER, _maximize_rows
from test_optimize import DARK_CORNERS, _bit_identity_draws, _x_r_fixed_draws, corner_params


def _digest(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()


def _csv_bytes(table) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        table.to_csv(path)
        with open(path, "rb") as fh:
            return fh.read()


def _outcome(p, free, bounds) -> str:
    try:
        return repr(maximize_power(p, free=free, bounds=bounds))
    except NoUniqueSteadyStateError as exc:
        return repr(exc)


def _grid_bytes(p) -> bytes:
    x = np.linspace(-4.0, 4.0, 8)
    try:
        with np.errstate(all="ignore"):
            obs = steady_observables_grid(p, 2.0, x[:, None], x[None, :])
    except NoUniqueSteadyStateError as exc:
        return repr(exc).encode()
    return b"".join(obs[k].tobytes() for k in ("power", "j", "rho12_re"))


def main() -> None:
    for name, run in (("fig2", run_fig2), ("fig3a", run_fig3a), ("fig3b", run_fig3b)):
        print(f"{name}.csv {_digest(_csv_bytes(run(workers=1)))}")
    draws = [_outcome(*draw) for seed in range(1, 6)
             for draw in _bit_identity_draws(np.random.default_rng(seed), 120)]
    print(f"bit_identity_draws[{len(draws)}] {_digest(chr(10).join(draws).encode())}")
    params = list(_x_r_fixed_draws(np.random.default_rng(7), 40))
    for n in (1, 2, 3):
        for free in itertools.combinations(_FREE_ORDER, n):
            results = "\n".join(map(repr, _maximize_rows(params, free)))
            print(f"x_r_fixed_draws {'+'.join(free)} {_digest(results.encode())}")
    curves = [repr(efficiency_at_max_power_curve(ModelParams(r_p=0.9, tau=tau), (0.1, 0.5, 0.9)))
              for tau in (0.0, INFINITE)]
    print(f"curves {_digest(chr(10).join(curves).encode())}")
    grids = b"\n".join(_grid_bytes(corner_params(*c)) for c in DARK_CORNERS)
    print(f"dark_corner_grids[{len(DARK_CORNERS)}] {_digest(grids)}")


if __name__ == "__main__":
    main()
