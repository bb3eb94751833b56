"""Digests of the optimizer's results, for checking that a change keeps their bits.

Run from the repository root on two checkouts and compare the printed lines:

    python3 tests/same_bits.py > before.txt    # on the parent
    python3 tests/same_bits.py --against before.txt

It imports qdphotocell from the ``src/`` of its own checkout and refuses to
run on any other copy, so an installed package cannot stand in for it.

The bits hold for one numpy build and one SIMD dispatch: numpy's SIMD code
paths can round differently, and on an AVX-512 host, disabling its AVX-512
targets with ``NPY_DISABLE_CPU_FEATURES`` moves every digest but
``dark_corner_grids[109]``.  So the first line (``# numpy ...``) records
numpy's version, its baseline SIMD extensions and the dispatch targets in
use, as the sweep provenance records them (``experiments._numpy_build``,
from ``numpy._core._multiarray_umath``'s ``__cpu_baseline__``,
``__cpu_dispatch__`` and ``__cpu_features__``).

With ``--against FILE`` it also compares its digests with a saved listing
and exits 1 naming every digest that moved or is missing from either side;
a listing whose first line records another numpy build or dispatch gets one
line saying so ahead of that comparison, and a listing without that line is
compared on its digests alone.  After the first line it prints one sha256
digest per line:

- the bytes of the default fig2, fig3a and fig3b CSV tables;
- the reprs of ``maximize_power`` on the 600 ``_bit_identity_draws`` of
  seeds 1 to 5, a refused draw recorded by its error's repr;
- the reprs of ``_maximize_rows`` for each of the seven free sets on 40
  ``_x_r_fixed_draws`` of seed 7;
- the reprs of ``efficiency_at_max_power_curve`` on the default base at
  r_p = 0.9, for tau 0 and inf and eta_c 0.1, 0.5 and 0.9;
- the bytes of ``steady_observables_grid`` on an 8 x 8 (x_l, x_r) grid at
  each ``DARK_CORNERS`` params set, a refused set recorded by its error's repr;
- the power bytes of ``_degenerate_steady``, NaN where a point is refused,
  on a 40 x 41 x 41 scan of the search box for each of
  the 18 ``REFUSAL_SCAN_SETS`` (one channel off), so a refusal that moves
  at any one point moves the digest;
- the power, j and rho12_re bytes of ``steady_observables_grid`` on eight
  seeded 64 x 64 meshgrid (x_l, x_r) landscapes at a scalar x_g
  (``_landscapes``), two each at tau 0, a finite tau, tau = inf and the
  dark-state corner, with +0.0, -0.0 and +-745 on both axes, a refused
  landscape recorded by its error's repr.

The name has no ``test_`` prefix, so pytest does not collect it.
"""

import argparse
import hashlib
import itertools
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import qdphotocell

if Path(qdphotocell.__file__).resolve().parent != SRC / "qdphotocell":
    raise SystemExit(f"same_bits: imported qdphotocell from {qdphotocell.__file__}, "
                     f"not from {SRC}")

from qdphotocell import (INFINITE, ModelParams, NoUniqueSteadyStateError,
                         efficiency_at_max_power_curve, maximize_power, params_from_scaled,
                         run_fig2, run_fig3a, run_fig3b, steady_observables_grid)
from qdphotocell.experiments import _numpy_build
from qdphotocell.optimize import (_FREE_ORDER, _degenerate_steady, _kernel_constants,
                                  _maximize_rows, _occupations)
from test_optimize import DARK_CORNERS, _bit_identity_draws, _x_r_fixed_draws, corner_params


# each of gamma_p, gamma_l and gamma_r switched off, with tau in {0, 1.5, inf}
# and r_p = r_l in {0, 0.9}
REFUSAL_SCAN_SETS = tuple({name: 0.0, "tau": tau, "r_p": r, "r_l": r}
                          for name in ("gamma_p", "gamma_l", "gamma_r")
                          for tau in (0.0, 1.5, INFINITE) for r in (0.0, 0.9))


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


def _grid_bytes(p, x_g, x_l, x_r) -> bytes:
    try:
        with np.errstate(all="ignore"):
            obs = steady_observables_grid(p, x_g, x_l, x_r)
    except NoUniqueSteadyStateError as exc:
        return repr(exc).encode()
    return b"".join(obs[k].tobytes() for k in ("power", "j", "rho12_re"))


def _dark_corner_bytes(p) -> bytes:
    x = np.linspace(-4.0, 4.0, 8)
    return _grid_bytes(p, 2.0, x[:, None], x[None, :])


def _landscape_axis(rng) -> np.ndarray:
    """64 values: +0.0, -0.0 and +-745 (exp(-745) is the least subnormal,
    so the occupations there are 5e-324 and 1), then 60 draws of both signs
    with magnitudes log-uniform from 1e-3 to 745."""
    magnitude = 10.0 ** rng.uniform(-3.0, math.log10(745.0), 60)
    return np.concatenate([(0.0, -0.0, 745.0, -745.0), magnitude * rng.choice((-1.0, 1.0), 60)])


def _landscapes():
    """The (params, x_g, x_l, x_r) of the seeded landscapes: two each at
    tau 0, a finite tau, tau = inf and the dark-state corner, every one a
    64 x 64 meshgrid of (x_l, x_r) at a scalar x_g, as power-map draws them."""
    rng = np.random.default_rng(28)
    for kind in ("tau 0", "finite tau", "tau inf", "dark corner") * 2:
        r_p, r_l = rng.uniform(0.0, 1.0, 2)
        tau = {"finite tau": float(rng.uniform(0.1, 10.0)), "tau inf": INFINITE}.get(kind, 0.0)
        if kind == "dark corner":
            r_p = r_l = 1.0
        x_g = float(rng.uniform(0.5, 5.0))
        x_l, x_r = np.meshgrid(_landscape_axis(rng), _landscape_axis(rng), indexing="ij")
        yield params_from_scaled(x_g, 0.0, 0.0, r_p=r_p, r_l=r_l, tau=tau), x_g, x_l, x_r


def _scan_bytes(fixed) -> bytes:
    x = (np.linspace(0.1, 30.0, 40)[:, None, None], np.linspace(-20.0, 20.0, 41)[:, None],
         np.linspace(-20.0, 20.0, 41))
    with np.errstate(all="ignore"):
        power = _degenerate_steady(_kernel_constants(ModelParams(**fixed)), *x,
                                   *_occupations(x))[0]
    return power.tobytes()


def build_line() -> str:
    """numpy's version and the SIMD extensions its loops run on here, as the
    sweep provenance records them (``experiments._numpy_build``)."""
    build = _numpy_build()
    return (f"# numpy {build['version']} baseline {' '.join(build['baseline'])} "
            f"dispatch {' '.join(build['dispatch']) or 'none'}")


def digests():
    """(name, digest) of every listing, in print order."""
    for name, run in (("fig2", run_fig2), ("fig3a", run_fig3a), ("fig3b", run_fig3b)):
        yield f"{name}.csv", _digest(_csv_bytes(run(workers=1)))
    draws = [_outcome(*draw) for seed in range(1, 6)
             for draw in _bit_identity_draws(np.random.default_rng(seed), 120)]
    yield f"bit_identity_draws[{len(draws)}]", _digest(chr(10).join(draws).encode())
    params = list(_x_r_fixed_draws(np.random.default_rng(7), 40))
    for n in (1, 2, 3):
        for free in itertools.combinations(_FREE_ORDER, n):
            results = "\n".join(map(repr, _maximize_rows(params, free)))
            yield f"x_r_fixed_draws {'+'.join(free)}", _digest(results.encode())
    curves = [repr(efficiency_at_max_power_curve(ModelParams(r_p=0.9, tau=tau), (0.1, 0.5, 0.9)))
              for tau in (0.0, INFINITE)]
    yield "curves", _digest(chr(10).join(curves).encode())
    grids = b"\n".join(_dark_corner_bytes(corner_params(*c)) for c in DARK_CORNERS)
    yield f"dark_corner_grids[{len(DARK_CORNERS)}]", _digest(grids)
    scans = b"".join(_scan_bytes(fixed) for fixed in REFUSAL_SCAN_SETS)
    yield f"refusal_scans[{len(REFUSAL_SCAN_SETS)}]", _digest(scans)
    landscapes = [_grid_bytes(*landscape) for landscape in _landscapes()]
    yield f"landscapes[{len(landscapes)}]", _digest(b"\n".join(landscapes))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="FILE",
                    help="a saved listing of this script to compare the digests with")
    args = ap.parse_args(argv)
    build = build_line()
    print(build, flush=True)
    ours = {}
    for name, digest in digests():
        print(f"{name} {digest}", flush=True)
        ours[name] = digest
    if args.against is None:
        return 0
    with open(args.against) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if lines and lines[0].startswith("#"):
        if lines[0] != build:
            print(f"numpy build or dispatch differs: {args.against} has "
                  f"'{lines[0][2:]}', here '{build[2:]}'", file=sys.stderr)
        lines = lines[1:]
    theirs = dict(line.rsplit(" ", 1) for line in lines)
    faults = [f"moved: {name}" for name in ours if name in theirs and ours[name] != theirs[name]]
    faults += [f"missing from {args.against}: {name}" for name in ours if name not in theirs]
    faults += [f"missing here: {name}" for name in theirs if name not in ours]
    print("\n".join(faults) if faults else f"same bits: all {len(ours)} digests match "
          f"{args.against}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
