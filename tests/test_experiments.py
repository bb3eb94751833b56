"""Sweep tables: content, determinism, row regeneration, serialization."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdphotocell import (
    INFINITE,
    ModelParams,
    maximize_power,
    params_from_scaled,
    run_fig2,
    run_fig3a,
    run_fig3b,
)
from qdphotocell.errors import ConfigError, DomainError, OutputExistsError
from qdphotocell.experiments import (MAX_GRID_POINTS, SweepTable, _numpy_build,
                                     default_eta_c_grid, default_r_grid)
from qdphotocell.optimize import DEFAULT_BOUNDS
from conftest import general_path_observables

FAST_OPT = {"seeds_per_dim": 8, "refine_top": 4}


@pytest.fixture(scope="module")
def small_fig2():
    return run_fig2([0.0, 0.5, 1.0], workers=1, **FAST_OPT)


class TestGrids:
    def test_default_r_grid(self):
        grid = default_r_grid()
        assert len(grid) == 21
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_default_eta_c_grid(self):
        grid = default_eta_c_grid()
        assert len(grid) == 19
        assert grid[0] == 0.05 and grid[-1] == 0.95

    def test_bad_step_rejected(self):
        with pytest.raises(ConfigError):
            default_r_grid(0.3)
        with pytest.raises(ConfigError):
            default_eta_c_grid(step=-0.1)
        with pytest.raises(ConfigError):
            default_eta_c_grid(step=0.0)

    def test_point_cap(self):
        # MAX_GRID_POINTS points are built; one more is refused from the count
        assert len(default_r_grid(1e-4)) == MAX_GRID_POINTS
        assert len(default_eta_c_grid(0.05, 0.95, 0.9 / 10_000)) == MAX_GRID_POINTS
        with pytest.raises(ConfigError, match="r_step"):
            default_r_grid(1.0 / 10_001)
        with pytest.raises(ConfigError, match="eta_c_step"):
            default_eta_c_grid(0.05, 0.95, 0.9 / 10_001)


class TestFig2:
    def test_smoke_grid(self, small_fig2):
        assert len(small_fig2.rows) == 9
        names = small_fig2.column_names()
        for required in ("r_p", "r_l", "x_l", "x_r", "p_max", "eta",
                         "abs_rho12", "j", "converged"):
            assert required in names

    def test_diagonal_rows_have_no_coherence(self, small_fig2):
        for row in small_fig2.rows:
            if row["r_p"] == row["r_l"] and row["eta"] is not None:
                assert row["abs_rho12"] < 1e-12

    def test_rows_regenerate_from_echoed_inputs(self, small_fig2):
        cfg = small_fig2.provenance["config"]
        for row in small_fig2.rows:
            if row["eta"] is None:
                continue
            params = params_from_scaled(
                row["x_g"], 0.0, 0.0, temp=cfg["temp"], temp_p=cfg["temp_p"],
                gamma=cfg["gamma"], r_p=row["r_p"], r_l=row["r_l"], tau=cfg["tau"])
            res = maximize_power(params, free=("x_l", "x_r"), **cfg["optimizer"])
            assert res.p_max == row["p_max"]          # bit-identical regeneration
            assert res.x_opt["x_l"] == row["x_l"]
            assert res.x_opt["x_r"] == row["x_r"]

    def test_observables_match_general_path(self, small_fig2):
        # j and |rho12| come from the float kernel behind p_max; pin them to
        # build_generator + steady_state + currents at each optimum
        cfg = small_fig2.provenance["config"]
        checked = 0
        for row in small_fig2.rows:
            if row["eta"] is None:
                continue
            at = params_from_scaled(
                row["x_g"], 0.0, 0.0, temp=cfg["temp"], temp_p=cfg["temp_p"],
                gamma=cfg["gamma"], r_p=row["r_p"], r_l=row["r_l"], tau=cfg["tau"],
            ).with_scaled(x_l=row["x_l"], x_r=row["x_r"])
            _, want_j, want_u, largest = general_path_observables(at)
            assert abs(row["j"] - want_j) <= 1e-9 * largest
            assert abs(row["abs_rho12"] - abs(want_u)) <= 1e-10
            assert type(row["j"]) is float and type(row["abs_rho12"]) is float
            checked += 1
        assert checked >= 8

    def test_j_is_per_gamma_p(self):
        # at tau = 0 doubling every coupling leaves the steady state as it is,
        # and p_max and j are both recorded per gamma_p, so the row at
        # gamma = 2 reads the bits of the row at gamma = 1 in every column
        one, two = (run_fig2([0.5], tau=0.0, gamma=g, workers=1).rows for g in (1.0, 2.0))
        assert one[0]["j"] is not None
        assert repr(one) == repr(two)

    def test_determinism(self, small_fig2):
        again = run_fig2([0.0, 0.5, 1.0], workers=1, **FAST_OPT)
        assert again.rows == small_fig2.rows

    def test_parallel_matches_serial(self, small_fig2):
        parallel = run_fig2([0.0, 0.5, 1.0], workers=2, **FAST_OPT)
        assert parallel.rows == small_fig2.rows

    def test_dark_state_corner_has_a_value(self, small_fig2):
        corner = [r for r in small_fig2.rows
                  if r["r_p"] == 1.0 and r["r_l"] == 1.0]
        assert len(corner) == 1
        assert corner[0]["eta"] is not None
        assert corner[0]["abs_rho12"] < 1e-12

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_fig2([0.0, 1.5], workers=1)

    @pytest.mark.parametrize("name", ["temp", "temp_p"])
    def test_non_numeric_temperature_is_a_domain_error(self, name):
        with pytest.raises(DomainError, match=f"^{name} must be a real number"):
            run_fig2([0.0], workers=1, **{name: "abc"})

    def test_malformed_bound_flags_the_rows(self):
        # the optimizer refuses it with a DomainError: rows flagged, sweep done
        table = run_fig2([0.0, 1.0], workers=1, bounds={"x_l": 3.0}, **FAST_OPT)
        assert len(table.rows) == 4
        for row in table.rows:
            assert row["error"].startswith("bounds.x_l must be a pair")
            assert row["p_max"] is None

    def test_no_free_energy_source_flags_every_row(self):
        # temp = temp_p (eta_c = 0): no seed grid runs, every row is degenerate
        table = run_fig2([0.0, 0.5], temp=5780.0, temp_p=5780.0, workers=1)
        assert len(table.rows) == 4
        for row in table.rows:
            assert row["p_max"] == 0.0 and row["eta"] is None
            assert row["error"] == "degenerate-operating-region"
            assert row["converged"] is False

    @pytest.mark.parametrize("workers", [2.7, True, "two"])
    def test_bad_worker_count_refused(self, workers):
        with pytest.raises(ConfigError, match="worker count"):
            run_fig2([0.5], workers=workers, **FAST_OPT)


class TestFig3:
    def test_fig3a_smoke(self):
        table = run_fig3a(r_l_values=(0.0, 0.9), eta_c_grid=(0.3, 0.6),
                          workers=2, **FAST_OPT)
        assert len(table.rows) == 4
        for row in table.rows:
            assert row["eta_ca"] == pytest.approx(
                1.0 - math.sqrt(1.0 - row["eta_c"]), rel=1e-12, abs=0.0)
            assert row["eta_at_pmax"] is not None
            assert row["temp"] == pytest.approx((1.0 - row["eta_c"]) * 5780.0)
        # coherent lead decoupling wins at both grid points
        by = {(r["r_l"], r["eta_c"]): r["eta_at_pmax"] for r in table.rows}
        assert by[(0.0, 0.6)] >= by[(0.9, 0.6)] - 1e-7

    def test_fig3b_smoke(self):
        table = run_fig3b(tau_values=(0.0, INFINITE), eta_c_grid=(0.6,),
                          workers=1, **FAST_OPT)
        assert len(table.rows) == 2
        by_tau = {r["tau"]: r["eta_at_pmax"] for r in table.rows}
        assert set(by_tau) == {0.0, "inf"}
        assert by_tau[0.0] >= by_tau["inf"] - 1e-7

    def test_one_params_per_row(self, monkeypatch):
        # each row's params and the default ModelParams() of the scaled point
        built, post_init = [], ModelParams.__post_init__
        monkeypatch.setattr(ModelParams, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        run_fig3a([0.0, 0.3], [0.3, 0.6, 0.9])
        assert len(built) <= 2 * 3 + 2 + 1

    @pytest.mark.parametrize("run, labels", [(run_fig3a, (0.0, 0.9)),
                                             (run_fig3b, (0.0, INFINITE))])
    def test_malformed_option_flags_the_rows(self, run, labels):
        # refused once for the sweep, as fig2 does: every row flagged, sweep done
        table = run(labels, [0.3, 0.6], workers=1, bounds={"x_l": 3})
        assert len(table.rows) == 4
        for row in table.rows:
            assert row["error"] == ("bounds.x_l must be a pair of finite numbers "
                                    "with lo < hi, got 3")
            assert row["eta_at_pmax"] is None and row["p_max"] is None

    def test_degenerate_region_flagged(self):
        # a box with no positive power: the row says so, as a fig2 row does
        table = run_fig3a([0.0], [0.5], workers=1, **FAST_OPT, bounds={
            "x_g": (0.1, 1.0), "x_l": (-20.0, -19.0), "x_r": (19.0, 20.0)})
        (row,) = table.rows
        assert row["p_max"] == 0.0 and row["eta_at_pmax"] is None
        assert row["error"] == "degenerate-operating-region"
        assert row["x_g"] is None and row["x_l"] is None and row["x_r"] is None


class TestSimdDispatch:
    OPT = {"seeds_per_dim": 8, "refine_top": 4, "f_rel_tol": 1e-9, "x_rel_tol": 1e-8}
    # the same small fig2 sweep in a child process whose numpy runs on its
    # baseline SIMD code paths alone
    CHILD = ("import json; from qdphotocell.experiments import _numpy_build, run_fig2; "
             f"t = run_fig2([0.0, 0.9], **{OPT!r}); "
             "print(json.dumps([_numpy_build()['dispatch'], t.rows]))")

    def test_baseline_dispatch_rows_agree_to_the_optimizer_resolution(self):
        # every dispatch target in use here, so no target the CPU lacks is
        # named, after any this process's environment already turns off
        off = [os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *_numpy_build()["dispatch"]]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off).strip(),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", self.CHILD], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        child_dispatch, rows = json.loads(out)
        assert child_dispatch == []
        table = run_fig2([0.0, 0.9], **self.OPT)
        # A start stops once its Newton step is under x_rel_tol of a unit, and
        # a coordinate's unit is at most its range; two starts tie once their
        # powers agree within f_rel_tol.  So the optimizer resolves no
        # coordinate closer than x_rel_tol of its range, nor the power closer
        # than f_rel_tol, and code paths that round differently may move its
        # answer within those; eta = 1 - (temp / temp_p) (x_r - x_l) / x_g
        # moves with the coordinates.
        x_tol = {k: self.OPT["x_rel_tol"] * (hi - lo) for k, (lo, hi) in DEFAULT_BOUNDS.items()}
        eta_tol = ModelParams.temp / ModelParams.temp_p * (x_tol["x_l"] + x_tol["x_r"])
        assert len(rows) == len(table.rows) == 4
        for got, want in zip(rows, table.rows):
            same = ("r_p", "r_l", "x_g", "converged", "error")
            assert [got[k] for k in same] == [want[k] for k in same]
            assert abs(got["p_max"] - want["p_max"]) <= self.OPT["f_rel_tol"] * want["p_max"]
            for k in ("x_l", "x_r"):
                assert abs(got[k] - want[k]) <= x_tol[k]
            assert abs(got["eta"] - want["eta"]) <= eta_tol / want["x_g"]


class TestSerialization:
    def test_csv_round_trip(self, small_fig2, tmp_path):
        path = tmp_path / "fig2.csv"
        small_fig2.to_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert len(rows) == len(small_fig2.rows)
        for got, want in zip(rows, small_fig2.rows):
            assert float(got["p_max"]) == want["p_max"]  # 17 digits round-trip
            assert got["eta"] == ("" if want["eta"] is None
                                  else format(want["eta"], ".17g"))

    def test_json_document(self, small_fig2, tmp_path):
        path = tmp_path / "fig2.json"
        small_fig2.to_json(path)
        doc = json.loads(path.read_text())
        assert {c["name"] for c in doc["columns"]} == set(small_fig2.column_names())
        assert len(doc["rows"]) == 9
        prov = doc["provenance"]
        assert prov["package"] == "qdphotocell"
        assert prov["config"]["sweep"] == "fig2"
        assert "created_utc" in prov

    def test_provenance_records_the_numpy_build(self, small_fig2, tmp_path):
        # the bits of a table hold for one numpy build and SIMD dispatch
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy < 2
            from numpy.core import _multiarray_umath as umath

        path = tmp_path / "fig2.json"
        small_fig2.to_json(path)
        build = json.loads(path.read_text())["provenance"]["numpy"]
        assert build == {
            "version": np.__version__,
            "baseline": list(umath.__cpu_baseline__),
            "dispatch": [k for k in umath.__cpu_dispatch__ if umath.__cpu_features__[k]],
        }

    def test_infinite_tau_serializes(self, tmp_path):
        table = run_fig3b(tau_values=(INFINITE,), eta_c_grid=(0.5,),
                          workers=1, **FAST_OPT)
        jpath = tmp_path / "t.json"
        table.to_json(jpath)
        doc = json.loads(jpath.read_text())
        assert doc["rows"][0]["tau"] == "inf"
        cpath = tmp_path / "t.csv"
        table.to_csv(cpath)
        header, row = cpath.read_text().splitlines()[:2]
        assert row.split(",")[header.split(",").index("tau")] == "inf"

    @pytest.mark.parametrize("sweep", ["fig2", "fig3a"])
    def test_infinite_tau_provenance_round_trips(self, sweep, tmp_path):
        if sweep == "fig2":
            table = run_fig2([0.5], tau=INFINITE, workers=1, **FAST_OPT)
        else:
            table = run_fig3a(r_l_values=(0.0,), eta_c_grid=(0.5,), tau=INFINITE,
                              workers=1, **FAST_OPT)
        path = tmp_path / f"{sweep}.json"
        table.write(path, "json")
        doc = json.loads(path.read_text())
        assert doc["provenance"]["config"]["tau"] == "inf"
        assert len(doc["rows"]) == len(table.rows) == 1

    @pytest.mark.parametrize("sweep, outcome", [
        ("fig2", ("x_l", "x_r", "p_max", "eta", "abs_rho12", "j")),
        ("fig3a", ("eta_at_pmax", "p_max", "x_g", "x_l", "x_r"))])
    def test_refused_row_reads_empty_in_every_outcome_column(self, sweep, outcome,
                                                             tmp_path):
        # one row rule for every table: a flagged row holds its inputs, its
        # reason and converged false, and nothing else
        if sweep == "fig2":
            table = run_fig2([0.5], workers=1, bounds={"x_l": 3.0})
        else:
            table = run_fig3a([0.0], [0.5], workers=1, bounds={"x_l": 3.0})
        table.write(tmp_path / "t.csv", "csv")
        table.write(tmp_path / "t.json", "json")
        with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
            (cells,) = csv.DictReader(fh)
        (doc_row,) = json.loads((tmp_path / "t.json").read_text())["rows"]
        for name in outcome:
            assert cells[name] == "" and doc_row[name] is None, name
        assert cells["converged"] == "false" and doc_row["converged"] is False
        assert doc_row["error"].startswith("bounds.x_l must be a pair")

    def test_non_finite_values_encoded_alike(self, tmp_path):
        # one encoder for CSV cells and JSON values
        table = SweepTable(columns=(("a", "1"), ("b", "1"), ("c", "1")),
                           rows=({"a": math.inf, "b": -math.inf, "c": math.nan},))
        table.write(tmp_path / "t.csv", "csv")
        table.write(tmp_path / "t.json", "json")
        assert (tmp_path / "t.csv").read_text().splitlines()[1] == "inf,-inf,nan"
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["rows"] == [{"a": "inf", "b": "-inf", "c": "nan"}]

    def test_refused_document_leaves_no_file(self, small_fig2, tmp_path):
        bad = dataclasses.replace(small_fig2, provenance={"config": {"tau": math.nan}})
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            bad.to_json(path)
        assert not path.exists()

    def test_overwrite_refusal_and_force(self, small_fig2, tmp_path):
        path = tmp_path / "out.csv"
        small_fig2.to_csv(path)
        with pytest.raises(OutputExistsError):
            small_fig2.to_csv(path)
        small_fig2.to_csv(path, force=True)

    def test_byte_identical_reruns(self, small_fig2, tmp_path):
        again = run_fig2([0.0, 0.5, 1.0], workers=1, **FAST_OPT)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        small_fig2.to_csv(a)
        again.to_csv(b)
        assert a.read_bytes() == b.read_bytes()
        # JSON differs only in the provenance timestamp
        ja, jb = tmp_path / "a.json", tmp_path / "b.json"
        small_fig2.to_json(ja)
        again.to_json(jb)
        da, db = json.loads(ja.read_text()), json.loads(jb.read_text())
        da["provenance"].pop("created_utc")
        db["provenance"].pop("created_utc")
        assert da == db

    def test_unknown_format_rejected(self, small_fig2, tmp_path):
        with pytest.raises(ConfigError):
            small_fig2.write(tmp_path / "x.xml", "xml")
