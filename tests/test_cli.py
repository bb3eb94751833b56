"""Configuration parsing and command dispatch."""

import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qdphotocell
from qdphotocell import DEFAULT_BOUNDS, INFINITE, ModelParams, maximize_power, selftest
from qdphotocell.cli import main, parse_config
from qdphotocell.errors import ConfigError
from qdphotocell.experiments import SWEEP_DEFAULTS


class TestParseConfig:
    def test_empty_config_defaults(self):
        cfg = parse_config(None)
        p = cfg.params
        assert (p.temp, p.temp_p) == (295.0, 5780.0)
        assert p.gamma_p == p.gamma_l == p.gamma_r == 1.0
        assert p.r_p == 0.0 and p.r_l == 0.0 and p.tau == 0.0
        assert p.x_g == 2.0 and p.x_l == 0.0 and p.x_r == 0.0
        assert cfg.fmt == "csv" and not cfg.force

    def test_both_parameter_blocks_rejected(self):
        with pytest.raises(ConfigError, match="at most one"):
            parse_config({"scaled": {"x_g": 2.0}, "physical": {"eps_g": 1.0}})

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="bogus_one.*bogus_two"):
            parse_config({"model": {"bogus_one": 1, "bogus_two": 2}})
        with pytest.raises(ConfigError, match="config: nonsense"):
            parse_config({"nonsense": {}})

    def test_cross_coupling_constraint_cited(self):
        with pytest.raises(ConfigError, match="0 <= r_p <= 1"):
            parse_config({"model": {"r_p": 1.5}})

    def test_physical_block(self):
        cfg = parse_config({"physical": {"eps_g": 1000.0, "eps_l": 5.0,
                                         "mu_l": 0.0, "mu_r": 900.0},
                            "model": {"temp": 100.0, "temp_p": 1000.0}})
        assert cfg.params.eps_g == 1000.0
        assert cfg.params.eps_l == 5.0

    def test_scaled_overrides_forbidden_with_physical_block(self):
        with pytest.raises(ConfigError, match="scaled overrides"):
            parse_config({"physical": {"eps_g": 1000.0}}, {"x_g": 3.0})

    def test_flag_overrides_win(self):
        cfg = parse_config({"scaled": {"x_g": 1.0}, "model": {"r_p": 0.2}},
                           {"x_g": 4.0, "r_p": 0.7, "tau": INFINITE})
        assert cfg.params.x_g == 4.0
        assert cfg.params.r_p == 0.7
        assert cfg.params.tau == INFINITE

    def test_sweep_x_g_defaults_to_the_operating_point(self):
        # fig2's bandgap is the scaled x_g as set, or eps_g / temp_p of a
        # physical block; an x_g in the sweep block wins over both
        assert parse_config({"scaled": {"x_g": 1.5}}, {"x_g": "3"}).sweep["x_g"] == 3.0
        cfg = parse_config({"physical": {"eps_g": 1000.0}, "model": {"temp_p": 400.0}})
        assert cfg.sweep["x_g"] == cfg.params.x_g == 2.5
        assert parse_config({"sweep": {"x_g": 4.0}}, {"x_g": 3.0}).sweep["x_g"] == 4.0

    def test_tau_strings(self):
        for token in ("inf", "INFINITE", "Infinity"):
            cfg = parse_config({"model": {"tau": token}})
            assert cfg.params.tau == INFINITE
        with pytest.raises(ConfigError):
            parse_config({"model": {"tau": "soon"}})

    def test_gamma_fanout_and_override(self):
        cfg = parse_config({"model": {"gamma": 2.0, "gamma_r": 5.0}})
        assert cfg.params.gamma_p == 2.0
        assert cfg.params.gamma_l == 2.0
        assert cfg.params.gamma_r == 5.0
        # "gamma" is read as any number is, a numeric string included
        p = parse_config({"model": {"gamma": "0.5"}}).params
        assert p.gamma_p == p.gamma_l == p.gamma_r == 0.5

    def test_workers_env(self, monkeypatch):
        monkeypatch.setenv("QDPHOTOCELL_WORKERS", "3")
        assert parse_config(None).workers == 3
        monkeypatch.setenv("QDPHOTOCELL_WORKERS", "many")
        with pytest.raises(ConfigError):
            parse_config(None)

    def test_bad_format(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config({"output": {"format": "yaml"}})

    def test_echo_is_json_serializable(self):
        cfg = parse_config({"model": {"tau": "inf"}})
        echoed = json.loads(json.dumps(cfg.echo()))
        assert echoed["params"]["tau"] == "inf"

    def test_loose_values_accepted_as_before(self):
        # numeric strings convert where the value is converted anyway, and
        # the converted value is echoed
        cfg = parse_config({"scaled": {"x_g": "2.5"},
                            "optimizer": {"bounds": {"x_l": ["-3", 3]}},
                            "output": {"workers": "2"}})
        echo = cfg.echo()
        assert cfg.params.x_g == 2.5
        assert echo["optimizer"]["bounds"] == {"x_l": [-3.0, 3.0]}
        assert cfg.workers == 2 and echo["output"]["workers"] == 2


@pytest.mark.parametrize("cmd,doc,where", [
    ("steady", {"scaled": {"x_g": "abc"}}, "scaled.x_g"),
    ("steady", {"model": {"temp": "hot"}}, "model.temp"),
    ("steady", {"sweep": {"r_step": "x"}}, "sweep.r_step"),
    ("steady", {"sweep": {"r_l_values": 5}}, "sweep.r_l_values"),
    ("steady", {"sweep": {"tau_values": [[1]]}}, "sweep.tau_values"),
    ("steady", {"optimizer": {"bounds": {"x_l": 3}}}, "optimizer.bounds.x_l"),
    ("steady", {"scaled": [1, 2]}, "config.scaled"),
    ("maximize", {"optimizer": {"seeds_per_dim": "8"}}, "optimizer.seeds_per_dim"),
    ("fig2", {"output": {"workers": "two"}}, "output.workers"),
    ("maximize", {"optimizer": {"bounds": {"x_l": [-3, 0, 3]}}}, "optimizer.bounds.x_l"),
    ("maximize", {"optimizer": {"f_rel_tol": "1e-9"}}, "optimizer.f_rel_tol"),
    ("maximize", {"optimizer": {"free": [["x_l"]]}}, "optimizer.free"),
    ("fig2", {"output": {"path": 5}, "sweep": {"r_step": 1.0}}, "output.path"),
    ("fig2", {"output": {"force": "false"}, "sweep": {"r_step": 1.0}}, "output.force"),
    ("fig2", {"output": {"force": "no"}, "sweep": {"r_step": 1.0}}, "output.force"),
    ("maximize", {"optimizer": {"refine_top": True}}, "optimizer.refine_top"),
    ("maximize", {"optimizer": {"seeds_per_dim": False}}, "optimizer.seeds_per_dim"),
    ("fig2", {"output": {"workers": 2.7}}, "output.workers"),
    ("fig2", {"output": {"workers": True}}, "output.workers"),
    ("maximize", {"optimizer": {"max_evals_per_seed": 2.5}}, "optimizer.max_evals_per_seed"),
    # refused before the echo by the optimizer's, the sweeps' and the
    # parser's own checks, each naming the key
    ("fig2", {"optimizer": {"refine_top": 0}}, "optimizer.refine_top"),
    ("maximize", {"optimizer": {"seeds_per_dim": 1}}, "optimizer.seeds_per_dim"),
    ("maximize", {"optimizer": {"bounds": {"x_l": [3, -3]}}}, "optimizer.bounds.x_l"),
    ("maximize", {"optimizer": {"free": ["x_q"]}}, "optimizer.free"),
    ("steady", {"output": {"workers": 0}}, "output.workers"),
    ("steady", {"model": {"r_p": True}}, "model.r_p"),
    ("steady", {"model": {"tau": True}}, "model.tau"),
    ("steady", {"model": {"gamma": True}}, "model.gamma"),
    ("steady", {"scaled": {"x_g": True}}, "scaled.x_g"),
    ("steady", {"physical": {"eps_g": True}}, "physical.eps_g"),
    ("steady", {"sweep": {"r_step": True}}, "sweep.r_step"),
    ("steady", {"sweep": {"r_l_values": [0.0, True]}}, "sweep.r_l_values"),
    ("steady", {"sweep": {"tau_values": [False]}}, "sweep.tau_values"),
    ("maximize", {"optimizer": {"bounds": {"x_l": [True, 3]}}}, "optimizer.bounds.x_l"),
    # only a JSON object is a block; a list of pairs is not read as one
    ("steady", {"scaled": [["x_g", 3]]}, "config.scaled"),
    ("maximize", {"model": [["r_p", 0.5]]}, "config.model"),
    ("maximize", {"optimizer": []}, "config.optimizer"),
    # every command builds the sweep grids before the echo
    ("fig2", {"sweep": {"r_step": 0.3}}, "sweep: r grid step 0.3"),
    ("maximize", {"sweep": {"r_step": 0.3}}, "sweep: r grid step 0.3"),
    ("fig3a", {"sweep": {"eta_c_lo": 0.6, "eta_c_hi": 0.4}}, "sweep: eta_c grid"),
    ("fig2", {"sweep": {"r_step": 0}}, "sweep: r grid step must lie in (0, 1], got 0.0"),
    ("fig2", {"sweep": {"r_step": 2}}, "sweep: r grid step must lie in (0, 1], got 2.0"),
])
def test_malformed_value_exit_code_and_record(capsys, tmp_path, cmd, doc, where):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    code = main([cmd, "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    record = json.loads(captured.err.strip())
    assert record["error"] == "ConfigError"
    assert where in record["message"]
    assert captured.out == ""  # refused before the resolved config is echoed


@pytest.mark.parametrize("cmd, key, step", [("steady", "r_step", 1e-9),
                                            ("fig3a", "eta_c_step", 1e-12)])
def test_huge_sweep_grid_refused_before_it_is_built(capsys, tmp_path, cmd, key, step):
    # 1e-9 asks for 10^9 + 1 r values and 1e-12 for ~9e11 eta_c values; the
    # point count is refused before any is built, for every command
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"sweep": {key: step}}))
    tracemalloc.start()
    try:
        code = main([cmd, "--config", str(config)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    record = json.loads(captured.err.strip())
    assert code == 2 and record["error"] == "ConfigError" and captured.out == ""
    assert f"sweep: {key} {step} asks for" in record["message"]
    assert peak < 1_000_000


def test_config_schema_doc_matches_defaults():
    """The documented config block is the defaults it claims to be."""
    text = (Path(__file__).parent.parent / "docs" / "config-schema.md").read_text()
    block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    defaults = ModelParams()
    assert doc["sweep"] == {
        k: [("inf" if x == INFINITE else x) for x in v] if isinstance(v, tuple) else v
        for k, v in SWEEP_DEFAULTS.items()}
    for name, keys in (("scaled", ("x_g", "x_l", "x_r")),
                       ("physical", ("eps_g", "eps_l", "mu_l", "mu_r"))):
        assert doc[name] == {k: getattr(defaults, k) for k in keys}
    model = doc["model"]
    assert model.pop("gamma") == defaults.gamma_p == defaults.gamma_l == defaults.gamma_r
    assert model == {k: getattr(defaults, k) for k in (
        "temp", "temp_p", "gamma_p", "gamma_l", "gamma_r", "r_p", "r_l", "tau", "delta21")}
    optimizer = doc["optimizer"]
    assert optimizer.pop("bounds") == {k: list(v) for k, v in DEFAULT_BOUNDS.items()}
    signature = inspect.signature(maximize_power).parameters
    assert optimizer.pop("free") == list(signature["free"].default)
    assert optimizer == {k: signature[k].default for k in (
        "seeds_per_dim", "refine_top", "f_rel_tol", "x_rel_tol", "max_evals_per_seed")}


@pytest.mark.parametrize("argv,expected", [
    (["--r-p", "0.25"], {"r_p": 0.25}),
    (["--r-l", "0.5"], {"r_l": 0.5}),
    (["--tau", "2.5"], {"tau": 2.5}),
    (["--tau", "inf"], {"tau": "inf"}),
    (["--x-g", "1.5"], {"x_g": 1.5}),
    (["--x-l", "-1"], {"x_l": -1.0}),
    (["--x-r", "2"], {"x_r": 2.0}),
    (["--temp", "236"], {"temp": 236.0, "x_l": 0.0, "x_r": 0.0}),
    (["--temp-p", "4624"], {"temp_p": 4624.0, "x_g": 2.0}),
    (["--gamma", "0.5"], {"gamma_p": 0.5, "gamma_l": 0.5, "gamma_r": 0.5}),
])
def test_parameter_flag_lands_in_echo(capsys, argv, expected):
    assert main(["steady", *argv]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    params = json.loads(first.removeprefix("resolved-config: "))["params"]
    assert {k: params[k] for k in expected} == expected


def test_malformed_tau_flag_refused_before_echo(capsys):
    assert main(["steady", "--tau", "bogus"]) == 2
    captured = capsys.readouterr()
    record = json.loads(captured.err.strip())
    assert record["error"] == "ConfigError"
    assert "tau" in record["message"] and "bogus" in record["message"]
    assert captured.out == ""


class TestDispatch:
    def test_steady_equal_couplings_prints_vanishing_coherence(self, capsys):
        code = main(["steady", "--r-p", "0.6", "--r-l", "0.6",
                     "--x-l", "-1", "--x-r", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "resolved-config:" in out
        coherence_line = [l for l in out.splitlines() if "|rho12|" in l][0]
        magnitude = float(coherence_line.split("|rho12| = ")[1].rstrip(")"))
        assert magnitude < 1e-12

    def test_thermo_at_equilibrium_prints_zero_currents(self, capsys, tmp_path):
        config = tmp_path / "eq.json"
        config.write_text(json.dumps({
            "scaled": {"x_g": 1.5, "x_l": -0.5, "x_r": 1.0},
            "model": {"temp": 500.0, "temp_p": 500.0, "r_p": 0.8, "r_l": 0.1},
        }))
        code = main(["thermo", "--config", str(config)])
        out = capsys.readouterr().out
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("j_l")][0]
        j_l = float(line.split("j_l = ")[1].split()[0])
        assert abs(j_l) < 1e-12

    def test_maximize_prints_result(self, capsys):
        code = main(["maximize", "--r-p", "0.9", "--r-l", "0.0"])
        out = capsys.readouterr().out
        assert code == 0
        # the default x_l = 0 echoes mu_l as 0.0, not -0.0
        echo = out.splitlines()[0]
        assert '"mu_l": 0.0,' in echo and "-0.0" not in echo
        assert "p_max" in out and "eta_at_pmax" in out
        assert re.search(r"evals = \d+   starts = [1-8]   converged", out)
        certificate = re.search(r"certificate: grad_rel = (\S+)   newton_step = (\S+)   "
                                r"max_curvature = (\S+)", out)
        grad_rel, newton_step, curvature = map(float, certificate.groups())
        assert grad_rel < 1e-6 and newton_step < 1e-6 and curvature < 0.0

    def test_config_error_exit_code_and_record(self, capsys):
        code = main(["steady", "--r-p", "1.5"])
        captured = capsys.readouterr()
        assert code == 2
        record = json.loads(captured.err.strip())
        assert record["error"] == "ConfigError"
        assert "r_p" in record["message"]

    def test_solver_error_exit_code(self, capsys, tmp_path):
        config = tmp_path / "dis.json"
        config.write_text(json.dumps({
            "model": {"gamma_l": 0.0, "gamma_r": 0.0}}))
        code = main(["steady", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.err.strip())["error"] == "NoUniqueSteadyStateError"

    def test_missing_config_file(self, capsys):
        code = main(["steady", "--config", "/nonexistent/nope.json"])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_file_not_json(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        assert main(["steady", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        record = json.loads(captured.err.strip())
        assert record["error"] == "ConfigError" and "not valid JSON" in record["message"]
        assert captured.out == ""

    def test_unwritable_output_exit_code_and_record(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sweep": {"r_step": 1.0}}))
        out_file = tmp_path / "nodir" / "x.csv"
        assert main(["fig2", "--config", str(config), "--out", str(out_file)]) == 4
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "OSError" and "nodir" in record["message"]

    def test_maximize_degenerate_at_equal_temperatures(self, capsys):
        assert main(["maximize", "--temp", "5780"]) == 0
        out = capsys.readouterr().out
        assert "eta_at_pmax = n/a" in out and "degenerate = True" in out

    def test_maximize_finds_the_window_with_x_r_fixed(self, capsys, tmp_path):
        # x_l alone is gridded across the operating window; a rectangular grid
        # in x_l misses it at this point and reports degenerate
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"optimizer": {"free": ["x_l"]}}))
        assert main(["maximize", "--x-g", "2", "--x-l", "-1", "--x-r", "0.5", "--r-p", "0.9",
                     "--temp", "5491", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "degenerate = False" in out and "converged = True" in out

    def test_maximize_warns_on_active_bounds(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"optimizer": {"bounds": {"x_l": [-20, -3]}}}))
        assert main(["maximize", "--r-p", "0.9", "--config", str(config)]) == 0
        assert "warning: optimum sits on bounds of x_l" in capsys.readouterr().out

    def test_steady_dark_state_note(self, capsys):
        assert main(["steady", "--r-p", "1", "--r-l", "1"]) == 0
        assert "note: dark-state degeneracy" in capsys.readouterr().out

    def test_thermo_with_leads_hotter_than_photons(self, capsys):
        # no Carnot bound applies above temp_p: a heat-engine state is reported
        assert main(["thermo", "--x-g", "5", "--x-l", "-2", "--x-r", "2",
                     "--temp", "8000"]) == 0
        out = capsys.readouterr().out
        assert "power = 19.615" in out and "eta_ca = nan" in out

    def test_fig2_writes_table_and_respects_force(self, capsys, tmp_path):
        out_file = tmp_path / "map.csv"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "sweep": {"r_step": 0.5},
            "optimizer": {"seeds_per_dim": 8, "refine_top": 4},
        }))
        argv = ["fig2", "--config", str(config), "--out", str(out_file),
                "--workers", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert out_file.exists()
        header = out_file.read_text().splitlines()[0]
        assert header.startswith("r_p,r_l")
        assert main(argv) == 4  # refuses to overwrite
        capsys.readouterr()
        assert main(argv + ["--force"]) == 0

    def test_fig3b_json_output(self, capsys, tmp_path):
        out_file = tmp_path / "curve.json"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "sweep": {"eta_c_lo": 0.5, "eta_c_hi": 0.5, "eta_c_step": 0.05,
                      "tau_values": [0, "inf"]},
            "optimizer": {"seeds_per_dim": 8, "refine_top": 4},
        }))
        code = main(["fig3b", "--config", str(config), "--out", str(out_file),
                     "--format", "json", "--workers", "1"])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["rows"]) == 2
        assert doc["provenance"]["config"]["sweep"] == "fig3b"


    def test_fig3a_respects_explicit_r_p(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "sweep": {"eta_c_lo": 0.5, "eta_c_hi": 0.5, "eta_c_step": 0.05,
                      "r_l_values": [0.0]},
            "optimizer": {"seeds_per_dim": 8, "refine_top": 4},
        }))
        base = ["fig3a", "--config", str(config), "--format", "json",
                "--workers", "1"]
        default_out = tmp_path / "default.json"
        assert main(base + ["--out", str(default_out)]) == 0
        capsys.readouterr()
        assert json.loads(default_out.read_text())["provenance"]["config"]["r_p"] == 0.9
        explicit_out = tmp_path / "explicit.json"
        assert main(base + ["--out", str(explicit_out), "--r-p", "0"]) == 0
        capsys.readouterr()
        assert json.loads(explicit_out.read_text())["provenance"]["config"]["r_p"] == 0.0

    def test_fig2_honours_optimizer_bounds(self, capsys, tmp_path):
        out_file = tmp_path / "map.json"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "sweep": {"r_step": 1.0},
            "optimizer": {"seeds_per_dim": 8, "refine_top": 4,
                          "bounds": {"x_l": [-1, -0.5]}},
        }))
        assert main(["fig2", "--config", str(config), "--out", str(out_file),
                     "--format", "json", "--workers", "1"]) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text())
        assert doc["provenance"]["config"]["optimizer"]["bounds"] == {"x_l": [-1.0, -0.5]}
        assert len(doc["rows"]) == 4
        for row in doc["rows"]:
            assert not row["error"] and -1.0 <= row["x_l"] <= -0.5

    def test_fig2_honours_the_x_g_flag(self, capsys, tmp_path):
        out_file = tmp_path / "map.json"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "sweep": {"r_step": 1.0},
            "optimizer": {"seeds_per_dim": 8, "refine_top": 4},
        }))
        assert main(["fig2", "--x-g", "3", "--config", str(config), "--out", str(out_file),
                     "--format", "json", "--workers", "1"]) == 0
        echo = json.loads(capsys.readouterr().out.split("resolved-config: ", 1)[1].split("\n")[0])
        assert echo["sweep"]["x_g"] == 3.0
        rows = json.loads(out_file.read_text())["rows"]
        assert len(rows) == 4 and all(row["x_g"] == 3.0 for row in rows)

    @pytest.mark.parametrize("model,key", [({"gamma_l": 0.1}, "gamma_l"),
                                           ({"gamma_r": 2.0}, "gamma_r"),
                                           ({"delta21": 100.0}, "delta21")])
    def test_sweeps_refuse_the_model_values_they_drop(self, capsys, tmp_path, model, key):
        # a sweep runs gamma_l = gamma_r = gamma_p and delta21 = 0: any other
        # value is refused by name, and no table is written
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": model}))
        for cmd in ("fig2", "fig3a", "fig3b"):
            out_file = tmp_path / f"{cmd}.csv"
            assert main([cmd, "--config", str(config), "--out", str(out_file)]) == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error"] == "ConfigError"
            assert record["message"].startswith(f"model.{key} = {model[key]} ")
            assert not out_file.exists()

    def test_selftest_clean_build_exits_zero(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_selftest_failure_reported_and_exits_five(self, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "_SUITES", (("forced", lambda: (1, ["forced failure"])),))
        lines = []
        assert selftest.run_selftest(report=lines.append) == (0, 1)
        assert lines[:2] == ["FAIL forced: 1/1 checks failed", "     forced failure"]
        assert main(["selftest"]) == 5
        assert "FAIL forced" in capsys.readouterr().out


def test_module_entry_point_version():
    # the child imports the package under test, installed or not
    pkg_root = os.path.dirname(os.path.dirname(qdphotocell.__file__))
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qdphotocell", "--version"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "qdphotocell" in proc.stdout
