"""Self-test of the benchmark at a tiny size of every workload.

    python3 perfbench/selftest.py

For each workload it checks that

1. every end-to-end metric (``--trace 0``) and every per-layer metric
   (``--trace 1``) named in BENCHMARK.json is printed with its unit;
2. the count metrics repeat exactly on a rerun with the same seed;
3. the correctness gate passes the real result and fails a deliberately
   perturbed one;
4. the layers the workload bypasses leave no spans;

and that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark.  Exits 0 when
everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEED = 7

COUNT_METRICS = (
    "model.build_rates.calls_per_item",
    "dynamics.steady_state.refused",
    "optimize.steady_observables_grid.scalar_calls",
    "optimize.maximize_power.evals_per_call",
    "optimize.nelder_mead.starts_per_call",
    "optimize.nelder_mead.evals_per_start",
)

# layers each workload must enter, and layers it must bypass
ENTERS = {"map-2d": ("optimize", "experiments"), "curves-3d": ("optimize", "experiments"),
          "steady-scan": ("model", "dynamics", "thermo"), "power-map": ("optimize",)}
BYPASSES = {"map-2d": ("model", "dynamics", "thermo"),
            "curves-3d": ("model", "dynamics", "thermo"),
            "steady-scan": ("optimize", "experiments"),
            "power-map": ("model", "dynamics", "thermo", "experiments")}


def bench(workload, trace):
    """Run the benchmark once; returns (exit code, detail dict, result dict)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, {}, {}
    return proc.returncode, json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def check_metrics(result, spec, where) -> list:
    got = result.get("metrics", {})
    errs = [f"{where}: metric {m['name']} missing or unit != {m['unit']}"
            for m in spec if got.get(m["name"], {}).get("unit") != m["unit"]]
    if not result.get("correct") or result.get("failed") != 0:
        errs.append(f"{where}: gate failed: {result}")
    return errs


def check_perturbation(name) -> list:
    """The gate passes the real result of one tiny item and fails a perturbed copy."""
    import workloads

    wl = workloads.WORKLOADS[name](len(os.sched_getaffinity(0)), tiny=True)
    item = wl.make_inputs(SEED)[0]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = wl.run(item, out_dir / f"selftest-{name}.csv")
    errs = [f"{name}: gate fails the real result: {m}" for m in wl.check(item, out)]
    if not wl.check(item, wl.perturb(item, out)):
        errs.append(f"{name}: gate passes a perturbed result")
    return errs


def check_refuses_without_package() -> list:
    """Only BENCHMARK.json and the benchmark: a non-zero exit and no result line."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / RUN.name), "--workload", "steady-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark ran without the package source"]
    return []


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = []
    for w in spec["workloads"]:
        name = w["name"]
        code, _, res = bench(name, 0)
        errs += [f"{name} untraced: exit {code}"] if code else []
        errs += check_metrics(res, spec["end_to_end"], f"{name} untraced")
        traced = [bench(name, 1) for _ in range(2)]
        for code, detail, res in traced:
            errs += [f"{name} traced: exit {code}"] if code else []
            errs += check_metrics(res, spec["per_layer"], f"{name} traced")
            layers = detail.get("spans_per_layer", {})
            errs += [f"{name}: no {layer} spans" for layer in ENTERS[name]
                     if not layers.get(layer)]
            errs += [f"{name}: {layers[layer]} {layer} spans on a bypassing workload"
                     for layer in BYPASSES[name] if layers.get(layer)]
        (_, _, a), (_, _, b) = traced
        for m in COUNT_METRICS:
            va = a.get("metrics", {}).get(m, {}).get("value")
            vb = b.get("metrics", {}).get(m, {}).get("value")
            if va != vb:
                errs.append(f"{name}: count {m} changed on rerun: {va} -> {vb}")
        errs += check_perturbation(name)
        print(f"{name}: checked", flush=True)
    errs += check_refuses_without_package()
    for e in errs:
        print("FAIL", e)
    print("selftest:", "ok" if not errs else f"{len(errs)} failure(s)")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
