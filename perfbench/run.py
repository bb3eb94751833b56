"""Benchmark of qdphotocell: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload map-2d --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory and nowhere
else.  Times are reported at a fixed reference speed (see CAL_REF_S).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (environment, results digest, tail percentile, raw times, failures).
See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import os

# BLAS threads per process x pool workers must stay within the CPU count;
# OpenBLAS would otherwise start extra threads in every process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# per-process directory for the tables the sweeps write, removed at exit
RUN_DIR = OUT_DIR / f"run-{os.getpid()}"
REFERENCE = HERE / "reference.json"
CANONICAL_SEED = 0
SETUP_PROBES = 9
# Host speed on a shared VM drifts by up to 2x within minutes, and a small
# fixed numpy kernel (the calibration) slows down in step with the package.
# Every time metric is reported at a fixed reference speed: measured time x
# CAL_REF_S / (calibration time measured next to it).  Set-up is process start
# and imports, which follow the host differently from arithmetic, so setup_s
# is scaled by SPAWN_REF_S / (spawn time of a bare numpy import measured next
# to it) instead.  Both references are medians on a 2-vCPU x86-64 VM; the
# raw times are in the details line.
CAL_REF_S = 2.4e-3
CAL_SOLVES = 120
SPAWN_REF_S = 0.18
# A pass is cut into segments between calibrations: every sweep item (about
# 1 s of work), or at least SEGMENT_S of scan draws.  A calibration is the
# median of CAL_REPS_SWEEP kernel runs on a sweep, of one on a scan.
SEGMENT_S = 0.02
CAL_REPS_SWEEP = 7
WORKLOAD_NAMES = ("map-2d", "curves-3d", "steady-scan", "power-map")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=CANONICAL_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: a few small items per pass")
    ap.add_argument("--setup-probe", action="store_true",
                    help="do the set-up only, print 'ready' and exit (timed by the parent)")
    ap.add_argument("--memory-probe", action="store_true",
                    help="run one untimed pass, print peak RSS of self and children, exit")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the canonical seed's first item as the digest reference")
    ap.add_argument("--calibration-helper", type=int, metavar="CPU",
                    help="run calibrations pinned to CPU on request (see reference_clock)")
    args = ap.parse_args(argv)
    if args.workload is None and args.calibration_helper is None:
        ap.error("--workload is required")
    return args


def load_package():
    """Import qdphotocell from src/ beside the benchmark, refusing any other copy."""
    if not (SRC / "qdphotocell" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import qdphotocell

    if Path(qdphotocell.__file__).resolve().parent != SRC / "qdphotocell":
        raise SystemExit(f"perfbench: imported qdphotocell from {qdphotocell.__file__}, "
                         f"not from {SRC}")
    import workloads

    return workloads


def setup(args, nproc):
    """Everything between a fresh interpreter and the first timed item."""
    workloads = load_package()
    wl = workloads.WORKLOADS[args.workload](nproc, tiny=args.tiny)
    return workloads, wl, wl.make_inputs(args.seed)


_CAL_A = np.eye(6) * 3.0 + np.arange(36.0).reshape(6, 6) / 100.0
_CAL_B = np.ones(6)


def _kernel_s() -> float:
    x = np.linalg.solve(_CAL_A, _CAL_B)  # warm-up, untimed
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_SOLVES):
        x = np.linalg.solve(_CAL_A, _CAL_B)
        acc += float(x[0]) + 0.5 * i
        acc += float(np.max(np.abs(_CAL_A @ x)))
    return time.perf_counter() - t0


def calibration_s(reps=1) -> float:
    """Median time of ``reps`` runs of a fixed 6x6 solve-and-multiply loop.

    The loop never enters the package, so no change to the package moves it.
    """
    return statistics.median(_kernel_s() for _ in range(reps))


@contextlib.contextmanager
def reference_clock(pool: bool):
    """Yields ``calibrate(reps)`` for the passes run inside the block.

    Serial work is pinned to one CPU, so that its calibrations time the CPU
    it runs on.  Pool work keeps every CPU busy, and the CPUs of a shared VM
    run slower together than alone, and not at the same speed; so its
    calibration runs on all of them at once: here pinned to the first CPU,
    and in one helper process pinned to each other CPU.  The mean over CPUs
    is the calibration.
    """
    allowed = os.sched_getaffinity(0)
    first, *others = sorted(allowed)
    helpers = []

    def calibrate(reps):
        if not pool:
            return calibration_s(reps)
        os.sched_setaffinity(0, {first})
        try:
            for h in helpers:
                h.stdin.write(f"{reps}\n")
                h.stdin.flush()
            times = [calibration_s(reps)] + [float(h.stdout.readline()) for h in helpers]
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.fmean(times)

    try:
        if pool:
            for cpu in others:
                helpers.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), "--calibration-helper",
                     str(cpu)], cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True))
                if helpers[-1].stdout.readline().strip() != "ready":
                    raise RuntimeError(f"calibration helper on CPU {cpu} did not start")
        else:
            os.sched_setaffinity(0, {first})
        yield calibrate
    finally:
        os.sched_setaffinity(0, allowed)
        for h in helpers:
            h.stdin.close()
        for h in helpers:
            h.wait(timeout=60)


def calibration_helper(cpu: int) -> int:
    """Answer each line of stdin (a repetition count) with a calibration on ``cpu``."""
    os.sched_setaffinity(0, {cpu})
    print("ready", flush=True)
    for line in sys.stdin:
        print(repr(calibration_s(int(line))), flush=True)
    return 0


def spawn_seconds(cmd) -> tuple:
    """Wall time from spawning ``cmd`` to its first line of output, and that line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    took = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=60) != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {proc.returncode}")
    return took, line.strip()


def setup_seconds(args) -> list:
    """SETUP_PROBES fresh interpreters from spawn to 'ready': [(raw s, reference-speed s)].

    Each probe lies between two reference spawns of a bare numpy import, all
    pinned to one CPU so that probe and reference run on the same one.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    ref_cmd = [sys.executable, "-c", "import numpy; print('ready')"]
    times = []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        ref = spawn_seconds(ref_cmd)[0]
        for _ in range(SETUP_PROBES):
            raw, line = spawn_seconds(cmd)
            if line != "ready":
                raise RuntimeError(f"setup probe failed: {line!r}")
            nxt = spawn_seconds(ref_cmd)[0]
            times.append((raw, raw * SPAWN_REF_S / (0.5 * (ref + nxt))))
            ref = nxt
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def peak_rss_mb(args, wl) -> tuple:
    """Peak RSS of one pass in a fresh process plus, on a pool, workers x its largest child.

    A process of its own, because the benchmark's other children (set-up
    probes, calibration helpers) would count in RUSAGE_CHILDREN here, and
    because this process grows while it keeps the passes' outputs.
    Returns (MB, {"self": KiB, "largest_child": KiB}).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--memory-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    rss = json.loads(out.stdout.splitlines()[-1])
    pool = wl.workers if wl.workers > 1 else 0
    # ru_maxrss is in KiB; pool children are bounded by the largest one
    return (rss["self"] + pool * rss["largest_child"]) / 1024.0, rss


def memory_probe(args, nproc) -> int:
    _, wl, inputs = setup(args, nproc)
    RUN_DIR.mkdir(parents=True)
    try:
        for k, item in enumerate(inputs):
            wl.run(item, RUN_DIR / f"{wl.name}-m-{k}.csv")
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    print(json.dumps({"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      "largest_child": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
    return 0


def cpu_seconds() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


class Pass:
    """Timings of one pass; ``*_ref`` are at reference speed (see CAL_REF_S)."""

    def __init__(self):
        self.wall = self.cpu = self.wall_ref = self.cpu_ref = 0.0
        self.lat, self.lat_ref = [], []


def run_pass(wl, inputs, tag, calibrate, tracer=None, workers=None):
    """One pass over the input set; returns (Pass, outputs, errors).

    The pass is cut into segments between calibrations (``calibrate`` from
    reference_clock): each sweep item, or at least SEGMENT_S of a scan.
    Wall, cpu and latencies exclude the calibrations.
    """
    res, outs, errors = Pass(), [], {}
    reps = CAL_REPS_SWEEP if wl.sweep else 1
    cal = calibrate(reps)
    seg_lat = []

    def close_segment(w0, c0):
        nonlocal cal
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        nxt = calibrate(reps)
        factor = CAL_REF_S / (0.5 * (cal + nxt))
        cal = nxt
        res.wall += wall
        res.cpu += cpu
        res.wall_ref += wall * factor
        res.cpu_ref += cpu * factor
        res.lat += seg_lat
        res.lat_ref += [t * factor for t in seg_lat]
        seg_lat.clear()

    c0, w0 = cpu_seconds(), time.perf_counter()
    for k, item in enumerate(inputs):
        path = RUN_DIR / f"{wl.name}-{tag}-{k}.csv"
        if tracer is not None:
            tracer.item = k
        t0 = time.perf_counter()
        try:
            out = wl.run(item, path, workers=workers)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            out = None
            errors[k] = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        seg_lat.append(t1 - t0)
        outs.append(out)
        if (t1 - w0 >= SEGMENT_S or wl.sweep) and k < len(inputs) - 1:
            close_segment(w0, c0)
            c0, w0 = cpu_seconds(), time.perf_counter()
    close_segment(w0, c0)
    return res, outs, errors


def check_outputs(workloads, wl, inputs, first, errors, tag) -> dict:
    """Gate every item of the first pass: {item index: [failure messages]}."""
    fails = {k: [msg] for k, msg in errors.items()}
    for k, (item, out) in enumerate(zip(inputs, first)):
        if out is None:
            continue
        msgs = wl.check(item, out)
        if wl.sweep:
            msgs += workloads.read_back(RUN_DIR / f"{wl.name}-{tag}-{k}.csv", out)
        if msgs:
            fails[k] = msgs
    return fails


def digest(workloads, wl, nproc) -> dict | None:
    """max |d p_max| and |d eta| of the canonical seed's first item against the reference."""
    if not wl.sweep:
        return None
    ref = json.loads(REFERENCE.read_text())[wl.name]
    item = type(wl)(nproc).make_inputs(ref["seed"])[0]
    rows = wl.digest_rows(wl.run(item, RUN_DIR / f"{wl.name}-digest.csv"))
    if len(rows) != len(ref["rows"]):
        return {"rows": len(rows), "reference_rows": len(ref["rows"]), "ok": False}
    dp = max(abs(a[0] - b[0]) for a, b in zip(rows, ref["rows"]))
    de = max(abs(a[1] - b[1]) for a, b in zip(rows, ref["rows"]))
    return {"max_abs_d_p_max": dp, "max_abs_d_eta": de, "rows": len(rows),
            "ok": bool(dp <= workloads.DIGEST_TOL and de <= workloads.DIGEST_TOL)}


def environment(args, wl, nproc) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    head = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10,
                                  check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            head = "unknown (git failed)"
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_head": head, "workers": wl.workers, "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


def differing(wl, first, outs) -> set:
    """Indices of items whose rerun result differs from the first pass (or is missing)."""
    return {k for k, (a, b) in enumerate(zip(first, outs))
            if a is None or b is None or not wl.same(a, b)}


def measure(wl, inputs, seconds):
    """Untraced passes until the next one would overrun ``seconds`` (at least two)."""
    passes, reruns = [], []
    with reference_clock(pool=wl.workers > 1) as calibrate:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            res, outs, errs = run_pass(wl, inputs, f"p{len(passes)}", calibrate)
            took = time.perf_counter() - t0
            if not passes:
                first, errors = outs, errs
            else:
                reruns.append(differing(wl, first, outs))
            passes.append(res)
            if len(passes) >= 2 and time.perf_counter() - start + took > seconds:
                break
    return passes, first, errors, reruns


def untraced_run(wl, inputs, seconds):
    """End-to-end timings (the caller adds setup_s and peak_rss_mb) and the first pass' outputs.

    Times are at reference speed.  Every metric is a median over passes,
    except item_us_p50 (median of all items).  The tail is taken per pass,
    at the highest whole percentile with ten of the pass' items beyond it,
    so a burst of outside load during one pass does not set it.
    """
    from spans import percentile, tail_percentile

    passes, first, errors, reruns = measure(wl, inputs, seconds)
    tail_pct = tail_percentile(len(inputs))

    def med(key):
        return statistics.median(key(p) for p in passes)

    metrics = {
        "wall_s": (med(lambda p: p.wall_ref), "s"),
        "cpu_s": (med(lambda p: p.cpu_ref), "s"),
        "item_us_p50": (percentile([t for p in passes for t in p.lat_ref], 50) * 1e6, "us"),
        "item_us_tail": (med(lambda p: percentile(p.lat_ref, tail_pct)) * 1e6, "us"),
    }
    detail = {"passes": len(passes), "items_per_pass": len(inputs),
              "item_tail_percentile": tail_pct, "item_samples": len(inputs) * len(passes),
              "raw": {"wall_s": med(lambda p: p.wall), "cpu_s": med(lambda p: p.cpu),
                      "item_us_p50": percentile([t for p in passes for t in p.lat], 50) * 1e6,
                      "item_us_tail": med(lambda p: percentile(p.lat, tail_pct)) * 1e6,
                      "pass_wall_s_min_max": [min(p.wall for p in passes),
                                              max(p.wall for p in passes)]},
              "speed_vs_reference": med(lambda p: p.wall / p.wall_ref)}
    return metrics, detail, first, errors, reruns


def traced_run(wl, inputs, seed):
    """Per-layer metrics from one traced serial pass, next to untraced passes of the same inputs."""
    from spans import Tracer, layer_metrics

    with reference_clock(pool=wl.workers > 1) as calibrate:
        untraced, first, errors = run_pass(wl, inputs, "u", calibrate)
    with reference_clock(pool=False) as calibrate:
        serial = untraced
        if wl.workers > 1:
            serial = run_pass(wl, inputs, "s", calibrate, workers=1)[0]
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            for _ in range(20):
                wl.resolve_config()
            traced, traced_outs, _ = run_pass(wl, inputs, "t", calibrate, tracer=tracer,
                                              workers=1)
        finally:
            tracer.enabled = False
            tracer.uninstall()
    metrics = layer_metrics(tracer.spans, items=len(inputs), traced_wall=traced.wall,
                            traced_wall_ref=traced.wall_ref, untraced_wall=untraced.wall_ref,
                            untraced_serial_wall=serial.wall_ref, workers=wl.workers)
    tracer.dump(OUT_DIR / f"spans-{wl.name}-seed{seed}.json")
    detail = {"spans": len(tracer.spans), "spans_per_layer": tracer.layer_counts(),
              "traced_wall_s": traced.wall, "untraced_wall_s": untraced.wall,
              "untraced_serial_wall_s": serial.wall,
              "reference_speed_wall_s": {"traced": traced.wall_ref,
                                         "untraced": untraced.wall_ref,
                                         "untraced_serial": serial.wall_ref}}
    return metrics, detail, first, errors, [differing(wl, first, traced_outs)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.calibration_helper is not None:
        return calibration_helper(args.calibration_helper)
    nproc = len(os.sched_getaffinity(0))
    if args.memory_probe:
        return memory_probe(args, nproc)
    if args.setup_probe:
        setup(args, nproc)
        print("ready", flush=True)
        return 0
    workloads, wl, inputs = setup(args, nproc)
    if args.trace == 0 and not args.write_reference:
        # Spawned before the passes grow this process: on Linux a child's
        # peak RSS starts at its parent's.
        rss_mb, rss = peak_rss_mb(args, wl)
        probes = setup_seconds(args)
    RUN_DIR.mkdir(parents=True)
    try:
        if args.write_reference:
            item = type(wl)(nproc).make_inputs(CANONICAL_SEED)[0]
            ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            ref[wl.name] = {"seed": CANONICAL_SEED,
                            "rows": wl.digest_rows(wl.run(item, RUN_DIR / "reference.csv"))}
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            return 0
        if args.trace == 0:
            metrics, detail, first, errors, reruns = untraced_run(wl, inputs, args.seconds)
        else:
            metrics, detail, first, errors, reruns = traced_run(wl, inputs, args.seed)
        fails = check_outputs(workloads, wl, inputs, first, errors,
                              "p0" if args.trace == 0 else "u")
        dig = digest(workloads, wl, nproc)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    # every execution of an item counts; a rerun fails if its result differs from the first
    attempted = len(inputs) * (1 + len(reruns))
    failed = len(fails) + sum(len(set(fails) | bad) for bad in reruns)
    if dig is not None:
        attempted += 1
        failed += 0 if dig["ok"] else 1
    if args.trace == 0:
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        detail["max_rss_kib"] = rss
        metrics["setup_s"] = (statistics.median(t[1] for t in probes), "s")
        detail["raw"]["setup_s"] = statistics.median(t[0] for t in probes)
    detail.update(environment=environment(args, wl, nproc), digest=dig,
                  failed_frac=failed / attempted,
                  mismatched_reruns=sum(len(bad) for bad in reruns),
                  failures={str(k): v[:3] for k, v in sorted(fails.items())[:5]})
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
