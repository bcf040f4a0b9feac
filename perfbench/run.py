"""Benchmark of the sabmis hide/recover path.

    python3 perfbench/run.py --workload embed-1024x4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One run builds the workload's inputs from the seed (untimed, in a helper
process), measures set-up in fresh processes, then runs operations in a closed
loop, one after another, for --seconds (and at least two operations) and gates
every output. --trace 0 reports the end-to-end metrics, with times at reference
machine speed (see speed.py); --trace 1 alternates untraced and traced
operations and reports the per-layer metrics. `--workload all` runs every
workload in both modes. Each metric is printed by name with its unit; the last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("embed-1024x4", "extract-1024x4", "sweep-256", "compare-1024")
SETUP_PROCESSES = 7
FIXTURE_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 60
PROBE_WINDOW_FRAC = 0.02  # probe for this share of the previous operation's time
MIN_OPS = 2  # least untraced operations per run, however long one takes

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("op_s", "s"), ("op_tail_s", "s"), ("cover_mpix_per_s", "Mpix/s"),
    ("peak_rss_mb", "MB"), ("ok_frac", "ratio"), ("stego_psnr_db", "dB"),
    ("stego_mssim", "ratio"), ("secret_psnr_db", "dB"), ("secret_ncc", "ratio"))
LAYERS = ("raster", "spectral", "measure", "solver", "codec", "metrics", "synth", "cli")
FUNCTIONS = {  # traced function -> its per-op figures besides self time
    "solver.solve_lasso": ("calls",), "solver.soft_threshold": (),
    "solver.default_lambda": (), "solver.prepare": ("calls",),
    "measure.gen_matrix": ("calls",), "measure.keyed_normals": (), "measure.measure": ("calls",),
    "spectral.sparsify": ("calls",), "spectral.desparsify": ("calls",),
    "spectral.partition_blocks": (), "spectral.assemble_blocks": (),
    "codec.embed_rule": (), "codec.extract_rule": (), "codec.reconstruct_block": (),
    "codec.secret_to_coeffs": (), "codec.coeffs_to_raster": (),
    "metrics.compare": (), "metrics.mssim": (), "metrics.psnr": (),
    "raster.read_pgm": (), "raster.write_srf": (), "raster.read_srf": (),
    "raster.quantize_u8": (), "raster.subsample": ()}


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for fn, extra in FUNCTIONS.items():
        units[f"{fn}.self_s"] = "s"
        units.update({f"{fn}.{e}": "count" for e in extra})
    units.update({"solver.iterations_mean": "count", "solver.iterations_max": "count",
                  "solver.unconverged": "count", "solver.converged_frac": "ratio",
                  "trace.overhead_frac": "ratio", "trace.op_s": "s", "trace.spans": "count",
                  "setup.import_s": "s", "setup.raster.self_s": "s",
                  "setup.measure.self_s": "s"})
    return units


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it, never
    below the median: with 20 samples or fewer that is the median itself."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50


def time_setup(workload: str, work: Path) -> float:
    """Wall seconds from starting a fresh process to its set-up being done."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", workload, str(work)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rc = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process failed with exit code {rc}")
    return elapsed


def build_fixture(workload: str, seed: int, work: Path, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "fixture", workload, str(seed),
           str(work), "1" if trace else "0"]
    subprocess.run(cmd, check=True, timeout=FIXTURE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return json.loads((work / "fixture.json").read_text(encoding="utf-8"))


def run_ops(wl, state: dict, seconds: float, seen, probe=None, tracer=None):
    """Closed loop until `seconds` have passed and MIN_OPS operations ran.
    With a speed probe, each operation is bracketed by two probe readings.
    With a tracer, operations alternate untraced and traced until each kind
    ran at least once, so drift in machine speed hits both alike.
    Returns (untraced, traced, failed count, peak RSS in MB after the first
    operation and before any gate); each list holds (wall seconds, probe
    before, probe after) per operation."""
    untraced, traced, failed, rss_mb = [], [], 0, 0.0
    window = 0.1  # until the first operation shows how long one takes
    begin = time.perf_counter()
    while (time.perf_counter() - begin < seconds
           or (not (untraced and traced) if tracer else len(untraced) < MIN_OPS)):
        is_traced = tracer is not None and len(untraced) > len(traced)
        before = probe(window) if probe else 0.0
        if is_traced:
            tracer.op = len(traced)
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = wl.op(state)
            error = None
        except Exception:  # an operation that raises is counted, not fatal
            out, error = None, traceback.format_exc(limit=3)
        finally:
            elapsed = time.perf_counter() - t0
            if is_traced:
                tracer.uninstall()
        if not rss_mb:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        window = PROBE_WINDOW_FRAC * elapsed
        after = probe(window) if probe else 0.0
        (traced if is_traced else untraced).append((elapsed, before, after))
        if error is None:
            try:
                failures = wl.check(state, out, seen)
            except Exception:
                failures = ["gate raised: " + traceback.format_exc(limit=3)]
        else:
            failures = ["operation raised: " + error]
        if failures:
            failed += 1
            print(f"# op {len(untraced) + len(traced)} failed: " + "; ".join(failures),
                  file=sys.stderr)
    return untraced, traced, failed, rss_mb


def solver_figures(sub_images: list[dict], ops: int) -> dict:
    blocks = sum(s["blocks"] for s in sub_images)
    unconverged = sum(s["unconverged"] for s in sub_images)
    if not blocks:
        return {"solver.iterations_mean": 0.0, "solver.iterations_max": 0,
                "solver.unconverged": 0.0, "solver.converged_frac": 0.0}
    return {"solver.iterations_mean":
                sum(s["iterations_mean"] * s["blocks"] for s in sub_images) / blocks,
            "solver.iterations_max": max(s["iterations_max"] for s in sub_images),
            "solver.unconverged": unconverged / ops,
            "solver.converged_frac": 1.0 - unconverged / blocks}


def end_to_end_metrics(wl, setup_samples, untraced, failed, rss_mb, seen, detail) -> dict:
    import speed
    ops = [speed.at_reference_speed(*t) for t in untraced]
    pct = tail_percentile(len(ops))
    readings = [r for t in setup_samples + untraced for r in t[1:]]
    detail.update(tail_percentile=pct, solver=solver_figures(seen.sub_images, len(untraced)),
                  setup_wall_s=statistics.median(t[0] for t in setup_samples),
                  op_wall_s=statistics.median(t[0] for t in untraced),
                  machine_speed=speed.REFERENCE_S / statistics.median(readings))
    m = {"setup_s": statistics.median(speed.at_reference_speed(*t) for t in setup_samples),
         "op_s": statistics.median(ops),
         "op_tail_s": percentile(ops, pct),
         "cover_mpix_per_s": wl.cover_mpix * len(ops) / sum(ops),
         "peak_rss_mb": rss_mb,
         "ok_frac": (len(untraced) - failed) / len(untraced)}
    # 0 stands for "no output was seen", which only happens when every operation failed
    m.update({k: v if math.isfinite(v) else 0.0 for k, v in seen.low.items()})
    return m


def per_layer_metrics(op_tracer, setup_tracer, untraced, traced, import_s, seen,
                      fixture) -> dict:
    import tracer as tracing
    n = len(traced)
    summary = op_tracer.summary()
    by_layer = tracing.layer_self_seconds(summary)
    m = {f"{layer}.self_s": by_layer.get(layer, 0.0) / n for layer in LAYERS}
    m["synth.self_s"] = fixture["synth_self_s"]
    for fn, extra in FUNCTIONS.items():
        rec = summary.get(fn, {"self_s": 0.0, "calls": 0})
        m[f"{fn}.self_s"] = rec["self_s"] / n
        m.update({f"{fn}.{e}": rec[e] / n for e in extra})
    m.update(solver_figures(seen.sub_images, len(untraced) + n))
    m["trace.op_s"] = statistics.median(t[0] for t in traced)
    m["trace.overhead_frac"] = m["trace.op_s"] / statistics.median(t[0] for t in untraced) - 1.0
    m["trace.spans"] = len(op_tracer.spans) / n
    setup_layers = tracing.layer_self_seconds(setup_tracer.summary())
    m["setup.import_s"] = import_s
    m["setup.raster.self_s"] = setup_layers.get("raster", 0.0)
    m["setup.measure.self_s"] = setup_layers.get("measure", 0.0)
    return m


def run_one(workload: str, seed: int, seconds: int, trace: bool, results: Path) -> dict:
    work = results / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        fixture = build_fixture(workload, seed, work, trace)

        t0 = time.perf_counter()
        checkout.use_checkout_source()
        import tracer as tracing
        import workloads
        import_s = time.perf_counter() - t0
        import speed
        wl = workloads.WORKLOADS[workload]

        probe, setup_samples = None, []
        if not trace:
            probe = speed.SpeedProbe()
            for _ in range(SETUP_PROCESSES):
                before = probe()
                setup_samples.append((time_setup(workload, work), before, probe()))

        setup_tracer = tracing.Tracer()
        if trace:
            with setup_tracer.installed():
                state = wl.load(work)
        else:
            state = wl.load(work)
        seen = workloads.Observed()
        op_tracer = tracing.Tracer() if trace else None
        untraced, traced, failed, rss_mb = run_ops(wl, state, seconds, seen, probe, op_tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(untraced) + len(traced)
    detail = {"ops_untraced": untraced, "ops_traced": traced, "fixture": fixture,
              "setup_samples": setup_samples}
    if trace:
        m = per_layer_metrics(op_tracer, setup_tracer, untraced, traced, import_s, seen, fixture)
        op_tracer.write_spans(results / f"{workload}-spans.jsonl")
        units = per_layer_units()
    else:
        m = end_to_end_metrics(wl, setup_samples, untraced, failed, rss_mb, seen, detail)
        units = dict(END_TO_END)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": m[k], "unit": u} for k, u in units.items()}}
    env = checkout.environment()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "result": result, "detail": detail}
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("# env " + json.dumps(env))
    print(f"# ops attempted={attempted} failed={failed} failed_frac={failed / attempted:g}")
    if not trace:
        print(f"# times are at reference machine speed (this run: "
              f"{detail['machine_speed']:.3f}x reference); wall medians: "
              f"setup {detail['setup_wall_s']:.6g} s, op {detail['op_wall_s']:.6g} s")
        print(f"# setup_s is the median of {len(setup_samples)} fresh processes; "
              f"op_tail_s is p{detail['tail_percentile']} of {len(untraced)} ops")
    for name, rec in result["metrics"].items():
        print(f"{name:<34} {rec['value']:>14.6g} {rec['unit']}")
    return result


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"# {workload} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=int, default=10, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (checkout.PACKAGE_DIR / "__init__.py").is_file():
        print(f"perfbench: no sabmis sources at {checkout.PACKAGE_DIR}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    results = checkout.ROOT / ".bench_build" / "perfbench"
    results.mkdir(parents=True, exist_ok=True)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), results)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.environ.update(checkout.BLAS_THREADS)  # before anything imports numpy
    sys.exit(main())
