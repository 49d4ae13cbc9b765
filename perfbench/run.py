#!/usr/bin/env python3
"""rqvqa benchmark: one workload, one process, closed loop with one caller.

    python3 perfbench/run.py --workload toy-corpus --seed 1 --seconds 15 \
        --trace 0

Run from the repository root. The program is imported from `src/`. The run
generates its inputs from --seed (set-up, repeated the workload's fixed
number of times), then makes a fixed number of timed passes: --seconds over
the workload's nominal pass time. --trace 0 reports the end-to-end metrics
of BENCHMARK.json; --trace 1 follows each untraced pass with a traced one
and reports the per-layer metrics, writing every span to .perfbench-out/.
Every metric, gated or not, is also printed by name with its unit; the last
stdout line is the JSON result.

Workloads, metrics and their reasons are described in perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the BLAS pool size is fixed per process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "rqvqa" / "__init__.py").is_file():
    sys.exit(f"error: no rqvqa sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import make_workloads  # noqa: E402

MIN_PASSES = 2
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

# Every end-to-end metric of the design, with its unit. BENCHMARK.json gates
# those every workload has. A stage metric is 0 on a workload without that
# stage, so it is only printed here, and reported under --trace 1 (from the
# untraced passes) with the per-layer metrics, under the name of the layer
# entry point it times.
E2E_UNITS = {"setup_s": "s", "setup_s_median": "s", "total_s": "s",
             "total_s_fastest_pass": "s", "total_s_median": "s",
             "load_videos_per_s": "1/s", "train_samples_per_s": "1/s",
             "predict_ms_p50": "ms", "predict_ms_p90": "ms",
             "predict_samples": "count",
             "eval_rows_per_s": "1/s", "srcc": "1", "plcc_4pl": "1",
             "peak_rss_mb": "MB", "error_rate": "1", "passes": "count",
             "setups": "count"}
STAGE_LAYER_NAMES = {"load_videos_per_s": "harness.load_bundles.videos_per_s",
                     "train_samples_per_s": "fusion.train.samples_per_s",
                     "predict_ms_p50": "harness.predict_scores.ms_p50",
                     "predict_ms_p90": "harness.predict_scores.ms_p90",
                     "eval_rows_per_s": "eval.rows_per_s"}


def blas_info() -> dict:
    """Name of the BLAS numpy links and its pinned thread count."""
    info = {"pinned_threads": BLAS_THREADS}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{deps['name']} {deps['version']}"
    except (KeyError, TypeError):
        info["name"] = "unknown"
    return info


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args, workload) -> dict:
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "loop": "closed, 1 client", "sizes": workload.sizes()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, int(np.ceil(q / 100.0 * len(ordered))) - 1)]


def run_passes(workload, inputs, seed, reference, n_passes, tracer=None):
    """Make n_passes untraced passes, each followed (with a tracer) by a
    traced one.

    Returns both pass lists and the number of passes that raised; the first
    one that raises ends the loop.
    """
    untraced, traced = [], []
    for _ in range(n_passes):
        try:
            untraced.append(workload.run_pass(inputs, seed, reference))
            if tracer is not None:
                tracer.run_id = f"pass{len(traced)}"
                tracer.install()
                try:
                    traced.append(workload.run_pass(inputs, seed, reference))
                finally:
                    tracer.uninstall()
        except Exception:
            traceback.print_exc()
            return untraced, traced, 1
    return untraced, traced, 0


def fastest_units_s(units) -> float:
    """A repeat at the best speed seen: each timed unit's fastest time
    across repeats, summed. Short units (a video generated, a chunk of
    videos loaded, one video predicted) catch the fast stretches of a
    shared machine that a whole multi-second repeat rarely fits in."""
    return float(np.sum(np.min(units, axis=0)))


def stage_metrics(passes) -> dict:
    """Every end-to-end metric named by the benchmark's design, medians over
    passes; 0 where a workload has no such stage."""
    def med(key, numerator=None):
        vals = [(p.stages[numerator] / p.stages[key] if numerator
                 else p.stages[key]) for p in passes if key in p.stages]
        return statistics.median(vals) if vals else 0.0

    latencies = [x for p in passes for x in p.latencies_ms]
    return {
        "total_s": fastest_units_s([p.units for p in passes]),
        "total_s_fastest_pass": min(p.total_s for p in passes),
        "total_s_median": statistics.median(p.total_s for p in passes),
        "load_videos_per_s": med("load_s", "loaded_videos"),
        "train_samples_per_s": med("train_s", "train_samples"),
        "predict_ms_p50": percentile(latencies, 50) if latencies else 0.0,
        "predict_ms_p90": percentile(latencies, 90) if latencies else 0.0,
        "predict_samples": len(latencies),
        "eval_rows_per_s": med("eval_s", "eval_rows"),
        "srcc": statistics.median(p.srcc for p in passes),
        "plcc_4pl": statistics.median(p.plcc_4pl for p in passes),
    }


def main(argv=None) -> int:
    workloads = make_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads[args.workload]
    env = environment(args, workload)

    tracer = Tracer() if args.trace else None
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    n_passes = max(MIN_PASSES, round(args.seconds / workload.pass_s))
    try:
        setup_units, setup_times = [], []
        for i in range(workload.setups):
            inputs = work / f"setup{i}"
            if tracer is not None:
                tracer.run_id = f"setup{i}"
                tracer.install()
            try:
                start = time.perf_counter()
                setup_units.append(workload.setup(inputs, args.seed))
                setup_times.append(time.perf_counter() - start)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if i:
                shutil.rmtree(work / f"setup{i - 1}")
        reference = workload.reference(inputs)
        untraced, traced, raised = run_passes(
            workload, inputs, args.seed, reference, n_passes, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not untraced or (tracer is not None and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    passes = untraced + traced
    checks = [ok for p in passes for _, ok in p.checks]
    failed_checks = sorted({name for p in passes for name, ok in p.checks
                            if not ok})
    attempted = sum(p.ops for p in passes) + len(checks) + raised
    failed = checks.count(False) + raised

    e2e = stage_metrics(untraced)
    e2e["setup_s"] = fastest_units_s(setup_units)
    e2e["setup_s_median"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    e2e["error_rate"] = failed / attempted
    e2e["passes"] = len(untraced)
    e2e["setups"] = len(setup_times)
    if tracer is not None:
        sizes = workload.sizes()
        metrics = layer_metrics(tracer, len(setup_times), len(traced),
                                sizes.get("videos", 1), sizes.get("sources", 0))
        traced_total = fastest_units_s([p.units for p in traced])
        metrics["trace.overhead_s"] = traced_total - e2e["total_s"]
        for key, name in STAGE_LAYER_NAMES.items():
            metrics[name] = e2e[key]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl",
                     {"env": env, "setups": len(setup_times),
                      "passes": len(traced)})
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]

    for key, value in e2e.items():
        print(f"{args.workload} {key} = {value:.6g} {E2E_UNITS[key]}")
    if tracer is not None:
        for m in spec["per_layer"]:
            print(f"{args.workload} {m['name']} = {metrics[m['name']]:.6g} "
                  f"{m['unit']}")
    print("setup_s " + " ".join(f"{t:.4f}" for t in setup_times))
    print("pass total_s " + " ".join(f"{p.total_s:.4f}" for p in untraced))
    print("env " + json.dumps(env, sort_keys=True))
    if failed_checks:
        print("failed checks: " + ", ".join(failed_checks))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
