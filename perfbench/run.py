#!/usr/bin/env python3
"""Benchmark of the LIFL simulator: builds it from source, runs one workload,
checks its outputs and prints every metric by name and unit.

    python3 perfbench/run.py --workload fold-real --seed 1 --seconds 55 --trace 0

Run from the root of the repository. `--trace 0` reports the end-to-end
metrics of untraced runs; `--trace 1` makes a separate traced run and reports
the per-layer metrics (spans are written under the build directory, see
perfbench/README.md). The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when the build succeeded and every check passed.
`--write-manifest` regenerates BENCHMARK.json from the tables below.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")

RUN_SECONDS = 55
SETUP_SAMPLES = 5  # set-up is repeated this often per run; median reported
CHILD_TIMEOUT_S = 170

# `planned-1m` runs on request but is left out of BENCHMARK.json: on a shared
# host its run medians spread beyond any allowed bound (see README.md).
UNLISTED = {"planned-1m"}

WORKLOADS = [
    ("planned-1m",
     "1M mobile clients, planned streaming hierarchy, 1 shard: sim core, "
     "dataplane cost pipeline, shm leases, planner; no barriers or folds"),
    ("async-edge-4shard",
     "async stream on 4 adaptive shards over tiered flaky clients with "
     "scored selection and stragglers: barriers, lifecycle, selection"),
    ("fold-real",
     "two-level tree folding real 256K-float tensors (16 MB working set): "
     "fold kernels, TensorPool and shm; planner and barriers idle"),
]

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("sim_round_s", "sim_s", "lower", 0.1),
]

# name, unit, better
PER_LAYER = [
    ("sim.events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.core_ns_per_event", "ns", "lower"),
    ("sim.windows", "count", "lower"),
    ("sim.windows_skipped", "count", "higher"),
    ("sim.cross_posts", "count", "lower"),
    ("sim.barrier_idle_s", "s", "lower"),
    ("sim.sys_cpu_s", "s", "lower"),
    ("systems.spawned", "count", "lower"),
    ("systems.reused", "count", "higher"),
    ("systems.replans", "count", "lower"),
    ("systems.leaf_drains", "count", "lower"),
    ("control.replan_ns", "ns", "lower"),
    ("control.select_ns", "ns", "lower"),
    ("workload.arrival_ns", "ns", "lower"),
    ("dataplane.upload_ns", "ns", "lower"),
    ("dataplane.chunks_sent", "count", "lower"),
    ("dataplane.chunks_resent", "count", "lower"),
    ("dataplane.disconnects", "count", "lower"),
    ("dataplane.resumed", "count", "lower"),
    ("heap.allocs_per_upload", "count", "lower"),
    ("heap.bytes_per_upload", "B", "lower"),
    ("shm.put_get_release_ns", "ns", "lower"),
    ("shm.puts", "count", "lower"),
    ("shm.recycled", "count", "higher"),
    ("shm.peak_mb", "MB", "lower"),
    ("fl.fold_gbps", "GB/s", "higher"),
    ("ml.tensor_allocs", "count", "lower"),
    ("ml.tensor_pool_hits", "count", "higher"),
    ("bench.unattributed_frac", "frac", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS
                      if n not in UNLISTED],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def build():
    """Configure (once) and build both benchmark binaries; False on failure."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_child(argv):
    """Run a benchmark binary; its last stdout line as JSON, or None."""
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(argv)}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def timed_run(binary, args):
    """End-to-end metrics from untraced runs."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_SAMPLES):
        r = run_child([str(binary), "setup", *common,
                       "--t0-ns", str(time.monotonic_ns())])
        if r is None:
            return None
        setups.append(r["setup_s"])
    r = run_child([str(binary), "timed", *common,
                   "--seconds", str(args.seconds),
                   "--t0-ns", str(time.monotonic_ns())])
    if r is None:
        return None
    setups.append(r["setup_s"])
    log(f"{args.workload}: {r['reps']} reps, digest {r['digest']}"
        + (f", error: {r['error']}" if r["error"] else ""))
    values = {
        "wall_s": r["wall_s"],
        "cpu_s": r["cpu_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "sim_round_s": r["sim_round_s"],
    }
    return r, {n: {"value": values[n], "unit": u}
               for n, u, _, _ in END_TO_END}


def traced_run(args):
    """Per-layer metrics from a separate traced run, against an untraced
    reference of the same seed made in this run."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    share = max(1.0, args.seconds / 3.0)
    ref = run_child([str(BUILD_DIR / "perfbench"), "timed", *common,
                     "--seconds", str(share), "--min-reps", "1"])
    if ref is None:
        return None
    spans_dir = BUILD_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
    r = run_child([str(BUILD_DIR / "perfbench_traced"), *common,
                   "--seconds", str(share),
                   "--untraced-wall-s", repr(ref["wall_s"]),
                   "--untraced-digest", ref["digest"],
                   "--spans", str(spans)])
    if r is None:
        return None
    log(f"{args.workload}: traced {r['reps']} reps, digest {r['digest']} "
        f"(untraced {ref['digest']}), spans in {spans}"
        + (f", error: {r['error']}" if r["error"] else ""))
    if not ref["correct"]:
        r["correct"] = False
        r["failed"] = r["attempted"]
    return r, {n: {"value": r["metrics"][n], "unit": u}
               for n, u, _ in PER_LAYER}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-manifest", action="store_true",
                   help="write BENCHMARK.json at the repository root and exit")
    args = p.parse_args()

    if args.write_manifest:
        text = json.dumps(manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if not build():
        log("build failed")
        return 1
    out = traced_run(args) if args.trace else timed_run(
        BUILD_DIR / "perfbench", args)
    if out is None:
        log("a benchmark process failed without a result")
        return 1
    r, metrics = out
    print(json.dumps({
        "correct": bool(r["correct"]),
        "attempted": int(r["attempted"]),
        "failed": int(r["failed"]),
        "metrics": metrics,
    }))
    return 0 if r["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
