#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark and prints its result.

    python3 perfbench/run.py --workload read-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run builds perfbench/steady_bench
(and the library under src/) into .bench_build/perfbench; later runs rebuild
only what changed. steady_bench's human-readable report goes to stdout, and
the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 when every check passed,
1 when a check failed, and 2 when the benchmark could not run at all.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_build" / "run"
BINARY = BUILD / "steady_bench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no {path.name} at the checkout root")
    return json.loads(path.read_text())


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (ROOT / "src").is_dir():
        fail("no src/ directory: run from the root of a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    if not BINARY.is_file():
        fail(f"build produced no {BINARY.name}")


def run_bench(args):
    """Runs steady_bench; returns (report lines, raw result dict, exit code)."""
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"steady_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"steady_bench exited {done.returncode} without a result line")
    return lines[:-1], raw, done.returncode


def bench_args(workload, seed, seconds, trace, extra=()):
    spec = load_spec()
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "throughput_ops_s")
    return [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scratch", str(RUN_DIR), "--steady-bound", str(bound),
            *extra]


def result_line(spec, raw, trace):
    """The contract's result object: BENCHMARK.json's metrics, by name."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        got = raw[section].get(m["name"])
        if got is None:
            fail(f"steady_bench reported no metric {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    spec = load_spec()
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {opts.workload}")
    started = time.monotonic()
    build()
    print(f"perfbench: build ready in {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    lines, raw, code = run_bench(
        bench_args(opts.workload, opts.seed, opts.seconds, opts.trace))
    result = result_line(spec, raw, opts.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    if code not in (0, 1) or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
