#!/usr/bin/env python3
"""Self-test of the benchmark: every metric is emitted, every oracle bites.

    python3 perfbench/selftest.py

Builds steady_bench like run.py does, then
  * runs each workload at a tiny size (--scale tiny, 1 s) untraced and
    traced, and checks that the run passes its checks and emits every
    metric BENCHMARK.json names plus the end-to-end metrics the report
    prints beside them;
  * runs steady_bench's oracle self-test, which feeds each result oracle a
    true input (it must accept) and a deliberately corrupted one (it must
    reject): a miscounted insert, an uncounted remove, an extra and a
    missing tuple in the follower's scan, an altered recovered tuple, and
    a read row outside its band.
Exits 0 when everything holds, 1 otherwise.
"""

import subprocess
import sys

import run

# Printed by every untraced run beside BENCHMARK.json's end_to_end list;
# the ones a workload does not drive are reported with "applies": false.
REPORTED_END_TO_END = [
    "throughput_ops_s", "read_p50_us", "read_p99_us", "write_p50_us",
    "write_p99_us", "txn_p50_us", "txn_p99_us", "failed_ops_frac",
    "setup_s", "rss_bytes_per_tuple", "op_p50_us", "op_p99_us",
    "throughput_mean_ops_s", "stalled_tick_frac", "host_steal_frac",
    "throughput_first_third_ops_s", "throughput_last_third_ops_s",
]


def check_run(spec, workload, trace):
    problems = []
    _, raw, code = run.run_bench(run.bench_args(
        workload, 1, 1, trace, extra=("--scale", "tiny")))
    section = "per_layer" if trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    if not trace:
        wanted += [n for n in REPORTED_END_TO_END if n not in wanted]
    for name in wanted:
        if name not in raw[section]:
            problems.append(f"missing metric {name}")
    if code != 0 or not raw["correct"] or raw["failed"] != 0:
        failed = [n for n, c in raw["checks"].items() if not c["ok"]]
        problems.append(f"run not correct (exit {code}, failed checks "
                        f"{failed}, {raw['failed']} failed ops)")
    return problems


def main():
    spec = run.load_spec()
    run.build()
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, w["name"], trace)
            bad += bool(problems)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{w['name']:16} trace {trace}: {status}")
    run.RUN_DIR.mkdir(parents=True, exist_ok=True)
    done = subprocess.run([str(run.BINARY), "--oracle-selftest",
                           "--scratch", str(run.RUN_DIR)])
    bad += done.returncode != 0
    print("selftest", "passed" if not bad else "FAILED")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
