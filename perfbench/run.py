#!/usr/bin/env python3
"""End-to-end benchmark entry point for geored.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library from ./src) into .bench_build/perfbench, runs the geored_e2e runner,
and prints its report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics named in BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). Run it from the repository root:

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 1
    python3 perfbench/run.py --selfcheck      # tiny rounds at pool sizes 1 and 2
    python3 perfbench/run.py --test           # the benchmark's own helper tests

Exit codes: 0 success; 1 a correctness check failed (the result line says
correct: false); 2 bad usage or sources missing; 3 build failure; 4 the
runner crashed, or a workload BENCHMARK.json lists did not report a metric
it names.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = Path(".bench_build") / "perfbench"
OUT_DIR = Path(".bench_build") / "perfbench-out"
RUNNER_TIMEOUT_S = 170  # per workload


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark package; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, "geored sources (src/) not found next to perfbench/; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (ROOT / BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(3, "build failed: " + " ".join(step))


def commit():
    """The checkout's commit when it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GEORED_COMMIT", "unknown")


def run(command, workloads):
    timeout = RUNNER_TIMEOUT_S * workloads
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(4, f"geored_e2e exceeded {timeout} s")
    sys.stderr.write(done.stderr)
    return done


def select(results, section, names, listed):
    """The BENCHMARK.json metrics of one result section, in file order.

    A listed workload reports every listed metric (a layer it never calls
    reports 0), so a missing name means the runner is broken. A workload
    BENCHMARK.json does not list reports the listed metrics it has.
    """
    metrics = {}
    for name in names:
        metric = results[section].get(name)
        if metric is None:
            if listed:
                fail(4, f"workload {results['workload']} did not report {section} metric {name}")
            continue
        metrics[name] = {"value": metric["value"], "unit": metric["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    build()
    binary = str(BUILD_DIR / "geored_e2e")
    if args.test:
        sys.exit(subprocess.run([str(BUILD_DIR / "perfbench_helper_tests")], cwd=ROOT).returncode)
    if args.selfcheck:
        sys.exit(subprocess.run([binary, "--selfcheck"], cwd=ROOT).returncode)
    if not args.workload:
        fail(2, "--workload is required")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(2, "BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in spec[section]]

    done = run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--out-dir", str(OUT_DIR),
                "--commit", commit()], 4 if args.workload == "all" else 1)
    results = []
    for line in done.stdout.splitlines():
        print(line)
        if line.startswith("RESULT "):
            results.append(json.loads(line[len("RESULT "):]))
    if done.returncode not in (0, 1) or not results:
        fail(4, f"geored_e2e exited with code {done.returncode}")

    correct = done.returncode == 0 and all(r["correct"] for r in results)
    if len(results) == 1:
        listed = any(w["name"] == args.workload for w in spec["workloads"])
        metrics = select(results[0], section, names, listed)
    else:
        # --workload all: every workload's metrics, prefixed with its name.
        metrics = {}
        for result in results:
            for name, metric in result[section].items():
                metrics[f"{result['workload']}.{name}"] = {"value": metric["value"],
                                                           "unit": metric["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
