#!/usr/bin/env python3
"""Builds the benchmark suite from this checkout's sources and runs one workload.

    python3 perfsuite/run.py --workload table1 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The suite builds through the repository's
top-level CMakeLists.txt into `perfsuite/` under $CARGO_TARGET_DIR (default
`.bench_build`); results (BENCH_suite_<workload>.json and, with --trace 1,
<workload>.trace.json) go to `results/` beside it. Build output goes to
stderr so the last line of stdout is the suite's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The deep-lowering strategy library the CLI tests use (tile, then lower to
# CFG form); tune_cfg dispatches to it.
STRATEGY_DIR = os.path.join(
    ROOT, "tests", "integration", "cli", "Inputs", "strategy_deep_pipeline")


def build(build_dir):
    """Configures (once) and builds the suite; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_suite",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(build_dir, "bench_suite")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target_dir)
    binary = build(os.path.join(build_root, "perfsuite"))
    if binary is None:
        print("error: cannot build the benchmark suite", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_root, "results")
    os.makedirs(out_dir, exist_ok=True)
    suite = subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--strategy-dir", STRATEGY_DIR, "--out", out_dir,
    ], stdout=subprocess.PIPE, text=True)
    lines = suite.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("error: the suite printed no result", file=sys.stderr)
        return suite.returncode or 1

    # The suite reports values; their names and units come from
    # BENCHMARK.json, so the two cannot drift apart silently.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = result["metrics"].get(metric["name"])
        if not isinstance(value, (int, float)):
            print(f"error: the suite did not measure {metric['name']}",
                  file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<30} {value:>16.6g} {metric['unit']}")
    failed = result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return suite.returncode if failed == 0 else (suite.returncode or 1)


if __name__ == "__main__":
    sys.exit(main())
