#!/usr/bin/env python3
"""One command for the treesat serving benchmark.

    python3 perfbench/run.py --workload small_drift --seed 7 --seconds 10 --trace 0

Run from the repository root. It builds the library and the measuring
program (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR or .bench_build,
runs the program's self-tests, generates the workload's trace for the seed
in a separate process, and then runs the measuring process:

  --trace 0  timed, untraced replays -> the end-to-end metrics
  --trace 1  the traced pass         -> the per-layer metrics

The measuring process checks every answer. Its last stdout line, repeated
here as this script's last line, is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the build,
a self-test or any output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("small_drift", "large_drift", "spill_churn")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, **kwargs):
    """Runs cmd to completion, its output going to stderr unless captured."""
    kwargs.setdefault("stdout", sys.stderr)
    return subprocess.run(cmd, cwd=REPO, check=False, **kwargs)


def build(build_dir):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(REPO, needed)):
            fail(f"no {needed} beside perfbench/: this is not a treesat checkout")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", build_dir, "-j", jobs]).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(REPO, build_root, "perfbench")
    build(build_dir)
    program = os.path.join(build_dir, "perfbench")

    selftest = run([os.path.join(build_dir, "perfbench_selftest"),
                    os.path.join(build_dir, "selftest")])
    if selftest.returncode != 0:
        fail("self-tests failed")

    # A fresh run directory (trace, checkpoint, spill tier) per run.
    run_dir = os.path.join(build_dir, "run", args.workload)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", run_dir]
    try:
        if run([program, "gen", *common]).returncode != 0:
            fail("trace generation failed")
        mode = "traced" if args.trace else "run"
        measured = run([program, mode, *common, "--seconds", str(args.seconds)],
                       stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = measured.stdout.strip().splitlines()
    if not lines:
        fail("the measuring process printed nothing")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"the last output line is not a result: {lines[-1][:200]}")
    expected = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(expected):
        fail(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json's {sorted(expected)}")
    print(json.dumps(result, separators=(",", ":")))
    if measured.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
