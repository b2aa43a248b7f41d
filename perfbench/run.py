#!/usr/bin/env python3
"""The repository benchmark: build from source, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (a CMake package that builds the stburst library through the
root CMakeLists.txt) into .bench_build/; later calls rebuild incrementally.
Build output goes to stderr. The benchmark's standard output is passed
through: its last line is the JSON result
{"correct", "attempted", "failed", "metrics"}. The full result, host
fingerprint included, and any span dump are written to .bench_build/out/
(perfbench/compare.py compares two results). Workloads and metrics are
described in perfbench/README.md and BENCHMARK.json.

--selftest builds and runs the tests of the benchmark's own code.

Exits nonzero, printing no result, when the library sources are not there.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ("feed_search", "feed_ingest", "batch_mine")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(targets):
    """Configures (once) and builds `targets`; False on any failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    command = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    sources = os.path.join(ROOT, "src", "stburst")
    if not os.path.isdir(sources) or not os.path.isfile(
            os.path.join(ROOT, "CMakeLists.txt")):
        return fail("library sources not found at " + sources +
                    "; run from a full checkout")

    if args.selftest:
        if not build(["perfbench_tests"]):
            return fail("build failed")
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]
                              ).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build(["perfbench"]):
        return fail("build failed")
    os.makedirs(OUT, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", OUT]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
