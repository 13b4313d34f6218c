#!/usr/bin/env python3
"""End-to-end benchmark of the Cinderella engine.

Builds the engine libraries and the benchmark program from this checkout
(perfbench/CMakeLists.txt), runs one workload, and prints its metrics as
the last line of standard output:

    python3 perfbench/run.py --workload dbpedia_ingest --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. Build outputs go to $CARGO_TARGET_DIR
(default .bench_build) and run data to .bench_data; both are git-ignored.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dbpedia_ingest", "dbpedia_serve", "tpch_scatter")
BUILD_JOBS = 3  # Below the 4 vCPUs of the reference host.
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    # Configure every time: CMake refuses a build directory whose cache was
    # made for another source tree, so a build directory shared between
    # checkouts fails loudly instead of compiling the other checkout.
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target",
              "cinderella_perfbench", "-j", str(BUILD_JOBS)]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path, 1)
    return os.path.join(build_dir, "cinderella_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Every engine knob is pinned in the program; an inherited CINDERELLA_*
    # variable could still reach one, so refuse to run.
    for name in sorted(os.environ):
        if name.startswith("CINDERELLA_"):
            fail("environment variable %s is set; unset it to run the "
                 "benchmark" % name)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found at %s: run from the root of a full "
             "checkout" % os.path.join(ROOT, "src"))
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)

    data_root = os.path.join(ROOT, ".bench_data")
    data_dir = os.path.join(data_root, "run-%d" % os.getpid())
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(data_dir, ignore_errors=True)
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S),
             1)
    # Keep the traced run's spans next to the run directories.
    spans = os.path.join(data_dir, "spans-%s.csv" % args.workload)
    if os.path.isfile(spans):
        shutil.move(spans, os.path.join(
            data_root, "spans-%s-seed%d.csv" % (args.workload, args.seed)))
    shutil.rmtree(data_dir, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        # The program prints its result line only on success.
        print("\n".join(lines))
        fail("%s exited with code %d" % (args.workload, done.returncode), 1)
    result = json.loads(lines[-1])
    names = expected_metrics(args.trace)
    if list(result["metrics"]) != names:
        fail("metrics %s do not match BENCHMARK.json %s"
             % (list(result["metrics"]), names), 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
