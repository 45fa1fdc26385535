#!/usr/bin/env python3
"""Builds and runs the hwprune3d benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick       # self-test, then every workload briefly
    python3 perfbench/run.py --selftest    # the checks against corrupted results

The benchmark builds the repository's libraries from ../src with the
repository's default Release settings into .bench_build/perfbench at the
root of the checkout, then runs hwp_bench. Its last line of output is one
JSON object: correct, attempted, failed, and the metrics BENCHMARK.json
lists — the end-to-end ones with --trace 0, the per-layer ones with
--trace 1. A traced run also writes a Chrome trace to .bench_build/traces/.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources at " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(args):
    """Runs hwp_bench; returns its result object, relaying its report."""
    cmd = [os.path.join(BUILD, "hwp_bench")] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(args)))
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("hwp_bench exited with %d" % proc.returncode)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("hwp_bench printed no result line")


def result_line(result, names):
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    })


def selftest():
    if subprocess.run([os.path.join(BUILD, "hwp_bench_selftest")]).returncode:
        fail("self-test failed")


def quick(spec):
    selftest()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for w in spec["workloads"]:
        result = run_bench(["--workload", w["name"], "--seed", "1",
                            "--seconds", "1", "--trace", "1", "--quick"])
        print(result_line(result, names))
        if not result["correct"] or result["failed"]:
            fail("quick run of %s failed its checks" % w["name"])
    print("quick: every workload ran and passed its checks")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    spec = load_spec()
    if args.selftest:
        selftest()
        return
    if args.quick:
        quick(spec)
        return
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("--workload must be one of " + ", ".join(workloads))
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        bench_args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    result = run_bench(bench_args)
    category = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(result_line(result, [m["name"] for m in category]), flush=True)


if __name__ == "__main__":
    main()
