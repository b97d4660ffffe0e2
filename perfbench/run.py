#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload sweep|scan|serve|all --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and compiles
perfbench/ (which pulls in the library modules under src/) into
.bench_build/perfbench; later calls reuse that build. The benchmark binary
runs the named workload in one process and prints a readable record; the
last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end set of BENCHMARK.json,
measured untraced; with --trace 1 they are the per_layer set, from a
traced run whose spans are written to .bench_build/perfbench/traces/.
A per-layer metric that a workload does not exercise reads 0.
--workload all runs the three workloads one after another and ends with
one line that sums their checks and prefixes each metric with its
workload.
perfbench/layers.json maps every per-layer metric to the end-to-end
metric and workload it should move.

Exit status: 0 when the workload ran (correctness shows in "correct"),
2 on bad arguments or when the sources cannot be built, 1 when the
benchmark binary failed or timed out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sweep", "scan", "serve")
# Every run must end within 180 s; leave room for start-up and output.
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no library sources at src/ next to perfbench/; run from a "
            "full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            die("configuring perfbench failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        die("building perfbench failed")
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, args, expected):
    """Runs one workload; prints its record and returns its result."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        die("benchmark binary exited with %d" % proc.returncode, 1)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(expected))
    if unknown:
        die("metrics missing from BENCHMARK.json: " + ", ".join(unknown), 1)
    missing = sorted(set(expected) - set(metrics))
    if missing and not args.trace:
        die("end-to-end metrics not reported: " + ", ".join(missing), 1)
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    for name, metric in metrics.items():
        if metric["unit"] != expected[name]:
            die("unit of %s is %s, BENCHMARK.json says %s"
                % (name, metric["unit"], expected[name]), 1)
    result["metrics"] = dict(sorted(metrics.items()))
    print("\n".join(lines[:-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        die("--seed must be >= 0 and --seconds in [1, 3600]")

    binary = build()
    expected = expected_metrics(args.trace == 1)
    if args.workload != "all":
        result = run_workload(binary, args.workload, args, expected)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            one = run_workload(binary, workload, args, expected)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for name, metric in one["metrics"].items():
                result["metrics"][workload + "." + name] = metric
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
