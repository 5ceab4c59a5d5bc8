#!/usr/bin/env python3
# Copyright (c) hdc authors. Apache-2.0 license.
"""Builds and runs the whole-crawl benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark (Release)
into .bench_build/; later calls only rebuild what changed. Every call runs the
benchmark's statistics test first. The benchmark's last stdout line is its
JSON result; this script checks that line against BENCHMARK.json and exits
non-zero when the build, the test, a crawl's verification or that check fails.
--selftest builds, runs the statistics test, and checks that the metric names
and units the benchmark knows are exactly those BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "perfbench-work")
BINARY = os.path.join(BUILD, "perfbench")
STATS_TEST = os.path.join(BUILD, "perfbench_stats_test")
TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quietly(command):
    """Runs a build step with its output on stderr; fails on a non-zero exit."""
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        fail("command failed: " + " ".join(command))


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quietly(["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_quietly(["cmake", "--build", BUILD, "-j", "4", "--target",
                 "perfbench", "perfbench_stats_test"])
    run_quietly([STATS_TEST])


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def selftest():
    end_to_end, per_layer = declared_metrics()
    listed = subprocess.run([BINARY, "--list-metrics"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.split("\n")
    known = {"end_to_end": {}, "per_layer": {}}
    for line in filter(None, listed):
        mode, name, unit = line.split()
        known[mode][name] = unit
    # crawl_fail_ratio is reported as failed / attempted, not as a metric.
    known["end_to_end"].pop("crawl_fail_ratio")
    if known["end_to_end"] != end_to_end:
        fail("end_to_end metrics differ from BENCHMARK.json: %s vs %s"
             % (known["end_to_end"], end_to_end))
    if known["per_layer"] != per_layer:
        fail("per_layer metrics differ from BENCHMARK.json: %s vs %s"
             % (known["per_layer"], per_layer))
    with open(os.path.join(SOURCE, "layers.json")) as f:
        mapped = {m for layer in json.load(f)["layers"]
                  for m in layer["metrics"]}
    if mapped != set(per_layer):
        fail("layers.json does not map exactly the per_layer metrics")
    print("perfbench selftest: metric tables agree with BENCHMARK.json")


def check_result(line, trace):
    """Fails unless `line` is a result with exactly the declared metrics."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    end_to_end, per_layer = declared_metrics()
    expected = per_layer if trace else end_to_end
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("result metrics differ from BENCHMARK.json")


def main(argv):
    build()
    if argv == ["--selftest"]:
        selftest()
        return 0
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    process = subprocess.Popen([BINARY] + argv + ["--work-dir", WORK],
                               cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail("benchmark did not finish within %d s" % TIMEOUT_S)
    sys.stdout.write(output)
    sys.stdout.flush()
    if process.returncode != 0:
        return process.returncode
    lines = output.strip().split("\n")
    check_result(lines[-1], trace)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
