#!/usr/bin/env python3
# Copyright (c) hdc authors. Apache-2.0 license.
"""Records one trajectory point: every workload at the default seed, once
untraced (end-to-end metrics) and once traced (per-layer metrics).

    python3 perfbench/record.py <out.json> [--seconds N]

Run from the repository root; the file is meant for perfbench/trajectory/.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 2012


def run(workload, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(DEFAULT_SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().split("\n")[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("out")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    point = {"seed": DEFAULT_SEED, "run_seconds": seconds, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        point["workloads"][name] = {
            "end_to_end": run(name, seconds, 0),
            "per_layer": run(name, seconds, 1),
        }
        print("recorded " + name, file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(point, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
