"""Benchmark entry point.

    python3 perfbench/run.py --workload sim-steady --seed 1 --seconds 10 --trace 0

Runs one workload, prints every metric it measures with its unit, checks
the outputs, and prints one JSON line last: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  Exits 1 if any check fails and 2 if the program under
test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sim-steady", "sim-faults", "live-steady", "live-burst")


def _load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    return ([metric["name"] for metric in contract["end_to_end"]],
            [metric["name"] for metric in contract["per_layer"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: the program under test (src/repro) is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    end_to_end, per_layer = _load_contract()

    if args.workload.startswith("sim-"):
        from perfbench import simbed as bed
    else:
        from perfbench import livebed as bed
    if args.trace:
        report = bed.measure_layers(args.workload, args.seed, args.seconds)
        selected = per_layer
    else:
        report = bed.measure(args.workload, args.seed, args.seconds)
        selected = end_to_end
    return 0 if report.emit(selected) else 1


if __name__ == "__main__":
    sys.exit(main())
