#!/usr/bin/env python3
"""Compares two sets of benchmark reports metric by metric.

Usage:  python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the per-run report files a benchmark run writes to
.bench_build/results (<workload>-seed<N>-trace<0|1>.json). For every
workload and metric it prints the median of each side, the change, and,
for end-to-end metrics, whether the change exceeds the bound BENCHMARK.json
fixes. Reports measured on a different core count or build type are not
comparable: the script refuses them (exit 2).
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace*.json"))):
        with open(path) as f:
            report = json.load(f)
        runs.setdefault(report["provenance"]["workload"], []).append(report)
    return runs


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    provenance = {(r["provenance"]["nproc"], r["provenance"]["build_type"])
                  for side in (base, new) for runs in side.values()
                  for r in runs}
    if len(provenance) != 1:
        print(f"refused: reports differ in (nproc, build_type): "
              f"{sorted(provenance)}", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        specs = {m["name"]: m for m in json.load(f)["end_to_end"]}

    regressions = 0
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload} ({len(base[workload])} vs {len(new[workload])} runs)")
        values = {}
        for side, runs in (("base", base[workload]), ("new", new[workload])):
            for r in runs:
                if not r["result"]["correct"]:
                    continue
                for name, m in r["result"]["metrics"].items():
                    values.setdefault(name, {}).setdefault(side, []).append(
                        m["value"])
        for name, sides in sorted(values.items()):
            if "base" not in sides or "new" not in sides:
                continue
            b, n = statistics.median(sides["base"]), statistics.median(sides["new"])
            change = (n - b) / b if b else 0.0
            verdict = ""
            spec = specs.get(name)
            if spec is not None:
                worse = -change if spec["better"] == "higher" else change
                if worse > spec["bound"]:
                    verdict = "  REGRESSION"
                    regressions += 1
            print(f"  {name:40s} {b:14.6g} -> {n:14.6g} {change:+8.1%}{verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
