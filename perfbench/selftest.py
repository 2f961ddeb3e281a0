#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute).

Usage (from the repository root):  python3 perfbench/selftest.py

For every workload it runs perfbench/run.py untraced and traced at 5% data
scale for two seconds and checks that
  - the run exits 0 with a correct result whose metrics are exactly the
    end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json
    names, each once, with its unit and a finite value;
  - in the traced run's span dump, every span lies in its parent's
    statement, no span's self time and no statement's unattributed time is
    negative (so the engine spans nested under sql.execute sum to at most
    sql.execute);
and, on one workload, that a deliberately corrupted reply is caught: the
run reports correct=false with a failed operation.
Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = "2"
SCALE = "0.05"
# Rounding slack for span times printed with 17 significant digits.
TOLERANCE_US = 0.1

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL: {message}", flush=True)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
           "--trace", str(trace), "--scale", SCALE, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    check(result is not None,
          f"{workload} trace={trace}: no result (exit {proc.returncode}): "
          f"{proc.stderr[-400:]}")
    return result


def check_metrics(workload, trace, result, specs):
    metrics = result["metrics"]
    want = {spec["name"]: spec["unit"] for spec in specs}
    check(set(metrics) == set(want),
          f"{workload} trace={trace}: metric names differ: "
          f"missing {sorted(set(want) - set(metrics))}, "
          f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            continue
        check(got.get("unit") == unit,
              f"{workload}: {name} unit {got.get('unit')} != {unit}")
        value = got.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{workload}: {name} value {value} is not finite")


def check_spans(workload):
    path = os.path.join(ROOT, ".bench_build", "results",
                        f"{workload}-seed{SEED}-spans.json")
    with open(path) as f:
        dump = json.load(f)
    spans = {s["i"]: s for s in dump["spans"]}
    check(len(dump["stmts"]) > 0, f"{workload}: span dump has no statements")
    problems = []
    self_us = {i: s["dur_us"] for i, s in spans.items()}
    for s in spans.values():
        if s["parent"] < 0:
            continue
        parent = spans.get(s["parent"])
        if parent is None or parent["stmt"] != s["stmt"]:
            problems.append(f"span {s['i']} ({s['name']}) has a parent "
                            f"outside statement {s['stmt']}")
            continue
        self_us[s["parent"]] -= s["dur_us"]
    for i, us in self_us.items():
        if us < -TOLERANCE_US:
            problems.append(f"{spans[i]['name']} of statement "
                            f"{spans[i]['stmt']} has self time {us:.3f} us")
    for stmt in dump["stmts"]:
        if stmt["unattributed_us"] < -TOLERANCE_US:
            problems.append(f"statement {stmt['id']} has unattributed time "
                            f"{stmt['unattributed_us']:.3f} us")
    check(not problems,
          f"{workload}: {len(problems)} span problems, first: {problems[:3]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"== {workload}", flush=True)
        result = run(workload, 0)
        if result is not None:
            check(result["correct"] and result["failed"] == 0,
                  f"{workload}: untraced run not correct: {result}")
            check_metrics(workload, 0, result, bench["end_to_end"])
        result = run(workload, 1)
        if result is not None:
            check(result["correct"], f"{workload}: traced run not correct")
            check_metrics(workload, 1, result, bench["per_layer"])
            check_spans(workload)

    print("== corrupted reply", flush=True)
    result = run("dashboard_refresh", 0, "--corrupt-sample")
    if result is not None:
        check(not result["correct"] and result["failed"] > 0,
              f"a corrupted reply was not caught: {result}")

    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
