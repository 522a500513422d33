"""Self-test of the benchmark on small stacks; gates nothing on timing.

Usage: python3 sweepbench/selftest.py

Runs every workload shape at 16x16x8 with 6 pairs and checks:
- the result object's schema, untraced and traced, against BENCHMARK.json;
- that every point passes the output check (no reference d' at this size);
- that every wrap point fired at least once, so that a refactor which stops
  calling through a wrapped name shows as a missing span, not a silent zero;
- that the call counts repeat exactly across two traced runs.
"""

from __future__ import annotations

import json
import math
import sys

import child
import run


def schema_problems(result: dict, declared: dict) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    for name, m in metrics.items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name} value {m['value']!r}")
        if name in declared and m["unit"] != declared[name]:
            problems.append(f"{name} unit {m['unit']} but BENCHMARK.json says {declared[name]}")
    return problems


def check_workload(workload: str, declared: dict) -> list[str]:
    _, result, _ = run.bench(workload, seed=0, seconds=0, trace=False, small=True)
    problems = schema_problems(result, declared["end_to_end"])
    expected = {span for _, _, span in child.WRAP_POINTS}
    counts = []
    for _ in range(2):
        _, result, traced = run.bench(workload, seed=0, seconds=0, trace=True, small=True)
        problems += schema_problems(result, declared["per_layer"])
        calls = {name: t["calls"] for name, t in run.layer_totals(traced[0]["spans"]).items()}
        problems += [f"span {s} never fired" for s in sorted(expected - set(calls))]
        counts.append(calls)
    if counts[0] != counts[1]:
        problems.append(f"call counts differ between runs: {counts[0]} vs {counts[1]}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    failed = False
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        print("BENCHMARK.json workloads differ from run.WORKLOADS")
        failed = True
    for workload in run.WORKLOADS:
        problems = check_workload(workload, declared)
        failed |= bool(problems)
        print(f"{workload}: {'FAILED' if problems else 'ok'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
