#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload with its tiny argv (e.g. `mc --n 12 --trials 8`,
`exact --n 4`, `rate --resolution 10`), untraced and traced, and checks that
  - the metric names in BENCHMARK.json are exactly those workloads.py defines,
  - every run emits every metric BENCHMARK.json names for it, with its unit,
  - every output check passes, and
  - every traced child span lies inside its parent span.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for section, defined in (("end_to_end", wl.END_TO_END), ("per_layer", wl.per_layer())):
        named = {(m["name"], m["unit"], m["better"]) for m in spec[section]}
        if named != set(defined):
            problems.append(f"BENCHMARK.json {section} differs from workloads.py: {sorted(named ^ set(defined))}")
    if {w["name"] for w in spec["workloads"]} != set(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in wl.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, detail, span_sets = run.measure(name, 1, 0.0, bool(trace), tiny=True)
            where = f"{name} trace={trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: checks failed: {detail['failures']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
            bad = [k for k, v in result["metrics"].items() if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{where}: non-numeric values {bad}")
            for spans in span_sets:
                for i, (span_name, _, t0, t1, parent, _) in enumerate(spans):
                    if t1 < t0:
                        problems.append(f"{where}: span {i} {span_name} ends before it starts")
                    if parent >= 0 and not (spans[parent][2] <= t0 and t1 <= spans[parent][3]):
                        problems.append(f"{where}: span {i} {span_name} lies outside its parent {parent}")
            if trace and not any(s[4] >= 0 for spans in span_sets for s in spans):
                problems.append(f"{where}: no nested spans were recorded")
            print(f"{where}: {len(result['metrics'])} metrics, {result['attempted']} checks")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
