#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every workload once at the default seed and writes expected.json:
the sha256 of every CLI stdout payload and mc records file, the exact
key sums of the census points and the max rate and argmax of each rate
scan.  Run it only on a commit whose outputs are the reference; the
committed file was recorded on the seed commit of the benchmark.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl

KEPT = ("stdout_sha256", "records_sha256", "key_sum", "max_rate", "argmax")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    calls = {}
    for name in wl.WORKLOADS:
        job = run.spawn(name, wl.DEFAULT_SEED, "record", mode="job")
        for res in job["calls"]:
            merged = {**res, **res["facts"]}
            calls[res["label"]] = {k: merged[k] for k in KEPT if k in merged}
    out = {"seed": wl.DEFAULT_SEED, "calls": calls}
    run.EXPECTED.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
