#!/usr/bin/env python3
"""regsing benchmark: the command BENCHMARK.json runs.

    python3 perfbench/run.py --workload {mc-n300,mc-n30,census,ratescan}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every job runs `regsing.cli.main(argv)`
in a fresh worker process (worker.py), serially, with BLAS pinned to one
thread.  The run first starts SETUP_PROBES set-up-only processes, then
starts jobs until the next one would end after --seconds (at least one);
output checks do not count against --seconds.

Times are CPU seconds of the worker process at the reference speed: the
measured CPU time times REF_NOMINAL_S over the mean CPU time of a fixed
20 ms reference kernel (worker.reference_cpu_s) run in the same process
while it was measured -- every 0.5 CPU seconds inside the calls of a job,
and five times on each side of set-up.  On a shared host the speed of a
core drifts by tens of percent over seconds to minutes; the ratio cancels
that drift, and CPU time leaves out the time the host gives to other
guests.  Raw wall and CPU times are kept in the detail record.

--trace 0 prints the end-to-end metrics.  --trace 1 pairs every untraced
job with a traced one and prints the per-layer metrics derived from the
traced spans.  Output checks run outside the timed region; the last stdout
line is {"correct", "attempted", "failed", "metrics"} and the line before
it is a detail record (environment, digests, non-vacuity counts, failures
and every metric's samples with median and quartiles).

Exits non-zero without a result when `src/regsing` is missing or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150
# CPU seconds of one worker.reference_cpu_s run on a 2-vCPU Xeon VM; the
# reported times are CPU seconds on a machine of that speed.
REF_NOMINAL_S = 0.02
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
RATE_TOL = 1e-12


class WorkerError(RuntimeError):
    pass


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def add(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def spawn(workload: str, seed: int, tag: str, *, mode: str, trace=False, check=False, tiny=False) -> dict:
    out = WORK / f"{workload}-{tag}-{os.getpid()}.json"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--trace", str(int(trace)),
        "--check", str(int(check)),
        "--tiny", str(int(tiny)),
        "--out", str(out),
    ]
    env = dict(os.environ, **THREAD_ENV)
    env.pop("REGSING_OUT_DIR", None)
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker {mode} for {workload} exited {proc.returncode}:\n{proc.stderr.decode()}")
    res = json.loads(out.read_text())
    out.unlink()
    res["setup_wall_s"] = res["setup_done"] - t0
    if "spans_file" in res:
        spans_path = Path(res.pop("spans_file"))
        res["spans"] = [json.loads(line) for line in spans_path.read_text().splitlines()]
        spans_path.unlink()
    return res


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_env_inherited": {k: os.environ.get(k) for k in THREAD_ENV},
        "blas_env_workers": THREAD_ENV,
    }


def summary(values: list) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def tail(values: list) -> tuple:
    """(p50, highest percentile with TAIL_SAMPLES beyond it, else p50)."""
    if not values:
        return 0.0, 0.0
    p50 = statistics.median(values)
    for pct in TAIL_PERCENTILES:
        if len(values) * (100.0 - pct) / 100.0 >= TAIL_SAMPLES:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return p50, cuts[round(pct * 10) - 1]
    return p50, p50


def self_times(spans: list) -> list:
    """Each span's duration minus its children's (calls nest, one thread)."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def job_wall(job: dict) -> float:
    return sum(c["wall_s"] for c in job["calls"])


def job_cpu(job: dict) -> float:
    return sum(c["cpu_s"] for c in job["calls"])


def speed_scale(proc: dict, in_calls: bool) -> float:
    """Factor taking a worker's CPU seconds to reference-speed seconds, from
    the reference runs inside its calls, or around its set-up."""
    refs = [r for c in proc.get("calls", ()) for r in c["probe_cpu_s"]] if in_calls else []
    refs = refs or proc["bracket_probe_cpu_s"]
    return REF_NOMINAL_S * len(refs) / sum(refs)


def work_units(job: dict) -> int:
    """Trials (mc), grid points solved (rate scans), else CLI calls."""
    units = 0
    for c in job["calls"]:
        f = c["facts"]
        units += f.get("trials", f.get("points_solved", 1))
    return units


def end_to_end(jobs: list, setups: list) -> dict:
    return {
        "cpu_s": [job_cpu(j) * speed_scale(j, True) for j in jobs],
        "trials_per_cpu_s": [work_units(j) / (job_cpu(j) * speed_scale(j, True)) for j in jobs],
        "setup_s": [s["setup_cpu_s"] * speed_scale(s, False) for s in setups],
        "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
    }


def layer_samples(jobs: list, traced: list) -> dict:
    """Per-layer samples from the traced jobs' spans; unexercised layers read 0."""
    dist = {base: [] for base in wl.DISTRIBUTIONS}
    per_job = defaultdict(list)
    for job in traced:
        spans = job["spans"]
        selfs = self_times(spans)
        sums = defaultdict(float)
        counts = defaultdict(int)
        for s, self_s in zip(spans, selfs):
            name, label, t0, t1, _, outcome = s
            dur = t1 - t0
            if name == "cli.main":
                sums["cli.self.s"] += self_s
            elif name == "mc_harness.run_trial":
                dist[name].append(dur * 1e3)
                dist["mc_harness.self"].append(self_s * 1e3)
            elif name == "gfp_core.int_determinant_is_zero":
                dist[f"{name}.{'singular' if outcome else 'nonsingular'}"].append(dur * 1e3)
                counts["gfp_core.rational_singular.count"] += bool(outcome)
            elif name == "rate_ldp.maxent_alpha":
                dist[f"{name}.{'feasible' if outcome else 'infeasible'}"].append(dur * 1e3)
            elif name in dist:
                dist[name].append(dur * 1e3)
                if name == "graph_model.has_identical_rows":
                    counts["graph_model.identical_rows.count"] += bool(outcome)
            else:
                sums[f"{name}.{label}.s"] += dur
                if name == "walk_census.walk_endpoint_counts":
                    counts[f"walk_census.lattice_points.{label}"] = outcome[0]
                    counts[f"walk_census.count_bits.{label}"] = outcome[1]
                elif name == "rate_ldp.negativity_grid_scan":
                    solved, infeasible, nonconverged = outcome
                    counts[f"rate_ldp.infeasible.{label}"] = infeasible
                    counts[f"rate_ldp.nonconverged.{label}"] = nonconverged
                    counts[f"rate_ldp.feasible_ratio.{label}"] = (solved - infeasible) / solved
        for key, val in list(sums.items()) + list(counts.items()):
            per_job[key].append(val)
    untraced = statistics.median(job_cpu(j) * speed_scale(j, True) for j in jobs)
    per_job["bench.trace_overhead.s"] = [job_cpu(t) * speed_scale(t, True) - untraced for t in traced]
    samples = {}
    for base, values in dist.items():
        p50, tl = tail(values)
        samples[f"{base}.p50.ms"] = [p50]
        samples[f"{base}.tail.ms"] = [tl]
        samples[f"{base}.samples"] = [len(values) // len(traced)]
    for name, _, _ in wl.per_layer():
        samples.setdefault(name, per_job.get(name, [0]))
    return samples


def check_jobs(work: wl.Workload, seed: int, jobs: list, tiny: bool) -> tuple:
    """Checks over the jobs' facts and digests; returns (Checks, report)."""
    checks = Checks()
    expected = {} if tiny else json.loads(EXPECTED.read_text())["calls"]
    first = jobs[0]
    checks.attempted += first["checks"]["attempted"]
    checks.failures += first["checks"]["failures"]
    compare_digests = not tiny and (seed == wl.DEFAULT_SEED or not work.seeded)
    report = {"digests": {}, "digests_compared": compare_digests, "non_vacuity": {}}
    for call, res in zip(work.calls, first["calls"]):
        label, f = call.label, res["facts"]
        digests = {k: res[k] for k in ("stdout_sha256", "records_sha256") if k in res}
        report["digests"][label] = digests
        checks.add(res["rc"] == 0, f"{label}: exit code {res['rc']}")
        for other in jobs[1:]:
            again = next(c for c in other["calls"] if c["label"] == label)
            same = all(again[k] == v for k, v in digests.items())
            checks.add(same, f"{label}: output bytes differ between jobs of one run")
        want = expected.get(label, {})
        if compare_digests:
            for k, v in digests.items():
                checks.add(want.get(k) == v, f"{label}: {k} {v} differs from the recorded {want.get(k)}")
        if call.kind == "mc":
            report["non_vacuity"][label] = {
                "rational_singular": f["rational_singular"],
                "identical_rows": f["identical_rows"],
            }
            if seed == wl.DEFAULT_SEED and not tiny:
                checks.add(f["rational_singular"] >= 1, f"{label}: no rationally singular trial")
        elif call.kind == "exact":
            checks.add(f["total_mass_ok"], f"{label}: total mass check failed")
            checks.add(f["parity_ok"], f"{label}: parity check failed")
            if not tiny:
                checks.add(f["key_sum"] == want.get("key_sum"), f"{label}: key_sum {f['key_sum']} differs")
        elif call.kind == "rate":
            report["non_vacuity"][label] = {"infeasible": f["n_infeasible"]}
            checks.add(f["all_negative"], f"{label}: rate not negative on the grid")
            checks.add(f["n_nonconverged"] == 0, f"{label}: {f['n_nonconverged']} points did not converge")
            if not tiny:
                checks.add(f["n_infeasible"] > 0, f"{label}: no infeasible grid point")
                same = math.isclose(f["max_rate"], want.get("max_rate", math.nan), rel_tol=0, abs_tol=RATE_TOL)
                same = same and len(f["argmax"]) == len(want.get("argmax", ()))
                same = same and all(abs(a - b) <= RATE_TOL for a, b in zip(f["argmax"], want["argmax"]))
                checks.add(same, f"{label}: max_rate/argmax {f['max_rate']} {f['argmax']} differ")
    return checks, report


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple:
    """One benchmark run; returns (result line, detail record, traced spans)."""
    work = wl.WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    run_start = time.monotonic()
    setups = [spawn(workload, seed, f"setup{i}", mode="setup") for i in range(SETUP_PROBES)]
    jobs, traced = [], []
    in_jobs = 0.0  # seconds spent in job processes
    checking = 0.0  # of which in output checks, which do not count against --seconds
    while True:
        start = time.monotonic()
        k = len(jobs)
        jobs.append(spawn(workload, seed, f"job{k}", mode="job", check=k == 0, tiny=tiny))
        if trace:
            traced.append(spawn(workload, seed, f"traced{k}", mode="job", trace=True, tiny=tiny))
        checking += jobs[-1]["check_s"]
        in_jobs += time.monotonic() - start - jobs[-1]["check_s"]
        used = time.monotonic() - run_start - checking
        if used + in_jobs / len(jobs) > seconds:
            break
    env["loadavg_after"] = os.getloadavg()
    setups += jobs + traced
    checks, report = check_jobs(work, seed, jobs + traced, tiny)
    if trace:
        samples = layer_samples(jobs, traced)
        units = {name: unit for name, unit, _ in wl.per_layer()}
    else:
        samples = end_to_end(jobs, setups)
        units = {name: unit for name, unit, _ in wl.END_TO_END}
    stats = {name: summary(values) for name, values in samples.items()}
    metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "jobs": len(jobs),
        "env": env,
        **report,
        "failed_frac": len(checks.failures) / checks.attempted,
        "failures": checks.failures[:20],
        "samples": stats,
        "raw": {
            "job_wall_s": summary([job_wall(j) for j in jobs]),
            "job_cpu_s": summary([job_cpu(j) for j in jobs]),
            "setup_wall_s": summary([s["setup_wall_s"] for s in setups]),
            "setup_cpu_s": summary([s["setup_cpu_s"] for s in setups]),
            "reference_cpu_s": summary(
                [r for j in jobs for c in j["calls"] for r in c["probe_cpu_s"]]
                or [r for s in setups for r in s["bracket_probe_cpu_s"]]
            ),
        },
    }
    return result, detail, [j["spans"] for j in traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "regsing" / "cli.py").is_file():
        print(f"no regsing sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, detail, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
