"""One fresh benchmark process: set up regsing, run one workload job, report.

Started by run.py, never by hand.  The process imports `regsing.cli` from
the checkout's `src/`, makes one untimed warm-up call, stamps the end of
set-up, and (in job mode) times `regsing.cli.main(argv)` for every call of
the workload, in wall and CPU seconds.  A fixed reference kernel is timed
just before and just after set-up and, in untraced jobs, every
PROBE_PERIOD_S of CPU time inside each call (in traced jobs, just before
and just after each call), so that run.py can express CPU times at one
reference machine speed.  With --trace 1 the public functions each layer
exposes are wrapped, from this file, in spans kept in memory and written
out at the end.  Checks that need the library run after the timed region.
The result is one JSON file at --out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PROBE_ITERATIONS = 100_000  # one reference kernel run, about 20 ms
PROBE_PERIOD_S = 0.5  # CPU seconds between reference runs inside an untraced call
BRACKET_PROBES = 5  # reference runs just before and just after set-up or a traced call


class Tracer:
    """Spans [name, call label, start, end, parent index, outcome] in memory."""

    def __init__(self):
        self.spans = []
        self.label = ""
        self._stack = []

    def wrap(self, fn, name, outcome=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [name, self.label, t0, t1, parent, None]
            if outcome is not None:
                spans[idx][5] = outcome(out)
            return out

        return traced

    def install(self, mods) -> None:
        """Replace each layer entry point where its caller looks it up."""
        mc, wc, lc, rl = mods["mc_harness"], mods["walk_census"], mods["lclt"], mods["rate_ldp"]
        targets = [
            (mc, "run_trial", "mc_harness.run_trial", None),
            (mc, "sample_configuration", "graph_model.sample_configuration", None),
            (mc, "adjacency_from_permutation", "graph_model.adjacency_from_permutation", None),
            (mc, "has_identical_rows", "graph_model.has_identical_rows", bool),
            (mc, "fp_det", "gfp_core.fp_det", None),
            (mc, "int_determinant_is_zero", "gfp_core.int_determinant_is_zero", bool),
            (
                wc,
                "walk_endpoint_counts",
                "walk_census.walk_endpoint_counts",
                lambda c: [len(c.counts), max(c.counts.values()).bit_length()],
            ),
            (wc, "key_sum", "walk_census.key_sum", None),
            (wc, "type_class_partition", "walk_census.type_class_partition", None),
            (lc, "lclt_error_scan", "lclt.lclt_error_scan", None),
            (
                rl,
                "negativity_grid_scan",
                "rate_ldp.negativity_grid_scan",
                lambda r: [len(r.rows), r.n_infeasible, r.n_nonconverged],
            ),
            (rl, "maxent_alpha", "rate_ldp.maxent_alpha", lambda c: bool(c.feasible)),
        ]
        for mod, attr, name, outcome in targets:
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, outcome))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def import_regsing():
    sys.path.insert(0, str(SRC))
    from regsing import cli, gfp_core, graph_model, lclt, mc_harness, rate_ldp, walk_census

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"regsing was imported from {cli.__file__}, not from {SRC}")
    return {
        "cli": cli,
        "gfp_core": gfp_core,
        "graph_model": graph_model,
        "lclt": lclt,
        "mc_harness": mc_harness,
        "rate_ldp": rate_ldp,
        "walk_census": walk_census,
    }


def warm_up(mods) -> None:
    """Untimed: first linprog/Newton solve, and the CRT prime list filled."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = mods["cli"].main(["rate", "--d", "3", "--p", "2", "--density", "0.5,0.5"])
    if rc != 0:
        raise SystemExit(f"warm-up call exited with {rc}")
    mods["gfp_core"].crt_primes(16)


def reference_cpu_s() -> float:
    """CPU seconds of one run of a fixed pure-Python kernel (about 20 ms)."""
    c0 = time.process_time()
    x = total = 1
    for _ in range(PROBE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += x % 7
    return time.process_time() - c0


class SpeedProbe:
    """Times the reference kernel every PROBE_PERIOD_S of CPU time in a call.

    The kernel runs in a SIGPROF handler, in the main thread between two
    bytecodes of the call, so no thread or process is added; run_call takes
    its CPU time out of the call's.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _fire(self, signum, frame):
        self.samples.append(reference_cpu_s())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._fire)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


def run_call(main, call: wl.Call, seed: int, tiny: bool, workdir: Path, traced: bool) -> tuple:
    """Time one CLI call; returns (result, parsed mc records or None).

    The reference kernel runs inside an untraced call, and just before and
    just after a traced one, so that no span contains it.
    """
    argv = list(call.tiny if tiny else call.argv)
    records_path = None
    if call.kind == "mc":
        out = workdir / f"{call.label}-{os.getpid()}.json"
        argv += ["--seed", str(seed), "--parallel", "1", "--out", str(out)]
        records_path = out.with_suffix("").with_suffix(".records.jsonl")
    buf = io.StringIO()
    speed = SpeedProbe()
    around = [reference_cpu_s() for _ in range(BRACKET_PROBES)] if traced else []
    with contextlib.redirect_stdout(buf), contextlib.nullcontext() if traced else speed:
        c0, t0 = time.process_time(), time.perf_counter()
        rc = main(argv)
        t1, c1 = time.perf_counter(), time.process_time()
    if traced:
        around += [reference_cpu_s() for _ in range(BRACKET_PROBES)]
    text = buf.getvalue()
    res = {"label": call.label, "argv": argv, "rc": rc, "wall_s": t1 - t0}
    res["cpu_s"] = c1 - c0 - sum(speed.samples)
    res["probe_cpu_s"] = speed.samples + around
    res["stdout_sha256"] = sha256(text)
    res["facts"] = facts(call.kind, text)
    records = None
    if records_path is not None:
        raw = records_path.read_text()
        out.unlink()
        records_path.unlink()
        res["records_sha256"] = sha256(raw)
        records = [json.loads(line) for line in raw.splitlines()]
        res["facts"]["rational_singular"] = sum(r["det_zero"] for r in records)
        res["facts"]["identical_rows"] = sum(r["identical_rows"] for r in records)
    return res, records


def facts(kind: str, text: str) -> dict:
    """The fields of a CLI payload that run.py checks or reports."""
    payload = json.loads(text)
    if kind == "mc":
        return {"trials": payload["trials"], "n": payload["n"], "d": payload["d"], "seed": payload["seed"]}
    if kind == "exact":
        return {k: payload[k] for k in ("key_sum", "total_mass_ok", "parity_ok")}
    if kind == "lclt":
        return {}
    keys = ("max_rate", "argmax", "all_negative", "n_infeasible", "n_nonconverged")
    out = {k: payload[k] for k in keys}
    out["points_solved"] = payload["n_points"] - payload["n_excluded"]
    return out


def check_mc(mods, res: dict, records: list, oracle: bool) -> tuple:
    """check_trial_invariants on every record; det_bareiss oracle if asked."""
    mh, gm, gf = mods["mc_harness"], mods["graph_model"], mods["gfp_core"]
    f = res["facts"]
    attempted, failures = 1, []
    if [r["trial"] for r in records] != list(range(f["trials"])):
        failures.append(f"{res['label']}: records do not list trials 0..{f['trials'] - 1}")
    for r in records:
        rec = mh.TrialRecord(
            trial=r["trial"],
            singular_mod=tuple(sorted((int(p), flag) for p, flag in r["singular_mod"].items())),
            det_zero=r["det_zero"],
            identical_rows=r["identical_rows"],
            elapsed=0.0,
        )
        attempted += 1
        try:
            mh.check_trial_invariants(rec)
        except mh.InvariantError as exc:
            failures.append(f"{res['label']}: {exc}")
        if oracle:
            attempted += 1
            sample = gm.sample_configuration(f["n"], f["d"], f["seed"], stream=r["trial"])
            zero = gf.det_bareiss(gm.adjacency_from_permutation(sample)) == 0
            if zero != r["det_zero"]:
                failures.append(f"{res['label']} trial {r['trial']}: det_zero disagrees with det_bareiss")
    return attempted, failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "job"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = Path(args.out)
    before = [reference_cpu_s() for _ in range(BRACKET_PROBES)]
    mods = import_regsing()
    warm_up(mods)
    result = {"setup_done": time.monotonic(), "setup_cpu_s": time.process_time() - sum(before)}
    result["bracket_probe_cpu_s"] = before + [reference_cpu_s() for _ in range(BRACKET_PROBES)]
    if args.mode == "job":
        work = wl.WORKLOADS[args.workload]
        tracer = Tracer() if args.trace else None
        main_fn = mods["cli"].main
        if tracer is not None:
            tracer.install(mods)
            main_fn = tracer.wrap(main_fn, "cli.main")
        runs = []
        for call in work.calls:
            if tracer is not None:
                tracer.label = call.label
            runs.append(run_call(main_fn, call, args.seed, bool(args.tiny), out.parent, tracer is not None))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_start = time.monotonic()
        attempted, failures = 0, []
        for res, records in runs:
            if args.check and records is not None:
                a, f = check_mc(mods, res, records, work.oracle)
                attempted += a
                failures += f
        result["calls"] = [res for res, _ in runs]
        result["checks"] = {"attempted": attempted, "failures": failures}
        result["check_s"] = time.monotonic() - check_start
        if tracer is not None:
            spans_path = out.with_suffix(".spans.jsonl")
            spans_path.write_text("".join(json.dumps(s) + "\n" for s in tracer.spans))
            result["spans_file"] = str(spans_path)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
