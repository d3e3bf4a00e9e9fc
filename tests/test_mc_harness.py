"""Monte Carlo harness: reproducibility, invariant chain, intervals."""

import concurrent.futures
import hashlib
import importlib.util
import io
import json
import math
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sympy

from regsing import gfp_core, lclt, mc_harness, rate_ldp, walk_census
from regsing.cli import main as cli_main
from regsing.common import GuardError
from regsing.gfp_core import det_bareiss, fp_det, int_determinant_is_zero
from regsing.graph_model import adjacency_from_permutation, sample_configuration
from regsing.mc_harness import (
    ExperimentConfig,
    InvariantError,
    TrialRecord,
    check_trial_invariants,
    run_block,
    run_experiment,
    run_trial,
    summarize,
    wilson_interval,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=5, d=3, primes=(4,), trials=10, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=5, d=3, primes=(3,), trials=10, seed=0)  # gcd(3,3)=3
    with pytest.raises(ValueError):
        ExperimentConfig(n=5, d=2, primes=(5,), trials=10, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=5, d=3, primes=(5,), trials=0, seed=0)
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(n=5, d=3, primes=(2, 5, 2), trials=10, seed=0)  # eliminated twice
    with pytest.raises(GuardError):
        ExperimentConfig(n=3000, d=3, primes=(5,), trials=2000, seed=0)
    # Philox keys are 64-bit words: -1 and 2^64 would alias 2^64 - 1 and 0
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\^64\)"):
            ExperimentConfig(n=5, d=3, primes=(5,), trials=10, seed=seed)
    ExperimentConfig(n=5, d=3, primes=(5,), trials=10, seed=2**64 - 1)


def test_wilson_interval_boundaries():
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0 < high < 0.05
    low, high = wilson_interval(100, 100)
    assert high == 1.0 and 0.95 < low < 1
    low, high = wilson_interval(50, 100)
    assert low + high == pytest.approx(1.0, abs=1e-12)


def test_wilson_interval_textbook_recomputation():
    s, n, z = 10, 1000, 1.96
    phat = s / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    low, high = wilson_interval(s, n)
    assert low == pytest.approx(center - half, abs=1e-12)
    assert high == pytest.approx(center + half, abs=1e-12)
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(7, 5)


def test_one_by_one_matrix_never_singular():
    cfg = ExperimentConfig(n=1, d=3, primes=(2,), trials=25, seed=3)
    summary, records = run_experiment(cfg)
    assert summary.per_prime[0][1] == 0.0
    assert summary.rational_fraction == 0.0
    assert all(not r.det_zero and not r.identical_rows for r in records)


def test_trial_flags_match_independent_recomputation():
    for trial in range(6):
        rec = run_trial(12, 3, seed=21, primes=(2, 5), trial=trial)
        a = adjacency_from_permutation(sample_configuration(12, 3, 21, stream=trial))
        rows = [[int(x) for x in row] for row in a]
        exact_det = det_bareiss(rows)
        assert rec.det_zero == (exact_det == 0)
        assert exact_det == sympy.Matrix(rows).det()
        assert int_determinant_is_zero(rows) == (exact_det == 0)
        for p, flag in rec.singular_mod:
            assert flag == (exact_det % p == 0)
            assert flag == (fp_det(rows, p) == 0)


def test_fused_and_separate_primes_match_bareiss():
    # 5 shares an elimination with the first CRT prime; 2, 7, 101 and 2^31 - 1
    # each get their own
    for primes in ((2, 5, 7), (7, 101, 2**31 - 1)):
        for trial in range(4):
            rec = run_trial(10, 3, seed=8, primes=primes, trial=trial)
            a = adjacency_from_permutation(sample_configuration(10, 3, 8, stream=trial))
            exact_det = det_bareiss(a.tolist())
            assert rec.det_zero == (exact_det == 0)
            assert rec.singular_mod == tuple((p, exact_det % p == 0) for p in sorted(primes))


@pytest.mark.parametrize("primes", [(7,), (7, 11)], ids=["7", "7,11"])
def test_block_without_a_fused_prime_stacks_its_first_residue(primes):
    # with no listed p <= 5 the first CRT residue comes from one stacked
    # elimination mod q; at n = 40 the Hadamard bound of a singular trial
    # exceeds q / 2, so its zero test goes on to the next CRT primes
    q = gfp_core.crt_primes(1)[0]
    trials = range(0, 40)
    # the block's own eliminations call mc_harness.fp_dets_stack; the zero
    # test's tail calls gfp_core.fp_dets_stack
    with mock.patch.object(gfp_core, "fp_dets_stack", wraps=gfp_core.fp_dets_stack) as spy:
        records = mc_harness.run_block(40, 3, 8, primes, trials)
    mats = [adjacency_from_permutation(sample_configuration(40, 3, 8, stream=t)) for t in trials]
    exact = [det_bareiss(a.tolist()) for a in mats]
    assert 0 < sum(e == 0 for e in exact) < len(trials)
    # the zero test makes one stacked call for each trial whose residue mod
    # q is 0, on copies of that trial's lane mod the later CRT primes
    singular = [a for a, e in zip(mats, exact) if e % q == 0]
    assert spy.call_count == len(singular)
    for call, a in zip(spy.call_args_list, singular):
        stack, table = call.args
        k = len(stack) + 1
        assert k > 1 and table.tolist() == [[p] for p in gfp_core.crt_primes(k)[1:]]
        assert all(np.array_equal(m, a) for m in stack)
    assert canonical(records) == canonical([run_trial(40, 3, 8, primes, t) for t in trials])
    for rec, e in zip(records, exact):
        assert rec.det_zero == (e == 0)
        assert rec.singular_mod == tuple((p, e % p == 0) for p in primes)


@pytest.mark.parametrize("n", [30, 64])
def test_block_eliminations_by_listed_primes(n):
    # a block's own eliminations, in order: one per listed prime that
    # `fused_prime` leaves alone, then one mod q with the fused prime if any;
    # d = 11 is prime to every listed prime
    q = gfp_core.crt_primes(1)[0]
    expected = {
        (5,): [(5, q)],
        (2, 5): [(2,), (5, q)],
        (2,): [(2, q)],
        (7,): [(7,), (q,)],
        (3, 5, 7): [(3,), (7,), (5, q)],
    }
    for primes, calls in expected.items():
        with mock.patch.object(mc_harness, "fp_dets_stack", wraps=mc_harness.fp_dets_stack) as spy:
            mc_harness.run_block(n, 11, 5, primes, range(0, 8))
        assert [tuple(call.args[1]) for call in spy.call_args_list] == calls


def test_layer_entry_points_stay_module_attributes():
    # perfbench/worker.py wraps these attributes of mc_harness in trace spans
    # and labels a zero-test span singular by bool(result)
    for name in (
        "run_trial",
        "sample_configuration",
        "adjacency_from_permutation",
        "has_identical_rows",
        "fp_det",
        "int_determinant_is_zero",
    ):
        assert callable(getattr(mc_harness, name))
    a = adjacency_from_permutation(sample_configuration(8, 3, 1, stream=0))
    assert type(mc_harness.int_determinant_is_zero(a)) is bool
    assert type(mc_harness.int_determinant_is_zero([[1, 1], [1, 1]])) is bool
    # perfbench/worker.py's check_mc rebuilds records with all five keyword
    # fields and checks them as below
    rec = mc_harness.TrialRecord(
        trial=0,
        singular_mod=((2, True), (5, False)),
        det_zero=False,
        identical_rows=False,
        elapsed=0.0,
    )
    mc_harness.check_trial_invariants(rec)
    with pytest.raises(mc_harness.InvariantError):
        mc_harness.check_trial_invariants(replace(rec, det_zero=True))


def test_benchmark_tracer_installs_over_the_layer_entry_points(monkeypatch):
    """perfbench/worker.py's Tracer.install looks every layer entry point up
    by name and wraps it; it must still find each one (a missing name would
    crash a --trace 1 run).  A block builds its stack without the sampling,
    adjacency and witness functions, so a traced run_trial records its own
    span and, inside it, the zero test's alone."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_worker", bench / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    mods = {"mc_harness": mc_harness, "walk_census": walk_census, "lclt": lclt, "rate_ldp": rate_ldp}
    for mod in mods.values():
        for name, value in list(vars(mod).items()):
            if callable(value):
                monkeypatch.setattr(mod, name, value)  # restored after the test
    tracer = worker.Tracer()
    tracer.install(mods)
    rec = mc_harness.run_trial(8, 3, 1, (5,), 0)
    spans = [(span[0], span[4]) for span in tracer.spans]
    assert spans == [("mc_harness.run_trial", -1), ("gfp_core.int_determinant_is_zero", 0)]
    assert canonical([rec]) == canonical([run_trial(8, 3, 1, (5,), 0)])


def canonical(records):
    """The record fields that the mc records file carries (elapsed is left out)."""
    return [(r.trial, r.singular_mod, r.det_zero, r.identical_rows) for r in records]


def test_record_serialization_is_schedule_free(tmp_path, monkeypatch):
    rec = run_trial(10, 3, seed=4, primes=(5,), trial=9)
    assert rec.elapsed > 0
    monkeypatch.delenv("REGSING_OUT_DIR", raising=False)
    argv = f"mc --n 10 --d 3 --p 5 --trials 10 --seed 4 --out {tmp_path / 'mc.json'}"
    with redirect_stdout(io.StringIO()):
        assert cli_main(argv.split()) == 0
    lines = (tmp_path / "mc.records.jsonl").read_text().splitlines()
    obj = json.loads(lines[9])
    assert set(obj) == {"trial", "singular_mod", "det_zero", "identical_rows"}
    assert "elapsed" not in obj
    assert obj["trial"] == rec.trial and obj["det_zero"] == rec.det_zero
    assert obj["singular_mod"] == {str(p): flag for p, flag in rec.singular_mod}


def test_invariant_chain_enforced():
    bad = TrialRecord(
        trial=0,
        singular_mod=((5, False),),
        det_zero=True,
        identical_rows=False,
        elapsed=0.0,
    )
    with pytest.raises(InvariantError):
        check_trial_invariants(bad)
    bad2 = TrialRecord(
        trial=0,
        singular_mod=((5, True),),
        det_zero=False,
        identical_rows=True,
        elapsed=0.0,
    )
    with pytest.raises(InvariantError):
        check_trial_invariants(bad2)


def test_summary_monotonicity_guard():
    cfg = ExperimentConfig(n=4, d=3, primes=(5,), trials=2, seed=0)
    forged = [
        TrialRecord(0, ((5, False),), det_zero=True, identical_rows=False, elapsed=0.0),
        TrialRecord(1, ((5, False),), det_zero=True, identical_rows=False, elapsed=0.0),
    ]
    with pytest.raises(InvariantError):
        summarize(cfg, forged)


def test_parallel_schedules_agree():
    # at n = 25 blocks hold max(MIN_LANES, 2^18 // 625) = 419 trials: the
    # trials run as one stacked block of 419 and a stacked tail of 6
    cfg1 = ExperimentConfig(n=25, d=3, primes=(2, 5), trials=425, seed=11, parallelism=1)
    cfg4 = ExperimentConfig(n=25, d=3, primes=(2, 5), trials=425, seed=11, parallelism=4)
    with mock.patch.object(mc_harness, "run_block", wraps=mc_harness.run_block) as spy:
        s1, r1 = run_experiment(cfg1)
    assert [c.args[-1] for c in spy.call_args_list] == [range(0, 419), range(419, 425)]
    s4, r4 = run_experiment(cfg4)
    assert canonical(r1) == canonical(r4)
    assert canonical(r1) == canonical([run_trial(25, 3, 11, (2, 5), t) for t in range(425)])
    assert s1 == s4
    assert [r.trial for r in r1] == list(range(425))


def test_pool_never_outnumbers_blocks(monkeypatch):
    """The pool starts all its workers at the first submit, so run_experiment
    asks for no more of them than there are blocks.  A recorder stands in for
    the pool and maps serially: no process starts, whatever --parallel says."""
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    # n = 24 blocks hold 2^18 // 576 = 455 trials
    for trials, parallelism, workers in [(32, 8, 1), (32, 5000, 1), (1000, 2, 2), (1000, 8, 3)]:
        cfg = ExperimentConfig(n=24, d=3, primes=(2, 5), trials=trials, seed=3)
        s1, r1 = run_experiment(cfg)
        s2, r2 = run_experiment(replace(cfg, parallelism=parallelism))
        assert s1 == s2 and canonical(r1) == canonical(r2)
        assert asked.pop() == workers and not asked


def test_blocks_follow_the_block_rule():
    # max(MIN_LANES, 2^18 // n^2) trials a block below MIN_SCHUR_N, 66 at
    # n = 63, and max(MIN_LANES, 2^20 // n^2) from it on: 256 at n = 64, 129
    # at n = 90, 64 at n = 128, 63 at n = 129 and 11 at n = 300.  Every
    # block, swept as a stack or (a tail of one trial) as a stack of one,
    # decides mod 2 and mod 5q as run_trial does, and mod 2 the sweep starts
    # from a uint8 lane whose multi-edge entries 2 and 3 are reduced first
    assert mc_harness.MIN_LANES == 6 and mc_harness.STACK_ENTRIES == 2**18
    assert mc_harness.SCHUR_STACK_ENTRIES == 2**20 and mc_harness.MIN_SCHUR_N == 64
    for n, blocks in (
        (63, [range(0, 66), range(66, 67)]),
        (64, [range(0, 256), range(256, 257)]),
        (90, [range(0, 129), range(129, 130)]),
        (128, [range(0, 64), range(64, 65)]),
        (129, [range(0, 63), range(63, 67)]),
        (300, [range(0, 11), range(11, 15)]),
    ):
        cfg = ExperimentConfig(n=n, d=3, primes=(2, 5), trials=blocks[-1].stop, seed=2)
        with mock.patch.object(mc_harness, "run_block", wraps=mc_harness.run_block) as spy:
            _, records = run_experiment(cfg)
        assert [c.args[-1] for c in spy.call_args_list] == blocks
        assert canonical(records) == canonical(
            [run_trial(n, 3, 2, (2, 5), t) for t in range(blocks[-1].stop)]
        )


@pytest.mark.parametrize("n", [30, 63])
def test_block_holds_little_beyond_its_stack(n):
    # one whole block below MIN_SCHUR_N, 2^18 // n^2 lanes (291 at n = 30, 66
    # at n = 63), holds its uint8 stack of 2^18 entries, the sweep's uint32
    # residues and the records; the bound, 3 MB traced, was set before the
    # test was run, which then traced 1.83 MB at n = 30 and 1.68 MB at n = 63
    size = mc_harness.STACK_ENTRIES // (n * n)
    run_block(n, 3, 1, (2, 5), range(size))  # caches and first calls out of the trace
    tracemalloc.start()
    try:
        records = run_block(n, 3, 2, (2, 5), range(size))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == size
    assert peak < 3.0e6, peak


def test_shorter_run_is_a_prefix_of_a_longer_one():
    # criterion 9 takes its rational run from the first trials of its mod-5 run
    cfg50 = ExperimentConfig(n=60, d=3, primes=(5,), trials=50, seed=20240813)
    s50, r50 = run_experiment(cfg50)
    _, r100 = run_experiment(replace(cfg50, trials=100))
    assert canonical(r50) == canonical(r100[:50])
    assert summarize(cfg50, r100[:50]) == s50


def test_seeds_change_outcomes():
    cfg_a = ExperimentConfig(n=20, d=3, primes=(2,), trials=20, seed=1)
    cfg_b = ExperimentConfig(n=20, d=3, primes=(2,), trials=20, seed=2)
    _, ra = run_experiment(cfg_a)
    _, rb = run_experiment(cfg_b)
    assert canonical(ra) != canonical(rb)


def test_summary_fields_and_intervals():
    cfg = ExperimentConfig(n=15, d=3, primes=(2, 5), trials=40, seed=6)
    summary, records = run_experiment(cfg)
    assert summary.n == 15 and summary.trials == 40
    for p, frac, lo, hi in summary.per_prime:
        assert 0 <= lo <= frac <= hi <= 1
        assert frac >= summary.rational_fraction
    lo, hi = summary.rational_interval
    assert lo <= summary.rational_fraction <= hi
    assert len(records) == 40


@pytest.mark.parametrize(
    "n, trials, zeros, identical, records_sha, summary_sha",
    [
        # trials 26 and 49 are rationally singular without identical rows,
        # so they run the full Hadamard-bounded CRT loop
        (
            300,
            60,
            2,
            0,
            "02fa73d298a5f7414465862d1c56b5059395c92aec168b9e31c694cca8cd6079",
            "5f8c8ef374539332ff03bd6068dbc9ff236a4c3576d5f5f04cc9f32638c2fd93",
        ),
        (
            30,
            500,
            100,
            23,
            "a450ef756b01a3da79658318798a48494b9d76a2921a2787cc8200517ddaa1e1",
            "db43623e724bef393d2e879ae3fafd986af7e3a66a0e8df73d808603b105d922",
        ),
    ],
)
def test_committed_seed_golden_bytes(
    n, trials, zeros, identical, records_sha, summary_sha, tmp_path, monkeypatch
):
    # `regsing mc` records and summary bytes at the committed criterion-9 seed, d=3
    monkeypatch.delenv("REGSING_OUT_DIR", raising=False)
    out = tmp_path / "mc.json"
    argv = f"mc --n {n} --d 3 --p 2,5 --trials {trials} --seed 20240813 --out {out}"
    with redirect_stdout(io.StringIO()):
        assert cli_main(argv.split()) == 0
    records = (tmp_path / "mc.records.jsonl").read_bytes()
    assert hashlib.sha256(records).hexdigest() == records_sha
    assert hashlib.sha256(out.read_bytes()).hexdigest() == summary_sha
    rows = [json.loads(line) for line in records.splitlines()]
    assert sum(r["det_zero"] for r in rows) == zeros
    assert sum(r["identical_rows"] for r in rows) == identical
