"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Each test computes every part of its criterion, prints exactly one line
`criterion N: PASS - ...` or `criterion N: FAIL - ...`, then asserts the
parts so pytest records the same verdict.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction
from importlib.resources import files
from unittest import mock

import numpy as np
import pytest

from regsing import lclt, mc_harness, rate_ldp, walk_census
from regsing.cli import main as cli_main

D, P = 3, 2
TREND_NS = (10, 20, 40, 80)
# The gap |key_sum - 1| tends to 0 but not monotonically: for d=3, p=2 it
# rises from n=10 to a peak near n=24 (exact gaps 0.095, 0.192, 0.170, 0.078
# at TREND_NS), so criterion 2 asserts strict decrease only on a doubling
# ladder that starts past the peak.
LADDER_NS = (40, 80, 160, 320, 640)
ORACLE_TRIPLES = ((1, 3, 2), (2, 3, 2), (2, 3, 5), (3, 3, 2))
MOMENT_PAIRS = ((3, 2), (3, 5), (4, 3), (5, 2))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def trend_counts():
    # shared by criteria 2, 3 and 8: endpoint tables for d=3, p=2
    return {n: walk_census.walk_endpoint_counts(n, D, P) for n in TREND_NS}


@pytest.fixture(scope="module")
def oracle_results():
    # shared by criteria 1 and 3
    start = time.monotonic()
    results = {
        (n, d, p): walk_census.oracle_all_types(n, d, p) for n, d, p in ORACLE_TRIPLES
    }
    return results, time.monotonic() - start


def test_criterion_01_oracle_equivalence(oracle_results):
    results, elapsed = oracle_results
    mismatches = sum(
        1
        for rows in results.values()
        for _, predicted, brute in rows
        if predicted != brute
    )
    n_types = sum(len(rows) for rows in results.values())
    zero_n2 = dict((t, pred) for t, pred, _ in results[(2, 3, 2)])[(2, 0)]
    mixed_n3 = dict((t, pred) for t, pred, _ in results[(3, 3, 2)])[(1, 2)]
    ok = mismatches == 0 and zero_n2 == 720 and mixed_n3 == 116640 and elapsed < 120
    report(
        1,
        ok,
        f"{n_types} types across {len(results)} (n,d,p) all equal, "
        f"count(2,0)@n=2 = {zero_n2}, count(1,2)@n=3 = {mixed_n3}, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert zero_n2 == 720
    assert mixed_n3 == 116640
    assert elapsed < 120


def test_criterion_02_key_sum_exactness_and_trend(trend_counts):
    start = time.monotonic()
    ks3 = walk_census.key_sum(walk_census.walk_endpoint_counts(3, D, P))
    ns = sorted(set(TREND_NS) | set(LADDER_NS))
    # the tables for n past TREND_NS are built here
    tables = {n: trend_counts.get(n) or walk_census.walk_endpoint_counts(n, D, P) for n in ns}
    gaps = {n: abs(1 - walk_census.key_sum(tables[n])) for n in ns}
    bounds = {n: 5 * math.log(n) ** 1.5 / math.sqrt(n) for n in ns}
    elapsed = time.monotonic() - start
    exact_ok = ks3 == Fraction(27, 28)
    bound_ok = all(float(gaps[n]) <= bounds[n] for n in ns)
    decreasing = all(
        gaps[LADDER_NS[i + 1]] < gaps[LADDER_NS[i]] for i in range(len(LADDER_NS) - 1)
    )
    trend_ok = gaps[ns[-1]] < gaps[ns[0]]
    ok = exact_ok and bound_ok and decreasing and trend_ok and elapsed < 300
    gap_text = ", ".join(f"n={n}: {float(gaps[n]):.6f}" for n in ns)
    report(
        2,
        ok,
        f"key_sum(3)={ks3}, gaps {gap_text}; bound ok: {bound_ok}, "
        f"decreasing past the peak: {decreasing}, n={ns[-1]} below n={ns[0]}: {trend_ok}, "
        f"{elapsed:.1f}s",
    )
    assert exact_ok
    assert bound_ok
    assert elapsed < 300
    assert decreasing, (
        "gap does not strictly decrease along the post-peak ladder; "
        f"values {[(n, float(gaps[n])) for n in LADDER_NS]}"
    )
    assert trend_ok


def test_criterion_03_mass_and_parity(trend_counts, oracle_results):
    results, _ = oracle_results
    tables = [(n, d, p, walk_census.walk_endpoint_counts(n, d, p)) for n, d, p in results]
    tables += [(n, D, P, trend_counts[n]) for n in TREND_NS]
    mass_bad = [(n, d, p) for n, d, p, c in tables if not c.total_mass_ok]
    parity_bad = [(n, d, p) for n, d, p, c in tables if not c.parity_ok]
    ok = not mass_bad and not parity_bad
    report(3, ok, f"{len(tables)} endpoint tables, mass and parity exact on all")
    assert not mass_bad
    assert not parity_bad


def test_criterion_04_moments_exact():
    diffs = []
    for d, p in MOMENT_PAIRS:
        summed = lclt.moments_from_multiset(walk_census.build_U(d, p))
        mean = (Fraction(d, p),) * p
        cov = tuple(
            tuple(Fraction(d, p) * (j == k) - Fraction(d, p * p) for k in range(p))
            for j in range(p)
        )
        if (summed.mean, summed.covariance) != (mean, cov):
            diffs.append((d, p))
    ok = not diffs
    report(
        4, ok, f"multiset mean/covariance equal d/p and (d/p) I - (d/p^2) J for {MOMENT_PAIRS}"
    )
    assert not diffs


def test_criterion_05_gram_spectrum():
    bad = []
    for d, p in MOMENT_PAIRS:
        gram = sum(m * np.outer(w, w) for w, m in walk_census.build_U(d, p).items)
        rep = d * p ** (d - 2)
        closed = rep * np.eye(p, dtype=np.int64) + d * (d - 1) * p ** (d - 3)
        eig = np.linalg.eigvalsh(gram.astype(float))[::-1]
        expected = [d * d * p ** (d - 2)] + [rep] * (p - 1)
        err = float(np.abs(eig - expected).max())
        if gram.tolist() != closed.tolist() or err > 1e-9:
            bad.append((d, p, err))
    ok = not bad
    report(
        5,
        ok,
        f"sum m_w w w^T = d p^(d-2) I + d(d-1) p^(d-3) J exactly, eigenvalues d^2 p^(d-2) "
        f"and d p^(d-2) with multiplicity p-1 (not d-1) to 1e-9 for {MOMENT_PAIRS}",
    )
    assert not bad


def test_criterion_06_lclt_error_shrinks():
    err24 = lclt.lclt_error_scan(walk_census.walk_endpoint_counts(24, D, P)).max_rel_error
    err96 = lclt.lclt_error_scan(walk_census.walk_endpoint_counts(96, D, P)).max_rel_error
    ok = err96 < err24 and err96 <= 0.2
    report(
        6,
        ok,
        f"max rel error {err96:.4f} at n=96 < {err24:.4f} at n=24, "
        f"both within 0.2 (b={lclt.DEFAULT_B})",
    )
    assert err96 < err24
    assert err96 <= 0.2


def test_criterion_07_rate_function():
    zero_rates = []
    for d, p in ((3, 2), (4, 3)):
        uniform = [1.0 / p] * p
        degenerate = [1.0] + [0.0] * (p - 1)
        for nv in (uniform, degenerate):
            zero_rates.append(abs(rate_ldp.maxent_alpha(nv, d, p).rate))
    zeros_ok = max(zero_rates) <= 1e-9
    scan32 = rate_ldp.negativity_grid_scan(3, 2, 100)
    scan43 = rate_ldp.negativity_grid_scan(4, 3, 100)
    scans_ok = (
        scan32.all_negative
        and scan43.all_negative
        and scan32.n_nonconverged == 0
        and scan43.n_nonconverged == 0
    )
    # rate(uniform + delta) = -(p/2) |delta|^2 + O(|delta|^3) along seeded
    # zero-sum directions of length 1e-3: halving delta quarters the rate
    ratio_err = coef_err = 0.0
    for d, p in ((3, 2), (4, 3)):
        rng = np.random.default_rng(20240801)
        uniform = np.full(p, 1.0 / p)
        for _ in range(8):
            g = rng.standard_normal(p)
            g -= g.mean()
            g /= np.linalg.norm(g)
            delta = 1e-3 * g
            full = rate_ldp.maxent_alpha(uniform + delta, d, p).rate
            half = rate_ldp.maxent_alpha(uniform + delta / 2, d, p).rate
            ratio_err = max(ratio_err, abs(full / half - 4) / 4)
            coef_err = max(coef_err, abs(full / float(delta @ delta) / (-p / 2) - 1))
    quad_ok = ratio_err <= 0.05 and coef_err <= 1e-2
    ok = zeros_ok and scans_ok and quad_ok
    report(
        7,
        ok,
        f"|rate| at equality points <= {max(zero_rates):.2e}; grid max rates "
        f"{scan32.max_rate:.2e} (3,2) and {scan43.max_rate:.2e} (4,3) strictly "
        f"negative; halving ratios within {ratio_err:.2%} of 4, "
        f"rate/|delta|^2 within {coef_err:.2%} of -p/2",
    )
    assert zeros_ok
    assert scans_ok
    assert quad_ok


def test_criterion_08_far_class_bounded(trend_counts):
    scaled = {}
    for n in (20, 40, 80):
        _, n_sum, _ = walk_census.type_class_partition(trend_counts[n], 10.0)
        scaled[n] = float(n_sum) * n ** (D - 2)
    base = scaled[20]
    ok = all(scaled[n] <= 2 * base for n in (40, 80))
    report(
        8,
        ok,
        "far-from-uniform contribution times n stays within 2x its n=20 value: "
        + ", ".join(f"n={n}: {scaled[n]:.3g}" for n in (20, 40, 80)),
    )
    assert scaled[40] <= 2 * base
    assert scaled[80] <= 2 * base


def test_criterion_09_monte_carlo_committed_seed():
    cfg = json.loads(files("regsing").joinpath("mc_acceptance.json").read_text())
    # Trial i depends only on (n, d, seed, primes, i), and the rational run shares
    # (n, d, seed, primes) with the mod-5 run, so its trials are the first trials
    # of that run: one run of fp_run.trials serves both summaries.
    assert cfg["rational_run"]["p"] == cfg["fp_run"]["p"]
    assert cfg["rational_run"]["trials"] <= cfg["fp_run"]["trials"]
    start = time.monotonic()
    fp_cfg = mc_harness.ExperimentConfig(
        n=cfg["n"],
        d=cfg["d"],
        primes=(cfg["fp_run"]["p"],),
        trials=cfg["fp_run"]["trials"],
        seed=cfg["seed"],
        parallelism=1,
    )
    fp_summary, fp_records = mc_harness.run_experiment(fp_cfg)
    rat_cfg = mc_harness.ExperimentConfig(
        n=cfg["n"],
        d=cfg["d"],
        primes=(cfg["rational_run"]["p"],),
        trials=cfg["rational_run"]["trials"],
        seed=cfg["seed"],
        parallelism=1,
    )
    rat_summary = mc_harness.summarize(rat_cfg, fp_records[: rat_cfg.trials])
    elapsed = time.monotonic() - start
    for rec in fp_records:
        mc_harness.check_trial_invariants(rec)
    fp_frac = fp_summary.per_prime[0][1]
    rat_frac = rat_summary.rational_fraction
    fp_ok = fp_frac <= cfg["fp_run"]["max_singular_fraction"]
    rat_ok = rat_frac <= cfg["rational_run"]["max_singular_fraction"]
    time_ok = elapsed < cfg["runtime_budget_seconds"]
    ok = fp_ok and rat_ok and time_ok
    report(
        9,
        ok,
        f"n={cfg['n']} seed={cfg['seed']}: singular mod 5 {fp_frac:.4f} <= "
        f"{cfg['fp_run']['max_singular_fraction']} over {fp_cfg.trials} trials, rational "
        f"{rat_frac:.4f} <= {cfg['rational_run']['max_singular_fraction']} over "
        f"{rat_cfg.trials}, chain holds on every trial, {elapsed:.0f}s",
    )
    assert fp_ok
    assert rat_ok
    assert time_ok


def test_criterion_10_cli_byte_identity(tmp_path, monkeypatch):
    monkeypatch.delenv("REGSING_OUT_DIR", raising=False)
    # n = 24 blocks hold 2^18 // 576 = 455 trials: 600 trials are two blocks,
    # so --parallel 8 runs them on two workers
    mc_args = ["mc", "--n", "24", "--d", "3", "--p", "2,5", "--trials", "600", "--seed", "7"]

    def run(workers, out):
        with redirect_stdout(io.StringIO()):
            return cli_main(mc_args + ["--parallel", str(workers), "--out", str(out)])

    paths = {tag: tmp_path / tag / "mc.json" for tag in ("serial", "parallel", "rerun")}
    with mock.patch.object(mc_harness, "run_block", wraps=mc_harness.run_block) as spy:
        assert run(1, paths["serial"]) == 0
    assert spy.call_count >= 2
    assert run(8, paths["parallel"]) == 0
    assert run(1, paths["rerun"]) == 0
    summaries = {tag: p.read_bytes() for tag, p in paths.items()}
    records = {
        tag: p.with_suffix("").with_suffix(".records.jsonl").read_bytes()
        for tag, p in paths.items()
    }
    mc_ok = (
        summaries["serial"] == summaries["parallel"] == summaries["rerun"]
        and records["serial"] == records["parallel"] == records["rerun"]
    )
    exact_blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"exact_{tag}.json"
        with redirect_stdout(io.StringIO()):
            code = cli_main(["exact", "--n", "12", "--d", "3", "--p", "2", "--out", str(out)])
        assert code == 0
        exact_blobs.append(out.read_bytes())
    exact_ok = exact_blobs[0] == exact_blobs[1]
    ok = mc_ok and exact_ok
    report(
        10,
        ok,
        "mc summary and per-trial records byte-identical at parallelism 1 vs 8 "
        "and across reruns; exact artifact byte-identical across reruns",
    )
    assert mc_ok
    assert exact_ok
