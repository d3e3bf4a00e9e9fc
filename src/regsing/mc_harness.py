"""Monte Carlo estimation of singularity probabilities for adjacency
matrices of random d-regular directed multigraphs.

Each trial draws one configuration-model sample, reduces its adjacency
matrix mod every listed prime, and decides exact rational singularity
through the integer determinant.  Trials use independent counter-based
streams keyed by (seed, trial index), so results are byte-identical for a
fixed seed regardless of blocking, scheduling or parallelism.

Trials run in blocks of max(MIN_LANES, STACK_ENTRIES // n^2) below
`gfp_core.MIN_SCHUR_N` and of max(MIN_LANES, SCHUR_STACK_ENTRIES // n^2)
from it on, so every block but a run's last is eliminated in one stacked
sweep at every n.  `run_block` alone builds and decides them, with no
per-trial n x n work before the elimination: one `graph_model` call each
samples the block's permutations, counts their edges into one stack of
the narrowest unsigned dtype that holds d (uint8 for d <= 255) and runs
the duplicate-row witness over every lane.  It decides every listed
prime, and the first CRT prime, with one `gfp_core.fp_dets_stack` call
per modulus, which picks the elimination kernel (an unfused 2 goes to the
packed-bit kernel) and, from n = MIN_SCHUR_N on, first shrinks each
matrix to the integer Schur complement of its +-1 structural pivots, a
few lanes at a time, and sweeps it sparsest rows and columns first.  Only
the integer zero test runs per matrix, on the narrow lanes, with one
stacked sweep for a lane whose first CRT residue is 0.  `run_trial` is a block of one trial.  A record's elapsed is the
block's wall time divided by its size: diagnostics only, never in the
canonical records.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

from .common import GuardError, require_coprime_degree, require_degree, require_prime, require_word
# fp_det is not called here; perfbench/worker.py wraps mc_harness.fp_det by name.
from .gfp_core import MIN_SCHUR_N, crt_primes, fp_det, fp_dets_stack, fused_prime, int_determinant_is_zero
from .graph_model import adjacency_stack, identical_rows, sample_permutations
# Not called here either: perfbench/worker.py wraps these mc_harness attributes
# by name too, and a block builds its stack with the functions above.
from .graph_model import adjacency_from_permutation, has_identical_rows, sample_configuration

# Caps n*trials so a typo cannot schedule days of elimination work.
WORKLOAD_GUARD = 5_000_000
# Normal quantile of every reported interval: 95 % two-sided.
WILSON_Z = 1.96
# Matrix entries in one block below gfp_core.MIN_SCHUR_N: 291 matrices at
# n = 30, 66 at n = 63, 1820 at n = 12.  The benchmark's mc-n30 job (2000
# trials, p = 2, 5) took a median 0.245, 0.207, 0.187 and 0.184 CPU s at
# 2^16, 2^17, 2^18 and 2^19, for 0.7, 1.3 and 3.1 MB more peak memory than
# at 2^16 (BENCH_32); in-process, a trial at n = 48 took 0.34 ms at 2^16
# and 0.21 ms at 2^18.  2^18 is the largest budget within 1.5 MB.
STACK_ENTRIES = 2**18
# Matrix entries in one block from MIN_SCHUR_N on, where the sweep sees
# only the Schur complements and `gfp_core` takes the structural steps
# over SCHUR_LANES = 6 lanes at a time: 11 trials at n = 300, 256 at
# n = 64, and 6 from n = 388 on.  The benchmark's mc-n300 job (200
# trials, p = 5) took 0.746 CPU s in blocks of 11, against 0.848 s for
# blocks of 6 with steps mod M, for 1.0 MB more peak memory (BENCH_23);
# in-process, 600 trials at n = 64, 100 and 200 took 0.24, 0.43 and
# 1.10 s against 0.36, 0.71 and 1.48 s under the 2^16 rule, for 3-5 MB
# more.
SCHUR_STACK_ENTRIES = 2**20
# Fewest trials in a block, the size from n = 388 on.  At n = 300 a
# block of 11 holds 1 MB of uint8 adjacency; its elimination mod 5q holds
# no uint32 copy of it, only the Schur complements of its structural
# pivots (`gfp_core`), about 89 rows each, 0.35 MB of uint32 residues.
MIN_LANES = 6


class InvariantError(RuntimeError):
    """A per-trial implication check failed; indicates a software defect."""


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    d: int
    primes: Tuple[int, ...]
    trials: int
    seed: int
    parallelism: int = 1

    def __post_init__(self):
        require_degree(self.d)
        require_word("seed", self.seed)
        for p in self.primes:
            require_prime(p)
            require_coprime_degree(p, self.d)
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"primes must be distinct, got {self.primes}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")
        if self.n * self.trials > WORKLOAD_GUARD:
            raise GuardError(f"n*trials exceeds the workload guard {WORKLOAD_GUARD}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one sampled graph.

    elapsed is wall-clock diagnostics only and is excluded from the
    canonical records `regsing mc` writes, which must be identical across
    schedules.
    """

    trial: int
    singular_mod: Tuple[Tuple[int, bool], ...]  # (prime, singular) sorted by prime
    det_zero: bool
    identical_rows: bool
    elapsed: float


def check_trial_invariants(rec: TrialRecord) -> None:
    """identical-rows implies det 0 implies singular mod every listed prime."""
    if rec.identical_rows and not rec.det_zero:
        raise InvariantError(
            f"trial {rec.trial}: identical rows but nonzero integer determinant"
        )
    if rec.det_zero and not all(flag for _, flag in rec.singular_mod):
        raise InvariantError(
            f"trial {rec.trial}: zero integer determinant but nonsingular mod a prime"
        )


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion at z = WILSON_Z."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = WILSON_Z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # The bounds are exactly 0 (resp. 1) at the empty (resp. full) success
    # count; snapping removes float fuzz in the last ulp.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return (low, high)


@dataclass(frozen=True)
class SummaryStats:
    n: int
    d: int
    trials: int
    seed: int
    per_prime: Tuple[Tuple[int, float, float, float], ...]  # (p, fraction, low, high)
    rational_fraction: float
    rational_interval: Tuple[float, float]
    identical_rows_fraction: float


def run_trial(n: int, d: int, seed: int, primes: Sequence[int], trial: int) -> TrialRecord:
    """One sampled graph, decided as a block of one trial."""
    return run_block(n, d, seed, primes, range(trial, trial + 1))[0]


def run_block(n: int, d: int, seed: int, primes: Sequence[int], trials: range) -> List[TrialRecord]:
    """The sampled graphs of one block: per-prime residues and the exact
    integer-zero test, one record per trial in the order of trials.

    The determinant of each sampled matrix is decided once; singularity mod
    a listed prime reads the determinant residue at that prime (reduction
    commutes with the determinant), not a separate rational elimination.
    One `fp_dets_stack` over the block's stacked adjacency matrices decides
    the first CRT prime q and the listed prime named by `fused_prime` (the
    largest p <= 5, if any), mod p*q or q; its residues mod q go to the zero
    test, one call per matrix, which alone still decides det_zero.  Every
    other listed prime gets its own `fp_dets_stack`.
    """
    t0 = time.perf_counter()
    stack = adjacency_stack(sample_permutations(n, d, seed, trials), d)
    identical = identical_rows(stack)
    fused = fused_prime(primes)
    residue = {p: fp_dets_stack(stack, (p,))[:, 0].tolist() for p in primes if p not in fused}
    *dets, first = fp_dets_stack(stack, (*fused, crt_primes(1)[0])).T.tolist()
    residue.update(zip(fused, dets))
    det_zero = [int_determinant_is_zero(a, f) for a, f in zip(stack, first)]
    elapsed = (time.perf_counter() - t0) / len(trials)
    records = []
    for k, trial in enumerate(trials):
        rec = TrialRecord(
            trial=trial,
            singular_mod=tuple((p, residue[p][k] == 0) for p in sorted(primes)),
            det_zero=det_zero[k],
            identical_rows=identical[k],
            elapsed=elapsed,
        )
        check_trial_invariants(rec)
        records.append(rec)
    return records


def summarize(cfg: ExperimentConfig, records: Sequence[TrialRecord]) -> SummaryStats:
    trials = len(records)
    per_prime: List[Tuple[int, float, float, float]] = []
    for idx, p in enumerate(sorted(cfg.primes)):
        hits = sum(1 for r in records if r.singular_mod[idx][1])
        lo, hi = wilson_interval(hits, trials)
        per_prime.append((p, hits / trials, lo, hi))
    zero_hits = sum(1 for r in records if r.det_zero)
    lo, hi = wilson_interval(zero_hits, trials)
    rational_fraction = zero_hits / trials
    for p, frac, _, _ in per_prime:
        if frac < rational_fraction:
            raise InvariantError(
                f"singular fraction mod {p} is below the rational-singular fraction"
            )
    return SummaryStats(
        n=cfg.n,
        d=cfg.d,
        trials=trials,
        seed=cfg.seed,
        per_prime=tuple(per_prime),
        rational_fraction=rational_fraction,
        rational_interval=(lo, hi),
        identical_rows_fraction=sum(r.identical_rows for r in records) / trials,
    )


def run_experiment(cfg: ExperimentConfig) -> Tuple[SummaryStats, List[TrialRecord]]:
    """All trials of one experiment, in blocks of max(MIN_LANES, entries //
    n^2) trials, entries being STACK_ENTRIES below MIN_SCHUR_N and
    SCHUR_STACK_ENTRIES from it on; records come back in trial order."""
    entries = STACK_ENTRIES if cfg.n < MIN_SCHUR_N else SCHUR_STACK_ENTRIES
    size = max(MIN_LANES, entries // (cfg.n * cfg.n))
    blocks = [range(t, min(t + size, cfg.trials)) for t in range(0, cfg.trials, size)]
    work = partial(run_block, cfg.n, cfg.d, cfg.seed, cfg.primes)
    if cfg.parallelism == 1:
        records = [rec for recs in map(work, blocks) for rec in recs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # so a serial run never loads multiprocessing
        chunk = max(1, len(blocks) // (cfg.parallelism * 8))
        # the pool starts all its workers at once: no more than there are blocks
        with ProcessPoolExecutor(max_workers=min(cfg.parallelism, len(blocks))) as pool:
            records = [rec for recs in pool.map(work, blocks, chunksize=chunk) for rec in recs]
    return summarize(cfg, records), records
