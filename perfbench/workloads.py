"""Workloads and metric names of the regsing benchmark.

Shared by the runner (run.py), the per-process worker (worker.py) and the
self-test (selftest.py), so the three agree on what is run and reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

# The committed criterion-9 seed (src/regsing/mc_acceptance.json).  Output
# digests of the seeded workloads were recorded at this seed.
DEFAULT_SEED = 20240813


@dataclass(frozen=True)
class Call:
    """One `regsing` CLI invocation; `tiny` is its self-test-sized twin."""

    label: str
    argv: Tuple[str, ...]
    tiny: Tuple[str, ...]

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Tuple[Call, ...]
    seeded: bool = False  # the benchmark seed is passed to `mc --seed`
    oracle: bool = False  # every trial's det_zero is checked against det_bareiss


def _argv(text: str) -> Tuple[str, ...]:
    return tuple(text.split())


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance parameters: large-n elimination dominates, 1-3 % of
        # trials take the full CRT loop.
        Workload(
            "mc-n300",
            (
                Call(
                    "mc-n300",
                    _argv("mc --n 300 --d 3 --p 5 --trials 200"),
                    _argv("mc --n 12 --d 3 --p 5 --trials 8"),
                ),
            ),
            seeded=True,
        ),
        # Same layers at small n: per-call overhead dominates and about a
        # fifth of trials are rationally singular.
        Workload(
            "mc-n30",
            (
                Call(
                    "mc-n30",
                    _argv("mc --n 30 --d 3 --p 2,5 --trials 2000"),
                    _argv("mc --n 12 --d 3 --p 2,5 --trials 8"),
                ),
            ),
            seeded=True,
            oracle=True,
        ),
        # Exact census: dict convolution at p >= 3, dense p = 2 path as the
        # in-workload control, and the local-limit scan.  No linear algebra.
        Workload(
            "census",
            (
                Call("n20-d3-p5", _argv("exact --n 20 --d 3 --p 5"), _argv("exact --n 4 --d 3 --p 5")),
                Call("n60-d4-p3", _argv("exact --n 60 --d 4 --p 3"), _argv("exact --n 4 --d 4 --p 3")),
                Call(
                    "n1280-d3-p2",
                    _argv("exact --n 1280 --d 3 --p 2"),
                    _argv("exact --n 4 --d 3 --p 2"),
                ),
                Call("n96-d3-p2", _argv("lclt --n 96 --d 3 --p 2"), _argv("lclt --n 8 --d 3 --p 2")),
            ),
        ),
        # Criterion-7 negativity scans: only rate_ldp is busy.
        Workload(
            "ratescan",
            (
                Call(
                    "d4-p3-r100",
                    _argv("rate --d 4 --p 3 --resolution 100"),
                    _argv("rate --d 4 --p 3 --resolution 10"),
                ),
                Call(
                    "d3-p2-r100",
                    _argv("rate --d 3 --p 2 --resolution 100"),
                    _argv("rate --d 3 --p 2 --resolution 10"),
                ),
            ),
        ),
    )
}


def labels(kind: str) -> List[str]:
    return [c.label for w in WORKLOADS.values() for c in w.calls if c.kind == kind]


# (name, unit, better)
END_TO_END = [
    ("cpu_s", "s", "lower"),
    ("trials_per_cpu_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Per-call timing distributions; each yields .p50.ms, .tail.ms and .samples.
DISTRIBUTIONS = [
    "graph_model.sample_configuration",
    "graph_model.adjacency_from_permutation",
    "graph_model.has_identical_rows",
    "gfp_core.fp_det",
    "gfp_core.int_determinant_is_zero.nonsingular",
    "gfp_core.int_determinant_is_zero.singular",
    "mc_harness.run_trial",
    "mc_harness.self",
    "rate_ldp.maxent_alpha.feasible",
    "rate_ldp.maxent_alpha.infeasible",
]


def per_layer() -> List[Tuple[str, str, str]]:
    out: List[Tuple[str, str, str]] = []
    for base in DISTRIBUTIONS:
        out += [
            (f"{base}.p50.ms", "ms", "lower"),
            (f"{base}.tail.ms", "ms", "lower"),
            (f"{base}.samples", "count", "lower"),
        ]
    out += [
        ("graph_model.identical_rows.count", "count", "lower"),
        ("gfp_core.rational_singular.count", "count", "lower"),
    ]
    for pt in labels("exact"):
        out += [
            (f"walk_census.walk_endpoint_counts.{pt}.s", "s", "lower"),
            (f"walk_census.key_sum.{pt}.s", "s", "lower"),
            (f"walk_census.type_class_partition.{pt}.s", "s", "lower"),
            (f"walk_census.lattice_points.{pt}", "count", "lower"),
            (f"walk_census.count_bits.{pt}", "count", "lower"),
        ]
    for pt in labels("lclt"):
        out.append((f"lclt.lclt_error_scan.{pt}.s", "s", "lower"))
    for g in labels("rate"):
        out += [
            (f"rate_ldp.negativity_grid_scan.{g}.s", "s", "lower"),
            (f"rate_ldp.infeasible.{g}", "count", "lower"),
            (f"rate_ldp.nonconverged.{g}", "count", "lower"),
            (f"rate_ldp.feasible_ratio.{g}", "ratio", "higher"),
        ]
    out += [
        ("cli.self.s", "s", "lower"),
        ("bench.trace_overhead.s", "s", "lower"),
    ]
    return out
