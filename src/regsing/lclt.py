"""The Gaussian point-mass approximation to exact walk endpoint
probabilities, and the step moments it rests on, summed as an oracle.

The walk step X is uniform over the profile multiset of sum-zero d-tuples;
its mean is d/p in every coordinate and its covariance is (d/p) I - (d/p^2) J,
which annihilates the all-ones direction.  For a frequency profile t of a
length-n vector, the point mass at the endpoint d*t is approximated by

    p^{3/2} (p / (2 pi d n))^{(p-1)/2} exp(-(d p n / 2) q(t)),

with q(t) = sum_j (t_j/n - 1/p)^2; the projection orthogonal to the
all-ones direction has the same norm because the deviation sums to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .walk_census import (
    LatticeCounts,
    TypeVec,
    UMultiset,
    is_admissible,
    near_uniform,
    squared_deviation,
    type_vectors,
)

# Default window parameter for equidistributed-class scans.  Pinned by pilot
# runs (d=3, p=2, n in {24, 48, 96}): wider windows admit near-boundary types
# whose exact counts truncate while the Gaussian does not, blowing up the
# pointwise relative error.  A configuration choice, not a theoretical constant.
DEFAULT_B = 0.25


@dataclass(frozen=True)
class MomentData:
    d: int
    p: int
    mean: Tuple[Fraction, ...]
    covariance: Tuple[Tuple[Fraction, ...], ...]


def moments_from_multiset(u: UMultiset) -> MomentData:
    """Mean/covariance by direct summation over the step multiset: an oracle
    that the tests hold to the closed forms above; the package never calls it."""
    total = u.total_multiplicity
    p = u.p
    mean = [Fraction(0)] * p
    for w, m in u.items:
        for j in range(p):
            mean[j] += Fraction(m * w[j], total)
    cov = [[Fraction(0)] * p for _ in range(p)]
    for w, m in u.items:
        for j in range(p):
            for k in range(p):
                cov[j][k] += Fraction(m * w[j] * w[k], total)
    for j in range(p):
        for k in range(p):
            cov[j][k] -= mean[j] * mean[k]
    return MomentData(d=u.d, p=p, mean=tuple(mean), covariance=tuple(map(tuple, cov)))


def gaussian_point_mass(t: Sequence[int], d: int, p: int) -> float:
    """Gaussian approximation to P(walk endpoint = d*t); 0 is exact when inadmissible."""
    n = sum(t)
    q = squared_deviation(t, p)
    return (
        p**1.5
        * (p / (2 * math.pi * d * n)) ** ((p - 1) / 2)
        * math.exp(-(d * p * n / 2) * q)
    )


@dataclass
class LcltScan:
    n: int
    d: int
    p: int
    b: float
    rows: List[Tuple[TypeVec, float, float, float]]  # (type, exact, gaussian, rel_error)
    max_rel_error: float
    zero_probability_types: int  # class-E admissible types the walk cannot reach


def lclt_error_scan(counts: LatticeCounts, b: float = DEFAULT_B) -> LcltScan:
    """Exact vs Gaussian over every admissible equidistributed profile.

    Exact probabilities are rationals count(d*t) / p^((d-1)n), converted to
    float only for the comparison.  Unreachable profiles (exact probability
    zero) are tallied separately since relative error is undefined there.
    """
    n, d, p = counts.n, counts.d, counts.p
    near = near_uniform(n, p, b)
    denom = p ** ((d - 1) * n)
    rows: List[Tuple[TypeVec, float, float, float]] = []
    zero_types = 0
    for t in type_vectors(n, p):
        if not is_admissible(t, p) or not near(t):
            continue
        c = counts.profile_count(t)
        g = gaussian_point_mass(t, d, p)
        if c == 0:
            zero_types += 1
            continue
        exact = float(Fraction(c, denom))
        rows.append((t, exact, g, abs(g - exact) / exact))
    max_err = max((r[3] for r in rows), default=0.0)
    return LcltScan(
        n=n, d=d, p=p, b=b, rows=rows, max_rel_error=max_err, zero_probability_types=zero_types
    )
