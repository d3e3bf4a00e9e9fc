"""Configuration-model d-regular directed multigraphs.

A sample is a uniform permutation of the n*d half-edge points; the d
points of vertex k occupy the contiguous slot block [k*d, (k+1)*d).  The
directed edge count A[k][l] is the number of points of fiber k whose
image lands in fiber l, so every row and column sum equals d by
construction (loops and multi-edges are kept).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .common import GuardError, require_degree, require_word
from .gfp_core import int_matrix

ENUMERATION_GUARD = 10  # (n*d)! grows past desk scale beyond 10 points


def philox_generator(seed: int, stream: int) -> np.random.Generator:
    """Counter-based RNG; (seed, stream) pairs give independent streams.
    Both must lie in [0, 2^64), so that no two pairs share a key."""
    key = np.array([require_word("seed", seed), require_word("stream", stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class ConfigurationSample:
    n: int
    d: int
    perm: np.ndarray  # permutation of range(n*d)
    seed: Optional[int] = None
    stream: Optional[int] = None


def sample_configuration(n: int, d: int, seed: int, stream: int = 0) -> ConfigurationSample:
    """Uniform point permutation, deterministic given (seed, stream)."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    require_degree(d)
    rng = philox_generator(seed, stream)
    perm = rng.permutation(n * d)
    return ConfigurationSample(n=n, d=d, perm=perm, seed=seed, stream=stream)


def adjacency_from_permutation(sample: ConfigurationSample) -> np.ndarray:
    """n x n integer matrix counting directed edges between fibers."""
    n, d = sample.n, sample.d
    target_fiber = np.asarray(sample.perm, dtype=np.int64) // d
    a = np.zeros((n, n), dtype=np.int64)
    np.add.at(a, (np.repeat(np.arange(n), d), target_fiber), 1)
    return a


def enumerate_all_configurations(n: int, d: int) -> Iterator[ConfigurationSample]:
    """Yield all (n*d)! point permutations, each exactly once."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    require_degree(d)
    nd = n * d
    if nd > ENUMERATION_GUARD:
        raise GuardError(
            f"refusing to enumerate ({n}*{d})! = {math.factorial(nd)} permutations; "
            f"the guard allows n*d <= {ENUMERATION_GUARD}"
        )
    for perm in itertools.permutations(range(nd)):
        yield ConfigurationSample(n=n, d=d, perm=np.asarray(perm, dtype=np.int64))


def has_identical_rows(a) -> bool:
    """True iff two rows agree exactly (a structural singularity witness)."""
    a = int_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    # rows are keyed by their bytes in the matrix's own dtype
    return len(set(map(bytes, np.ascontiguousarray(a)))) < len(a)
