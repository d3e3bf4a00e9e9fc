"""Configuration-model d-regular directed multigraphs.

A sample is a uniform permutation of the n*d half-edge points; the d
points of vertex k occupy the contiguous slot block [k*d, (k+1)*d).  The
directed edge count A[k][l] is the number of points of fiber k whose
image lands in fiber l, so every row and column sum equals d by
construction (loops and multi-edges are kept).

A Monte Carlo block is built in one pass per layer.  `sample_permutations`
draws one row per stream from a single Philox generator re-keyed to
[seed, stream] before each row; assigning the key resets the counter and
the buffered output too, so every row is the permutation a fresh
`philox_generator(seed, stream)` draws; re-keying took about 2 us, building
a generator about 18 us.  `adjacency_stack` counts the block's edges into
one stack of the narrowest unsigned dtype that holds d, in d passes that
each add one point per row, so that no index repeats within a pass, with
no n x n int64 matrix per trial.  `identical_rows` keys every row of a
stack by its bytes, through one void view of the stack, and compares the
keys of each matrix in a set; it calls no numpy sort, whose first call in
a process maps its kernels' code pages and raises peak memory.
`sample_configuration`, `adjacency_from_permutation` and
`has_identical_rows` are the same functions on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .common import require_degree, require_word
from .gfp_core import int_matrix


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


def sample_permutations(n: int, d: int, seed: int, streams: Sequence[int]) -> np.ndarray:
    """Uniform point permutations as an int64 array of shape (len(streams),
    n*d): row k is philox_generator(seed, streams[k]).permutation(n*d)."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    require_degree(d)
    rng = philox_generator(seed, 0)
    bitgen = rng.bit_generator
    # the state of a fresh generator: zero counter, empty buffer
    state = bitgen.state
    key = state["state"]["key"]
    perms = np.empty((len(streams), n * d), dtype=np.int64)
    perms[:] = np.arange(n * d)
    for row, stream in zip(perms, streams):
        key[1] = require_word("stream", stream)
        bitgen.state = state
        rng.shuffle(row)
    return perms


def sample_configuration(n: int, d: int, seed: int, stream: int = 0) -> ConfigurationSample:
    """Uniform point permutation, deterministic given (seed, stream)."""
    perm = sample_permutations(n, d, seed, (stream,))[0]
    return ConfigurationSample(n=n, d=d, perm=perm, seed=seed, stream=stream)


def adjacency_stack(perms: np.ndarray, d: int) -> np.ndarray:
    """Edge counts between fibers of every point permutation in perms, of
    shape (B, n*d), as a (B, n, n) stack of the narrowest unsigned dtype
    that holds d."""
    b, nd = perms.shape
    n = nd // d
    stack = np.zeros((b, n, n), dtype=np.min_scalar_type(d))
    # flat index of entry (k, i, target) is (k*n + i)*n + target
    index = (np.asarray(perms, dtype=np.int64) // d).reshape(b * n, d)
    index += np.arange(0, b * n * n, n)[:, None]
    flat = stack.reshape(-1)
    for j in range(d):
        flat[index[:, j]] += 1
    return stack


def adjacency_from_permutation(sample: ConfigurationSample) -> np.ndarray:
    """n x n matrix counting directed edges between fibers, in the narrowest
    unsigned dtype that holds d: `adjacency_stack` on a stack of one."""
    return adjacency_stack(np.asarray(sample.perm)[None], sample.d)[0]


def identical_rows(stack: np.ndarray) -> list[bool]:
    """For each matrix of an integer stack of shape (B, n, n), whether two of
    its rows agree exactly (a structural singularity witness)."""
    b, n, _ = stack.shape
    # one bytes key per row, in the stack's own dtype
    keys = np.ascontiguousarray(stack).view(np.dtype((np.void, n * stack.itemsize)))
    return [len(set(lane.ravel().tolist())) < n for lane in keys]


def has_identical_rows(a) -> bool:
    """True iff two rows agree exactly: `identical_rows` on a stack of one."""
    a = int_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    return identical_rows(a[None])[0]
