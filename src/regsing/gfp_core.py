"""Exact linear algebra over F_p and over the integers.

Input is checked once, by `int_matrix`: a 2-D int64 ndarray is used as it
is, and other input becomes int64 when its entries fit, an object array
of Python ints otherwise (reduced mod p before any elimination).
Elimination mod a prime p < 2^31 runs on int64 residues, where products
of two residues fit in 64 bits.  Integer determinants come from one
residue loop over a fixed list of 31-bit primes, sized by the Hadamard
bound: `det_crt` recombines every residue by the Chinese remainder
theorem, and `int_determinant_is_zero` stops at the first nonzero one.
`det_bareiss` (fraction-free elimination in Python ints) shares no code
with that loop and is its independent test oracle; it is also the cheaper
route for tiny matrices, such as the cofactor minors of
`rate_ldp.facet_normals`, where the residue loop's setup dominates.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .common import MAX_PRIME, is_prime, require_prime

MatrixLike = Sequence[Sequence[int]]


def _as_rows(m: MatrixLike) -> list[list[int]]:
    rows = [list(map(int, r)) for r in m]
    if rows:
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged matrix")
    return rows


def _require_square(rows: MatrixLike) -> int:
    n = len(rows)
    w = rows.shape[1] if isinstance(rows, np.ndarray) else len(rows[0]) if n else 0
    if w != n:
        raise ValueError(f"square matrix required, got {n}x{w}")
    return n


def int_matrix(m: MatrixLike) -> np.ndarray:
    """m as a 2-D array: an int64 ndarray as it is (no copy), other input as
    int64 where every entry fits and as Python ints (dtype object) if not."""
    if isinstance(m, np.ndarray) and m.dtype.kind in "iu" and np.can_cast(m.dtype, np.int64):
        a = m.astype(np.int64, copy=False)
        if a.ndim != 2:
            raise ValueError(f"2-D matrix required, got {a.ndim} dimensions")
        return a
    rows = _as_rows(m)
    if not rows:
        return np.zeros((0, 0), dtype=np.int64)
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def fp_eliminate(m: MatrixLike, p: int) -> tuple[int, int]:
    """Row-reduce m mod p; returns (rank, det mod p).

    det is reported as 0 for non-square or rank-deficient input.  A column
    updates only the rows with a nonzero entry below its pivot, scaling the
    multipliers rather than the pivot row; columns left of it go stale.
    """
    require_prime(p)
    a = (int_matrix(m) % p).astype(np.int64, copy=False)
    nr, nc = a.shape
    det, r = 1, 0
    for c in range(nc):
        if r == nr:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            det = 0
            continue
        if nz[0]:
            piv = r + int(nz[0])
            a[r, c:], a[piv, c:] = a[piv, c:].copy(), a[r, c:].copy()
            det = -det
        pv = int(a[r, c])
        det = det * pv % p
        if nz.size > 1:
            # entries stay below p, so f * a[r] + a[rows] < 2^63
            rows = nz[1:] + r
            f = a[rows, c] * (p - pow(pv, -1, p)) % p
            a[rows, c + 1 :] = (a[rows, c + 1 :] + f[:, None] * a[r, c + 1 :]) % p
        r += 1
    if nr != nc or r < nr:
        det = 0
    return r, det % p


def fp_rank(m: MatrixLike, p: int) -> int:
    """Rank of m with entries reduced mod p.  Empty input has rank 0."""
    return fp_eliminate(m, p)[0]


def fp_det(m: MatrixLike, p: int) -> int:
    a = int_matrix(m)
    _require_square(a)
    return fp_eliminate(a, p)[1]


def fp_kernel_size_exponent(m: MatrixLike, p: int) -> int:
    """k such that the kernel of the n x n matrix m over F_p has p^k elements."""
    a = int_matrix(m)
    return _require_square(a) - fp_eliminate(a, p)[0]


def det_bareiss(m: MatrixLike) -> int:
    """Exact determinant by fraction-free elimination (all divisions exact)."""
    a = _as_rows(m)
    n = _require_square(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pk * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def hadamard_bound(m: MatrixLike) -> int:
    """Integer upper bound on |det| from row 2-norms (0 iff a zero row exists).

    Row sums of squares are taken in int64 where width * max|x|^2 fits,
    in Python ints otherwise; their product is always an exact Python int.
    """
    a = int_matrix(m)
    fits = a.dtype != object and (
        a.size == 0 or a.shape[1] * max(int(a.max()), -int(a.min())) ** 2 < 2**63
    )
    sq = (a * a).sum(axis=1).tolist() if fits else [sum(x * x for x in r) for r in a.tolist()]
    if 0 in sq:
        return 0
    return math.isqrt(math.prod(sq)) + 1


def _word_primes():
    q = MAX_PRIME - 1
    while True:
        if is_prime(q):
            yield q
        q -= 1


# Deterministic CRT prime list, largest primes below 2^31, extended on demand.
_CRT_PRIMES: list[int] = []
_CRT_GEN = _word_primes()


def crt_primes(count: int) -> list[int]:
    while len(_CRT_PRIMES) < count:
        _CRT_PRIMES.append(next(_CRT_GEN))
    return _CRT_PRIMES[:count]


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    # x = r1 (mod m1), x = r2 (mod m2), gcd(m1, m2) = 1
    t = (r2 - r1) * pow(m1, -1, m2) % m2
    return r1 + m1 * t, m1 * m2


def _det_residues(a: np.ndarray):
    """(p, det(a) mod p) over the CRT primes in order, until their product
    exceeds twice the Hadamard bound, which fixes det(a) exactly."""
    bound = hadamard_bound(a)
    mod, k = 1, 0
    while mod <= 2 * bound:
        k += 1
        p = crt_primes(k)[-1]
        yield p, fp_eliminate(a, p)[1]
        mod *= p


def det_crt(m: MatrixLike) -> int:
    """Exact determinant via residues mod 31-bit primes + CRT reconstruction."""
    a = int_matrix(m)
    _require_square(a)
    res, mod = 0, 1
    for p, dp in _det_residues(a):
        res, mod = _crt_pair(res, mod, dp, p)
    return res - mod if res > mod // 2 else res


def int_determinant_is_zero(m: MatrixLike) -> bool:
    """Exact test det(m) == 0, short-circuiting on the first nonzero residue.

    A single nonzero residue certifies det != 0; otherwise residues are
    accumulated until their modulus exceeds twice the Hadamard bound, which
    certifies det == 0.  Never touches floating point.
    """
    a = int_matrix(m)
    _require_square(a)
    return all(dp == 0 for _, dp in _det_residues(a))
