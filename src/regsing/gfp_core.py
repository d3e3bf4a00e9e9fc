"""Exact linear algebra over F_p and over the integers.

Input is checked once, by `int_matrix`: a 2-D integer ndarray, or a list
of rows, whose dtype fits in int64 is used as given, with no copy; floats,
bools, uint64 and Python ints past int64 raise ValueError.

Every determinant mod p has one contract, `fp_dets_stack`: a stack of B
square integer matrices in, det mod each of distinct primes out, from one
elimination mod their product M.  A row update adds a residue to a product
of two residues, at most (M-1) + (M-1)^2 = M(M-1), so M(M-1) < 2^63 is the
one size rule; it also keeps M below 2^32, so a residue fits in uint32.
`fp_det` is one matrix mod one prime, a stack of one.  Three kernels sit
behind the contract, picked by what is asked: mod 2 alone the packed-bit
kernel at every stack size; otherwise the per-matrix loop for a lone
matrix, once per prime, and the stacked sweep for a stack of two or more.

`_eliminate` is one matrix mod one prime: it takes uint32 residues and
eliminates an int64 copy of them, so that no row update mixes uint32 and
int64.  Per d = 3 adjacency matrix mod the first CRT prime, over 9
interleaved rounds, that took 0.38 against 0.43 ms at n = 30, 10.3 against
11.0 ms at n = 300, 0.54 against 0.60 ms on the Schur complements (below)
of n = 100 and the same 2.5 ms on those of n = 300.  Every nonzero residue
is a unit mod a prime, so the pivot is the first nonzero candidate, and a
column with none stops the sweep with det 0.

`_eliminate_stack` decides a whole stack in one sweep mod M, so a column
step costs one set of numpy calls for every matrix.  A pivot must be a
unit mod M, the first at or below the diagonal, and a matrix with no
nonzero candidate has det 0 and stays in the stack as a dead lane.  When
a matrix's candidates are nonzero but none is a unit, the primes split
(D5 dynamic evaluation: Della Dora, Dicrescenzo and Duval, EUROCAL 1985):
every prime finishes the remaining block alone in `_eliminate`, where one
dividing every candidate has det 0 at once (`_split`), and the lane is
dead too.  Each live matrix updates only its own rows with a nonzero
entry below the pivot, scaling the multipliers rather than the pivot row,
so the arithmetic is the per-matrix loop's and the stack saves only
calls.  Its unit test takes no division: a prime p divides no candidate x
exactly when x times a constant mod 2^32 exceeds a bound
(`_indivisible_by`), one uint32 multiply and compare per prime, which
took 9-11 us per column of a stack of 6 at n = 300 mod 5q, against 16.5
us for two remainders.  It forms every product of uint32 residues in
int64 through int64 multipliers, because NumPy keeps a uint32 array times
a Python int in uint32, where it wraps; the unit test wants that wrap.
The stack wins while the calls dominate: per matrix, eliminating d = 3
adjacency matrices mod 5q took 0.15x the per-matrix time at n = 30 in
stacks of 72, 0.33x at n = 64 in stacks of 16, 0.54x at n = 150 and
0.63x at n = 300 in stacks of 8, 0.62x at n = 300 in stacks of 6 and
0.72x at n = 600 in stacks of 8 (whole matrices, before the structural
step below).  On what a Monte Carlo block hands it (whole lanes at n = 30,
Schur complements at n = 100 and 300), stacks of 2 took 1.63x, 1.57x and
1.09x the time of matrix by matrix, and stacks of 3 1.19x, 1.04x and
0.87x.  Only a run's last block is that small (the block of 2 that ends
200 trials at n = 300 costs about 0.4 ms more), so the sweep takes every
stack of two or more.  A lone matrix took 1.6-3.1x the per-matrix loop's
time in the sweep, at those sizes mod 5q and mod q, so the loop keeps it;
the zero test's CRT tail is such a matrix.

From n = MIN_SCHUR_N on, and for every M but 2 alone, structured Gaussian
elimination (LaMacchia and Odlyzko, CRYPTO 1990) first shrinks each matrix
to a small Schur complement, which the kernels above then eliminate.  One
structural step (`_schur_step`) picks a set of pivots (P, C) per matrix with
A[P, C] diagonal and unit (the structural pivots of Faugere and Lachartre,
PASCO 2010) by one pass over the rows in order, and eliminates them all at
once: det A = +-prod(D) det(S), with S built from A's nonzeros alone.
Steps repeat on S, kept as sorted nonzeros, until its density passes
SCHUR_DENSITY; only the last S is written out as a uint32 stack, padded
with an identity to the largest lane, so no uint32 or bool copy of the
whole (B, n, n) stack is made.  For d = 3 adjacency matrices at n = 300
the steps leave about 172, 116 and 86 rows at densities of 2.6, 6.7 and
18 %; stopping after two, four or five steps took 4-9 % longer per matrix
than after three (SCHUR_DENSITY = 0.1), in stacks of 6 mod 5q and alone
mod q.  Per matrix mod 5q, in stacks of 6, the steps made the elimination
0.64x as long at n = 300 (3.7 against 5.7 ms: 1.6 ms in the steps, a
quarter of it the Python pivot pass, and 2.1 ms in the sweep of the
complement), and alone, mod q, 0.53x (5.6 against 10.5 ms), which is the
zero test's CRT tail (medians of 5 interleaved rounds).  Against the whole
sweep, in the stacks a Monte Carlo block holds and over 9 interleaved
rounds, it took 1.12x at n = 48 (stacks of 28), 1.06x at n = 56 (20),
0.94x at n = 64 (16), 0.78x at n = 80 (10), 0.68x at n = 100 (6) and 0.64x
at n = 128 (6), and alone 0.89x at n = 48, 0.82x at n = 64 and 0.65x at
n = 128: hence MIN_SCHUR_N = 64.

Mod 2 alone, `_eliminate_gf2` runs XOR on rows packed into machine words
(M4RI: Albrecht, Bard and Hart, ACM TOMS 2010), with no residues, unit
tests, inverses, reductions or split: a pivot fix-up and one dense masked
XOR per column, at every stack size.  Per matrix it took 0.22x the stacked
sweep's time at n = 30 in stacks of 72, 0.14x at n = 64 in stacks of 16,
0.2x at n = 300 in stacks of 6, and alone 0.5-0.75x the per-matrix loop's.

`int_determinant_is_zero` decides det == 0 by one `fp_det` per prime of a
fixed list of CRT primes, the largest below 2^29: it stops at the first
nonzero residue, and otherwise once the primes' product exceeds twice the
Hadamard bound.  The bound keeps 5q inside the size rule, so a Monte Carlo
block decides its listed prime p <= 5 and the first CRT prime q in one
`fp_dets_stack` mod pq (`fused_prime`) and hands the residues mod q to the
zero test; with no listed p <= 5 it takes them from one mod q alone.
`det_bareiss` (fraction-free elimination in Python ints) is the one exact
determinant.  It shares no code with the kernels, so it is their and the
zero test's independent oracle, and it is the cheaper route for tiny
matrices, such as the cofactor minors of `rate_ldp.facet_normals`.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from .common import is_prime, require_prime

MatrixLike = Sequence[Sequence[int]]

# Smallest n at which `fp_dets_stack` first reduces each matrix to the Schur
# complement of its structural pivots (see the module docstring).
MIN_SCHUR_N = 64
# Density of nonzeros past which `fp_dets_stack` takes no further structural
# step (see the module docstring).
SCHUR_DENSITY = 0.1


def _within_int64(dtype: np.dtype) -> bool:
    """An integer dtype whose every value fits in int64: np.can_cast(dtype,
    np.int64) for integer kinds, at about a third of its cost per call."""
    return dtype.kind == "i" or dtype.kind == "u" and dtype.itemsize < 8


def int_matrix(m: MatrixLike) -> np.ndarray:
    """m as a 2-D integer ndarray, as given (no copy); [] is the 0x0 matrix.
    Entries must be integers of a dtype within int64: floats, bools, uint64
    and Python ints past int64 raise ValueError."""
    if isinstance(m, (list, tuple)) and not m:
        return np.zeros((0, 0), dtype=np.int64)
    a = np.asarray(m)
    if not _within_int64(a.dtype):
        raise ValueError(f"integer matrix within int64 required, got dtype {a.dtype}")
    if a.ndim != 2:
        raise ValueError(f"2-D matrix required, got {a.ndim} dimensions")
    return a


def _fits_int64(mod: int) -> bool:
    """Residues mod `mod` can be eliminated in int64: (mod-1) + (mod-1)^2 < 2^63."""
    return mod * (mod - 1) < 2**63


def _modulus(primes: tuple[int, ...]) -> int:
    """M = prod(primes), checked: distinct primes with M(M-1) < 2^63."""
    for p in primes:
        require_prime(p)
    mod = math.prod(primes)
    if len(set(primes)) != len(primes) or not _fits_int64(mod):
        raise ValueError(f"primes {primes} must be distinct with product M, M(M-1) < 2^63")
    return mod


def _eliminate(a: np.ndarray, p: int) -> int:
    """det(a) mod the prime p for the square residues a mod p, row-reduced in
    an int64 copy.

    Every nonzero residue is a unit mod p, so the pivot is the first nonzero
    candidate at or below the diagonal, and a column with none stops the
    sweep with det 0.  A column updates only the rows with a nonzero entry
    below its pivot, scaling the multipliers rather than the pivot row;
    columns left of it go stale.
    """
    # one dtype in every row update: uint32 residues would mix with int64 products
    a = a.astype(np.int64)
    det = 1
    for c in range(len(a)):
        nz = a[c:, c].nonzero()[0]
        if nz.size == 0:
            return 0
        piv = c + int(nz[0])
        if piv != c:
            a[c, c:], a[piv, c:] = a[piv, c:].copy(), a[c, c:].copy()
            det = -det
        pv = int(a[c, c])
        det = det * pv % p
        if nz.size > 1:
            # entries stay below p, so f * a[c] + a[rows] <= (p-1)^2 + (p-1) < 2^63
            rows = nz[1:] + c
            f = a[rows, c] * (p - pow(pv, -1, p)) % p
            a[rows, c + 1 :] = (a[rows, c + 1 :] + f[:, None] * a[c, c + 1 :]) % p
    return det


def _split(block: np.ndarray, primes: tuple[int, ...], det: int) -> list[int]:
    """det * det(block) mod each prime once no entry of block's first column
    is a unit mod M (the D5 split): each prime finishes block alone, and one
    dividing the whole column gets det 0 from `_eliminate` at once."""
    return [det * _eliminate(block % p, p) % p for p in primes]


def _reduce(x: np.ndarray, mod: int) -> np.ndarray:
    """x % mod in place for x >= 0: numpy divides by a scalar several times
    faster than it takes a remainder."""
    x -= x // mod * mod
    return x


def _indivisible_by(p: int) -> tuple[np.uint32, int]:
    """(m, t) such that a prime p divides no uint32 x exactly when
    x * m mod 2^32 > t (Granlund and Montgomery, PLDI 1994): for odd p, m is
    the inverse of p mod 2^32, which maps the multiples of p onto
    0..floor((2^32 - 1) / p); for p = 2, m = 2^31 keeps the low bit alone."""
    if p == 2:
        return np.uint32(2**31), 0
    return np.uint32(pow(p, -1, 2**32)), (2**32 - 1) // p


def _eliminate_stack(a: np.ndarray, primes: tuple[int, ...]) -> np.ndarray:
    """det mod each prime of every square matrix in the stack a, residues mod
    M = prod(primes) of shape (B, n, n) (uint32 from `fp_dets_stack`),
    row-reduced in place; returns a (B, len(primes)) int64 array.

    One column at a time for the whole stack: the pivot is the first unit
    mod M at or below the diagonal (tested on the column read as uint32, a
    copy only for residues of another dtype), multipliers are scaled, and
    each live matrix updates only its own rows with a nonzero entry below
    the pivot, taken as (matrix, row) pairs.  A matrix with no nonzero
    candidate has det 0 and stays in the stack as a dead lane that is no
    longer updated.  One whose candidates are nonzero but none a unit takes
    the D5 split: its block goes to `_split`, which finishes it mod each
    prime alone, and the lane is then dead too.
    """
    mod = math.prod(primes)
    b, n, _ = a.shape
    out = np.zeros((b, len(primes)), dtype=np.int64)
    det = np.ones(b, dtype=np.int64)
    live = np.ones(b, dtype=bool)
    tests = [_indivisible_by(p) for p in primes]
    for c in range(n):
        col = a[:, c:, c]
        x = col.astype(np.uint32, copy=False)
        unit = x * tests[0][0] > tests[0][1]
        for mult, bound in tests[1:]:
            unit &= x * mult > bound
        has_unit = unit.any(axis=1)
        if not has_unit.all():
            for k in (live & ~has_unit).nonzero()[0]:
                if col[k].any():
                    out[k] = _split(a[k, c:, c:], primes, int(det[k]))
            live &= has_unit
            if not live.any():
                break
        piv = c + unit.argmax(axis=1)
        sw = (piv != c).nonzero()[0]
        if sw.size:
            a[sw, c, c:], a[sw, piv[sw], c:] = a[sw, piv[sw], c:], a[sw, c, c:]
            det[sw] = (mod - det[sw]) % mod
        pv = a[:, c, c]
        det = det * pv % mod
        ks, rs = ((a[:, c + 1 :, c] != 0) & live[:, None]).nonzero()
        if ks.size:
            # entries stay below M, so f * a[k, c] + a[k, r] <= (M-1)^2 + (M-1) < 2^63;
            # neg_inv and so f are int64, which keeps every product out of uint32
            neg_inv = np.array(
                [mod - pow(x, -1, mod) if ok else 0 for x, ok in zip(pv.tolist(), live.tolist())],
                dtype=np.int64,
            )
            rs += c + 1
            f = _reduce(a[ks, rs, c] * neg_inv[ks], mod)
            t = f[:, None] * a[:, c, c + 1 :][ks]
            t += a[ks, rs, c + 1 :]
            a[ks, rs, c + 1 :] = _reduce(t, mod)
    return np.where(live[:, None], det[:, None] % np.array(primes), out)


def _eliminate_gf2(stack: np.ndarray) -> np.ndarray:
    """det mod 2 of every square matrix in the integer stack of shape
    (B, n, n), as a (B, 1) int64 array, by XOR on rows packed into 64-bit
    words.

    Column c of a row is bit c % 64 of its word c // 64; the words are held
    word-major, a[k, w, i] being word w of row i of matrix k, so the dense
    update of a column runs along rows.  Row c is made to carry bit c by
    XOR-adding the first lower row that does, which leaves det unchanged
    (no swap, so no sign), and is then XOR-added to every lower row holding
    bit c.  A matrix with no row at or below c holding bit c has det 0: its
    row c is cleared and never touched again, so det is the product of the
    diagonal bits at the end.
    """
    b, n, _ = stack.shape
    words = -(-n // 64)
    packed = np.zeros((b, n, 8 * words), dtype=np.uint8)
    # & 1 is the residue mod 2, of two's-complement negative entries too
    packed[:, :, : -(-n // 8)] = np.packbits(stack & 1, axis=2, bitorder="little")
    # signed words, so that an arithmetic right shift spreads one bit over a word
    a = np.ascontiguousarray(packed.view("<i8").transpose(0, 2, 1))
    lanes = np.arange(b)
    for c in range(n):
        w, bit = divmod(c, 64)
        rows = a[:, w:, c:]
        # -1 (all bits set) where a row holds bit c, 0 where not
        has = (rows[:, 0] << (63 - bit)) >> 63
        piv = rows[:, :, 0]
        np.bitwise_xor(piv, rows[lanes, :, has.argmin(axis=1)] & ~has[:, :1], out=piv)
        low = rows[:, :, 1:]
        np.bitwise_xor(low, piv[:, :, None] & has[:, None, 1:], out=low)
    i = np.arange(n)
    diag = a[:, i // 64, i] >> (i % 64) & 1
    return diag.all(axis=1).astype(np.int64)[:, None]


def _structural_pivots(cols: list[int], units: list[bool], bounds: list[int]) -> list[int]:
    """Indices into cols of one matrix's structural pivots: row r's nonzero
    columns are cols[bounds[r]:bounds[r + 1]], in increasing order, and
    units flags the entries that are units mod M.  Rows are taken in order;
    a row none of whose nonzero columns is a pivot column pivots on its
    first unit column that no earlier pivot row has a nonzero in.  So each
    pivot row is zero in every other pivot column, and each pivot column
    zero in every other pivot row."""
    pivot_cols: set[int] = set()
    blocked: set[int] = set()  # the nonzero columns of the pivot rows
    taken = []
    for lo, hi in zip(bounds, bounds[1:]):
        row = cols[lo:hi]
        if pivot_cols.isdisjoint(row):
            for j in range(lo, hi):
                if units[j] and cols[j] not in blocked:
                    taken.append(j)
                    pivot_cols.add(cols[j])
                    blocked.update(row)
                    break
    return taken


def _schur_step(
    lane: np.ndarray, row: np.ndarray, col: np.ndarray, val: np.ndarray, b: int, m: int, mod: int
) -> tuple[np.ndarray, ...]:
    """One structural step on the nonzeros (lane, row, col, val) of a stack of
    B matrices of at most m rows and columns, sorted by (lane, row, col),
    with 0 < val < M: the nonzeros of each lane's Schur complement in the
    same form, each lane's number of pivots, and det(lane) / det(complement)
    mod M for each lane.  A step whose products would outnumber the entries
    of a dense S takes no pivots.

    Lane k's pivots (P, C), from `_structural_pivots`, make A = lane k have
    A[P, C] diagonal with unit entries D, so with the rows and columns that
    are not pivots, R and K, kept in order, det(A) = eps * prod(D) * det(S)
    for S = A[R, K] - A[R, C] D^-1 A[P, K].  eps is the sign of the row and
    column permutations that bring P and C to the front: with P increasing
    that is the parity of sum(P) + sum(C) + inversions(C), as the pivots'
    sum(i) cancels in the two.  S comes from A's nonzeros alone: the
    entries of A[R, K] and, for each nonzero A[r, c] of A[R, C], the
    products -A[r, c] D_c^-1 A[p, j] over the nonzeros of its pivot row p in
    K, each reduced mod M, summed per entry of S and reduced again.
    """
    # rows and columns numbered across the stack, lane k's from k * m
    rid, cid = lane * m + row, lane * m + col
    bounds = np.zeros(b * m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rid, minlength=b * m), out=bounds[1:])
    bounds = bounds.tolist()
    cols, units = col.tolist(), (np.gcd(val, mod) == 1).tolist()
    lanes = [_structural_pivots(cols, units, bounds[k * m : (k + 1) * m + 1]) for k in range(b)]
    count = np.array([len(pivots) for pivots in lanes], dtype=np.int64)
    taken = np.array([j for pivots in lanes for j in pivots], dtype=np.int64)
    pk, pr, pc, dv = lane[taken], row[taken], col[taken], val[taken].tolist()
    # the sign: sum(P) + sum(C) per lane, then the inversions of C, whose
    # lane k sits in row k of pivot_cols, padded past its end with m
    flips = np.zeros(b, dtype=np.int64)
    np.add.at(flips, pk, pr + pc)
    ends = np.cumsum(count)
    most = int(count.max(initial=0))
    pivot_cols = np.full((b, most), m, dtype=np.int64)
    pivot_cols[pk, np.arange(len(taken)) - np.repeat(ends - count, count)] = pc
    later = ~np.tri(most, dtype=bool)
    inversions = (pivot_cols[:, :, None] > pivot_cols[:, None, :]) & later
    flips += np.count_nonzero(inversions, axis=(1, 2))
    ends = ends.tolist()
    scale = np.array([math.prod(dv[lo:hi]) % mod for lo, hi in zip([0] + ends, ends)], dtype=np.int64)
    scale[flips % 2 == 1] = mod - scale[flips % 2 == 1]
    inv = {x: pow(x, -1, mod) for x in set(dv)}
    neg_inv = np.array([mod - inv[x] for x in dv], dtype=np.int64)
    # each pivot's number at its row and at its column, -1 elsewhere
    pivot_of_row = np.full(b * m, -1, dtype=np.int64)
    pivot_of_col = np.full(b * m, -1, dtype=np.int64)
    pivot_of_row[rid[taken]] = pivot_of_col[cid[taken]] = np.arange(len(taken))
    # where the rows of R and the columns of K land in S, whose lane k, row r,
    # column c is (k * m + r) * m + c
    row_at = np.cumsum((pivot_of_row < 0).reshape(b, m), axis=1) - 1
    row_at = (row_at + np.arange(0, b * m, m)[:, None]).reshape(-1) * m
    col_at = (np.cumsum((pivot_of_col < 0).reshape(b, m), axis=1) - 1).reshape(-1)
    row_piv, col_piv = pivot_of_row[rid], pivot_of_col[cid]
    kept = row_piv < 0
    entry = kept & (col_piv < 0)
    at = [row_at[rid[entry]] + col_at[cid[entry]]]
    add = [val[entry]]
    # the rows of A[P, K]: one pivot's entries adjacent, pivots in order
    upper = ~kept & (col_piv < 0)
    u_col, u_val = col_at[cid[upper]], val[upper]
    u_count = np.bincount(row_piv[upper], minlength=len(taken))
    u_start = np.cumsum(u_count) - u_count
    # each nonzero of A[R, C] times each entry of its pivot row
    term = kept & (col_piv >= 0)
    t_piv = col_piv[term]
    n_prod = u_count[t_piv]
    if n_prod.sum() > b * m * m:
        # more products than S has entries (dense rows in both A[R, C] and
        # A[P, K]): no step, the kernels take the matrices as they are
        return lane, row, col, val, np.zeros(b, dtype=np.int64), np.ones(b, dtype=np.int64)
    t_f = _reduce(val[term] * neg_inv[t_piv], mod)
    which = np.repeat(np.arange(len(t_piv)), n_prod)
    u = np.repeat(u_start[t_piv] - (np.cumsum(n_prod) - n_prod), n_prod) + np.arange(len(which))
    at.append(row_at[rid[term]][which] + u_col[u])
    add.append(_reduce(t_f[which] * u_val[u], mod))
    at, add = np.concatenate(at), np.concatenate(add)
    order = np.argsort(at)
    at = at[order]
    first = np.flatnonzero(np.diff(at, prepend=-1))
    # each sum holds at most m + 1 residues below M < 2^32
    add = _reduce(np.add.reduceat(add[order], first), mod)
    nonzero = add != 0
    lane, at = np.divmod(at[first][nonzero], m * m)
    row, col = np.divmod(at, m)
    return lane, row, col, add[nonzero], count, scale


def _schur_complement(res: np.ndarray, mod: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, scale) for a stack res of residues mod M of shape (B, n, n), which
    is only read: lane k of the uint32 stack s of shape (B, m, m) is what
    structural steps (`_schur_step`) leave of res[k], padded with an
    identity up to m, and det(res[k]) = scale[k] * det(s[k]) mod M.  Steps
    go on while the complements hold at most SCHUR_DENSITY of nonzeros."""
    b, n, _ = res.shape
    flat = res.reshape(-1)
    # a 1-D nonzero runs at about twice the speed of a 3-D one
    at = np.flatnonzero(flat)
    val = flat[at].astype(np.int64)
    lane, at = np.divmod(at, n * n)
    row, col = np.divmod(at, n)
    sizes = np.full(b, n, dtype=np.int64)
    scale = np.ones(b, dtype=np.int64)
    m = n
    while m:
        lane, row, col, val, count, step = _schur_step(lane, row, col, val, b, m, mod)
        scale = scale * step % mod
        sizes -= count
        m = int(sizes.max(initial=0))
        if len(val) > SCHUR_DENSITY * int((sizes * sizes).sum()) or not count.any():
            break
    s = np.zeros((b, m, m), dtype=np.uint32)
    i = np.arange(m)
    s[:, i, i] = i >= sizes[:, None]
    s[lane, row, col] = val
    return s, scale


def fp_dets_stack(stack: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """det mod each of distinct primes of every matrix in an integer array of
    shape (B, n, n), as a (B, len(primes)) int64 array, from one elimination
    mod their product M, with M(M-1) < 2^63.  Mod 2 alone, a stack of any
    size is decided on its rows packed into 64-bit words (`_eliminate_gf2`).
    Otherwise the stack is reduced to residues mod M, which an unsigned stack
    whose dtype holds no M already is.  From n = MIN_SCHUR_N on, the
    residues become the Schur complements of their structural pivots
    (`_schur_complement`), else a uint32 copy of them.  A lone matrix is
    then eliminated once per prime (`_eliminate`), and a stack of two or
    more in one sweep mod M (`_eliminate_stack`)."""
    primes = tuple(primes)
    mod = _modulus(primes)
    if not _within_int64(stack.dtype):
        raise ValueError(f"integer stack within int64 required, got dtype {stack.dtype}")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"stack of square matrices required, got shape {stack.shape}")
    if mod == 2:
        return _eliminate_gf2(stack)
    if stack.dtype.kind != "u":
        # reduced in int64 first: a negative entry would wrap in uint32
        res = np.remainder(stack, mod, dtype=np.int64).astype(np.uint32)
    elif np.iinfo(stack.dtype).max >= mod:
        res = stack % mod
    else:
        res = stack
    if stack.shape[1] >= MIN_SCHUR_N:
        a, scale = _schur_complement(res, mod)
    else:
        # the kernels row-reduce in place, never in the caller's stack
        a, scale = res.astype(np.uint32, copy=res is stack), None
    if len(a) == 1:
        dets = np.array([[_eliminate(a[0] % p, p) for p in primes]], dtype=np.int64)
    else:
        dets = _eliminate_stack(a, primes)
    if scale is not None:
        p = np.array(primes)
        dets = dets * (scale[:, None] % p) % p
    return dets


def fused_prime(primes: Sequence[int]) -> int | None:
    """The largest of primes whose product with the first CRT prime can be
    eliminated in int64 (p <= 5), or None; one `fp_dets_stack` decides both."""
    q = crt_primes(1)[0]
    return max((p for p in primes if _fits_int64(p * q)), default=None)


def fp_det(m: MatrixLike, p: int) -> int:
    """det(m) mod the prime p, decided by `fp_dets_stack` as a stack of one."""
    return int(fp_dets_stack(int_matrix(m)[None], (p,))[0, 0])


def det_bareiss(m: MatrixLike) -> int:
    """Exact determinant by fraction-free elimination (all divisions exact),
    of rows of Python or numpy integers of any size: the kernels' independent
    oracle.  It checks its input itself, not through `int_matrix`: a
    non-square shape, a float or a bool raises ValueError."""
    shape = getattr(m, "shape", None)
    if shape is not None and (len(shape) != 2 or shape[0] != shape[1]):
        raise ValueError(f"square matrix required, got shape {shape}")
    a = m.tolist() if isinstance(m, np.ndarray) else [list(r) for r in m]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("square matrix required")
    for r in a:
        for x in r:
            if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Integral)):
                raise ValueError(f"integer entries required, got {x!r}")
    a = [[int(x) for x in r] for r in a]
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
    fits = a.size == 0 or a.shape[1] * max(int(a.max()), -int(a.min())) ** 2 < 2**63
    if fits:
        # cast in einsum's buffers: a narrow dtype would wrap its squares (16^2
        # is 0 in uint8), and an int64 copy of a 300 x 300 lane set the peak
        # memory of a Monte Carlo run at n = 300
        sq = np.einsum("ij,ij->i", a, a, dtype=np.int64).tolist()
    else:
        sq = [sum(x * x for x in r) for r in a.tolist()]
    if 0 in sq:
        return 0
    return math.isqrt(math.prod(sq)) + 1


# CRT primes stay below 2^29 so that the first one times a listed prime
# p <= 5 is still a modulus `fp_dets_stack` can eliminate in int64.
CRT_PRIME_BOUND = 2**29


def _word_primes():
    q = CRT_PRIME_BOUND - 1
    while True:
        if is_prime(q):
            yield q
        q -= 1


# Deterministic CRT prime list, largest primes below 2^29, extended on demand.
_CRT_PRIMES: list[int] = []
_CRT_GEN = _word_primes()


def crt_primes(count: int) -> list[int]:
    while len(_CRT_PRIMES) < count:
        _CRT_PRIMES.append(next(_CRT_GEN))
    return _CRT_PRIMES[:count]


def int_determinant_is_zero(m: MatrixLike, first: int | None = None) -> bool:
    """Exact test det(m) == 0, stopping at the first nonzero residue.

    A single nonzero residue mod a CRT prime certifies det != 0; zero
    residues are taken until their primes' product exceeds twice the
    Hadamard bound, which certifies det == 0.  first, if given, is det(m)
    mod crt_primes(1)[0] (say from `fp_dets_stack`); a nonzero one answers
    after the input checks alone, and a narrow array such as a uint8 lane
    is used as given.  The bound is computed only after a zero first
    residue.  Never touches floating point, and refuses float input.
    """
    a = int_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    q = crt_primes(1)[0]
    if (fp_det(a, q) if first is None else first) != 0:
        return False
    bound = hadamard_bound(a)
    mod, k = q, 1
    while mod <= 2 * bound:
        k += 1
        q = crt_primes(k)[-1]
        if fp_det(a, q) != 0:
            return False
        mod *= q
    return True
