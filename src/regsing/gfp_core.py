"""Exact linear algebra over F_p and over the integers.

Input is checked once, by `int_matrix`: a 2-D integer ndarray, or a list
of rows, whose dtype fits in int64 is used as given, with no copy; floats,
bools, uint64 and Python ints past int64 raise ValueError.

Every determinant mod p has one contract, `fp_dets_stack`: a stack of B
square integer matrices and a prime table in, det mod each prime out.  The
table is a sequence of distinct primes that every matrix shares, or a
(B, k) array with a row of distinct primes per matrix; a lane's modulus M
is the product of its row, and one elimination mod M decides its primes.
A row update adds a residue to a product of two residues, at most
(M-1) + (M-1)^2 = M(M-1), so M(M-1) < 2^63 is the one size rule; it also
keeps M below 2^32, so a residue fits in uint32.  `fp_det` is one matrix
mod one prime.  Two kernels sit behind the contract: mod 2 alone (every
row (2,)) the packed-bit kernel, and otherwise the stacked sweep.

`_eliminate_stack` decides a whole stack in one sweep, so a column step
costs one set of numpy calls for every matrix.  A pivot must be a unit
mod the lane's M, the first at or below the diagonal, and a matrix with no
nonzero candidate has det 0 and stays in the stack as a dead lane.  When
a matrix's candidates are nonzero but none is a unit, the primes split
(D5 dynamic evaluation: Della Dora, Dicrescenzo and Duval, EUROCAL 1985):
the lane's remaining block is kept, and after the sweep one more sweep
finishes every kept block mod each prime of its row, one lane per (block,
prime).  Every nonzero residue is a unit mod a prime, so that sweep never
splits.  Each live matrix updates only its own rows with a nonzero entry
below the pivot, scaling the multipliers rather than the pivot row.  A
row's multiplier is its entry times -1/pv mod M; a pivot pv of 1 or M - 1
is its own inverse, so its -1/pv is M - pv, and only the other pivots take
a Python `pow(pv, -1, M)`.  Of the mod-5q pivots of the Monte Carlo blocks
at seed 20240813, 62 % are 1 and 16 % are M - 1 at n = 30 (60 % and 17 %
at n = 48); of the Schur complements' pivots, 35 % and 20 % at n = 100
and 25 % and 19 % at n = 300.  A candidate is a unit when no prime of the
lane's row divides it, and every product of uint32 residues is formed in
int64 through int64 multipliers, because NumPy keeps a uint32 array times
a Python int in uint32, where it wraps.  When every lane shares M, as in
every Monte Carlo block, the reductions (`_reduce`), the unit test and the
det updates divide by Python ints; only a table of different moduli (the
zero test's tail, the second D5 sweep) indexes one per lane.  NumPy 2.4
floor-divided 10^4 int64 entries in 8 us by a scalar and in 34-37 us by
an array.  A lone matrix, a stack of one, took 4.4 ms at n = 300 mod q,
against 3.3 ms in the per-matrix loop the sweep replaced.

From n = MIN_SCHUR_N on, and for every M but 2 alone, structured Gaussian
elimination (LaMacchia and Odlyzko, CRYPTO 1990) first shrinks each matrix
to a small Schur complement over Z, which the sweep then eliminates.  One
structural step (`_schur_step`) picks a set of pivots (P, C) per matrix
with A[P, C] diagonal and +-1 (the structural pivots of Faugere and
Lachartre, PASCO 2010) by one pass over the rows in order, and eliminates
them all at once: D^-1 = D, so S = A[R, K] - A[R, C] D A[P, K] is an
integer matrix, built from A's nonzeros alone, with det A = +-det S.
Steps repeat on S, kept as sorted nonzeros, until its density passes
SCHUR_DENSITY, and a lane with an entry past SCHUR_ENTRY_BOUND takes no
more, so products and sums stay inside int64 for any input.  Nothing in
the steps depends on the modulus: only the last S is reduced mod each
lane's M, as it is written out as a uint32 stack padded with an identity
to the largest lane, so no uint32 or bool copy of the whole (B, n, n)
stack is made.  Before it is written, each lane's rows and columns are
relabelled by ascending nonzero count (`_sparsest_first`, a fill-reducing
order in the spirit of Markowitz, Management Science 1957), and its sign
takes the parity of both permutations.  The order costs one sort per
lane and nothing per column; on the complements of 44 trials at n = 300
it cut the sweep's row-update work from 0.60 to 0.35 of a dense sweep.
Steps run over slices of SCHUR_LANES lanes, which keeps their transient
memory at about 0.2 MB a lane at n = 300, and one sweep decides the whole
stack.  For d = 3 adjacency matrices at n = 300 three steps leave about
85.5 rows (85.0 when every unit mod 5q could pivot) at a density near
18 %; stopping after two, four or five steps took 4-9 % longer.  Against
the whole sweep the steps took 1.12x at n = 48, 0.94x at n = 64 and 0.64x
at n = 128 per matrix: hence MIN_SCHUR_N = 64.

Mod 2 alone, `_eliminate_gf2` runs XOR on rows packed into machine words
(M4RI: Albrecht, Bard and Hart, ACM TOMS 2010), with no residues, unit
tests, inverses, reductions or split: a pivot fix-up and one dense masked
XOR per column, at every stack size.  Per matrix it took 0.22x the stacked
sweep's time at n = 30 in stacks of 72, 0.14x at n = 64 in stacks of 16
and 0.2x at n = 300 in stacks of 6.

`int_determinant_is_zero` decides det == 0 from the residues mod a fixed
list of CRT primes, the largest below 2^29, against twice a Hadamard
bound: after a zero residue mod the first, q, all the others it needs go
in one sweep, one lane per prime.  When the matrix's own bound needs
only q the test ends there; otherwise, at every n, its structural steps
run once, the bound is the smaller of the matrix's and its Schur
complement's, as |det A| = |det S|, and the sweep takes copies of S
(`_sweep_complements`).  That has no early exit at a nonzero residue,
which only a nonsingular matrix with a zero residue mod q (about 1 in q)
misses.  The bound keeps 5q inside the size rule, so a Monte Carlo block
decides the first CRT prime q, with its listed prime p <= 5 if it has
one (`fused_prime`), in one `fp_dets_stack` mod pq or q, and hands the
residues mod q to the zero test.
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
# step, the largest |entry| of a lane that still takes one, and the most
# lanes whose steps run at once (see the module docstring).
SCHUR_DENSITY = 0.1
SCHUR_ENTRY_BOUND = 2**20
SCHUR_LANES = 6


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


def _lane_moduli(table: np.ndarray) -> int | np.ndarray:
    """Each lane's M, the product of its row of the (B, k) prime table: the
    Python int M when every lane shares it, else an int64 array of them."""
    mods = table.prod(axis=1)
    return int(mods[0]) if len(mods) and (mods == mods[0]).all() else mods


def _by_lane(mod: int | np.ndarray, lanes: np.ndarray) -> int | np.ndarray:
    """The divisor of entries of the given lanes: a shared M as it is, else
    each entry's lane modulus, in the shape of lanes."""
    return mod if isinstance(mod, int) else mod[lanes]


def _reduce(x: np.ndarray, mod: int | np.ndarray) -> np.ndarray:
    """x % mod in place for x >= 0: numpy divides by a scalar several times
    faster than it takes a remainder."""
    x -= x // mod * mod
    return x


def _eliminate_stack(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """det mod each prime of its row of the (B, k) int64 prime table, for
    the stack a of residues mod each lane's M = prod(row), of shape
    (B, n, n) (uint32 from `fp_dets_stack`), row-reduced in place; returns
    a (B, k) int64 array.

    One column at a time for the whole stack: the pivot is the first unit
    mod M at or below the diagonal (an entry that no prime of the lane's
    row divides), multipliers are scaled, and each live matrix updates only
    its own rows with a nonzero entry below the pivot, taken as (matrix,
    row) pairs.  A matrix with no nonzero candidate has det 0 and becomes a
    dead lane.  One with nonzero candidates but no unit splits (D5) and is
    dead too; one recursive sweep then finishes its remaining block mod
    each prime of its row, padded with an identity to the earliest, widest
    split block.
    """
    b, n, _ = a.shape
    mod = _lane_moduli(table)
    mods = np.broadcast_to(mod, b).tolist()
    # each prime of the shared row as a Python int, else each column of the table
    ps = table[0].tolist() if isinstance(mod, int) else list(table.T[:, :, None])
    det = np.ones(b, dtype=np.int64)
    live = np.ones(b, dtype=bool)
    splits = []  # (lane, remaining block, det so far) of each D5 split
    for c in range(n):
        col = a[:, c:, c]
        unit = col % ps[0] != 0
        for p in ps[1:]:
            unit &= col % p != 0
        has_unit = unit.any(axis=1)
        if not has_unit.all():
            for k in (live & ~has_unit).nonzero()[0].tolist():
                if col[k].any():
                    splits.append((k, a[k, c:, c:].copy(), int(det[k])))
            live &= has_unit
            if not live.any():
                break
        piv = c + unit.argmax(axis=1)
        sw = (piv != c).nonzero()[0]
        if sw.size:
            a[sw, c, c:], a[sw, piv[sw], c:] = a[sw, piv[sw], c:], a[sw, c, c:]
            # |det| < M, and the % below brings it back into 0..M-1
            det[sw] = -det[sw]
        pv = a[:, c, c]
        det = det * pv % mod
        ks, rs = ((a[:, c + 1 :, c] != 0) & live[:, None]).nonzero()
        if ks.size:
            # entries stay below M, so f * a[k, c] + a[k, r] <= (M-1)^2 + (M-1) < 2^63;
            # neg_inv and so f are int64, which keeps every product out of uint32.
            # A pivot of 1 or M - 1 is its own inverse: its -1/pv is M - pv.
            neg_inv = mod - pv.astype(np.int64)
            other = (live & (pv != 1) & (neg_inv != 1)).nonzero()[0].tolist()
            if other:
                neg_inv[other] = [mods[k] - pow(x, -1, mods[k]) for k, x in zip(other, pv[other].tolist())]
            rs += c + 1
            f = _reduce(a[ks, rs, c] * neg_inv[ks], _by_lane(mod, ks))
            t = f[:, None] * a[:, c, c + 1 :][ks]
            t += a[ks, rs, c + 1 :]
            a[ks, rs, c + 1 :] = _reduce(t, _by_lane(mod, ks[:, None]))
    dets = np.where(live[:, None], det[:, None] % table, 0)
    if splits:
        lanes, blocks, before = map(list, zip(*splits))
        k, w = table.shape[1], len(blocks[0])  # the earliest split's block is the widest
        primes = table[lanes].reshape(-1, 1)
        sub = np.zeros((len(primes), w, w), dtype=np.uint32)
        sub[:, range(w), range(w)] = 1
        for s, p in enumerate(primes[:, 0].tolist()):
            m = w - len(blocks[s // k])
            sub[s, m:, m:] = blocks[s // k] % p
        rest = _eliminate_stack(sub, primes).reshape(-1, k)
        # det so far < M and a residue below p <= M / 2, so the product < 2^63
        dets[lanes] = np.array(before)[:, None] * rest % table[lanes]
    return dets


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
    units flags the entries a pivot may sit on.  Rows are taken in order;
    a row none of whose nonzero columns is a pivot column pivots on its
    first flagged column that no earlier pivot row has a nonzero in.  So
    each pivot row is zero in every other pivot column, and each pivot
    column zero in every other pivot row."""
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
    lane: np.ndarray, row: np.ndarray, col: np.ndarray, val: np.ndarray, b: int, m: int
) -> tuple[np.ndarray, ...]:
    """One structural step on the nonzeros (lane, row, col, val) of a stack of
    B integer matrices of at most m rows and columns, sorted by (lane, row,
    col): the nonzeros of each lane's Schur complement in the same form,
    each lane's number of pivots, and its sign det(lane) / det(complement),
    +-1 over Z.  A lane with an entry past SCHUR_ENTRY_BOUND takes no
    pivots, and a step whose products would outnumber the entries of a
    dense S takes none at all.

    Lane k's pivots (P, C), from `_structural_pivots`, make A = lane k have
    A[P, C] diagonal with entries D = +-1, so D^-1 = D, and with the rows
    and columns that are not pivots, R and K, kept in order,
    det(A) = eps * prod(D) * det(S) for the integer matrix
    S = A[R, K] - A[R, C] D A[P, K].  eps is the sign of the row and column
    permutations that bring P and C to the front: with P increasing that is
    the parity of sum(P) + sum(C) + inversions(C), as the pivots' sum(i)
    cancels in the two.  S comes from A's nonzeros alone: the entries of
    A[R, K] and, for each nonzero A[r, c] of A[R, C], the products
    -A[r, c] D_c A[p, j] over the nonzeros of its pivot row p in K, summed
    per entry of S.  A sum holds at most m + 1 terms of at most
    SCHUR_ENTRY_BOUND^2 = 2^40, so it stays inside int64 while m < 2^22.
    """
    # rows and columns numbered across the stack, lane k's from k * m
    rid, cid = lane * m + row, lane * m + col
    bounds = np.zeros(b * m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rid, minlength=b * m), out=bounds[1:])
    bounds = bounds.tolist()
    wide = np.zeros(b, dtype=bool)
    wide[lane[(val > SCHUR_ENTRY_BOUND) | (val < -SCHUR_ENTRY_BOUND)]] = True
    cols, units = col.tolist(), ((np.abs(val) == 1) & ~wide[lane]).tolist()
    lanes = [_structural_pivots(cols, units, bounds[k * m : (k + 1) * m + 1]) for k in range(b)]
    count = np.array([len(pivots) for pivots in lanes], dtype=np.int64)
    taken = np.array([j for pivots in lanes for j in pivots], dtype=np.int64)
    pk, pr, pc, dv = lane[taken], row[taken], col[taken], val[taken]
    # the sign: sum(P) + sum(C) and the pivots equal to -1 per lane, then
    # the inversions of C, whose lane k sits in row k of pivot_cols, padded
    # past its end with m
    flips = np.zeros(b, dtype=np.int64)
    np.add.at(flips, pk, pr + pc + (dv < 0))
    ends = np.cumsum(count)
    most = int(count.max(initial=0))
    pivot_cols = np.full((b, most), m, dtype=np.int64)
    pivot_cols[pk, np.arange(len(taken)) - np.repeat(ends - count, count)] = pc
    later = ~np.tri(most, dtype=bool)
    inversions = (pivot_cols[:, :, None] > pivot_cols[:, None, :]) & later
    flips += np.count_nonzero(inversions, axis=(1, 2))
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
    t_f = -val[term] * dv[t_piv]
    which = np.repeat(np.arange(len(t_piv)), n_prod)
    u = np.repeat(u_start[t_piv] - (np.cumsum(n_prod) - n_prod), n_prod) + np.arange(len(which))
    at.append(row_at[rid[term]][which] + u_col[u])
    add.append(t_f[which] * u_val[u])
    at, add = np.concatenate(at), np.concatenate(add)
    order = np.argsort(at)
    at = at[order]
    first = np.flatnonzero(np.diff(at, prepend=-1))
    lane, at = np.divmod(at[first], m * m)
    add = np.add.reduceat(add[order], first)
    nonzero = add != 0
    row, col = np.divmod(at[nonzero], m)
    return lane[nonzero], row, col, add[nonzero], count, 1 - 2 * (flips % 2)


def _schur_complement(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lane, row, col, val, sizes, sign) for an integer stack of shape
    (B, n, n), which is only read: the nonzeros of what structural steps
    (`_schur_step`) leave of each lane, each lane's complement size, and
    the +-1 with det(stack[k]) = sign[k] * det(S_k) over Z.  Steps run over
    slices of SCHUR_LANES lanes, while a slice's complements hold at most
    SCHUR_DENSITY of nonzeros."""
    b, n, _ = stack.shape
    parts = []
    # an empty stack is one empty slice
    for lo in range(0, max(b, 1), SCHUR_LANES):
        flat = stack[lo : lo + SCHUR_LANES].reshape(-1)
        # a 1-D nonzero runs at about twice the speed of a 3-D one
        at = np.flatnonzero(flat)
        val = flat[at].astype(np.int64)
        lane, at = np.divmod(at, n * n)
        row, col = np.divmod(at, n)
        k = min(b - lo, SCHUR_LANES)
        sizes = np.full(k, n, dtype=np.int64)
        sign = np.ones(k, dtype=np.int64)
        m = n
        while m:
            lane, row, col, val, count, step = _schur_step(lane, row, col, val, k, m)
            sign *= step
            sizes -= count
            m = int(sizes.max(initial=0))
            if len(val) > SCHUR_DENSITY * int((sizes * sizes).sum()) or not count.any():
                break
        parts.append((lane + lo, row, col, val, sizes, sign))
    return tuple(map(np.concatenate, zip(*parts)))


def _sparsest_first(complement: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """`_schur_complement`'s (lane, row, col, val, sizes, sign) with each
    lane's rows, and then its columns, relabelled by ascending nonzero count
    (a stable sort, so ties keep their order), the places past a lane's
    size last and in order, and each sign times the parity of the lane's
    two permutations: det(stack[k]) = sign[k] * det(S_k) still holds."""
    lane, row, col, val, sizes, sign = complement
    b, m = len(sizes), int(sizes.max(initial=0))
    padding = np.arange(m) >= sizes[:, None]
    later = ~np.tri(m, dtype=bool)
    relabelled = []
    for labels in (row, col):
        count = np.bincount(lane * m + labels, minlength=b * m).reshape(b, m)
        # a row or column holds at most m nonzeros: m + 1 sorts the padding last
        count[padding] = m + 1
        order = np.argsort(count, axis=1, kind="stable")
        # int32 places (m < 2^31) halve the relabelled nonzeros' memory
        place = np.empty_like(order, dtype=np.int32)
        np.put_along_axis(place, order, np.arange(m), axis=1)
        relabelled.append(place[lane, labels])
        inversions = order[:, :, None] > order[:, None, :]
        inversions &= later
        sign = sign * (1 - 2 * (np.count_nonzero(inversions, axis=(1, 2)) % 2))
    return lane, *relabelled, val, sizes, sign


def _sweep_complements(complement: tuple[np.ndarray, ...], table: np.ndarray) -> np.ndarray:
    """det mod each prime of its row of the (B, k) int64 prime table, as a
    (B, k) int64 array, of the integer matrices given as
    `_schur_complement`'s (lane, row, col, val, sizes, sign): one lane per
    row of table, or one lane for every row (the zero test's tail).  The
    lanes are taken sparsest rows and columns first (`_sparsest_first`),
    reduced mod each lane's M as they are written out as one uint32 stack,
    padded with an identity to the widest, and decided by one sweep."""
    lane, row, col, val, sizes, sign = _sparsest_first(complement)
    m = int(sizes.max(initial=0))
    mod = _lane_moduli(table)
    # one lane's nonzeros serve every row of table as a column of lanes
    lanes = lane if len(sizes) == len(table) else np.arange(len(table))[:, None]
    a = np.zeros((len(table), m, m), dtype=np.uint32)
    a[:, range(m), range(m)] = np.arange(m) >= sizes[:, None]
    a[lanes, row, col] = val % _by_lane(mod, lanes)
    return _eliminate_stack(a, table) * sign[:, None] % table


def fp_dets_stack(stack: np.ndarray, primes: Sequence[int] | np.ndarray) -> np.ndarray:
    """det mod each of its primes of every matrix in an integer array of shape
    (B, n, n), as a (B, k) int64 array.  primes is k distinct primes that
    every matrix shares, or a (B, k) integer table with a row of distinct
    primes per matrix, whose product M, with M(M-1) < 2^63, is its modulus.
    Mod 2 alone (every row (2,)) the packed-bit kernel decides the stack
    (`_eliminate_gf2`).  Otherwise one sweep (`_eliminate_stack`) decides
    residues mod each lane's M: from n = MIN_SCHUR_N on, of the integer
    Schur complements of structural pivots (`_schur_complement`), sparsest
    rows and columns first and padded with an identity to the widest
    (`_sweep_complements`); below it, of the stack reduced mod each lane's
    M, or copied as it is when it is unsigned and its dtype holds no
    lane's M."""
    if not _within_int64(stack.dtype):
        raise ValueError(f"integer stack within int64 required, got dtype {stack.dtype}")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"stack of square matrices required, got shape {stack.shape}")
    table = np.asarray(primes)
    # shared primes are one row, checked before it is broadcast: an empty stack's too
    table, rows = (table[None], 1) if table.ndim == 1 else (table, len(stack))
    if table.ndim != 2 or len(table) != rows or table.dtype.kind not in "iu":
        raise ValueError(f"one row of primes per matrix required, got {table.dtype} {table.shape}")
    for row in set(map(tuple, table.tolist())):
        _modulus(row)
    table = np.broadcast_to(table, (len(stack), table.shape[1])).astype(np.int64)
    if table.shape[1] == 1 and (table == 2).all():
        return _eliminate_gf2(stack)
    if stack.shape[1] >= MIN_SCHUR_N:
        return _sweep_complements(_schur_complement(stack), table)
    mod = _lane_moduli(table)
    if stack.dtype.kind == "u" and np.all(np.iinfo(stack.dtype).max < mod):
        # every entry is already a residue; the sweep row-reduces this copy
        return _eliminate_stack(stack.astype(np.uint32), table)
    # reduced in int64: a negative entry would wrap in uint32
    div = mod if isinstance(mod, int) else mod[:, None, None]
    return _eliminate_stack(np.remainder(stack, div, dtype=np.int64).astype(np.uint32), table)


def fused_prime(primes: Sequence[int]) -> tuple[int, ...]:
    """The largest of primes whose product with the first CRT prime q can be
    eliminated in int64 (p <= 5) as a 1-tuple, or () when none can; one
    `fp_dets_stack` mod (*fused_prime(primes), q) decides them."""
    fit = [p for p in primes if _fits_int64(p * crt_primes(1)[0])]
    return (max(fit),) if fit else ()


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
    """Exact test det(m) == 0 from its residues mod the CRT primes.

    A nonzero residue mod the first CRT prime q certifies det != 0.  After a
    zero one, with k the fewest CRT primes whose product exceeds twice a
    Hadamard bound, k = 1 certifies det == 0, and so do zero residues mod
    the other k - 1.  When m's own bound gives k = 1 that is the answer;
    otherwise m's structural steps run once (`_schur_complement`): as
    |det m| = |det S| for its Schur complement S, the bound is the smaller
    of m's and S's (for d = 3 adjacency matrices at n = 300 S's needs 6
    primes where m's needs 9, and none past q when S has a zero row), and
    one sweep of k - 1 copies of S decides the residues
    (`_sweep_complements`).  first, if given, is det(m) mod q (say from
    `fp_dets_stack`); a nonzero one answers after the input checks alone,
    and a narrow array such as a uint8 lane is used as given.  Never
    touches floating point, and refuses float input.
    """
    a = int_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    if (fp_det(a, crt_primes(1)[0]) if first is None else first) != 0:
        return False
    bound = hadamard_bound(a)
    if 2 * bound < crt_primes(1)[0]:
        return True
    complement = _schur_complement(a[None])
    _, row, col, val, sizes, _ = complement
    s = np.zeros((int(sizes[0]),) * 2, dtype=np.int64)
    s[row, col] = val
    bound = min(bound, hadamard_bound(s))
    k = 1
    while math.prod(crt_primes(k)) <= 2 * bound:
        k += 1
    if k == 1:
        return True
    return not _sweep_complements(complement, np.array(crt_primes(k)[1:])[:, None]).any()
