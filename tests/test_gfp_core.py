"""Exact F_p and integer linear algebra, cross-checked by independent routes."""

import copy
import math
import random
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from regsing import gfp_core
from regsing.gfp_core import (
    CRT_PRIME_BOUND,
    crt_primes,
    det_bareiss,
    fp_det,
    fp_dets_stack,
    fused_prime,
    hadamard_bound,
    int_determinant_is_zero,
    int_matrix,
)
from regsing.graph_model import (
    adjacency_from_permutation,
    adjacency_stack,
    has_identical_rows,
    sample_configuration,
    sample_permutations,
)


def test_identity_rank():
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    for p in (2, 7):
        assert fp_det(eye, p) == 1


def test_duplicate_rows_rank():
    for p in (2, 7):
        assert fp_det([[1, 1], [1, 1]], p) == 0


def test_fp_det_matches_bareiss_mod_p():
    rnd = random.Random(11)
    for _ in range(30):
        n = rnd.randrange(1, 6)
        rows = [[rnd.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        exact = det_bareiss(rows)
        for p in (2, 3, 5, 101):
            assert fp_det(rows, p) == exact % p


def test_bareiss_and_crt_agree():
    rnd = random.Random(13)
    for _ in range(30):
        n = rnd.randrange(1, 7)
        rows = [[rnd.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        exact = det_bareiss(rows)
        assert exact == sympy.Matrix(rows).det()
        assert int_determinant_is_zero(rows) == (exact == 0)
    dup = [[1, 2, 3], [4, 5, 6], [1, 2, 3]]
    assert det_bareiss(dup) == sympy.Matrix(dup).det() == 0
    assert int_determinant_is_zero(dup)


def test_integer_zero_test():
    rnd = random.Random(17)
    for _ in range(30):
        n = rnd.randrange(1, 6)
        rows = [[rnd.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        assert int_determinant_is_zero(rows) == (det_bareiss(rows) == 0)
    # sums of two rows are singular by construction
    sing = [[2, 3, 5], [1, 0, 4], [3, 3, 9]]
    assert int_determinant_is_zero(sing)


def test_hadamard_bound_dominates_det():
    rnd = random.Random(19)
    for _ in range(25):
        n = rnd.randrange(1, 6)
        rows = [[rnd.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert abs(det_bareiss(rows)) <= hadamard_bound(rows)
    assert hadamard_bound([[0, 0], [1, 2]]) == 0


def test_big_entry_reduction():
    """Entries past int64 have no integer array form: fp_det refuses them,
    and only the Bareiss oracle takes them."""
    big = 10**30
    rows = [[big + 1, 2], [3, big + 4]]
    for p in (2, 5, 2**31 - 1):
        with pytest.raises(ValueError, match="within int64"):
            fp_det(rows, p)
    assert det_bareiss(rows) == (big + 1) * (big + 4) - 6


@pytest.mark.parametrize(
    "m",
    [
        [[0.5, 0], [0, 1]],
        np.array([[0.5, 0], [0, 1]]),
        np.array([[1.0, 0], [0, 1]]),
        [[True, False], [False, True]],
        np.eye(2, dtype=bool),
        [[1, 2], [3, 4.0]],
        np.zeros((0, 3), dtype=np.int64),
        np.zeros((2, 3), dtype=np.int64),
        np.zeros(3, dtype=np.int64),
        np.zeros((2, 2, 2), dtype=np.int64),
        [[1, 2], [3]],
        [[]],
    ],
    ids=[
        "float-list", "float-array", "whole-float-array", "bool-list", "bool-array", "one-float",
        "0x3", "2x3", "1-D", "3-D", "ragged", "1x0",
    ],
)
def test_bareiss_refuses_non_integer_and_non_square_input(m):
    """The oracle checks its own input: a float or bool entry is not read as
    its integer part ([[0.5, 0], [0, 1]] would have det 0), and a 0x3 array,
    which has no rows to show its width, is not the empty matrix."""
    with pytest.raises(ValueError):
        det_bareiss(m)


def test_bareiss_takes_integers_of_every_form():
    rows = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    for m in (rows, np.array(rows), np.array(rows, dtype=np.int8), [np.array(r) for r in rows]):
        assert det_bareiss(m) == 4
    assert det_bareiss(np.array([[3, 1], [1, 3]], dtype=np.uint8)) == 8
    assert det_bareiss(np.array([[2**70, 1], [1, 1]], dtype=object)) == 2**70 - 1
    assert det_bareiss(np.zeros((0, 0), dtype=np.int64)) == 1


def test_empty_and_edge_cases():
    assert fp_det([], 7) == fp_det([], 2) == 1
    assert det_bareiss([]) == sympy.Matrix([]).det() == 1
    assert not int_determinant_is_zero([])


def test_prime_validation():
    with pytest.raises(ValueError):
        fp_det([[1]], 4)
    with pytest.raises(ValueError):
        fp_det([[1]], 1)
    # shared primes are checked on an empty stack too, whose table has no rows
    empty = np.zeros((0, 3, 3), np.int64)
    for primes in [(4,), (6, 9), (5, 5)]:
        with pytest.raises(ValueError):
            fp_dets_stack(empty, primes)
    assert fp_dets_stack(empty, (2, 5)).shape == (0, 2)


def is_prime_by_trial_division(q):
    return q > 1 and all(q % f for f in range(2, math.isqrt(q) + 1))


def test_crt_prime_list_deterministic():
    primes = crt_primes(4)
    # the list starts at the largest prime below 2^29
    assert CRT_PRIME_BOUND == 2**29
    assert not any(is_prime_by_trial_division(x) for x in range(primes[0] + 1, 2**29))
    assert primes == sorted(primes, reverse=True)
    assert len(set(primes)) == 4
    for q in primes:
        assert q < 2**29
        assert is_prime_by_trial_division(q)
    # 5 q is an int64 elimination modulus, M (M - 1) < 2^63, and 7 q is not
    assert fused_prime([2, 3, 5, 7]) == (5,)


PRIMES = st.sampled_from([2, 3, 5, 101, 2**31 - 1])


@st.composite
def int_matrices(draw, square=True):
    """Lists of rows up to 8 x 8: negative and big entries, zero and repeated rows."""
    nr = draw(st.integers(0 if square else 1, 8))
    nc = nr if square else draw(st.integers(0, 8).filter(lambda k: k != nr))
    bound = draw(st.sampled_from([2, 9, 2**40, 2**80]))
    entry = st.integers(-bound, bound)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if nr and draw(st.booleans()):
        rows[draw(st.integers(0, nr - 1))] = [0] * nc
    if nr >= 2 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


def fits_int64(rows):
    return all(-(2**63) <= x < 2**63 for r in rows for x in r)


def forms(rows):
    """The list of rows, and its int64 array wherever int64 holds every entry."""
    out = [rows]
    if fits_int64(rows):
        out.append(np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 0))
    return out


@settings(max_examples=150, deadline=None)
@given(rows=int_matrices(), p=PRIMES)
def test_array_and_list_inputs_agree_with_oracles(rows, p):
    exact = det_bareiss(rows)
    assert exact == sympy.Matrix(rows).det()
    if not fits_int64(rows):
        # no integer array form: refused everywhere but by the Bareiss oracle
        for fn in (lambda a: fp_det(a, p), int_determinant_is_zero, hadamard_bound):
            with pytest.raises(ValueError, match="within int64"):
                fn(rows)
        return
    for m in forms(rows):
        before = copy.deepcopy(m)
        assert fp_det(m, p) == exact % p
        assert det_bareiss(m) == exact
        assert int_determinant_is_zero(m) == (exact == 0)
        assert abs(exact) <= hadamard_bound(m)
        assert np.array_equal(m, before) and type(m) is type(before)


@settings(max_examples=60, deadline=None)
@given(rows=int_matrices(square=False), p=PRIMES)
def test_non_square_inputs(rows, p):
    for m in forms(rows):
        before = copy.deepcopy(m)
        for fn in (lambda a: fp_det(a, p), det_bareiss, int_determinant_is_zero):
            with pytest.raises(ValueError):
                fn(m)
        assert np.array_equal(m, before)


def test_int_matrix_forms():
    """An integer array within int64 is used as given, in its own dtype; a
    list of rows becomes int64; anything else is refused."""
    a = np.arange(9, dtype=np.int64).reshape(3, 3)
    assert int_matrix(a) is a
    for dtype in (np.uint8, np.int32, np.uint32):
        b = a.astype(dtype)
        assert int_matrix(b) is b
    assert int_matrix([]).shape == (0, 0) and int_matrix([]).dtype == np.int64
    assert int_matrix([[1, -2], [3, 4]]).dtype == np.int64
    with pytest.raises(ValueError, match="within int64"):
        int_matrix([[2**70, 1], [0, 1]])
    with pytest.raises(ValueError):
        int_matrix(np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        fp_det(np.zeros((0, 3), dtype=np.int64), 5)
    with pytest.raises(ValueError):
        int_matrix([[1, 2], [3]])


Q = crt_primes(1)[0]


@st.composite
def fused_cases(draw):
    """Square matrices up to 6 x 6 whose first column leans towards one D5
    branch mod 5Q: any entries, multiples of 5, multiples of Q, or a mix of
    multiples of 5 and of Q.  Later columns mix small entries and multiples
    of Q, so a split can also come later."""
    n = draw(st.integers(1, 6))
    small = st.integers(-9, 9)
    first = {
        "none": small,
        "p": st.integers(-3, 3).map(lambda k: 5 * k),
        "q": st.integers(-3, 3).map(lambda k: Q * k),
        "split": st.one_of(st.integers(-3, 3).map(lambda k: 5 * k), st.integers(-3, 3).map(lambda k: Q * k)),
    }[draw(st.sampled_from(["none", "p", "q", "split"]))]
    rest = st.one_of(small, st.integers(-3, 3).map(lambda k: Q * k))
    return [[draw(first)] + draw(st.lists(rest, min_size=n - 1, max_size=n - 1)) for _ in range(n)]


def recording(name):
    """A patch of gfp_core.name that records every [args, result] in the
    order of the calls, with a copy of each array argument taken before
    the call."""
    calls = []
    real = getattr(gfp_core, name)

    def record(*args):
        call = [tuple(x.copy() if isinstance(x, np.ndarray) else x for x in args), None]
        calls.append(call)
        call[1] = real(*args)
        return call[1]

    return mock.patch.object(gfp_core, name, side_effect=record), calls


def eliminate(rows, primes):
    """The stacked sweep's det mod each of primes, from one elimination of
    the uint32 residues mod their product as a stack of one, and the
    sweeps it ran as (residues, table) pairs: the first is this one, and a
    second, one prime per lane, finishes the survivors of a D5 split."""
    residues = (int_matrix(rows) % math.prod(primes)).astype(np.uint32)
    patch, calls = recording("_eliminate_stack")
    with patch:
        got = gfp_core._eliminate_stack(residues[None], np.array([primes]))[0].tolist()
    return got, [args for args, _ in calls]


def dropped(sweeps):
    """The primes of the second sweep's lanes whose first column is zero:
    each divides the whole first column of the split block."""
    block, table = sweeps[1]
    assert table.shape == (len(block), 1)
    return {p for lane, p in zip(block, table[:, 0].tolist()) if not lane[:, 0].any()}


def test_fused_elimination_matches_separate_eliminations():
    """The sweep mod 5Q against fp_det mod each prime, Bareiss and sympy,
    with every D5 branch taken, read off the second sweep's lanes: no
    split, 5 dropped, Q dropped, true split."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(rows=fused_cases())
    def check(rows):
        exact = det_bareiss(rows)
        assert exact == sympy.Matrix(rows).det()
        got, sweeps = eliminate(rows, (5, Q))
        assert got == [exact % 5, exact % Q] == [fp_det(rows, 5), fp_det(rows, Q)]
        assert int_determinant_is_zero(rows, got[1]) == (exact == 0)
        assert eliminate(rows, (Q, 5))[0] == got[::-1]
        assert len(sweeps) <= 2
        if len(sweeps) == 1:
            seen.add("none")
        else:
            assert sweeps[1][1][:, 0].tolist() == [5, Q]
            gone = dropped(sweeps)
            seen.add("p" if gone == {5} else "q" if gone == {Q} else "split")
            assert gone != {5, Q}

    check()
    assert seen == {"none", "p", "q", "split"}


@st.composite
def three_prime_cases(draw):
    """Square matrices up to 6 x 6 whose first column holds multiples of 2,
    of 3, of 5, or a mix of them, so no entry of it is a unit mod 30."""
    n = draw(st.integers(1, 6))
    mults = [st.integers(-4, 4).map(f.__mul__) for f in (2, 3, 5)]
    first = draw(st.sampled_from(mults + [st.one_of(mults)]))
    small = st.integers(-9, 9)
    return [[draw(first)] + draw(st.lists(small, min_size=n - 1, max_size=n - 1)) for _ in range(n)]


def test_three_prime_split_finishes_each_survivor_alone():
    """The sweep mod 2 * 3 * 5 against fp_det mod each prime and Bareiss,
    with a split that drops one prime and leaves two survivors in the
    second sweep."""
    primes = (2, 3, 5)
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(rows=three_prime_cases())
    def check(rows):
        exact = det_bareiss(rows)
        got, sweeps = eliminate(rows, primes)
        assert got == [exact % p for p in primes] == [fp_det(rows, p) for p in primes]
        if len(sweeps) > 1:
            assert sweeps[1][1][:, 0].tolist() == list(primes)
            seen.add(len(dropped(sweeps)))

    check()
    # one prime dead with two survivors, and a split with all three alive
    assert {0, 1} <= seen


def test_fused_residue_mod_q_does_not_decide_mod_5():
    # first column all multiples of Q: Q is dropped, and det = -3Q is not 0 mod 5
    rows = [[Q, 1, 0], [2 * Q, 0, 1], [0, 1, 1]]
    assert det_bareiss(rows) == -3 * Q
    d5, dq = fp_dets_stack(np.array([rows], dtype=np.int64), (5, Q))[0].tolist()
    assert dq == 0 and d5 == (-3 * Q) % 5 != 0
    # handing the zero test a zero first residue does not make det zero
    assert not int_determinant_is_zero(rows, dq)
    assert int_determinant_is_zero([[Q, 2 * Q], [1, 2]], 0)


def test_listed_primes_beyond_fusion_take_their_own_elimination():
    rnd = random.Random(23)
    for p in (7, 101, 2**31 - 1):
        assert fused_prime([p]) == ()
        with pytest.raises(ValueError):
            fp_dets_stack(np.ones((1, 1, 1), dtype=np.int64), (p, Q))
        for _ in range(10):
            n = rnd.randrange(1, 6)
            rows = [[rnd.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            assert fp_det(rows, p) == det_bareiss(rows) % p
    with pytest.raises(ValueError):
        fp_dets_stack(np.ones((1, 1, 1), dtype=np.int64), (5, 5))


@st.composite
def stacks(draw):
    """Stacks of up to 12 square matrices up to 8 x 8 whose lanes hit
    different rows in one column.  A lane is sparse, the 0..3 adjacency of a
    1- to 3-regular multigraph (a sum of permutation matrices), or dense,
    drawing its entries from small integers, multiples of 5, or a mix with
    multiples of Q.  Any lane may get a zero column and a duplicate row,
    which kill it at the start of the sweep or midway; a dense lane whose
    column holds only multiples of 5 or of Q takes the D5 split mod 5Q."""
    n = draw(st.integers(1, 8))
    small = st.integers(-3, 3)
    fives = st.integers(-4, 4).map(lambda k: 5 * k)
    mixed = st.one_of(small, fives, st.integers(-2, 2).map(lambda k: Q * k))
    lanes = []
    for _ in range(draw(st.integers(1, 12))):
        entry = draw(st.sampled_from([None, small, fives, mixed]))
        if entry is None:
            rows = [[0] * n for _ in range(n)]
            for _ in range(draw(st.integers(1, 3))):
                for i, j in enumerate(draw(st.permutations(range(n)))):
                    rows[i][j] += 1
        else:
            rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
        if draw(st.booleans()):
            j = draw(st.integers(0, n - 1))
            for row in rows:
                row[j] = 0
        if n >= 2 and draw(st.booleans()):
            i, j = draw(st.permutations(range(n)))[:2]
            rows[i] = list(rows[j])
        lanes.append(rows)
    return lanes


@pytest.mark.parametrize("primes", [(2,), (7,), (5, Q)], ids=["2", "7", "5Q"])
def test_stacked_elimination_matches_per_matrix(primes):
    """The stacked sweep `_eliminate_stack`, at every stack size from 1, on the
    uint32 residues fp_dets_stack hands it and on int64 residues, against
    Bareiss on every lane, with D5 split lanes and lanes without a split in
    one stack mod 5Q.  Negative entries become
    residues up to M - 1, whose products only int64 holds; a lane split mod
    5Q finishes in the second sweep, its lane mod Q being one where a
    product of uint32 residues would wrap.  fp_dets_stack on the int64
    stack agrees too; mod 2 it runs the packed-bit kernel."""
    mixed = []
    mod = math.prod(primes)

    @settings(max_examples=150, deadline=None)
    @given(lanes=stacks())
    def check(lanes):
        residues = np.array(lanes, dtype=np.int64) % mod
        table = np.array([primes] * len(lanes))
        for dtype in (np.uint32, np.int64):
            patch, calls = recording("_eliminate_stack")
            with patch:
                got = gfp_core._eliminate_stack(residues.astype(dtype), table)
            assert got.shape == (len(lanes), len(primes))
            for rows, dets in zip(lanes, got.tolist()):
                exact = det_bareiss(rows)
                assert tuple(dets) == tuple(exact % p for p in primes)
        assert len(calls) <= 2
        split = len(calls[1][0][0]) // len(primes) if len(calls) == 2 else 0
        mixed.append(0 < split < len(lanes))
        assert np.array_equal(fp_dets_stack(np.array(lanes, dtype=np.int64), primes), got)

    check()
    assert any(mixed) == (len(primes) > 1)
    with pytest.raises(ValueError, match="square"):
        fp_dets_stack(np.zeros((2, 3, 4), dtype=np.int64), primes)
    with pytest.raises(ValueError, match="square"):
        fp_dets_stack(np.zeros((3, 3), dtype=np.int64), primes)


@pytest.mark.parametrize("primes", [(2,), (7,), (Q,), (5, Q), (2, Q)], ids=["2", "7", "Q", "5Q", "2Q"])
def test_stack_kernel_choice_by_stack_size(primes):
    """fp_dets_stack eliminates every stack, a lone matrix as a stack of
    one, in one sweep, except mod 2 alone, which takes the packed-bit
    kernel at every stack size; all agree with Bareiss.  A second sweep,
    with one prime per lane, runs only under a D5 split, one lane per split
    lane and prime.  The first three lanes are permuted unit upper
    triangles with a zero column at column 0, mid-sweep or the last column,
    so each dies exactly there, alone and in stacks; the fourth has a first
    column of multiples of 5 that are not all multiples of Q, which splits
    mod 5Q at once and dies mod 5 in the second sweep, and the others are
    random and include D5 splits mod 5Q and mod 2Q.  `mc --p 2` takes the
    sweep mod 2Q, where the unit test for 2 reads the low bit of a
    residue."""
    rnd = random.Random(17)
    entries = (0, 1, 2, 5, -5, Q)
    lanes = []
    for z in (0, 3, 5):
        rows = [[int(i == j) if j <= i else rnd.choice(entries) for j in range(6)] for i in range(6)]
        for row in rows:
            row[z] = 0
        rnd.shuffle(rows)
        lanes.append(rows)
    lanes.append([[5 * (i % 3 - 1)] + [rnd.choice(entries) for _ in range(5)] for i in range(6)])
    lanes += [[[rnd.choice(entries) for _ in range(6)] for _ in range(6)] for _ in range(4)]
    parts = [[lane] for lane in lanes] + [lanes[i : i + b] for b in (2, 3) for i in range(len(lanes) - b + 1)]
    splits = 0
    for part in parts:
        patch, sweeps = recording("_eliminate_stack")
        with patch, mock.patch.object(gfp_core, "_eliminate_gf2", wraps=gfp_core._eliminate_gf2) as packed:
            got = fp_dets_stack(np.array(part, dtype=np.int64), primes)
        assert packed.called == (primes == (2,))
        if primes == (2,):
            assert not sweeps
        else:
            (a, table), _ = sweeps[0]
            assert len(a) == len(part) and table.tolist() == [list(primes)] * len(part)
            assert len(sweeps) <= (2 if len(primes) > 1 else 1)
            if len(sweeps) == 2:
                (a, table), _ = sweeps[1]
                assert table.shape == (len(a), 1) and len(a) % len(primes) == 0
                splits += len(a) // len(primes)
        assert got.shape == (len(part), len(primes)) and got.dtype == np.int64
        for rows, dets in zip(part, got.tolist()):
            exact = det_bareiss(rows)
            assert tuple(dets) == tuple(exact % p for p in primes)
    assert [det_bareiss(rows) for rows in lanes[:3]] == [0, 0, 0]
    assert det_bareiss(lanes[3]) % 5 == 0 != det_bareiss(lanes[3]) % Q
    assert (splits > 0) == (len(primes) > 1)
    if primes == (5, Q):
        # the fourth lane alone splits at column 0, and mod 5 its block dies there
        patch, sweeps = recording("_eliminate_stack")
        with patch:
            fp_dets_stack(np.array(lanes[3:4], dtype=np.int64), primes)
        (a, table), _ = sweeps[1]
        assert table[:, 0].tolist() == [5, Q] and len(a[0]) == 6
        assert not a[0][:, 0].any() and a[1][:, 0].any()


@pytest.mark.parametrize("primes", [(2,), (7,), (5, Q), (2, Q)], ids=["2", "7", "5Q", "2Q"])
def test_narrow_and_signed_stacks_match_per_matrix(primes):
    """fp_dets_stack on uint8, uint32, int8 with negative entries and int64
    stacks, in both kernels, against Bareiss: a uint32 entry near 2^32 must
    be reduced mod 5Q before any product, and a negative int8 entry before
    the stack narrows to uint32.  The uint32 entries hold the unit test's
    edge values: 0, p, 2p and 7p for each prime p of the row, the largest
    residues mod 2Q and 5Q, 2^31 and 2^32 - 2; in the second lane a first
    column of multiples of 5 that are not multiples of Q (2^32 - 1 is one)
    splits mod 5Q at once."""
    rnd = random.Random(31)
    edges = [k * p for p in primes for k in (1, 2, 7)]
    for dtype, entries in (
        (np.uint8, (0, 1, 2, 3, 255)),
        (np.uint32, (0, 1, 3, Q, 2 * Q - 1, 5 * Q - 1, 2**31, 2**32 - 5, 2**32 - 2, 2**32 - 1, *edges)),
        (np.int8, (-128, -5, -1, 0, 1, 3, 127)),
        (np.int64, (-(2**40), -Q, -5, -1, 0, 1, 5, Q)),
    ):
        lanes = [[[rnd.choice(entries) for _ in range(5)] for _ in range(5)] for _ in range(6)]
        if dtype == np.uint32:
            for row in lanes[1]:
                row[0] = rnd.choice((5, 10, 35, 2**32 - 1))
        for b in (1, 2, 3, 6):
            got = fp_dets_stack(np.array(lanes[:b], dtype=dtype), primes)
            assert got.shape == (b, len(primes)) and got.dtype == np.int64
            for rows, dets in zip(lanes, got.tolist()):
                exact = det_bareiss(rows)
                assert tuple(dets) == tuple(exact % p for p in primes)
    for dtype in (np.uint64, np.float64):
        with pytest.raises(ValueError, match="integer stack"):
            fp_dets_stack(np.zeros((4, 2, 2), dtype=dtype), primes)


@pytest.mark.parametrize(
    "dtype, rows", [(np.uint8, [(7,), (Q,)]), (np.uint16, [(2, 3), (5, Q)])], ids=["uint8", "uint16"]
)
def test_narrow_stacks_reach_the_sweep_as_residues(dtype, rows):
    """A narrow unsigned stack below MIN_SCHUR_N whose lanes' moduli lie on
    both sides of its dtype's max (M = 7 or 6 below it, Q or 5Q above) is
    reduced before the sweep: every call of `_eliminate_stack` sees each
    lane's entries below that lane's M, and the dets equal Bareiss."""
    rnd = random.Random(41)
    top = int(np.iinfo(dtype).max)
    lanes = [[[rnd.choice((0, 1, 5, 7, 227, top - 1, top)) for _ in range(5)] for _ in range(5)] for _ in range(6)]
    table = [rows[k % 2] for k in range(len(lanes))]
    patch, sweeps = recording("_eliminate_stack")
    with patch:
        got = fp_dets_stack(np.array(lanes, dtype=dtype), np.array(table))
    assert sweeps and sweeps[0][0][0].dtype == np.uint32
    for (a, tab), _ in sweeps:
        assert (a.max(axis=(1, 2)) < tab.prod(axis=1)).all()
    for lane, row, dets in zip(lanes, table, got.tolist()):
        exact = det_bareiss(lane)
        assert dets == [exact % p for p in row]


Q2, Q3 = crt_primes(3)[1:]
# table rows by length: one prime, or two whose product still fits the size rule
TABLE_ROWS = {1: [(2,), (3,), (5,), (7,), (Q,), (Q2,), (Q3,)], 2: [(5, Q), (2, Q), (Q, 5), (Q2, 2)]}


@st.composite
def tabled_stacks(draw):
    """A stack from `stacks()` and a (B, k) prime table for it: one row drawn
    for every lane (a shared modulus) or a row drawn per lane."""
    lanes = draw(stacks())
    rows = st.sampled_from(TABLE_ROWS[draw(st.sampled_from([1, 2]))])
    if draw(st.booleans()):
        return lanes, [draw(rows)] * len(lanes)
    return lanes, draw(st.lists(rows, min_size=len(lanes), max_size=len(lanes)))


def test_prime_table_matches_bareiss():
    """fp_dets_stack with one row of primes per lane, rows mixed in one
    stack or shared by all, against Bareiss mod each prime of the lane's
    row.  A lane that splits mod 5Q or 2Q reaches one second sweep, with
    one prime per lane; a shared modulus and a modulus per lane both run."""
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(case=tabled_stacks())
    def check(case):
        lanes, table = case
        patch, sweeps = recording("_eliminate_stack")
        with patch:
            got = fp_dets_stack(np.array(lanes, dtype=np.int64), np.array(table))
        assert got.shape == (len(lanes), len(table[0])) and got.dtype == np.int64
        for rows, row, dets in zip(lanes, table, got.tolist()):
            exact = det_bareiss(rows)
            assert dets == [exact % p for p in row]
        if table == [(2,)] * len(lanes):
            assert not sweeps
            return
        shared = len(set(table)) == 1
        seen.add("shared" if shared else "per lane")
        assert len(sweeps) <= (2 if len(table[0]) > 1 else 1)
        if len(sweeps) == 2:
            (a, second), _ = sweeps[1]
            assert second.shape == (len(a), 1)
            primes = sorted(second[:, 0].tolist())
            seen.update(f"split {math.prod(row)}" for row in set(table) if set(row) <= set(primes))
            seen.add("split " + ("shared" if shared else "per lane"))

    check()
    assert {"shared", "per lane", "split shared", "split per lane", f"split {5 * Q}", f"split {2 * Q}"} <= seen


@pytest.mark.parametrize(
    "table",
    [[[5, 5]], [[4]], [[1]], [[7, Q]], [[5], [7]], [[2.0]], [[[5]]]],
    ids=["repeated", "non-prime", "one", "too-big", "rows-not-B", "float", "3-D"],
)
def test_prime_table_rows_are_checked(table):
    """A table row with a repeated prime, a non-prime or M(M-1) >= 2^63, a
    row count other than the stack's, or a table that is not 2-D integers
    raises ValueError."""
    with pytest.raises(ValueError):
        fp_dets_stack(np.ones((1, 2, 2), dtype=np.int64), np.array(table))


# table rows by length whose M has units other than 1 and M - 1
PIVOT_ROWS = {1: [(5,), (7,), (Q,), (Q2,)], 2: [(5, Q), (2, Q), (Q, 5), (Q2, 2)]}


def lu_lane(diag, lower, upper):
    """A = L U as a list of rows, for L unit lower triangular with lower[i][j]
    below its diagonal and U upper triangular with diag on its diagonal and
    upper[i][j] above it.  While U's diagonal so far is units, the sweep's
    column c is U[c][c] times L's column c, so its pivot is U[c][c] on the
    diagonal, with no swap."""
    n = len(diag)
    low = [[1 if i == j else lower[i][j] if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[diag[i] if i == j else upper[i][j] if j > i else 0 for j in range(n)] for i in range(n)]
    return [[sum(low[i][t] * up[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


@st.composite
def pivoted_stacks(draw):
    """(lanes, table, reached): a stack of `lu_lane`s with a row of
    PIVOT_ROWS of one length per lane, shared or drawn per lane, and for
    each lane the kinds of pivot its sweep reaches, in order.  A diagonal entry is 1, -1
    (a pivot of M - 1, which differs with the lane's M), another unit mod
    M, the first prime of the lane's row or 0.  A prime splits a lane of
    two primes (D5) and kills a lane of one, and 0 kills any lane: its
    column is zero from there on, so no later pivot is reached."""
    n = draw(st.integers(1, 7))
    b = draw(st.integers(1, 8))
    rows = st.sampled_from(PIVOT_ROWS[draw(st.sampled_from([1, 2]))])
    table = [draw(rows)] * b if draw(st.booleans()) else [draw(rows) for _ in range(b)]
    kind = st.sampled_from(["1", "M-1", "other", "1", "M-1", "other", "prime", "0"])
    entries = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
    lanes, reached = [], []
    for row in table:
        value = {"1": 1, "M-1": -1, "prime": row[0], "0": 0}
        mod = math.prod(row)
        others = [x for x in (2, 3, -2, 6, 11) if math.gcd(x, mod) == 1 and x % mod not in (1, mod - 1)]
        diag, kinds = [], []
        for _ in range(n):
            k = draw(kind)
            diag.append(draw(st.sampled_from(others)) if k == "other" else value[k])
            if "dead" not in kinds and "split" not in kinds:
                kinds.append("split" if k == "prime" and len(row) == 2 else "dead" if k in ("prime", "0") else k)
        lanes.append(lu_lane(diag, draw(entries), draw(entries)))
        reached.append(kinds)
    return lanes, table, reached


def test_plus_minus_one_pivots_match_bareiss():
    """The sweep, whose multiplier for a pivot of 1 or M - 1 is M - pv and
    for any other unit M - pow(pv, -1, M), against Bareiss mod each prime of
    every lane's row: pivots of 1, M - 1 and other units mixed in one stack,
    with a shared M or one per lane (M - 1 then differs per lane), D5 split
    lanes, whose survivors finish in the second sweep with a modulus per
    lane, and dead lanes.  fp_dets_stack on the integer stack agrees."""
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(case=pivoted_stacks())
    def check(case):
        lanes, table, reached = case
        mods = np.array([math.prod(row) for row in table], dtype=np.int64)
        residues = (np.array(lanes, dtype=np.int64) % mods[:, None, None]).astype(np.uint32)
        got = gfp_core._eliminate_stack(residues, np.array(table))
        for rows, row, dets in zip(lanes, table, got.tolist()):
            exact = det_bareiss(rows)
            assert dets == [exact % p for p in row]
        assert np.array_equal(fp_dets_stack(np.array(lanes, dtype=np.int64), np.array(table)), got)
        for kinds in reached:
            seen.update(kinds)
        if len({m for m, kinds in zip(mods.tolist(), reached) if "M-1" in kinds}) > 1:
            seen.add("M-1 per lane")

    check()
    assert seen == {"1", "M-1", "other", "split", "dead", "M-1 per lane"}


def test_plus_minus_one_pivots_take_no_inverse():
    """A stack whose every pivot is 1 or M - 1 makes no call to pow, with a
    shared M and with one per lane; one pivot of 3 in one lane makes one
    call, pow(3, -1, M) for that lane's M.  The dets equal Bareiss."""
    rnd = random.Random(53)
    n = 6
    for table in ([(5, Q)] * 4, [(5, Q), (2, Q), (Q2, 2), (Q, 5)], [(7,), (Q,), (5,), (Q2,)]):
        diags = [[rnd.choice((1, -1)) for _ in range(n)] for _ in table]
        for other in (False, True):
            if other:
                diags[2][0] = 3
            lanes = []
            for diag in diags:
                lower = [[rnd.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
                lower[1][0] = 1  # every lane has a row to update at column 0
                lanes.append(lu_lane(diag, lower, [[rnd.randrange(-3, 4) for _ in range(n)] for _ in range(n)]))
            with mock.patch.object(gfp_core, "pow", create=True, wraps=pow) as spy:
                got = fp_dets_stack(np.array(lanes, dtype=np.int64), np.array(table))
            for rows, row, dets in zip(lanes, table, got.tolist()):
                exact = det_bareiss(rows)
                assert exact != 0 and dets == [exact % p for p in row]
            if other:
                assert spy.call_args_list == [mock.call(3, -1, math.prod(table[2]))]
            else:
                assert not spy.called


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_packed_gf2_kernel_at_word_boundaries(n):
    """fp_dets_stack mod 2 alone, on stacks of 1 to 12 lanes at sizes around
    the 64-bit word boundaries, against the sweep mod 2 on each lane as a
    stack of one (`_eliminate_stack` with the table [[2]]).  Lanes are 0/1 patterns written as int8 with negative entries,
    int64 with negative entries and uint32 near 2^32, each of the pattern's
    parity.  Nonsingular lanes (a permuted unit upper triangle) need a pivot
    fix-up in most columns; singular ones die at different columns: a zero
    column at or around a word boundary, a duplicate row, or a
    rank-deficient dense pattern."""
    rng = np.random.default_rng(n)
    patterns = []
    for k in range(12):
        if k % 3 == 0:
            upper = np.triu(rng.integers(0, 2, (n, n)), 1) + np.eye(n, dtype=np.int64)
            pattern = (rng.permutation(np.eye(n, dtype=np.int64)) @ upper) % 2
        else:
            pattern = rng.integers(0, 2, (n, n))
        if k % 3 == 1:
            pattern[:, min([0, 63, 64, n - 1][k // 3], n - 1)] = 0
        if k in (5, 6):
            pattern[n - 1 - k] = pattern[k]
        patterns.append(pattern)
    spellings = {
        np.int8: ((-128, -2, 0, 126), (-127, -1, 1, 127)),
        np.int64: ((-(2**40), -2, 0, 2 * Q), (-Q, -(2**40) - 1, 1, Q)),
        np.uint32: ((0, 2, 2**32 - 4, 2**32 - 2), (1, 3, 2**32 - 3, 2**32 - 1)),
    }
    for dtype, (even, odd) in spellings.items():
        pick = rng.integers(0, 4, (12, n, n))
        lanes = np.where(np.array(patterns) == 1, np.array(odd)[pick], np.array(even)[pick])
        lanes = lanes.astype(dtype)
        want = [gfp_core._eliminate_stack((m % 2).astype(np.uint32)[None], np.array([[2]]))[0, 0] for m in lanes]
        assert 0 < sum(want) < 12
        for b in range(1, 13):
            got = fp_dets_stack(lanes[:b], (2,))
            assert got.shape == (b, 1) and got.dtype == np.int64
            assert got[:, 0].tolist() == want[:b]


def test_zero_test_with_a_given_first_residue():
    """A nonzero first residue answers with no elimination, on the narrow
    lane as given, but the input must still be a square integer matrix."""
    lane = np.array([[1, 2, 0], [0, 1, 3], [3, 0, 1]], dtype=np.uint8)
    first = int(det_bareiss(lane.tolist())) % Q
    assert first != 0
    assert int_matrix(lane) is lane
    with mock.patch.object(gfp_core, "fp_dets_stack", wraps=gfp_core.fp_dets_stack) as spy:
        assert not int_determinant_is_zero(lane, first)
    assert not spy.called
    assert int_determinant_is_zero(np.array([[1, 2], [1, 2]], dtype=np.uint8), 0)
    for m in (
        np.zeros((2, 3), dtype=np.uint8),
        np.zeros(3, dtype=np.uint8),
        [[1, 2, 3], [4, 5, 6]],
        [[1, 2], [3]],
    ):
        for first in (None, 0, 1):
            with pytest.raises(ValueError):
                int_determinant_is_zero(m, first)


def padded_diagonal(diag, pad):
    """diag on the diagonal, then the unit upper triangle [[1, pad], [0, 1]]:
    det is prod(diag), but the last two rows raise the Hadamard bound by
    about pad."""
    k = len(diag)
    a = np.zeros((k + 2, k + 2), dtype=np.int64)
    a[range(k), range(k)] = diag
    a[k, k] = a[k + 1, k + 1] = 1
    a[k, k + 1] = pad
    return a


def tail_primes(a):
    """The fewest CRT primes whose product exceeds twice the Hadamard bound."""
    k = 1
    while math.prod(crt_primes(k)) <= 2 * hadamard_bound(a):
        k += 1
    return k


def test_zero_test_with_a_nonzero_tail():
    """Lanes with det = +-q1, +-q1 q2 and +-q1 q2 q3 for the leading CRT
    primes, padded so that the Hadamard bound needs one more prime, have a
    zero first residue and zero residues at the tail's first primes, but
    are not singular; their twins with a repeated row are.  Their entries
    pass SCHUR_ENTRY_BOUND, so they take no structural pivots and their
    complement is the lane itself.  A zero first residue makes exactly one
    tail sweep (`_sweep_complements`), on that complement mod
    crt_primes(k)[1:], and no `fp_dets_stack` call."""
    for j in (1, 2, 3):
        for sign in (1, -1):
            diag = [sign * Q] + crt_primes(j)[1:]
            lane = padded_diagonal(diag, 2**30)
            assert det_bareiss(lane) == math.prod(diag)
            twin = lane.copy()
            twin[-1] = twin[0]
            assert det_bareiss(twin) == 0
            assert tail_primes(lane) == j + 2
            for m, zero in ((lane, False), (twin, True)):
                k = tail_primes(m)
                assert int_determinant_is_zero(m) is zero
                with mock.patch.object(gfp_core, "fp_dets_stack", wraps=gfp_core.fp_dets_stack) as spy, mock.patch.object(
                    gfp_core, "_sweep_complements", wraps=gfp_core._sweep_complements
                ) as tail:
                    assert int_determinant_is_zero(m, 0) is zero
                assert not spy.called
                assert tail.call_count == 1
                complement, table = tail.call_args.args
                assert table.tolist() == [[p] for p in crt_primes(k)[1:]]
                (s,), sign_s = complements(m[None])
                assert np.array_equal(s, m) and sign_s == [1]
                assert all(np.array_equal(x, y) for x, y in zip(complement, gfp_core._schur_complement(m[None])))


def tail_primes_of(lane):
    """The CRT primes the zero test takes once the lane's own bound needs a
    second one: the fewer of tail_primes of the lane and of its Schur
    complement."""
    return min(tail_primes(lane), tail_primes(complements(lane[None])[0][0]))


def test_zero_test_calls_by_tail_length():
    """Once A's own bound needs a second CRT prime, the zero test bounds det
    by the Hadamard bound of the Schur complement S, as |det A| = |det S|.
    Trial 26 at seed 20240813 (n = 300, det 0) needs 6 CRT primes by S's
    bound against 9 by A's, and after its zero first residue takes one
    tail sweep of the 5 lanes of its complement, with no `fp_dets_stack`
    call.  A duplicate-row lane at n = 300, whose complement has a zero
    row (bound 0), and one at n = 30 (k = 1) take none, nor does a nonzero
    first residue."""
    trial = adjacency_stack(sample_permutations(300, 3, 20240813, range(26, 27)), 3)[0]
    duplicate = adjacency_lanes(300, 3, 7, 2)[1]
    small = adjacency_lanes(30, 3, 7, 2)[1]
    assert tail_primes(complements(trial[None])[0][0]) == tail_primes_of(trial) == 6
    assert tail_primes(complements(duplicate[None])[0][0]) == tail_primes_of(duplicate) == 1
    for lane, k, calls in ((trial, 9, 1), (duplicate, 9, 0), (small, 1, 0)):
        assert tail_primes(lane) == k
        with mock.patch.object(gfp_core, "fp_dets_stack", wraps=gfp_core.fp_dets_stack) as spy, mock.patch.object(
            gfp_core, "_sweep_complements", wraps=gfp_core._sweep_complements
        ) as tail:
            assert int_determinant_is_zero(lane, 0)
            assert not int_determinant_is_zero(lane, 1)
        assert not spy.called
        assert tail.call_count == calls
        if calls:
            complement, table = tail.call_args.args
            assert table.tolist() == [[p] for p in crt_primes(6)[1:]]
            want = gfp_core._schur_complement(lane[None])
            assert all(np.array_equal(x, y) for x, y in zip(complement, want))


@pytest.mark.parametrize("n", [30, 35, 36, 40, 63])
def test_zero_test_takes_the_complement_at_every_n(n):
    """Below MIN_SCHUR_N too, the zero test ends at q when A's own bound
    needs no second CRT prime, and otherwise takes A's structural steps
    once and sweeps copies of its complement.  On d = 3 adjacency lanes
    (nonsingular ones, ones with two identical rows, and one with two
    identical columns but no identical rows) `_schur_complement` runs
    after a zero first residue exactly when A's bound needs a second
    prime, and the answer is Bareiss's, with the first residue computed
    or given.  Given a zero first residue, a nonsingular lane whose tail
    has primes past q answers False from them."""
    lanes = list(adjacency_lanes(n, 3, 20240813, 8))
    twin = lanes[0].copy()
    twin[:, n // 2] = twin[:, 3]
    lanes.append(twin)
    kinds, complements_run = set(), set()
    for lane in lanes:
        exact = det_bareiss(lane)
        duplicate = bool(has_identical_rows(lane))
        kinds.add((exact == 0, duplicate))
        assert int_determinant_is_zero(lane) == (exact == 0)
        with mock.patch.object(gfp_core, "_schur_complement", wraps=gfp_core._schur_complement) as steps:
            zero = int_determinant_is_zero(lane, 0)
        assert steps.call_count == (tail_primes(lane) > 1)
        complements_run.add(steps.called)
        if exact == 0 or tail_primes_of(lane) > 1:
            assert zero == (exact == 0)
        with mock.patch.object(gfp_core, "_schur_complement", wraps=gfp_core._schur_complement) as steps:
            assert int_determinant_is_zero(lane, exact % Q) == (exact == 0)
        assert steps.call_count == (exact % Q == 0 and tail_primes(lane) > 1)
    # nonsingular, duplicate-row and singular lanes without duplicate rows
    assert {(False, False), (True, True), (True, False)} <= kinds, kinds
    # no lane's own bound needs a second prime at n = 30, and some do from 35 on
    assert (True in complements_run) == (n > 30), complements_run


@pytest.mark.parametrize(
    "m",
    [
        [[0.5, 0], [0, 1]],
        np.array([[0.2, 1], [0.7, 1]]),
        [[True, False], [False, True]],
        np.eye(2, dtype=bool),
        np.eye(2, dtype=np.uint64),
        [[2**63, 0], [0, 1]],
        [[-1, 2**63], [0, 1]],
        [[2**70, 1], [2**70, 1]],
    ],
    ids=["float-list", "float-array", "bool-list", "bool-array", "uint64", "2^63", "mixed", "2^70"],
)
def test_non_integer_and_wide_input_is_refused(m):
    """Floats, bools, uint64 and Python ints past int64 raise ValueError at
    every matrix entry point instead of being truncated or wrapped; read as
    its integer parts, [[0.5, 0], [0, 1]] would look singular and
    [[0.2, 1], [0.7, 1]] would have identical rows."""
    for fn in (
        lambda a: fp_det(a, 5),
        lambda a: fp_det(a, 2),
        int_determinant_is_zero,
        lambda a: int_determinant_is_zero(a, 1),
        hadamard_bound,
        has_identical_rows,
    ):
        with pytest.raises(ValueError):
            fn(m)


def test_narrow_lanes_match_their_int64_copy():
    """uint8 lanes whose squares or row sums of squares wrap in uint8 (an
    entry of 16 or more, such as the d = 17 adjacency [[17]]) give
    hadamard_bound and the zero test (first residue computed, or given as
    0) the answers of their int64 copies and of Bareiss."""
    lanes = [np.array([[16, 0], [0, 16]], dtype=np.uint8), np.array([[16, 32], [16, 32]], dtype=np.uint8)]
    for n, stream in ((1, 0), (2, 1), (2, 2), (20, 3), (20, 4)):
        a = adjacency_from_permutation(sample_configuration(n, 17, seed=41, stream=stream))
        lanes.append(a.astype(np.uint8))
        if n > 1:
            a[1] = a[0]
            lanes.append(a.astype(np.uint8))
    zeros, wraps = [], []
    for lane in lanes:
        wide = lane.astype(np.int64)
        wraps.append(((lane * lane).sum(axis=1, dtype=np.uint8) != (wide * wide).sum(axis=1)).any())
        bound = hadamard_bound(lane)
        assert bound == hadamard_bound(wide) == hadamard_bound(wide.tolist()) > 0
        exact = det_bareiss(wide.tolist())
        assert abs(exact) <= bound
        assert int_determinant_is_zero(lane) == int_determinant_is_zero(wide) == (exact == 0)
        assert int_determinant_is_zero(lane, 0) == int_determinant_is_zero(wide, 0)
        zeros.append(exact == 0)
    assert wraps[:3] == [True, True, True]
    assert any(zeros) and not all(zeros)


RULE = gfp_core.MIN_SCHUR_N
# (moduli, degree): 2Q, 3Q and 2 * 3 * 5 make the adjacency entries 2, 3 or 4
# non-units, so D5 splits follow in the complement's sweep
SCHUR_CASES = [((5, Q), 3), ((3, Q), 4), ((2, Q), 5), ((2, 3, 5), 4), ((7,), 3), ((Q,), 5)]


def adjacency_lanes(n, d, seed, b):
    """b adjacency matrices of d-regular digraphs on n vertices as a uint8
    stack; lane 1 gets two identical rows, so it has det 0."""
    stack = adjacency_stack(sample_permutations(n, d, seed, range(b)), d)
    if b > 1:
        stack[1, n // 2] = stack[1, 3]
    return stack


def without_step(stack, primes):
    """fp_dets_stack with the size rule past n: the kernels on the whole stack."""
    with mock.patch.object(gfp_core, "MIN_SCHUR_N", stack.shape[1] + 1):
        return fp_dets_stack(stack, primes)


def test_schur_step_matches_bareiss_at_the_size_rule():
    """At n = MIN_SCHUR_N the structural step and the complement's
    elimination give every adjacency lane's det mod each prime as Bareiss
    does: a lane with identical rows (det 0), lanes whose pivot columns do
    not increase, so the sign counts their inversions, and a weighted
    permutation matrix, whose rows with an entry +-1 are all pivots, so
    det is the sign, the pivots' product and what is left.  The steps are
    taken over Z, so every modulus gets the same pivots."""
    stack = adjacency_lanes(RULE, 3, 5, 3)
    rng = np.random.default_rng(5)
    weighted = np.zeros((1, RULE, RULE), dtype=np.int64)
    weighted[0, np.arange(RULE), rng.permutation(RULE)] = rng.choice([1, 2, 3, -4, 6, 7], RULE)
    exact = [det_bareiss(m) for m in stack] + [det_bareiss(weighted[0])]
    assert exact[1] == 0 and exact[0] != 0
    # one nonzero a row, so a row's |entries| sum to its one entry's
    ones = np.flatnonzero(np.abs(weighted[0]).sum(axis=1) == 1).tolist()
    assert 0 < len(ones) < RULE
    pivots = []
    for primes in ((5, Q), (2, 3, 5), (7,), (Q,)):
        patch, calls = recording("_structural_pivots")
        with patch:
            got = fp_dets_stack(stack, primes).tolist()
            steps = len(calls)
            got += fp_dets_stack(weighted, primes).tolist()
        assert got == [[x % p for p in primes] for x in exact]
        pivot_cols = [[args[0][j] for j in out] for args, out in calls]
        assert any(cols != sorted(cols) for cols in pivot_cols)
        # the first step's pivot indices are its rows
        assert calls[steps][1] == ones
        pivots.append(pivot_cols)
    assert all(cols == pivots[0] for cols in pivots)


@pytest.mark.parametrize("n", [RULE - 1, RULE, RULE + 1, 160, 300])
def test_schur_step_matches_the_whole_sweep(n):
    """For d-regular adjacency stacks of 1, 2, 3 and 6 matrices,
    fp_dets_stack with the structural step (from n = MIN_SCHUR_N) equals the
    kernels on the whole stack, mod 5Q, 3Q, 2Q, 2 * 3 * 5, 7 and Q, with a
    lane of identical rows; mod 2 * 3 * 5 the complement of a stack of two
    or more takes the D5 split, which a second sweep finishes."""
    for primes, d in SCHUR_CASES:
        stack = adjacency_lanes(n, d, n + d, 6)
        for b in (1, 2, 3, 6):
            want = without_step(stack[:b], primes)
            with mock.patch.object(gfp_core, "_eliminate_stack", wraps=gfp_core._eliminate_stack) as sweep:
                got = fp_dets_stack(stack[:b], primes)
            assert got.shape == (b, len(primes)) and got.dtype == np.int64
            assert np.array_equal(got, want)
            assert not got[1:2].any()
            assert sweep.call_count <= (2 if len(primes) > 1 else 1)
            if primes == (2, 3, 5) and n >= RULE and b >= 2:
                assert sweep.call_count == 2


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint32])
def test_schur_step_on_dense_and_wide_stacks(dtype):
    """Dense stacks at n = MIN_SCHUR_N + 1, where few structural pivots
    exist: int8 with negative entries, and int64 (down to -2^40) and uint32
    (up to 2^32 - 1) lanes past SCHUR_ENTRY_BOUND, which take no step; each
    lane equals the kernels on the whole stack, which reduce int64 and int8
    in int64 first and uint32 in its own dtype, and one lane equals
    Bareiss."""
    n = RULE + 1
    rng = np.random.default_rng(n)
    entries = {
        np.int64: [-(2**40), -Q, -5, -1, 0, 0, 1, 2, 5, Q],
        np.int8: [-128, -5, -1, 0, 0, 1, 3, 127],
        np.uint32: [0, 0, 1, 3, Q, 2**32 - 5, 2**32 - 1],
    }[dtype]
    stack = np.array(entries, dtype=dtype)[rng.integers(0, len(entries), (3, n, n))]
    exact = det_bareiss(stack[0])
    for primes in ((5, Q), (2, Q), (7,), (Q,)):
        for b in (1, 3):
            got = fp_dets_stack(stack[:b], primes)
            assert np.array_equal(got, without_step(stack[:b], primes))
            assert got[0].tolist() == [exact % p for p in primes]


def test_schur_step_with_dense_pivot_rows_and_columns_takes_no_pivots():
    """[[D, X], [Y, Z]] with a diagonal D and dense X and Y has structural
    pivots in every row of D, but their Schur complement would take more
    products than it has entries: the step takes none, the kernels get the
    whole matrices, and the dets still equal the kernels' and Bareiss's."""
    n, k = RULE + 1, RULE // 2
    rng = np.random.default_rng(k)
    stack = rng.integers(1, 6, (3, n, n))
    stack[:, :k, :k] = 0
    stack[:, np.arange(k), np.arange(k)] = rng.choice([1, 2, -3], (3, k))
    exact = det_bareiss(stack[0])
    for primes in ((5, Q), (Q,)):
        with mock.patch.object(gfp_core, "_eliminate_stack", wraps=gfp_core._eliminate_stack) as sweep:
            got = fp_dets_stack(stack, primes)
        assert sweep.call_args.args[0].shape == stack.shape
        assert np.array_equal(got, without_step(stack, primes))
        assert got[0].tolist() == [exact % p for p in primes]


@pytest.mark.parametrize("primes", [(2,), (7,), (5, Q), (2, Q)], ids=["2", "7", "5Q", "2Q"])
def test_schur_step_choice_at_min_schur_n(primes):
    """fp_dets_stack takes the structural step from n = MIN_SCHUR_N on, for
    every modulus but 2 alone, before the sweep of a lone matrix and of a
    stack alike; the sweep gets the complement, and the dets equal the
    kernels' on the whole stack."""
    for n in (RULE - 1, RULE):
        stack = adjacency_lanes(n, 3, 9, 3)
        for b in (1, 3):
            with mock.patch.object(
                gfp_core, "_schur_complement", wraps=gfp_core._schur_complement
            ) as step, mock.patch.object(gfp_core, "_eliminate_stack", wraps=gfp_core._eliminate_stack) as spy:
                got = fp_dets_stack(stack[:b], primes)
            assert step.called == (n >= RULE and primes != (2,))
            assert spy.called == (primes != (2,))
            if spy.called:
                assert (spy.call_args_list[0].args[0].shape[-1] < n) == step.called
            if n >= RULE:
                assert np.array_equal(got, without_step(stack[:b], primes))


@pytest.mark.parametrize("n", [RULE, 100])
def test_prime_table_through_the_structural_step(n):
    """Adjacency stacks from n = MIN_SCHUR_N on, with a row of primes per
    lane, equal each lane decided alone with its row and the kernels on the
    whole stack: the structural steps and the sweep index each lane's
    modulus."""
    stack = adjacency_lanes(n, 3, n, 6)
    for rows in (TABLE_ROWS[1][1:], TABLE_ROWS[2] + [(5, Q), (Q2, 2)]):
        table = np.array(rows)
        got = fp_dets_stack(stack, table)
        alone = [fp_dets_stack(stack[i : i + 1], row)[0].tolist() for i, row in enumerate(rows)]
        assert got.tolist() == alone
        assert np.array_equal(got, without_step(stack, table))
        assert not got[1].any()


BOUND = gfp_core.SCHUR_ENTRY_BOUND


def integer_stacks(n, seed):
    """Stacks for the integer steps at n: uint8 adjacency lanes for d = 3, 4
    and 5 with multi-edges, int8 adjacency lanes with random signs, and
    int64 d = 3 lanes with one entry at +-SCHUR_ENTRY_BOUND, past it, and at
    -2^62."""
    rng = np.random.default_rng(seed)
    stacks = [adjacency_stack(sample_permutations(n, d, seed, range(2)), d) for d in (3, 4, 5)]
    signed = adjacency_stack(sample_permutations(n, 3, seed + 1, range(3)), 3).astype(np.int8)
    stacks.append(signed * rng.choice(np.array([-1, 1], dtype=np.int8), signed.shape))
    wide = adjacency_stack(sample_permutations(n, 3, seed + 2, range(4)), 3).astype(np.int64)
    wide[:, 0, 1] = [BOUND, -BOUND, BOUND + 1, -(2**62)]
    stacks.append(wide)
    for stack in stacks[:3]:
        assert (stack > 1).any()
    assert (stacks[3] < 0).any()
    return stacks


def complements(stack):
    """Each lane's integer Schur complement from `_schur_complement`, as a
    list of int64 matrices, and the signs."""
    lane, row, col, val, sizes, sign = gfp_core._schur_complement(stack)
    dense = [np.zeros((m, m), dtype=np.int64) for m in sizes.tolist()]
    for k, r, c, x in zip(lane.tolist(), row.tolist(), col.tolist(), val.tolist()):
        assert x != 0 and dense[k][r, c] == 0
        dense[k][r, c] = x
    return dense, sign.tolist()


@pytest.mark.parametrize("n", [RULE, RULE + 1, 2 * RULE])
def test_integer_steps_match_bareiss_over_z(n):
    """det A = sign * det(S) exactly over Z for the integer Schur complement
    S of every lane: adjacency lanes with multi-edges, signed int8 lanes
    and lanes with an entry at and past SCHUR_ENTRY_BOUND.  A lane with an
    entry past the bound takes no pivots, and one at it does; every lane
    that steps shrinks.  fp_dets_stack equals Bareiss mod each modulus."""
    for stack in integer_stacks(n, n):
        dense, sign = complements(stack)
        exact = [det_bareiss(a) for a in stack]
        assert [s * det_bareiss(c) for s, c in zip(sign, dense)] == exact
        assert set(sign) <= {1, -1}
        sizes = [len(c) for c in dense]
        if stack.dtype == np.int64:
            assert sizes[0] < n and sizes[1] < n and sizes[2:] == [n, n]
            assert np.array_equal(dense[2], stack[2]) and np.array_equal(dense[3], stack[3])
        else:
            assert max(sizes) < n
        for primes in ((5, Q), (2, 3, 5), (Q,)):
            assert fp_dets_stack(stack, primes).tolist() == [[x % p for p in primes] for x in exact]


@pytest.mark.parametrize("n", [RULE, RULE + 1, 2 * RULE])
def test_complements_are_swept_sparsest_first(n):
    """`_sweep_complements` writes each lane's complement S with its rows,
    and its columns, in the stable order of their nonzero counts, so the
    counts never decrease and ties keep their order, and the identity
    padding last; sign * det(written S) = det A over Z.  The stacks are
    those of `integer_stacks` (multi-edges, signed int8 lanes, lanes past
    SCHUR_ENTRY_BOUND) and all of their lanes as one int64 stack, whose
    complements differ in size.  fp_dets_stack equals Bareiss mod 5Q,
    2 * 3 * 5 and Q."""
    stacks = integer_stacks(n, n + 1)
    exact = [[det_bareiss(a) for a in stack] for stack in stacks]
    stacks.append(np.concatenate([stack.astype(np.int64) for stack in stacks]))
    exact.append(sum(exact, []))
    ties = 0
    for stack, want in zip(stacks, exact):
        dense, _ = complements(stack)
        complement = gfp_core._schur_complement(stack)
        lane, row, col, val, sizes, sign = gfp_core._sparsest_first(complement)
        m = int(sizes.max())
        patch, sweeps = recording("_eliminate_stack")
        with patch:
            gfp_core._sweep_complements(complement, np.full((len(stack), 1), Q))
        written = sweeps[0][0][0]
        assert written.shape == (len(stack), m, m) and written.dtype == np.uint32
        for k, s in enumerate(dense):
            size = len(s)
            rows = np.argsort(np.count_nonzero(s, axis=1), kind="stable")
            cols = np.argsort(np.count_nonzero(s, axis=0), kind="stable")
            ordered = s[rows][:, cols]
            got = np.zeros((size, size), dtype=np.int64)
            got[row[lane == k], col[lane == k]] = val[lane == k]
            assert np.array_equal(got, ordered)
            for counts in (np.count_nonzero(got, axis=1), np.count_nonzero(got, axis=0)):
                assert (np.diff(counts) >= 0).all()
                ties += int((np.diff(counts) == 0).sum())
            assert int(sign[k]) * det_bareiss(got) == want[k]
            assert np.array_equal(written[k, :size, :size], got % Q)
            assert not written[k, :size, size:].any() and not written[k, size:, :size].any()
            assert np.array_equal(written[k, size:, size:], np.eye(m - size, dtype=np.uint32))
        for primes in ((5, Q), (2, 3, 5), (Q,)):
            assert fp_dets_stack(stack, primes).tolist() == [[x % p for p in primes] for x in want]
    assert ties and len(set(map(len, dense))) > 1


@pytest.mark.parametrize("n", [RULE, 2 * RULE, 300])
def test_broadcast_tail_takes_its_steps_once(n):
    """The zero test's tail, after a zero first residue, takes the
    structural steps of its one lane once, though it has two or more
    primes, and its sweep's residues equal Bareiss mod each tail prime:
    the lanes are not singular, so the tail answers False.  Below n = 300
    two rows times SCHUR_ENTRY_BOUND, at which a lane still steps, raise
    the bound past one tail prime."""
    if n < 300:
        lane = integer_stacks(n, 3)[0][0].astype(np.int64)
        lane[-2:] *= BOUND
    else:
        lane = adjacency_lanes(n, 3, 7, 1)[0]
    exact = det_bareiss(lane)
    assert exact != 0
    patch, alone = recording("_structural_pivots")
    with patch:
        fp_dets_stack(lane[None], (Q,))
    patch, calls = recording("_structural_pivots")
    sweep, tails = recording("_sweep_complements")
    with patch, sweep:
        assert not int_determinant_is_zero(lane, 0)
    ((complement, table), got), = tails
    assert len(table) == tail_primes_of(lane) - 1 >= 2
    assert got[:, 0].tolist() == [exact % p for p in table[:, 0].tolist()]
    assert [out for _, out in calls] == [out for _, out in alone] and len(calls) >= 2


def test_structural_steps_run_over_slices():
    """A stack of 13 lanes takes its steps in slices of SCHUR_LANES = 6, 6
    and 1 lanes, and one sweep decides all 13, as the kernels on the whole
    stack do."""
    stack = adjacency_lanes(RULE, 3, 13, 13)
    with mock.patch.object(gfp_core, "_schur_step", wraps=gfp_core._schur_step) as step, mock.patch.object(
        gfp_core, "_eliminate_stack", wraps=gfp_core._eliminate_stack
    ) as sweep:
        got = fp_dets_stack(stack, (5, Q))
    assert gfp_core.SCHUR_LANES == 6
    assert sorted({c.args[4] for c in step.call_args_list}) == [1, 6]
    assert len(sweep.call_args_list[0].args[0]) == 13
    assert np.array_equal(got, without_step(stack, (5, Q)))
