"""Exact walk census: step multisets, the power recurrence, kernel-vector counts."""

import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsing import walk_census
from regsing.common import GuardError
from regsing.gfp_core import det_bareiss
from regsing.lclt import lclt_error_scan
from regsing.mc_harness import ExperimentConfig, run_experiment
from regsing.walk_census import (
    LatticeCounts,
    UMultiset,
    _class_sums,
    _line_sum,
    _walk_endpoints,
    adjacency_multiset,
    brute_force_null_count,
    build_U,
    graphs_with_null_vector,
    is_admissible,
    key_sum,
    near_uniform,
    phi,
    representative_vector,
    squared_deviation,
    type_class_partition,
    type_vectors,
    walk_endpoint_counts,
)


def test_phi_profiles():
    assert phi((0, 0, 0), 2) == (3, 0)
    assert phi((1, 0, 1), 2) == (1, 2)
    assert phi((4, 2, 0), 5) == (1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        phi((2,), 2)


def test_admissibility_parity():
    assert is_admissible((4, 2), 2)
    assert not is_admissible((3, 3), 2)
    assert is_admissible((1, 1, 1), 3)  # 0*1 + 1*1 + 2*1 = 3


def test_step_multiset_structure():
    u = build_U(3, 2)
    assert dict(u.items) == {(3, 0): 1, (1, 2): 3}
    for d, p in [(3, 2), (3, 5), (4, 3), (5, 2)]:
        u = build_U(d, p)
        assert u.total_multiplicity == p ** (d - 1)
        w1, m1 = u.items[0]
        assert w1 == (d,) + (0,) * (p - 1) and m1 == 1
        for w, _ in u.items[1:]:
            assert w[0] <= d - 2
            assert sum(w[1:]) >= 2
        for w, _ in u.items:
            assert sum(w) == d
            assert is_admissible(w, p)


def test_step_multiset_matches_direct_enumeration():
    for d, p in [(3, 2), (4, 3)]:
        tally = {}
        for t in itertools.product(range(p), repeat=d):
            if sum(t) % p == 0:
                w = phi(t, p)
                tally[w] = tally.get(w, 0) + 1
        assert dict(build_U(d, p).items) == tally


def brute_endpoints(n, d, p):
    """Endpoint tally over all p^((d-1)n) step sequences, independent route."""
    tuples = [t for t in itertools.product(range(p), repeat=d) if sum(t) % p == 0]
    tally = {}
    for seq in itertools.product(tuples, repeat=n):
        e = [0] * p
        for s in seq:
            for j, c in enumerate(phi(s, p)):
                e[j] += c
        e = tuple(e)
        tally[e] = tally.get(e, 0) + 1
    return tally


def dict_convolution_oracle(n, d, p):
    """Independent oracle: the n-fold convolution of the step multiset, one dict per step."""
    u = build_U(d, p)
    cur = dict(u.items)
    for _ in range(n - 1):
        nxt = {}
        for e, c in cur.items():
            for w, m in u.items:
                key = tuple(a + b for a, b in zip(e, w))
                nxt[key] = nxt.get(key, 0) + c * m
        cur = nxt
    return cur


def full_endpoint_table(n, d, p):
    """Every nonzero endpoint the walk reaches, decoded from its radix-(dn+1) keys."""
    radix, table = d * n + 1, {}
    for x0, key, val in _walk_endpoints(n, d, p):
        e = [x0]
        for _ in range(p - 1):
            key, x = divmod(key, radix)
            e.append(x)
        table[tuple(e)] = val
    return table


def dt_restriction(table, d):
    """The endpoints d*t of a whole endpoint table: what LatticeCounts keeps."""
    return {e: v for e, v in table.items() if all(x % d == 0 for x in e)}


def assert_whole_table(n, d, p, oracle):
    """The walk's every endpoint equals the oracle's, and the census keeps its d*t part."""
    assert full_endpoint_table(n, d, p) == oracle, (n, d, p)
    counts = walk_endpoint_counts(n, d, p)
    assert counts.counts == dt_restriction(oracle, d), (n, d, p)
    assert counts.reached == len(oracle), (n, d, p)


# (d, p, largest n): at the largest n the oracle takes about a second.
ORACLE_GRID = [
    (3, 2, 256),
    (5, 2, 256),
    (4, 3, 54),
    (5, 3, 33),
    (3, 5, 16),
    (4, 5, 10),
    (3, 7, 8),
    (4, 7, 5),
    (5, 7, 4),
    # past p = 7 the digits beyond the two half-key lists are read one at a time
    (3, 11, 4),
    (3, 13, 4),
]


@pytest.mark.parametrize("d,p,top", ORACLE_GRID)
def test_power_recurrence_against_dict_convolution(d, p, top):
    assert math.gcd(d, p) == 1
    for n in sorted({*range(1, min(top, 5) + 1), top // 4, top // 2, top}):
        assert_whole_table(n, d, p, dict_convolution_oracle(n, d, p))


def test_convolution_against_sequence_enumeration():
    for n, d, p in [(1, 3, 2), (3, 3, 2), (2, 4, 3), (2, 3, 5)]:
        assert_whole_table(n, d, p, brute_endpoints(n, d, p))


def test_mass_and_parity_invariants():
    for n, d, p in [(6, 3, 2), (4, 4, 3), (3, 3, 5), (12, 3, 2)]:
        counts = walk_endpoint_counts(n, d, p)
        assert counts.total_mass_ok
        assert counts.parity_ok


def test_p2_closed_form():
    # endpoints (3n-2k, 2k) carry weight C(n,k) * 3^k when d=3, p=2
    for n in (3, 7, 12):
        closed = {(3 * n - 2 * k, 2 * k): math.comb(n, k) * 3**k for k in range(n + 1)}
        assert_whole_table(n, 3, 2, closed)


def test_key_sum_p2_closed_form():
    # A weight-k vector over F_2 is annihilated when every vertex gets 0 or 2
    # of the 3k marked in-points, so k = 2j is even: choose the 3j vertices
    # that get 2 and 2 of their 3 out-points, then wire marked and unmarked
    # points apart.
    for n in (3, 10, 20, 40, 80, 160, 320, 640):
        expected = sum(
            Fraction(math.comb(n, 2 * j) * math.comb(n, 3 * j) * 27**j, math.comb(3 * n, 6 * j))
            for j in range(1, n // 3 + 1)
        )
        assert key_sum(walk_endpoint_counts(n, 3, 2)) == expected


def direct_numerator(t, d, count):
    """count * prod_j (d*t_j)!/t_j!, one profile at a time: the per-profile route."""
    for tj in t:
        count *= math.factorial(d * tj) // math.factorial(tj)
    return count


def direct_numerators(counts):
    """(t, count(d*t) * prod_j (d*t_j)!/t_j!) for every profile t of n."""
    return [(t, direct_numerator(t, counts.d, counts.profile_count(t))) for t in type_vectors(counts.n, counts.p)]


def direct_class_sums(numerators, n, d, near):
    """(near, far, all-zero) numerators summed one profile at a time, times n!/(dn)!."""
    sums = [0, 0, 0]
    for t, num in numerators:
        sums[2 if t[0] == n else 0 if near(t) else 1] += num
    return tuple(Fraction(math.factorial(n) * x, math.factorial(d * n)) for x in sums)


@pytest.mark.parametrize("n,d,p", [(1280, 3, 2), (20, 3, 5), (60, 4, 3), (5, 4, 7), (11, 3, 7)])
def test_key_sum_and_classes_against_direct_sum(n, d, p):
    # (11,3,7) is the largest n at d = 3, p = 7 under LATTICE_GUARD.  b = 0.3
    # fills both classes at every size, b = 0.01 leaves the near class empty
    # at p = 7 and b = 100 the far class empty
    counts = walk_endpoint_counts(n, d, p)
    numerators = direct_numerators(counts)
    for b in (0.01, 0.3, 100.0):
        near, far, zero = direct_class_sums(numerators, n, d, near_uniform(n, p, b))
        assert type_class_partition(counts, b) == (near, far, zero), b
        assert key_sum(counts) == near + far > 0, b
        assert b != 0.3 or near * far > 0


@st.composite
def synthetic_lines(draw):
    """(d, points (a, b, c) of one line a + b = s), increasing a with gaps of any size."""
    d = draw(st.integers(2, 6))
    s = draw(st.integers(0, 80))
    starts = sorted(draw(st.sets(st.integers(0, s), min_size=1, max_size=12)))
    return d, [(a, s - a, draw(st.integers(-(10**30), 10**30))) for a in starts]


@settings(max_examples=200, deadline=None)
@given(case=synthetic_lines())
def test_line_sum_against_direct_terms(case):
    d, line = case
    assert _line_sum(d, line) == sum(direct_numerator((a, b), d, c) for a, b, c in line)


@st.composite
def synthetic_tables(draw):
    """A census table of made-up counts at some profiles, and a near set among them."""
    n, d, p = draw(st.integers(1, 12)), draw(st.integers(2, 5)), draw(st.integers(2, 5))
    profiles = draw(st.sets(st.sampled_from(list(type_vectors(n, p))), max_size=30))
    table = {tuple(d * tj for tj in t): draw(st.integers(1, 10**20)) for t in profiles}
    near = draw(st.sets(st.sampled_from(sorted(profiles)))) if profiles else set()
    return LatticeCounts(n, d, p, table, len(table), True, True), near


@settings(max_examples=200, deadline=None)
@given(case=synthetic_tables())
def test_class_sums_against_direct_sum(case):
    # one-profile lines, lines split between classes, and empty classes
    counts, near = case
    expected = direct_class_sums(direct_numerators(counts), counts.n, counts.d, near.__contains__)
    assert _class_sums(counts, near.__contains__) == expected


def traced(build):
    """(result, traced size it leaves, traced peak while building it)."""
    tracemalloc.start()
    try:
        out = build()
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, size, peak


def test_walk_holds_little_beyond_its_table():
    # each layer is dropped once read and only the d*t endpoints are kept,
    # so the walk's traced peak is a small part of the whole endpoint table:
    # 1.19 / 9.04 MB = 0.13 at (20,3,5), the two half-key lists included,
    # against 1.08 for a walk that keeps every endpoint; the bound leaves
    # about twice that ratio as margin
    counts, _, peak = traced(lambda: walk_endpoint_counts(20, 3, 5))
    assert counts.total_mass_ok and counts.parity_ok
    _, whole, _ = traced(lambda: full_endpoint_table(20, 3, 5))
    assert peak < 0.25 * whole, (peak, whole)


def test_class_split_holds_no_ratio_table():
    # the sums hold one line at a time: 0.13 MB traced at (1280,3,2), against
    # 2.44 MB when a table of the 1281 ratios (3k)!/k! is built first
    counts = walk_endpoint_counts(1280, 3, 2)
    _, _, peak = traced(lambda: type_class_partition(counts, 1.0))
    assert peak < 0.5e6, peak


def test_mass_and_parity_flags_can_fail(monkeypatch):
    # each extra step sums to d = 3 but has a weight that is nonzero mod p:
    # one more step adds mass and reaches inadmissible endpoints, and both
    # flags must see it.  (2, 1) is the one digit at p = 2; at p = 5 and 7
    # the step's one nonzero digit past x_0 lies in the low half of the key
    # (x_1 ... x_h) or in its high half (x_(h+1) ... x_(2h)), h = p // 2
    real = walk_census.build_U
    for n, p, bad in (
        (4, 2, (2, 1)),
        (4, 5, (2, 1, 0, 0, 0)),
        (4, 5, (2, 0, 0, 1, 0)),
        (3, 7, (2, 0, 1, 0, 0, 0, 0)),
        (3, 7, (2, 0, 0, 0, 0, 1, 0)),
    ):

        def with_bad_step(d, p, bad=bad):
            u = real(d, p)
            return UMultiset(d, p, u.items + ((bad, 1),))

        monkeypatch.setattr(walk_census, "build_U", with_bad_step)
        counts = walk_endpoint_counts(n, 3, p)
        assert not counts.total_mass_ok, (p, bad)
        assert not counts.parity_ok, (p, bad)


def test_an_endpoint_with_one_digit_off_d_is_not_kept():
    # endpoints whose one key digit that is not a multiple of d lies in the
    # low half of the key, then in its high half: both occur, and neither
    # is kept
    for n, d, p in ((4, 3, 5), (4, 3, 7), (3, 4, 7)):
        lone = {}  # by whether that digit lies in the low half
        for e in full_endpoint_table(n, d, p):
            off = [i for i in range(1, p) if e[i] % d]
            if len(off) == 1:
                lone.setdefault(off[0] <= p // 2, []).append(e)
        assert set(lone) == {True, False}, (n, d, p)
        kept = walk_endpoint_counts(n, d, p).counts
        assert not any(e in kept for half in lone.values() for e in half), (n, d, p)


def test_lattice_guard():
    with pytest.raises(GuardError):
        walk_endpoint_counts(2000, 3, 5)
    # the edge at (d, p) = (3, 5) stays put: C(106, 4) = 4,967,690 points at
    # n = 34 are admitted, C(109, 4) = 5,563,251 at n = 35 are not; a density
    # grid at p = 5 stops between resolutions 102 and 103 the same way
    assert next(walk_census._walk_endpoints(34, 3, 5))
    with pytest.raises(GuardError):
        walk_endpoint_counts(35, 3, 5)
    assert not walk_census.over_lattice_guard(102, 4)
    assert walk_census.over_lattice_guard(103, 4)
    # the running product that stops at the guard decides as the whole binomial
    for a, b in itertools.product(range(120), range(64)):
        want = math.comb(a + b, b) > walk_census.LATTICE_GUARD
        assert walk_census.over_lattice_guard(a, b) == want, (a, b)


def test_a_refused_walk_builds_no_list(monkeypatch):
    # the half-key lists come after the walk's own checks: at (1000, 3,
    # 2^31 - 1) each would hold 3001^3 entries
    monkeypatch.setattr(walk_census, "_half_weights", lambda *args: pytest.fail(f"list built for {args}"))
    for n, d, p, error in (
        (1000, 3, 2**31 - 1, GuardError),
        (35, 3, 5, GuardError),
        (0, 3, 5, ValueError),
        (5, 3, 9, ValueError),
    ):
        with pytest.raises(error):
            walk_endpoint_counts(n, d, p)


def test_key_sum_values():
    assert key_sum(walk_endpoint_counts(3, 3, 2)) == Fraction(27, 28)
    assert key_sum(walk_endpoint_counts(2, 3, 2)) == 0
    assert key_sum(walk_endpoint_counts(1, 3, 2)) == 0


def test_graphs_with_null_vector_values():
    counts2 = walk_endpoint_counts(2, 3, 2)
    assert graphs_with_null_vector((2, 0), counts2) == math.factorial(6)
    counts3 = walk_endpoint_counts(3, 3, 2)
    assert graphs_with_null_vector((1, 2), counts3) == 116640
    # a profile must have length p and sum n: (1, 1) sums to 2, and (1, 1, 1)
    # has length 3 at p = 2
    for bad in ((1, 1), (1, 1, 1), (3,)):
        with pytest.raises(ValueError):
            graphs_with_null_vector(bad, counts3)


def test_profile_count_refuses_a_negative_part():
    # (-1, 4) has length p = 2 and sums to n = 3, but is no profile
    counts = walk_endpoint_counts(3, 3, 2)
    with pytest.raises(ValueError):
        counts.profile_count((-1, 4))


def test_lattice_counts_is_one_frozen_table():
    counts = walk_endpoint_counts(3, 3, 2)
    assert (counts.n, counts.d, counts.p) == (3, 3, 2)
    assert counts.profile_count((1, 2)) == counts.counts[(3, 6)] == 27
    assert counts.profile_count((3, 0)) == counts.counts[(9, 0)] == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        counts.n = 10


def test_type_vectors_cover_simplex():
    ts = list(type_vectors(5, 3))
    assert len(ts) == math.comb(7, 2)
    assert len(set(ts)) == len(ts)
    assert all(sum(t) == 5 for t in ts)


def test_squared_deviation_exact():
    # the float is the exact rational correctly rounded, bit for bit
    assert squared_deviation((2, 2), 2) == 0
    assert squared_deviation((4, 0), 2) == 0.5
    assert squared_deviation((3, 1), 2) == float(2 * Fraction(1, 4) ** 2)
    for p in (2, 3, 5):
        for n in (1, 7, 20):
            for t in type_vectors(n, p):
                by_parts = sum((Fraction(tj, n) - Fraction(1, p)) ** 2 for tj in t)
                assert squared_deviation(t, p) == float(by_parts), (t, p)


def test_near_uniform():
    assert near_uniform(100, 2, 1.0)((50, 50))
    assert near_uniform(100, 2, 10.0)((80, 20))
    assert not near_uniform(100, 2, 1.0)((80, 20))
    assert not near_uniform(100, 2, 1.0)((100, 0))
    # squared deviations 1/150 and 49/150 against ln(100)/100 = 0.0461; the zero
    # type is type_class_partition's, checked in the split test below
    assert near_uniform(100, 3, 1.0)((40, 30, 30)) and not near_uniform(100, 3, 1.0)((80, 10, 10))


@pytest.mark.parametrize("b", [0.0, -1.0, math.nan, math.inf])
def test_near_uniform_refuses_a_window_that_is_not_finite_and_positive(b):
    # the classifier refuses b itself, with the message the census and the
    # local-limit scan pass on, before any profile is classified
    message = re.escape(f"threshold b={b} must be finite and > 0")
    with pytest.raises(ValueError, match=message):
        near_uniform(100, 2, b)
    counts = walk_endpoint_counts(4, 3, 2)
    with pytest.raises(ValueError, match=message):
        type_class_partition(counts, b)
    with pytest.raises(ValueError, match=message):
        lclt_error_scan(counts, b)


def test_class_partition_is_exact_split():
    n, d, p = 14, 3, 2
    counts = walk_endpoint_counts(n, d, p)
    ks = key_sum(counts)
    for b in (0.5, 1.0, 10.0):
        e_sum, n_sum, degenerate = type_class_partition(counts, b)
        assert e_sum + n_sum == ks
        assert degenerate == 1
    # small windows leave mass outside; huge windows capture everything
    e_small, n_small, _ = type_class_partition(counts, 0.05)
    assert n_small > 0
    e_big, n_big, _ = type_class_partition(counts, 100.0)
    assert n_big == 0 and e_big == ks
    for b in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            type_class_partition(counts, b)


def test_far_class_nonempty_and_bounded_past_n80():
    # Companion to acceptance criterion 8: at d=3, p=2, b=10 the far class
    # is empty for every n <= 80 (10 ln n / n exceeds the largest squared
    # deviation), so the bound is checked where the class is populated.
    scaled = {}
    for n in (160, 320, 640):
        _, far, _ = type_class_partition(walk_endpoint_counts(n, 3, 2), 10.0)
        assert far > 0, f"far class empty at n={n}"
        scaled[n] = far * n
    # measured: 2.5495, 2.3629, 2.2885
    assert all(scaled[n] <= 2 * scaled[160] for n in (320, 640)), {
        n: float(v) for n, v in scaled.items()
    }


def support_bound_ok(t, counts):
    """count(d*t)^2 <= (p^(d-1) * n)^(d*m) with m = n - t_0 (squared to keep d*m/2 integral)."""
    m = counts.n - t[0]
    c = counts.profile_count(t)
    return c * c <= (counts.p ** (counts.d - 1) * counts.n) ** (counts.d * m)


def test_support_bound_holds_everywhere():
    for n, d, p in [(6, 3, 2), (4, 3, 5)]:
        counts = walk_endpoint_counts(n, d, p)
        for t in type_vectors(n, p):
            assert support_bound_ok(t, counts)


def test_singular_fraction_within_the_key_sum_bound_exactly():
    # a matrix singular mod p has at least p - 1 nonzero kernel vectors, so
    # P(singular mod p) <= key_sum/(p - 1): the paper's inequality at finite n
    table = {}
    for n, d in [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4)]:
        law = adjacency_multiset(n, d)
        dets = [(det_bareiss([flat[k * n : (k + 1) * n] for k in range(n)]), m) for flat, m in law]
        for p in (2, 3, 5, 7):
            if math.gcd(p, d) == 1:
                singular = Fraction(sum(m for det, m in dets if det % p == 0), math.factorial(n * d))
                bound = key_sum(walk_endpoint_counts(n, d, p)) / (p - 1)
                assert singular <= bound, (n, d, p)
                table[n, d, p] = singular, bound
    # not vacuous: strict at (3,3,2), 0.7071 <= 0.9643; equal at n = 2, d = 4
    assert table[3, 3, 2] == (Fraction(99, 140), Fraction(27, 28))
    assert all(table[2, 4, p] == (Fraction(18, 35),) * 2 for p in (3, 5, 7))


@pytest.mark.parametrize("n,d,p", [(30, 3, 5), (60, 4, 3)])
def test_monte_carlo_singular_fraction_within_the_key_sum_bound(n, d, p):
    # pre-registered at seed 7 and 4000 trials: (30,3,5) 0.3130 [0.2988, 0.3275]
    # against 0.3921, (60,4,3) 0.4370 [0.4217, 0.4524] against 0.5022
    bound = key_sum(walk_endpoint_counts(n, d, p)) / (p - 1)
    summary, _ = run_experiment(ExperimentConfig(n=n, d=d, primes=(p,), trials=4000, seed=7))
    ((_, _, low, _),) = summary.per_prime
    assert low <= bound < 1


def test_brute_force_guard_and_validation():
    with pytest.raises(GuardError):
        brute_force_null_count([0] * 5, 5, 3, 2)
    with pytest.raises(ValueError):
        brute_force_null_count([0, 1], 3, 3, 2)


def test_representative_vector():
    assert representative_vector((2, 1, 0)) == [0, 0, 1]
    assert phi(representative_vector((1, 2)), 2) == (1, 2)


def test_walk_identity_equals_brute_force_smallest():
    counts = walk_endpoint_counts(2, 3, 2)
    for t in type_vectors(2, 2):
        predicted = graphs_with_null_vector(t, counts)
        brute = brute_force_null_count(representative_vector(t), 2, 3, 2)
        assert predicted == brute
