"""Exact counting: step multisets, lattice walks, and kernel-vector sums.

Counts and sums here are integer/rational arithmetic end to end; only the
near/far window is a float comparison.  The central identity: for a vector
with value-frequency profile t = (n_0,...,n_{p-1}), the number of
configurations whose adjacency matrix annihilates it mod p equals
(prod_j (d*n_j)!) times the number of n-step walks with steps drawn (with
multiplicity) from the profile multiset of sum-zero d-tuples that end at
d*t.  Summing over nonzero profiles and normalizing by (nd)! gives the key
sum, whose limit is 1, summed line by line over the profiles by binary
splitting (Haible and Papanikolaou, 1998).  `adjacency_multiset`, the exact
law of A at guarded sizes, is the package's one exhaustive enumeration: the
brute-force oracle of the identity, and of the sampler's uniformity, reads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .common import GuardError, require_degree, require_prime

TypeVec = Tuple[int, ...]

LATTICE_GUARD = 5_000_000  # max C(dn+p-1, p-1) lattice points per walk table
ENUMERATION_GUARD = 10  # (n*d)! grows past desk scale beyond 10 points


def phi(a: Sequence[int], p: int) -> TypeVec:
    """Value-frequency profile of a tuple over F_p."""
    counts = [0] * p
    for x in a:
        if not 0 <= x < p:
            raise ValueError(f"entry {x} outside F_{p}")
        counts[x] += 1
    return tuple(counts)


def is_admissible(t: Sequence[int], p: int) -> bool:
    """Profiles of sum-zero vectors satisfy sum_j j*t_j = 0 mod p."""
    return sum(j * tj for j, tj in enumerate(t)) % p == 0


@dataclass(frozen=True)
class UMultiset:
    """Step multiset: profiles of all p^(d-1) sum-zero d-tuples over F_p."""

    d: int
    p: int
    items: Tuple[Tuple[TypeVec, int], ...]  # (profile, multiplicity), w_1 first

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.items)


def build_U(d: int, p: int) -> UMultiset:
    require_degree(d)
    require_prime(p)
    counts: Dict[TypeVec, int] = {}
    for head in itertools.product(range(p), repeat=d - 1):
        last = (-sum(head)) % p
        w = phi(head + (last,), p)
        counts[w] = counts.get(w, 0) + 1
    items = tuple(sorted(counts.items(), reverse=True))
    u = UMultiset(d=d, p=p, items=items)
    # structural facts the rest of the package leans on
    assert u.total_multiplicity == p ** (d - 1)
    w1, m1 = items[0]
    assert w1 == (d,) + (0,) * (p - 1) and m1 == 1
    assert all(w[0] <= d - 2 and sum(w[1:]) >= 2 for w, _ in items[1:])
    return u


@dataclass(frozen=True)
class LatticeCounts:
    """Exact counts of the n-step walk on {x >= 0 : sum x = dn} at its d*t endpoints.

    The one census table: every census function reads n, d, p and its
    endpoint counts from here.  The walk decides the two checks as it reads
    every endpoint it reaches, kept or not: the counts sum to p^((d-1)n), and
    every endpoint reached is admissible.
    """

    n: int
    d: int
    p: int
    counts: Dict[TypeVec, int]  # only the endpoints d*t, the ones the census reads
    reached: int  # nonzero endpoints the walk read, kept or not
    total_mass_ok: bool
    parity_ok: bool

    def profile_count(self, t: Sequence[int]) -> int:
        """Walks ending at d*t, for a profile t of n of length p."""
        t = tuple(t)
        if len(t) != self.p or sum(t) != self.n or min(t) < 0:
            raise ValueError(f"{t} is not a profile of n={self.n} of length p={self.p}")
        return self.counts.get(tuple(self.d * tj for tj in t), 0)


def over_lattice_guard(a: int, b: int) -> bool:
    """C(a+b, b) > LATTICE_GUARD, by a running product of C(a+b, i) that
    stops once it passes the guard, so a refusal costs a few steps however
    large the binomial (C(m, i) >= 2^i for i <= m/2)."""
    m, c = a + b, 1
    for i in range(1, min(a, b) + 1):
        c = c * (m - i + 1) // i
        if c > LATTICE_GUARD:
            return True
    return False


def _walk_endpoints(n: int, d: int, p: int) -> Iterator[Tuple[int, int, int]]:
    """(x_0, key, P_x) for each nonzero coefficient of P = U^n, exact, layer by layer.

    With x_0 = 1 the zero step w_1 is U's constant term 1, and Euler's
    identity U * x_j dP/dx_j = n * P * x_j dU/dx_j gives, for any j with
    f_j > 0 (J.C.P. Miller's power recurrence; Knuth, TAOCP vol. 2, 4.7),

        f_j * P_f = sum over steps w != w_1 of m_w * ((n + 1) * w_j - f_j) * P_{f-w}.

    Points of (x_1, ..., x_{p-1}) are keyed in radix dn + 1 as
    key = sum_i x_i (dn + 1)^(i-1) and visited by degree; each final P_e
    pushes its terms into the layers above, with j the first nonzero
    coordinate of the target, min(that of e, that of w).  A layer is yielded
    as soon as it is final and then dropped.
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if over_lattice_guard(d * n, p - 1):
        raise GuardError(
            f"endpoint lattice has C({d * n}+{p - 1},{p - 1}) points, "
            f"over the guard of {LATTICE_GUARD}"
        )
    u = build_U(d, p)
    top = d * n
    radix = top + 1
    # pushes[j] for a source e whose first nonzero coordinate is j (j = p-1 for
    # the origin): (key offset, degree, a, b) per step w, the term's factor
    # m_w * ((n+1) * w_i - f_i) = m_w * (n * w_i - e_i) at i = min(j, j_w) being
    # a - b * e_j.  Targets past degree dn are beyond U^n's degree and skipped;
    # every step but w_1 has degree >= 2, so no push lands in the layer being read.
    pushes: List[List[Tuple[int, int, int, int]]] = [[] for _ in range(p)]
    for w, m in u.items[1:]:
        r = w[1:]
        offset = sum(x * radix**i for i, x in enumerate(r))
        jw = next(i for i, x in enumerate(r) if x)
        for j in range(p):
            if jw < j:
                pushes[j].append((offset, sum(r), m * n * r[jw], 0))
            else:
                pushes[j].append((offset, sum(r), m * n * r[j], m))
    layers: List[Dict[int, int]] = [{} for _ in range(top + 1)]
    layers[0][0] = 1
    for s in range(top + 1):
        layer = layers[s]
        for key, acc in layer.items():
            if not acc:  # the terms cancel: the walk cannot reach this point
                continue
            if key:
                j, rest = 0, key
                while not rest % radix:
                    rest //= radix
                    j += 1
                ej = rest % radix
                val, rem = divmod(acc, ej)
                if rem or val < 0:
                    raise ArithmeticError(
                        f"power recurrence at (n,d,p)=({n},{d},{p}), degree {s}: "
                        f"{acc} is not a positive multiple of {ej}"
                    )
                layer[key] = val
            else:
                j, ej, val = p - 1, 0, acc
            for offset, deg, a, b in pushes[j]:
                c = a - b * ej
                if c and s + deg <= top:
                    target = layers[s + deg]
                    k = key + offset
                    target[k] = target.get(k, 0) + c * val
        # the layer is final: hand it out and drop it (its own loop keeps pushes tight)
        layers[s] = {}
        for key, val in layer.items():
            if val:
                yield top - s, key, val


def _half_weights(first: int, h: int, radix: int, d: int, p: int) -> List[int]:
    """Entry v, for v < radix^h read as the digits x_first, ..., x_(first+h-1):
    sum_i i*x_i mod p, plus p if one of those digits is not a multiple of d."""
    off = h * p  # a multiple of p past every sum of h weights mod p
    table = [0]
    for i in reversed(range(first, first + h)):
        digit = [i * x % p + (off if x % d else 0) for x in range(radix)]
        table = [a + b for a in table for b in digit]
    return [v % p + (p if v >= off else 0) for v in table]


def walk_endpoint_counts(n: int, d: int, p: int) -> LatticeCounts:
    """The census table of the n-step walk: its counts at the endpoints d*t, exact.

    Every nonzero endpoint of `_walk_endpoints` is read once: its count goes
    into the mass, its weight sum_i i*x_i into the parity check, and only an
    endpoint whose coordinates are all multiples of d is kept (x_0 = dn
    minus the rest, so it is one when they all are) and decoded into its
    tuple.  A key is read as two halves of h = min(ceil((p-1)/2), 3) digits,
    each looked up in a list of radix^h entries built once per call
    (`_half_weights`); any digits past both lists (p > 7) are read one at a
    time.  At p = 2 the key is x_1 itself, read directly.
    """
    walk = _walk_endpoints(n, d, p)
    # the walk checks n, d, p and the lattice guard before its first endpoint,
    # the origin, so a refused walk builds no list
    endpoints = itertools.chain([next(walk)], walk)
    radix = d * n + 1
    counts: Dict[TypeVec, int] = {}
    reached, mass, parity_ok = 0, 0, True
    if p == 2:
        for x0, x1, val in endpoints:
            reached += 1
            mass += val
            if x1 % 2:
                parity_ok = False
            if not x1 % d:
                counts[(x0, x1)] = val
    else:
        h = min(p // 2, 3)
        size = radix**h
        low, high = _half_weights(1, h, radix, d, p), _half_weights(h + 1, h, radix, d, p)
        for x0, key, val in endpoints:
            reached += 1
            mass += val
            hi, lo = divmod(key, size)
            a = low[lo]
            if hi >= size:  # only at p > 7: the digits past both lists
                rest, hi = divmod(hi, size)
                for i in range(2 * h + 1, p):
                    rest, x = divmod(rest, radix)
                    a = (a + i * x) % p + (p if a >= p or x % d else 0)
            b = high[hi]
            if (a + b) % p:
                parity_ok = False
            if a < p and b < p:
                e = [x0]
                for _ in range(1, p):
                    key, x = divmod(key, radix)
                    e.append(x)
                counts[tuple(e)] = val
    return LatticeCounts(n, d, p, counts, reached, mass == p ** ((d - 1) * n), parity_ok)


def type_vectors(n: int, p: int) -> Iterator[TypeVec]:
    """All nonnegative p-tuples summing to n, lexicographic in the leading parts."""
    if p == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in type_vectors(n - first, p - 1):
            yield (first,) + rest


def graphs_with_null_vector(t: Sequence[int], counts: LatticeCounts) -> int:
    """Configurations annihilating any fixed vector of profile t, exactly."""
    num = counts.profile_count(t)
    for tj in t:
        num *= math.factorial(counts.d * tj)
    return num


def _line_sum(d: int, line: Sequence[Tuple[int, int, int]]) -> int:
    """sum of c * (d*a)!/a! * (d*b)!/b! over points (a, b, c), a + b fixed, a rising.

    From (a, b) to (a + k, b - k) the factor gains g(a + k, k) / g(b, k), g(m, k) =
    (dm)!/(d(m-k))! / (m!/(m-k)!) an integer: P/Q/T binary splitting (Haible and
    Papanikolaou, 1998) and one exact division give the sum.
    """

    def split(lo: int, hi: int) -> Tuple[int, int, int]:
        if hi - lo == 1:
            (a, b, _), (a1, _, c) = line[lo - 1], line[lo]
            k = a1 - a
            up = math.perm(d * a1, d * k) // math.perm(a1, k)
            return up, math.perm(d * b, d * k) // math.perm(b, k), c * up
        mid = (lo + hi) // 2
        p1, q1, t1 = split(lo, mid)
        p2, q2, t2 = split(mid, hi)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    a, b, c = line[0]
    first = math.perm(d * a, (d - 1) * a) * math.perm(d * b, (d - 1) * b)
    _, q, t = split(1, len(line)) if len(line) > 1 else (1, 1, 0)
    total, rem = divmod(first * (c * q + t), q)
    if rem:
        raise ArithmeticError(f"line sum at d={d} from {line[0][:2]}: {rem} left over dividing by Q")
    return total


def _class_sums(counts: LatticeCounts, near: Callable[[TypeVec], bool]) -> Tuple[Fraction, ...]:
    """(near, far, all-zero) sums of profile t's kernel-pair term, exact.

    Profile t's term is count(d*t) * prod_j (d*t_j)!/t_j! * n!/(dn)!.  The
    sorted endpoints fall into lines fixing all but the last two coordinates,
    held one at a time; each class's part of a line is one `_line_sum`, and
    n!/(dn)! is applied once per class.
    """
    n, d, table = counts.n, counts.d, counts.counts
    sums = [0, 0, 0]
    for head, points in itertools.groupby(sorted(table), key=lambda e: e[:-2]):
        parts: Tuple[List[Tuple[int, int, int]], ...] = ([], [], [])
        for e in points:
            t = tuple(x // d for x in e)
            parts[2 if t[0] == n else 0 if near(t) else 1].append((t[-2], t[-1], table[e]))
        prefix = math.prod(math.perm(x, x - x // d) for x in head)
        for k, line in enumerate(parts):
            if line:
                sums[k] += prefix * _line_sum(d, line)
    scale, denom = math.factorial(n), math.factorial(d * n)
    return tuple(Fraction(scale * num, denom) for num in sums)


def key_sum(counts: LatticeCounts) -> Fraction:
    """Normalized count of (graph, nonzero kernel vector) pairs, exact."""
    return _class_sums(counts, lambda t: True)[0]


def squared_deviation(t: Sequence[int], p: int) -> float:
    """sum_j (t_j/n - 1/p)^2 = sum_j (p*t_j - n)^2 / (p*n)^2, correctly rounded."""
    n = sum(t)
    return sum((p * tj - n) ** 2 for tj in t) / (p * n) ** 2


def near_uniform(n: int, p: int, b: float) -> Callable[[Sequence[int]], bool]:
    """The near-uniform class of profiles of n: squared deviation <= b ln(n) / n.

    The one near/far test of the package.  It refuses a window b that is not
    finite and > 0.  The comparison is in floats, so the class of a profile
    on the boundary is that of the float threshold.
    """
    if not 0 < b < math.inf:
        raise ValueError(f"threshold b={b} must be finite and > 0")
    limit = b * math.log(n) / n
    return lambda t: squared_deviation(t, p) <= limit


def type_class_partition(counts: LatticeCounts, b: float) -> Tuple[Fraction, Fraction, Fraction]:
    """Split the key sum into equidistributed / non-equidistributed parts.

    Returns (e_sum, n_sum, degenerate) where e_sum + n_sum equals the key
    sum exactly and degenerate is the excluded all-zero-vector term.
    """
    return _class_sums(counts, near_uniform(counts.n, counts.p, b))


@lru_cache(maxsize=None)
def adjacency_multiset(n: int, d: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """The exact law of A: sorted (flattened adjacency matrix, multiplicity)
    pairs over all (n*d)! point permutations, each counted in Python ints
    (at n*d <= 10 a numpy call per permutation costs more than the count)."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    require_degree(d)
    nd = n * d
    if nd > ENUMERATION_GUARD:
        raise GuardError(
            f"brute force over all ({n}*{d})! permutations refused; "
            f"the guard allows n*d <= {ENUMERATION_GUARD}"
        )
    row = [point // d * n for point in range(nd)]
    col = [point // d for point in range(nd)]
    tally: Dict[Tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(nd)):
        flat = [0] * (n * n)
        for r, image in zip(row, perm):
            flat[r + col[image]] += 1
        key = tuple(flat)
        tally[key] = tally.get(key, 0) + 1
    return tuple(sorted(tally.items()))


def brute_force_null_count(v: Sequence[int], n: int, d: int, p: int) -> int:
    """Count configurations with A v = 0 mod p, read off the exact law of A."""
    require_prime(p)
    v = [int(x) % p for x in v]
    if len(v) != n:
        raise ValueError(f"vector length {len(v)} != n={n}")
    hits = 0
    for flat, mult in adjacency_multiset(n, d):
        if all(
            sum(flat[k * n + l] * v[l] for l in range(n)) % p == 0
            for k in range(n)
        ):
            hits += mult
    return hits


def representative_vector(t: Sequence[int]) -> List[int]:
    """Canonical vector of profile t: n_0 zeros, then n_1 ones, ..."""
    out: List[int] = []
    for value, reps in enumerate(t):
        out.extend([value] * reps)
    return out


def oracle_all_types(n: int, d: int, p: int) -> List[Tuple[TypeVec, int, int]]:
    """(profile, formula count, brute-force count) for every profile of length p."""
    adjacency_multiset(n, d)  # the enumeration guard refuses before the walk runs
    counts = walk_endpoint_counts(n, d, p)
    out = []
    for t in type_vectors(n, p):
        predicted = graphs_with_null_vector(t, counts)
        brute = brute_force_null_count(representative_vector(t), n, d, p)
        out.append((t, predicted, brute))
    return out
