"""Step moments and characteristic function against their closed forms,
Gaussian point-mass accuracy."""

import cmath
import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from regsing.cli import main as cli_main
from regsing.lclt import DEFAULT_B, gaussian_point_mass, lclt_error_scan, moments_from_multiset
from regsing.walk_census import build_U, is_admissible, walk_endpoint_counts


def closed_form_moments(d, p):
    """Mean d/p in every coordinate; covariance entry (j, k) = (d/p)[j = k] - d/p^2."""
    mean = (Fraction(d, p),) * p
    cov = tuple(
        tuple(Fraction(d, p) * (j == k) - Fraction(d, p * p) for k in range(p)) for j in range(p)
    )
    return mean, cov


def test_moment_closed_forms():
    m = moments_from_multiset(build_U(3, 2))
    assert m.mean == (Fraction(3, 2), Fraction(3, 2))
    assert m.covariance == (
        (Fraction(3, 4), Fraction(-3, 4)),
        (Fraction(-3, 4), Fraction(3, 4)),
    )
    m5 = moments_from_multiset(build_U(3, 5))
    assert all(x == Fraction(3, 5) for x in m5.mean)
    assert m5.covariance[0][0] == Fraction(12, 25)
    assert m5.covariance[0][1] == Fraction(-3, 25)


def test_moments_match_multiset_summation():
    for d, p in [(3, 2), (3, 5), (4, 3), (5, 2)]:
        m = moments_from_multiset(build_U(d, p))
        assert (m.d, m.p) == (d, p)
        assert (m.mean, m.covariance) == closed_form_moments(d, p)


def test_covariance_annihilates_ones():
    for d, p in [(3, 2), (4, 3), (5, 2)]:
        cov = moments_from_multiset(build_U(d, p)).covariance
        for row in cov:
            assert sum(row) == 0


def characteristic_function(t, d, p):
    """E[exp(i <t, X>)] for a step X uniform over the multiset build_U(d, p)."""
    u = build_U(d, p)
    acc = sum(m * cmath.exp(1j * sum(ti * wi for ti, wi in zip(t, w))) for w, m in u.items)
    return acc / u.total_multiplicity


def test_characteristic_function_normalization():
    assert characteristic_function([0.0, 0.0], 3, 2) == 1


def test_characteristic_function_lattice_lines():
    # modulus exactly 1 along 2*pi*j*(0, 1/p, ..., (p-1)/p) and along c*(1,...,1)
    for p in (2, 3):
        for j in (1, 2):
            t = [2 * math.pi * j * k / p for k in range(p)]
            assert abs(characteristic_function(t, 3 if p == 2 else 4, p)) == pytest.approx(
                1.0, abs=1e-12
            )
    for c in (0.3, 1.7):
        assert abs(characteristic_function([c, c], 3, 2)) == pytest.approx(1.0, abs=1e-12)
        assert abs(characteristic_function([c, c, c], 4, 3)) == pytest.approx(1.0, abs=1e-12)


def test_characteristic_function_strictly_inside_off_lines():
    off_points = [
        (3, 2, (0.9, 0.3)),
        (3, 2, (2.0, 0.5)),
        (4, 3, (0.4, 1.1, 2.3)),
        (5, 2, (1.3, 0.2)),
    ]
    for d, p, t in off_points:
        assert abs(characteristic_function(t, d, p)) < 1 - 1e-6


def test_centered_second_order_expansion():
    # 1 - Re cf_centered(s*x) -> (d/(2p)) s^2 for unit x orthogonal to ones, where
    # cf_centered(t) = E[exp(i <t, X - mean>)] and every mean coordinate is d/p
    cases = [
        (3, 2, (1 / math.sqrt(2), -1 / math.sqrt(2))),
        (4, 3, (1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)),
    ]
    for d, p, x in cases:
        target = d / (2 * p)
        prev_err = None
        for s in (4e-2, 2e-2, 1e-2):
            t = [s * xi for xi in x]
            val = characteristic_function(t, d, p) * cmath.exp(-1j * sum(t) * d / p)
            est = (1 - val.real) / (s * s)
            err = abs(est - target)
            assert err < 5e-3
            if prev_err is not None:
                assert err < prev_err  # finite-difference error shrinks with s
            prev_err = err


def test_gaussian_point_mass_values():
    n = 52
    assert is_admissible((26, 26), 2)
    g = gaussian_point_mass((26, 26), 3, 2)
    assert g == pytest.approx(2**1.5 * (2 / (2 * math.pi * 3 * n)) ** 0.5)
    assert not is_admissible((25, 25), 2)  # parity: 25 odd
    bad = gaussian_point_mass((25, 25), 3, 2)
    assert bad > 0  # formula value regardless; exact probability is 0


def test_gaussian_matches_exact_at_moderate_deviation():
    counts = walk_endpoint_counts(50, 3, 2)
    exact = Fraction(counts.profile_count((26, 24)), 2 ** (2 * 50))
    g = gaussian_point_mass((26, 24), 3, 2)
    assert abs(g - float(exact)) / float(exact) < 0.1


def exact_deviation(t, p):
    """sum_j (t_j/n - 1/p)^2 as a Fraction, apart from the package's float."""
    n = sum(t)
    return sum((Fraction(tj, n) - Fraction(1, p)) ** 2 for tj in t)


def test_error_scan_window_and_exactness():
    n, d, p = 20, 3, 2
    counts = walk_endpoint_counts(n, d, p)
    scan = lclt_error_scan(counts, b=0.5)
    threshold = 0.5 * math.log(n) / n
    denom = p ** ((d - 1) * n)
    seen = set()
    for t, exact, gauss, err in scan.rows:
        assert sum(t) == n
        assert sum(j * tj for j, tj in enumerate(t)) % p == 0
        assert float(exact_deviation(t, p)) <= threshold
        assert exact == float(Fraction(counts.profile_count(t), denom))
        assert err == abs(gauss - exact) / exact
        seen.add(t)
    assert scan.max_rel_error == max(r[3] for r in scan.rows)
    # every admissible class-E type is either scanned or tallied as zero
    from regsing.walk_census import type_vectors

    expected = [
        t
        for t in type_vectors(n, p)
        if sum(j * tj for j, tj in enumerate(t)) % p == 0
        and float(exact_deviation(t, p)) <= threshold
    ]
    assert len(expected) == len(scan.rows) + scan.zero_probability_types


def test_error_scan_excludes_unreachable_types():
    # d=3, p=2: endpoints need t_1 <= 2n/3; wider windows hit that edge
    scan = lclt_error_scan(walk_endpoint_counts(12, 3, 2), b=10.0)
    assert scan.zero_probability_types > 0


def test_error_improves_with_n_at_default_window():
    err24 = lclt_error_scan(walk_endpoint_counts(24, 3, 2), b=DEFAULT_B).max_rel_error
    err48 = lclt_error_scan(walk_endpoint_counts(48, 3, 2), b=DEFAULT_B).max_rel_error
    assert 0 < err48 < err24


def test_partial_near_uniform_sum_approaches_one():
    # the equidistributed share of the key sum tends to 1
    from regsing.walk_census import type_class_partition

    gaps = []
    for n in (20, 60):
        e_sum, _, _ = type_class_partition(walk_endpoint_counts(n, 3, 2), 10.0)
        gaps.append(abs(1 - float(e_sum)))
    assert gaps[1] < gaps[0]


def test_census_meets_the_local_limit_closed_form_at_half():
    # At (d,p) = (3,2) and nu = (1/2, 1/2) the local limit has a closed form:
    # ln term(n/2, n/2) = -(1/2) ln n + (1/2) ln(8/pi) + O(1/n), where
    # term(t) = multinomial(n; t) * count(d*t) * prod_j (d*t_j)! / (dn)!.  The
    # band on n times the O(1/n) part was fixed before the test was run
    # (measured -0.52776 to -0.52778 for n from 100 to 800).
    d = 3
    for n in (100, 200, 400, 800):
        t = (n // 2, n // 2)
        counts = walk_endpoint_counts(n, d, 2)
        num = math.factorial(n) * counts.profile_count(t)
        for tj in t:
            num = num * math.factorial(d * tj) // math.factorial(tj)
        c = math.log(Fraction(num, math.factorial(d * n))) + 0.5 * math.log(n)
        assert -0.53 <= n * (c - 0.5 * math.log(8 / math.pi)) <= -0.52, n


def test_scan_csv_header(monkeypatch):
    monkeypatch.delenv("REGSING_OUT_DIR", raising=False)
    argv = "lclt --n 10 --d 3 --p 2 --b-threshold 0.5".split()
    with redirect_stdout(io.StringIO()) as out:
        assert cli_main(argv) == 0
    obj = json.loads(out.getvalue())
    assert len(obj["rows"]) == len(lclt_error_scan(walk_endpoint_counts(10, 3, 2), b=0.5).rows)
    with redirect_stdout(io.StringIO()) as out:
        assert cli_main(argv + ["--format", "csv"]) == 0
    text = out.getvalue()
    assert text.splitlines()[0] == "type,exact,gaussian,rel_error"
    assert len(text.splitlines()) == len(obj["rows"]) + 1  # a header, then one row per type
