"""Configuration-model sampling: regularity, determinism, uniformity."""

import io
import itertools
import json
import math
from collections import Counter
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from regsing.cli import main as cli_main
from regsing.common import GuardError
from regsing.graph_model import (
    ConfigurationSample,
    adjacency_from_permutation,
    adjacency_stack,
    has_identical_rows,
    identical_rows,
    philox_generator,
    sample_configuration,
    sample_permutations,
)
from regsing.walk_census import adjacency_multiset


def test_row_and_column_sums_are_d():
    for n, d, seed in [(1, 3, 0), (5, 3, 1), (8, 4, 2), (20, 5, 3)]:
        a = adjacency_from_permutation(sample_configuration(n, d, seed))
        assert a.shape == (n, n)
        assert (a.sum(axis=0) == d).all()
        assert (a.sum(axis=1) == d).all()
        assert (a >= 0).all()


def test_adjacency_matches_direct_recount():
    sample = sample_configuration(7, 3, seed=42)
    a = adjacency_from_permutation(sample)
    recount = np.zeros((7, 7), dtype=int)
    for point, image in enumerate(sample.perm):
        recount[point // 3][int(image) // 3] += 1
    assert (a == recount).all()


def test_sampling_deterministic_per_stream():
    a = sample_configuration(10, 3, seed=5, stream=2)
    b = sample_configuration(10, 3, seed=5, stream=2)
    c = sample_configuration(10, 3, seed=5, stream=3)
    assert (a.perm == b.perm).all()
    assert not (a.perm == c.perm).all()


def test_philox_streams_do_not_collide():
    seen = set()
    for stream in range(50):
        g = philox_generator(seed=9, stream=stream)
        seen.add(tuple(g.integers(0, 2**32, size=4).tolist()))
    assert len(seen) == 50


@pytest.mark.parametrize("d", [3, 4, 17])
def test_block_sampler_rows_match_fresh_generators(d):
    """Row k of a block is the permutation a fresh philox_generator(seed,
    streams[k]) draws, for the extreme seeds and streams, unsorted stream
    lists and a stream read again after the re-keyed generator has served
    others.  At n = 4 a row takes an odd number of 32-bit draws, so the
    next row starts from a generator holding a buffered half word."""
    cases = [
        (0, [0]),
        (7, [2**64 - 1, 0, 9, 3]),
        (2**64 - 1, [12, 2, 2**64 - 1, 2, 0]),
        (11, range(6)),
    ]
    for n in (4, 5):
        for seed, streams in cases:
            perms = sample_permutations(n, d, seed, streams)
            assert perms.shape == (len(streams), n * d) and perms.dtype == np.int64
            for row, stream in zip(perms, streams):
                assert np.array_equal(row, philox_generator(seed, stream).permutation(n * d))
    assert sample_permutations(3, d, 1, []).shape == (0, 3 * d)
    for bad in (
        lambda: sample_permutations(3, d, -1, [0]),
        lambda: sample_permutations(3, d, 2**64, [0]),
        lambda: sample_permutations(3, d, 0, [0, 2**64]),
        lambda: sample_permutations(3, d, 0, [-1]),
        lambda: sample_permutations(0, d, 0, [0]),
        lambda: sample_permutations(3, 2, 0, [0]),
    ):
        with pytest.raises(ValueError):
            bad()


def test_adjacency_stack_matches_add_at_reference():
    """Every lane of an adjacency stack equals the edge counts np.add.at
    accumulates from its permutation, in the narrowest unsigned dtype that
    holds d: uint8 up to d = 255 and uint16 at d = 256, whose one-vertex
    graph has the single entry 256."""
    for n, d, b in ((1, 3, 2), (6, 3, 9), (5, 4, 7), (3, 17, 4), (2, 255, 3), (1, 256, 2)):
        perms = sample_permutations(n, d, 13, range(b))
        stack = adjacency_stack(perms, d)
        assert stack.shape == (b, n, n)
        assert stack.dtype == (np.uint8 if d <= 255 else np.uint16)
        for lane, perm in zip(stack, perms):
            ref = np.zeros((n, n), dtype=np.int64)
            np.add.at(ref, (np.arange(n * d) // d, perm // d), 1)
            assert np.array_equal(lane, ref)
    assert adjacency_stack(sample_permutations(1, 256, 0, [0]), 256).tolist() == [[[256]]]


def test_identical_rows_stack_matches_pairwise_comparison():
    """identical_rows on whole stacks against brute-force pairwise row
    comparison: adjacency stacks at n = 1..7, int64 stacks with negative
    entries and planted duplicate rows, and a non-contiguous stack.  It
    calls none of numpy's sorting functions."""
    rnd = np.random.default_rng(3)
    stacks = [adjacency_stack(sample_permutations(n, 3, 29, range(40)), 3) for n in range(1, 8)]
    signed = rnd.integers(-2, 2, size=(30, 4, 4))
    signed[::3, 2] = signed[::3, 0]
    stacks += [signed, signed.transpose(0, 2, 1), np.zeros((2, 0, 0), dtype=np.uint8)]
    hits = misses = 0
    for stack in stacks:
        with mock.patch.object(np, "sort", side_effect=AssertionError), mock.patch.object(
            np, "lexsort", side_effect=AssertionError
        ), mock.patch.object(np, "unique", side_effect=AssertionError):
            got = identical_rows(stack)
        n = stack.shape[1]
        brute = [
            any(np.array_equal(lane[i], lane[j]) for i in range(n) for j in range(i)) for lane in stack
        ]
        assert got == brute
        assert [has_identical_rows(lane) for lane in stack] == brute
        hits += sum(brute)
        misses += len(brute) - sum(brute)
    assert hits > 0 and misses > 0


def test_enumeration_is_exhaustive_and_guarded():
    assert adjacency_multiset(1, 3) == (((3,), 6),)
    assert sum(m for _, m in adjacency_multiset(2, 3)) == math.factorial(6)
    with pytest.raises(GuardError):
        adjacency_multiset(4, 3)
    # an independent recount: the numpy stack builder over all 8! permutations
    perms = np.array(list(itertools.permutations(range(8))))
    stack = adjacency_stack(perms, 4).reshape(len(perms), -1)
    assert tuple(sorted(Counter(map(tuple, stack.tolist())).items())) == adjacency_multiset(2, 4)


def test_sampler_uniform_against_exact_enumeration():
    # frequencies of adjacency matrices at n=2, d=3 vs their exact counts
    # over all 720 permutations, chi-square at a fixed seed
    exact = dict(adjacency_multiset(2, 3))
    draws = 4000
    observed = Counter()
    for i in range(draws):
        s = sample_configuration(2, 3, seed=31337, stream=i)
        observed[tuple(adjacency_from_permutation(s).ravel().tolist())] += 1
    keys = sorted(exact)
    f_exp = np.array([exact[k] / 720 * draws for k in keys])
    f_obs = np.array([observed.get(k, 0) for k in keys])
    stat, pvalue = stats.chisquare(f_obs, f_exp)
    assert pvalue > 1e-6, (stat, pvalue)


def test_identical_rows_witness():
    assert has_identical_rows([[1, 2], [1, 2]])
    assert not has_identical_rows([[2, 1], [1, 2]])
    assert not has_identical_rows([[3]])
    with pytest.raises(ValueError):
        has_identical_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        has_identical_rows([[1, 2], [1]])
    a = np.array([[1, 2, 3], [3, 1, 0], [1, 2, 3]], dtype=np.int64)
    assert has_identical_rows(a)
    # non-contiguous views: rows of a.T are the columns of a
    assert not has_identical_rows(a.T)
    assert has_identical_rows(a[:, ::-1])
    assert not has_identical_rows(np.array([[1, 2], [1, 3]]))  # differ in the last entry only
    assert not has_identical_rows(np.array([[0, 2], [1, 2]]))
    # Python ints past int64 have no integer array form and are refused
    with pytest.raises(ValueError):
        has_identical_rows(np.array([[2**70, 1], [2**70, 1]], dtype=object))
    # pairwise brute force on sampled adjacency matrices, n = 4..8
    hits = 0
    for i in range(200):
        m = adjacency_from_permutation(sample_configuration(4 + i % 5, 3, seed=19, stream=i))
        rows = m.tolist()
        brute = any(rows[j] == rows[k] for j in range(len(rows)) for k in range(j))
        assert has_identical_rows(m) == brute
        assert has_identical_rows(rows) == brute
        assert has_identical_rows(m.T) == any(
            (m[:, j] == m[:, k]).all() for j in range(len(rows)) for k in range(j)
        )
        hits += brute
    assert 0 < hits < 200


def test_identical_rows_agree_across_forms():
    # integer arrays are keyed in their own dtype: a uint8 lane, its int64
    # copy and the list of rows give one answer; an object array is refused
    hits = 0
    for i in range(60):
        m = adjacency_from_permutation(sample_configuration(5 + i % 4, 3, seed=23, stream=i))
        answers = {has_identical_rows(form) for form in (m.astype(np.uint8), m, m.tolist())}
        assert len(answers) == 1
        with pytest.raises(ValueError):
            has_identical_rows(m.astype(object))
        hits += answers.pop()
    assert 0 < hits < 60
    with pytest.raises(ValueError):
        has_identical_rows(np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        has_identical_rows(np.zeros(4, dtype=np.uint8))


def test_identical_rows_force_singularity_downstream():
    # a witness exists with positive probability at small n; find one and
    # confirm the determinant vanishes
    from regsing.gfp_core import det_bareiss

    found = False
    for i in range(200):
        a = adjacency_from_permutation(sample_configuration(4, 3, seed=8, stream=i))
        if has_identical_rows(a):
            assert det_bareiss([[int(x) for x in row] for row in a]) == 0
            found = True
            break
    assert found


def test_json_roundtrip(monkeypatch):
    # the sample artifact is one JSON line from which the sample can be rebuilt
    monkeypatch.delenv("REGSING_OUT_DIR", raising=False)
    with redirect_stdout(io.StringIO()) as out:
        assert cli_main("sample --n 6 --d 3 --seed 77 --stream 4".split()) == 0
    line = out.getvalue()
    obj = json.loads(line)
    back = ConfigurationSample(
        n=obj["n"], d=obj["d"], perm=np.asarray(obj["perm"]), seed=obj["seed"], stream=obj["stream"]
    )
    s = sample_configuration(6, 3, seed=77, stream=4)
    assert back.n == s.n and back.d == s.d
    assert back.seed == 77 and back.stream == 4
    assert (back.perm == s.perm).all()
    assert (adjacency_from_permutation(back) == np.asarray(obj["adjacency"])).all()
    assert line.count("\n") == 1 and line.endswith("\n")


def test_adjacency_csv_shape(monkeypatch):
    monkeypatch.delenv("REGSING_OUT_DIR", raising=False)
    with redirect_stdout(io.StringIO()) as out:
        assert cli_main("sample --n 3 --d 3 --seed 1 --format csv".split()) == 0
    text = out.getvalue()
    rows = text.strip().split("\n")
    assert len(rows) == 3
    assert all(len(r.split(",")) == 3 for r in rows)
    a = adjacency_from_permutation(sample_configuration(3, 3, seed=1))
    assert [[int(x) for x in r.split(",")] for r in rows] == a.tolist()


def test_degree_validation():
    with pytest.raises(ValueError):
        sample_configuration(5, 2, seed=0)
    with pytest.raises(ValueError):
        sample_configuration(0, 3, seed=0)
