"""Rate function: dual solver optimality, closed forms, the step Gram matrix, negativity."""

import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from regsing import rate_ldp
from regsing.cli import main as cli_main
from regsing.rate_ldp import (
    GridScanReport,
    amgm_sum,
    facet_normals,
    maxent_alpha,
    negativity_grid_scan,
    stationary_alpha,
)
from regsing.walk_census import build_U, is_admissible, type_vectors, walk_endpoint_counts


def slice_entropy_d3p2(nv0: float, spread: float = 0.0) -> float:
    """Rate along the feasible slice for d=3, p=2, by hand.

    The constraint pins mass 1-s on the profile (3,0) and total mass
    s = 3*(1-nv0)... computed from the moment equation; spread != 0 moves
    mass between the three (1,2) atoms away from the symmetric split.
    """
    s = 3 * (1 - nv0) / 2
    a1 = 1 - s
    parts = [a1, s / 3 + spread, s / 3 - spread, s / 3]
    ent = -sum(a * math.log(a) for a in parts if a > 0)
    dens = sum(x * math.log(x) for x in (nv0, 1 - nv0) if x > 0)
    return ent + 2 * dens


def test_rate_zero_at_uniform():
    for d, p in [(3, 2), (4, 3), (3, 5)]:
        cert = maxent_alpha([1 / p] * p, d, p)
        assert cert.converged and cert.feasible
        assert abs(cert.rate) < 1e-12
        assert all(abs(a - p ** -(d - 1)) < 1e-12 for a in cert.alpha)
        assert len(cert.alpha) == p ** (d - 1)


def test_rate_zero_at_degenerate_point():
    for d, p in [(3, 2), (4, 3)]:
        nv = [1.0] + [0.0] * (p - 1)
        cert = maxent_alpha(nv, d, p)
        assert cert.converged and cert.feasible
        assert cert.rate == 0
        assert cert.alpha[0] == 1.0 and all(a == 0 for a in cert.alpha[1:])
        assert cert.residual == 0


def test_solver_matches_slice_closed_form():
    for nv0 in (0.75, 0.6, 0.9):
        cert = maxent_alpha([nv0, 1 - nv0], 3, 2)
        assert cert.converged
        assert cert.rate == pytest.approx(slice_entropy_d3p2(nv0), abs=1e-10)


def test_solver_beats_dense_slice_grid():
    # grid search over uneven splits of the free mass, resolution 1e-4
    nv0 = 0.75
    cert = maxent_alpha([nv0, 1 - nv0], 3, 2)
    s = 3 * (1 - nv0) / 2
    best = max(
        slice_entropy_d3p2(nv0, spread=(k / 10000) * (s / 3)) for k in range(10000)
    )
    assert cert.rate >= best - 1e-9
    assert cert.rate == pytest.approx(best, abs=1e-6)


def test_solver_entropy_dominates_random_feasible_weights():
    # kernel perturbations of the optimum keep the constraints; entropy drops
    rng = np.random.default_rng(5)
    u = build_U(4, 3)
    w = np.array([item[0] for item in u.items for _ in range(item[1])], dtype=float)
    nv = [0.5, 0.3, 0.2]
    cert = maxent_alpha(nv, 4, 3)
    assert cert.converged
    alpha = np.array(cert.alpha)
    constraints = np.vstack([w.T, np.ones(len(alpha))])
    _, _, vh = np.linalg.svd(constraints)
    kernel = vh[np.linalg.matrix_rank(constraints) :]
    for _ in range(20):
        z = rng.standard_normal(kernel.shape[0])
        pert = kernel.T @ z
        pert *= 1e-3 / np.linalg.norm(pert)
        cand = alpha + pert
        if (cand < 0).any():
            continue
        ent = -float(np.sum(cand[cand > 0] * np.log(cand[cand > 0])))
        base = -float(np.sum(alpha[alpha > 0] * np.log(alpha[alpha > 0])))
        assert ent <= base + 1e-10
        assert np.allclose(w.T @ cand, w.T @ alpha, atol=1e-12)


def test_infeasible_density_reported():
    cert = maxent_alpha([0.2, 0.8], 3, 2)  # needs t_1 density > 2/3
    assert not cert.feasible
    assert cert.rate == float("-inf")
    assert not cert.converged


def test_density_validation():
    with pytest.raises(ValueError):
        maxent_alpha([0.5, 0.6], 3, 2)
    with pytest.raises(ValueError):
        maxent_alpha([0.5, 0.5, 0.0], 3, 2)
    with pytest.raises(ValueError):
        maxent_alpha([1.2, -0.2], 3, 2)
    with pytest.raises(ValueError):
        amgm_sum([float("nan"), 1.0], 3, 2)


def lp_feasible_oracle(nv, d, p):
    """Independent oracle: the support-restricted moment LP, solved by HiGHS."""
    from scipy.optimize import linprog

    u = build_U(d, p)
    w = np.array([wj for wj, _ in u.items], dtype=float)
    nv = np.asarray(nv, dtype=float)
    w = w[~((w > 0) & (nv == 0.0)[None, :]).any(axis=1)]
    if len(w) == 0:
        return False
    a_eq = np.vstack([w.T, np.ones((1, len(w)))])
    b_eq = np.append(d * nv, 1.0)
    lp = linprog(np.zeros(len(w)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return lp.status == 0


def test_facet_normals():
    assert facet_normals(3, 2) == ((0, 1), (2, -1))
    assert facet_normals(4, 3) == ((0, 0, 1), (0, 1, 0), (3, -1, 1), (3, 1, -1))
    assert len(facet_normals(3, 5)) == len(facet_normals(4, 5)) == 13
    assert len(facet_normals(3, 7)) == 31
    for d, p in [(3, 2), (4, 3), (3, 5), (4, 5), (3, 7)]:
        for c in facet_normals(d, p):
            dots = [sum(a * b for a, b in zip(c, w)) for w, _ in build_U(d, p).items]
            assert min(dots) == 0 and math.gcd(*c) == 1
            # a facet holds p-1 independent atoms
            on = np.array([w for (w, _), x in zip(build_U(d, p).items, dots) if x == 0])
            assert np.linalg.matrix_rank(on) == p - 1


@pytest.mark.parametrize("d,p,n", [(3, 2, 100), (3, 2, 400), (4, 3, 100), (4, 3, 200)])
def test_census_reachability_is_exact_feasibility(d, p, n):
    # claim 1 checks claim 3's cone with no tolerance: an admissible profile t
    # is reached by the walk exactly when t/n passes the facet test; both
    # sides occur at every size (17, 67, 416 and 1,666 unreached profiles)
    counts = walk_endpoint_counts(n, d, p)
    seen = {True: 0, False: 0}
    for t in type_vectors(n, p):
        if not is_admissible(t, p):
            continue
        reached = counts.profile_count(t) > 0
        assert reached == rate_ldp._feasible([Fraction(x, n) for x in t], d, p), t
        seen[reached] += 1
    assert seen[True] > 0 and seen[False] > 0, seen


# Newton step totals on the scans run below, the same whether each density is
# solved alone or in a lock-step stack (one stacked lstsq call per step for
# all its live lanes); (3, 5, 8) is below the scan's minimum resolution: LP only
SCAN_NEWTON_STEPS = {(3, 2, 100): 282, (4, 3, 40): 3585, (5, 3, 30): 2241}


@pytest.mark.parametrize(
    "d,p,resolution,n_points,n_infeasible",
    [(3, 2, 100, 101, 34), (4, 3, 40, 861, 220), (5, 3, 30, 496, 84), (3, 5, 8, 495, 370)],
)
def test_exact_feasibility_matches_lp_oracle(d, p, resolution, n_points, n_infeasible):
    points = list(type_vectors(resolution, p))
    assert len(points) == n_points
    certs = {}
    for t in points:
        cert = maxent_alpha([Fraction(x, resolution) for x in t], d, p)
        assert cert.feasible == lp_feasible_oracle(np.array(t) / resolution, d, p), t
        certs[cert.density] = cert
    assert sum(not c.feasible for c in certs.values()) == n_infeasible
    if (d, p, resolution) not in SCAN_NEWTON_STEPS:
        return
    # the scan decides feasibility for the whole grid at once and solves
    # feasible points directly; every row must equal the certificate
    scan = negativity_grid_scan(d, p, resolution)
    assert scan.n_points == n_points and len(scan.rows) == n_points - scan.n_excluded
    assert len({row[0] for row in scan.rows}) == len(scan.rows)
    solved = []
    for density, rate, feasible, converged in scan.rows:
        cert = certs[density]
        assert (feasible, converged) == (cert.feasible, cert.converged), density
        assert rate.hex() == cert.rate.hex(), density
        solved.append(cert)
    assert scan.n_infeasible == sum(not c.feasible for c in solved)
    # the scan follows the per-point solve's Newton trajectory at every point
    steps = SCAN_NEWTON_STEPS[d, p, resolution]
    assert scan.newton_steps == sum(c.newton_steps for c in solved) == steps


def solve_in_stacks(grid, stacks, d=4, p=3):
    """Split each stack of grid indices by zero pattern, as the scan does, and
    solve each part in one lock-step call; every field's bytes per point."""
    out = {}
    for stack in stacks:
        zeros = grid[stack] == 0.0
        for pattern in np.unique(zeros, axis=0):
            part = stack[(zeros == pattern).all(axis=1)]
            fields = rate_ldp._lockstep_newton(grid[part], d, p)
            for j, i in enumerate(part.tolist()):
                out[i] = tuple(np.asarray(f[j]).tobytes() for f in fields)
    return out


@pytest.mark.parametrize("max_iter", [rate_ldp.MAX_NEWTON_ITER, 2])
def test_lockstep_lanes_match_lone_solves(monkeypatch, max_iter):
    # alpha, dual, rate, residual, converged and steps of every feasible point
    # are bit-identical however the points are stacked
    monkeypatch.setattr(rate_ldp, "MAX_NEWTON_ITER", max_iter)
    types = np.array(list(type_vectors(40, 3)), dtype=np.int64)
    grid = (types / 40)[rate_ldp._in_cone(types, 4, 3)]
    every = np.arange(len(grid))
    rng = np.random.default_rng(24)
    shuffled = rng.permutation(every)
    cuts = np.sort(rng.choice(np.arange(1, len(grid)), size=12, replace=False))
    slices = np.split(shuffled, cuts)
    face = (grid == 0.0).any(axis=1)
    assert any(face[s].any() and not face[s].all() for s in slices)
    ways = [[every], [every[::-1]], slices, [every[i : i + 1] for i in every]]
    lone = solve_in_stacks(grid, ways[-1])
    assert len(lone) == len(grid) == 641
    for stacks in ways[:-1]:
        assert solve_in_stacks(grid, stacks) == lone
    _, _, _, _, converged, steps = rate_ldp._lockstep_newton(grid[~face], 4, 3)
    if max_iter == 2:
        # the lanes still live at the cap stop together, unconverged
        assert (steps == 2).any() and ((steps == 2) == ~converged).all()
    else:
        assert converged.all() and steps.max() < max_iter


def test_stacked_lstsq_matches_public_wrapper(capfd):
    # the Hessian stacks of a real scan, lane by lane against np.linalg.lstsq
    calls = []

    def record(a, b):
        calls.append((a.copy(), b.copy()))
        return lstsq(a, b)

    lstsq = rate_ldp._lstsq
    with mock.patch.object(rate_ldp, "_lstsq", side_effect=record):
        negativity_grid_scan(4, 3, 40)
    assert sum(len(a) for a, _ in calls) == SCAN_NEWTON_STEPS[4, 3, 40]
    for a, b in calls:
        got = lstsq(a, b)
        for i in range(len(a)):
            assert got[i].tobytes() == np.linalg.lstsq(a[i], b[i], rcond=None)[0].tobytes()
    # an all-NaN Hessian among real ones raises, as the public wrapper does
    # (LAPACK prints its illegal-value notice, held back by capfd)
    a, b = calls[0][0].copy(), calls[0][1]
    a[len(a) // 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(a[len(a) // 2], b[len(a) // 2], rcond=None)
    with pytest.raises(np.linalg.LinAlgError):
        lstsq(a, b)
    capfd.readouterr()


def test_nonfinite_lane_stops_before_lstsq():
    # a lane whose gradient is NaN leaves the stack unconverged at step 0 and
    # never reaches lstsq; the healthy lane keeps the bits of its lone solve
    # ((0.3, 0.7) would lie outside the d = 3, p = 2 cone, hence (0.4, 0.6))
    sizes = []

    def finite_only(a, b):
        sizes.append(len(a))
        assert np.isfinite(a).all() and np.isfinite(b).all()
        return lstsq(a, b)

    lstsq = rate_ldp._lstsq
    healthy = [0.4, 0.6]
    with mock.patch.object(rate_ldp, "_lstsq", side_effect=finite_only):
        stacked = rate_ldp._lockstep_newton(np.array([healthy, [np.nan, 0.5]]), 3, 2)
    lone = rate_ldp._lockstep_newton(np.array([healthy]), 3, 2)
    assert [np.asarray(f[0]).tobytes() for f in stacked] == [np.asarray(f[0]).tobytes() for f in lone]
    _, _, _, residual, converged, steps = stacked
    assert converged[0] and not converged[1] and steps[1] == 0 and np.isnan(residual[1])
    assert sizes and set(sizes) == {1}


NAN_LANE_CHILD = """
import json, numpy as np
from regsing import rate_ldp
stack = np.array([[0.3, 0.3, 0.4], [np.nan, 0.5, 0.5]])
_, _, rate, _, converged, steps = rate_ldp._lockstep_newton(stack, 4, 3)
_, _, lone_rate, _, _, lone_steps = rate_ldp._lockstep_newton(stack[:1], 4, 3)
print(json.dumps([converged.tolist(), steps.tolist(), rate[0].hex(), lone_rate[0].hex(), int(lone_steps[0])]))
"""


def test_nan_lane_cannot_hang_a_stack():
    # Unguarded, the NaN lane's Hessian is NaN from the second step on, and
    # LAPACK's least squares on a partly-NaN matrix raises or never returns
    # (np.linalg.lstsq on an identity with one NaN entry does not return), so
    # the stack runs in a child under a timeout: a regression fails, not hangs.
    src = str(Path(rate_ldp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NAN_LANE_CHILD], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    converged, steps, rate, lone_rate, lone_steps = json.loads(proc.stdout)
    assert converged == [True, False] and steps == [lone_steps, 0] and rate == lone_rate


def test_missing_lstsq_gufunc_fails_at_import(monkeypatch):
    monkeypatch.delattr(np.linalg._umath_linalg, "lstsq")
    spec = importlib.util.spec_from_file_location("regsing._rate_ldp_copy", rate_ldp.__file__)
    with pytest.raises(ImportError, match=r"NumPy 2\.4\.6"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_scan_solves_over_slices():
    """The (4,3) r = 40 scan solves its 632 points in lock-step stacks of at
    most NEWTON_LANES = 512, and its rows equal one lone solve per point."""
    with mock.patch.object(rate_ldp, "_lockstep_newton", wraps=rate_ldp._lockstep_newton) as spy:
        scan = negativity_grid_scan(4, 3, 40)
    sizes = [len(c.args[0]) for c in spy.call_args_list]
    assert rate_ldp.NEWTON_LANES == 512
    assert max(sizes) == 512 and sum(sizes) == len(scan.rows) - scan.n_infeasible == 632
    steps = 0
    for density, rate, feasible, converged in scan.rows:
        if feasible:
            _, _, r, _, c, s = rate_ldp._lockstep_newton(np.array([density]), 4, 3)
            assert (rate.hex(), converged) == (float(r[0]).hex(), bool(c[0])), density
            steps += int(s[0])
    assert steps == scan.newton_steps == SCAN_NEWTON_STEPS[4, 3, 40]


def test_boundary_density_decided_exactly():
    # t = (1, 48, 51) lies on the facet 3 nv_0 + nv_1 - nv_2 = 0; the nearest
    # floats of t/100 lie just outside it.
    exact = maxent_alpha([Fraction(1, 100), Fraction(48, 100), Fraction(51, 100)], 4, 3)
    assert exact.feasible and exact.converged
    assert exact.density == (0.01, 0.48, 0.51)
    assert not maxent_alpha([0.01, 0.48, 0.51], 4, 3).feasible


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="support is restricted on coordinate faces only; off-facet atoms keep up to 1e-11",
)
def test_facet_density_puts_no_weight_off_the_facet():
    # On the facet 3 nv_0 + nv_1 - nv_2 = 0 every feasible weight vector lives
    # on the facet's atoms, so each atom with c . w > 0 must get weight 0.
    c = (3, 1, -1)
    cert = maxent_alpha([Fraction(1, 100), Fraction(48, 100), Fraction(51, 100)], 4, 3)
    atoms = [w for w, mult in build_U(4, 3).items for _ in range(mult)]
    off = [a for w, a in zip(atoms, cert.alpha) if sum(x * y for x, y in zip(c, w)) > 0]
    assert off and max(off) == 0.0


def test_stationary_uniform_and_degenerate():
    for d, p in [(3, 2), (4, 3), (5, 2)]:
        st = stationary_alpha([1 / p] * p, d, p)
        assert st.lam == pytest.approx(-(d - 2), abs=1e-12)
        assert abs(st.rate) < 1e-12
        assert st.moment_residual < 1e-12
        st0 = stationary_alpha([1.0] + [0.0] * (p - 1), d, p)
        assert st0.alpha[0] == 1.0 and all(a == 0 for a in st0.alpha[1:])
        assert st0.rate == pytest.approx(0.0, abs=1e-12)


def test_stationary_discrepancy_is_reported():
    st = stationary_alpha([0.6, 0.4], 3, 2)
    cert = maxent_alpha([0.6, 0.4], 3, 2)
    assert st.moment_residual > 1e-3  # closed form misses the constraint here
    assert st.rate > cert.rate  # and sits above the constrained optimum
    assert st.rate == pytest.approx(math.log(amgm_sum([0.6, 0.4], 3, 2)), abs=1e-12)


def test_stationary_without_support_raises():
    with pytest.raises(ValueError):
        stationary_alpha([0.0, 1.0], 3, 2)


def test_amgm_equality_points_and_strictness():
    for d, p in [(3, 2), (4, 3), (3, 5)]:
        assert amgm_sum([1 / p] * p, d, p) == pytest.approx(1.0, abs=1e-12)
        assert amgm_sum([1.0] + [0.0] * (p - 1), d, p) == 1.0
    assert amgm_sum([0.7, 0.3], 3, 2) < 1
    rng = np.random.default_rng(2)
    for d, p in [(3, 2), (4, 3)]:
        uniform = np.full(p, 1 / p)
        e0 = np.zeros(p)
        e0[0] = 1.0
        for _ in range(2000):
            nv = rng.dirichlet(np.ones(p))
            s = amgm_sum(nv, d, p)
            assert s <= 1 + 1e-12
            if min(np.linalg.norm(nv - uniform), np.linalg.norm(nv - e0)) > 0.05:
                assert s < 1 - 1e-4


def step_gram(d, p):
    """sum_w m_w w w^T over the step multiset, in int64."""
    return sum(m * np.outer(w, w) for w, m in build_U(d, p).items)


def test_gram_spectrum_closed_form():
    # the summed matrix is d p^{d-2} I + d(d-1) p^{d-3} J, exactly in integers:
    # its spectrum is d^2 p^{d-2} once and d p^{d-2} with multiplicity p-1, not d-1
    for d, p, eig in [(3, 2, [6, 18]), (4, 3, [36, 36, 144])]:
        assert np.linalg.eigvalsh(step_gram(d, p).astype(float)) == pytest.approx(eig, abs=1e-9)
    for d in (3, 4, 5):
        for p in (2, 3, 5, 7):
            if math.gcd(p, d) != 1:
                continue
            gram = step_gram(d, p)
            rep = d * p ** (d - 2)
            j_coef = d * (d - 1) * p ** (d - 3)
            assert gram.tolist() == [[j_coef + rep * (i == k) for k in range(p)] for i in range(p)]
            eig = np.linalg.eigvalsh(gram.astype(float))
            assert eig == pytest.approx([rep] * (p - 1) + [d * d * p ** (d - 2)], abs=1e-9)


def test_quadratic_expansion():
    # rate(uniform + delta) = -(p/2) |delta|^2 + O(|delta|^3): along seeded
    # zero-sum directions of length 1e-3, halving delta quarters the rate
    for d, p in [(3, 2), (4, 3)]:
        rng = np.random.default_rng(20240801)
        uniform = np.full(p, 1.0 / p)
        for _ in range(8):
            g = rng.standard_normal(p)
            g -= g.mean()
            g /= np.linalg.norm(g)
            delta = 1e-3 * g
            full = maxent_alpha(uniform + delta, d, p).rate
            half = maxent_alpha(uniform + delta / 2, d, p).rate
            assert full / half == pytest.approx(4, abs=0.05 * 4)
            # cubic term contributes an O(radius) relative correction
            assert full / float(delta @ delta) == pytest.approx(-p / 2, rel=1e-2)


def test_constraint_gram_consistency():
    # d^2 |delta|^2 equals eps^T G eps when d*delta = sum eps_a w_a
    rng = np.random.default_rng(9)
    for d, p in [(3, 2), (4, 3)]:
        u = build_U(d, p)
        w = np.array([item[0] for item in u.items for _ in range(item[1])], dtype=float)
        gram = w @ w.T
        for _ in range(10):
            eps = rng.standard_normal(len(w))
            eps -= eps.mean()
            delta = (w.T @ eps) / d
            lhs = d * d * float(delta @ delta)
            rhs = float(eps @ gram @ eps)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_negativity_scan_small():
    rep = negativity_grid_scan(3, 2, 20)
    assert isinstance(rep, GridScanReport)
    assert rep.n_points == 21
    assert rep.n_excluded >= 2  # both equality points sit on this grid
    assert rep.n_nonconverged == 0
    assert rep.all_negative
    with pytest.raises(ValueError):
        negativity_grid_scan(3, 2, 5)


def test_certificate_json_fields(monkeypatch):
    monkeypatch.delenv("REGSING_OUT_DIR", raising=False)
    with redirect_stdout(io.StringIO()) as out:
        assert cli_main("rate --d 3 --p 2 --density 0.75,0.25".split()) == 0
    obj = json.loads(out.getvalue())
    assert list(obj)[:7] == ["density", "alpha", "dual", "rate", "residual", "converged", "feasible"]
    cert = maxent_alpha([0.75, 0.25], 3, 2)
    assert obj["rate"] == cert.rate and obj["converged"] == cert.converged
    # the step count is solver diagnostics, kept out of the canonical payload
    assert cert.newton_steps > 0 and "newton_steps" not in obj
