"""Large-deviation rate function for walk endpoint densities.

For a density nv = (nv_0, ..., nv_{p-1}) on F_p values, the rate is

    sup { -sum_j a_j ln a_j }  +  (d-1) * sum_k nv_k ln nv_k,

the supremum over nonnegative weights a on the p^{d-1} step atoms subject to
sum a_j = 1 and sum_j a_j w_j = d * nv.  The rate is <= 0 everywhere on the
simplex, with equality exactly at the uniform density and at e_0 = (1,0,...,0).

Feasibility is decided exactly: nv is feasible iff c . nv >= 0 for every
integer facet normal c of the cone spanned by the atoms, evaluated on the
rational value of nv.  On feasible densities the supremum is computed
through the smooth convex dual: a_j(theta) is proportional to
exp(<theta, w_j>) and Newton iterations drive the moment residual below
tolerance.  A closed-form stationary candidate and the AM-GM upper bound
ln(amgm_sum) provide independent cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .common import GuardError, require_coprime_degree
from .gfp_core import det_bareiss
from .walk_census import LATTICE_GUARD, build_U, type_vectors

DEFAULT_TOL = 1e-10
MAX_NEWTON_ITER = 200


def _check_density(nv: Sequence[float], p: int) -> np.ndarray:
    v = np.asarray(nv, dtype=float)
    if v.shape != (p,):
        raise ValueError(f"density must have length {p}, got shape {v.shape}")
    if not (v >= -1e-12).all():
        raise ValueError("density entries must be nonnegative")
    if abs(float(v.sum()) - 1.0) > 1e-12:
        raise ValueError("density entries must sum to 1 within 1e-12")
    return np.clip(v, 0.0, None)


@lru_cache(maxsize=None)
def _atoms(d: int, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct step profiles as rows of W with their multiplicities (read-only)."""
    u = build_U(d, p)
    w = np.array([item[0] for item in u.items], dtype=float)
    m = np.array([item[1] for item in u.items], dtype=float)
    w.setflags(write=False)
    m.setflags(write=False)
    return w, m


@lru_cache(maxsize=None)
def facet_normals(d: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """Primitive inward integer normals of the facets of the atom cone.

    Each (p-1)-subset of atoms with a nonzero cofactor normal spans a
    hyperplane; it is a facet when every atom lies on one side.
    """
    atoms = [w for w, _ in build_U(d, p).items]
    normals = set()
    for sub in itertools.combinations(atoms, p - 1):
        c = [(-1) ** k * det_bareiss([w[:k] + w[k + 1 :] for w in sub]) for k in range(p)]
        dots = [sum(a * b for a, b in zip(c, w)) for w in atoms]
        if any(c) and not min(dots) < 0 < max(dots):
            g = math.gcd(*c) if max(dots) > 0 else -math.gcd(*c)
            normals.add(tuple(x // g for x in c))
    return tuple(sorted(normals))


def _in_cone(num: np.ndarray, d: int, p: int) -> np.ndarray:
    """The facet test c . num >= 0 for every facet normal c, per row of num.

    num holds integer numerators: a grid of type vectors summing to r as
    int64 (exact, as |c . t| <= r max|c|), or one object row of Python ints.
    """
    return (num @ np.array(facet_normals(d, p)).T >= 0).all(axis=-1)


def _feasible(nv: Sequence, d: int, p: int) -> bool:
    """The facet test on nv's rational value.

    The atoms all have coordinate sum d and each {nv_k = 0} is a face of
    the cone, so this agrees with the support-restricted moment problem;
    the test is homogeneous, so the 1e-12 sum slack does not enter.
    """
    q = [max(Fraction(x), 0) for x in nv]
    den = math.lcm(*(x.denominator for x in q))
    num = np.array([x.numerator * (den // x.denominator) for x in q], dtype=object)
    return bool(_in_cone(num, d, p))


def _expand(values: np.ndarray, mults: np.ndarray) -> Tuple[float, ...]:
    return tuple(np.repeat(values, mults.astype(int)).tolist())


@dataclass(frozen=True)
class RateCertificate:
    """Solution of the constrained max-entropy problem at one density.

    alpha lists per-atom weights expanded in step-multiset order (each
    distinct profile repeated by its multiplicity); rate uses 0*ln 0 = 0.
    """

    density: Tuple[float, ...]
    alpha: Tuple[float, ...]
    dual: Tuple[float, ...]
    rate: float
    residual: float
    converged: bool
    feasible: bool
    newton_steps: int  # Newton directions solved; 0 when infeasible


class _Solution(NamedTuple):
    alpha: np.ndarray  # per-atom weight of each distinct profile
    theta: np.ndarray
    rate: float
    residual: float
    converged: bool
    steps: int


def _newton(nv: np.ndarray, d: int, p: int) -> _Solution:
    """Damped Newton on the dual at a checked, feasible float density nv."""
    w_all, m_all = _atoms(d, p)
    target = d * nv
    # Support restriction: coordinates with nv_k = 0 force alpha_j = 0 for
    # every atom with w_j(k) > 0, since the atoms are nonnegative.
    keep = ~((w_all > 0) & (nv == 0.0)[None, :]).any(axis=1)
    w = w_all[keep]
    m = m_all[keep]

    def tilt(th: np.ndarray) -> Tuple[np.ndarray, float]:
        """Grouped masses m_j exp(<th, w_j> - max) and the dual value at th."""
        s = w @ th
        c = s.max()
        z = m * np.exp(s - c)
        return z, c + math.log(float(z.sum())) - float(th @ target)

    theta = np.zeros(p)
    z, g0 = tilt(theta)
    converged = False
    steps = 0
    while True:
        prob = z / z.sum()
        mean = prob @ w
        grad = mean - target
        if steps == MAX_NEWTON_ITER:
            break
        if float(np.abs(grad).max()) < DEFAULT_TOL:
            converged = True
            break
        steps += 1
        hess = (w * prob[:, None]).T @ w - mean[:, None] * mean
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        slope = float(grad @ step)
        # Absolute noise allowance keeps full Newton steps near the optimum,
        # where true dual decrease is below float resolution.
        noise = 1e-15 * (1.0 + abs(g0))
        # Backtrack to sufficient decrease; once t <= 1e-14 the point is taken
        # untested.  The taken point's (z, dual) carry into the next step.
        t = 1.0
        while True:
            trial = theta + t * step
            z, g = tilt(trial)
            if t <= 1e-14 or not g > g0 + 1e-4 * t * slope + noise:
                break
            t *= 0.5
        theta, g0 = trial, g

    # Per-atom weights: prob is the grouped mass, each atom in the group
    # carries prob/mult.
    weight = prob / m
    entropy = -float(np.sum(prob * np.log(np.where(weight > 0, weight, 1.0))))
    density_term = (d - 1) * float(sum(x * math.log(x) for x in nv if x > 0.0))
    alpha = np.zeros(len(keep))
    alpha[keep] = weight
    residual = float(np.abs(grad).max())
    return _Solution(alpha, theta, entropy + density_term, residual, converged, steps)


def maxent_alpha(nv: Sequence[float], d: int, p: int) -> RateCertificate:
    """Maximize weight entropy subject to the moment constraint at d*nv.

    Feasibility is decided exactly on the rational value of nv (pass
    Fractions for densities such as t/r that floats cannot represent);
    infeasible densities get rate -inf and feasible=False.  Atoms touching
    a zero coordinate of nv are forced to weight 0 before solving.
    """
    require_coprime_degree(p, d)
    nv_arr = _check_density(nv, p)
    _, m_all = _atoms(d, p)
    density_t = tuple(float(x) for x in nv_arr)
    if not _feasible(nv, d, p):
        return RateCertificate(
            density=density_t,
            alpha=(0.0,) * int(m_all.sum()),
            dual=(0.0,) * p,
            rate=float("-inf"),
            residual=float("inf"),
            converged=False,
            feasible=False,
            newton_steps=0,
        )
    sol = _newton(nv_arr, d, p)
    return RateCertificate(
        density=density_t,
        alpha=_expand(sol.alpha, m_all),
        dual=tuple(float(x) for x in sol.theta),
        rate=sol.rate,
        residual=sol.residual,
        converged=sol.converged,
        feasible=True,
        newton_steps=sol.steps,
    )


@dataclass(frozen=True)
class StationaryWeights:
    """Closed-form stationary candidate alpha_j = e^{d-2+lam} prod_k nv_k^{((d-1)/d) w_j(k)}.

    moment_residual reports how far the candidate is from the moment
    constraint; agreement with the dual solver holds only when it is small.
    """

    density: Tuple[float, ...]
    alpha: Tuple[float, ...]
    lam: float
    rate: float
    moment_residual: float


def _geometric_factor(nv: np.ndarray, w_row: np.ndarray, d: int) -> float:
    acc = 1.0
    for k in range(len(nv)):
        wk = w_row[k]
        if wk == 0:
            continue
        if nv[k] == 0.0:
            return 0.0
        acc *= nv[k] ** (((d - 1) / d) * wk)
    return acc


def _amgm_factors(nv: Sequence[float], d: int, p: int):
    """The checked density, the atoms and each atom's prod_k nv_k^{((d-1)/d) w_j(k)}."""
    require_coprime_degree(p, d)
    nv_arr = _check_density(nv, p)
    w, m = _atoms(d, p)
    return nv_arr, w, m, np.array([_geometric_factor(nv_arr, wj, d) for wj in w])


def amgm_sum(nv: Sequence[float], d: int, p: int) -> float:
    """sum_j mult_j prod_k nv_k^{((d-1)/d) w_j(k)}; <= 1, = 1 iff uniform or e_0.
    An oracle: its log bounds maxent_alpha's rate from above, with no solve."""
    _, _, m, factors = _amgm_factors(nv, d, p)
    return float(sum(m * factors))


def stationary_alpha(nv: Sequence[float], d: int, p: int) -> StationaryWeights:
    """Lagrange stationary weights; the rate equals -(d-2+lam) = ln(amgm_sum).
    An oracle: a closed form that matches maxent_alpha where moment_residual is small."""
    nv_arr, w, m, factors = _amgm_factors(nv, d, p)
    s = float((m * factors).sum())
    if s <= 0.0:
        raise ValueError("no step atom is supported on the density; weights undefined")
    atom_weight = factors / s
    lam = -(d - 2) - math.log(s)
    moment = (m * atom_weight) @ w
    residual = float(np.abs(moment - d * nv_arr).max())
    return StationaryWeights(
        density=tuple(float(x) for x in nv_arr),
        alpha=_expand(atom_weight, m),
        lam=lam,
        rate=-(d - 2 + lam),
        moment_residual=residual,
    )


@dataclass
class GridScanReport:
    d: int
    p: int
    resolution: int
    n_points: int
    n_excluded: int  # within 2/resolution of an equality point
    n_infeasible: int
    n_nonconverged: int
    newton_steps: int  # summed over the solved points
    max_rate: float  # over included feasible points
    argmax: Tuple[float, ...]
    rows: List[Tuple[Tuple[float, ...], float, bool, bool]]  # (density, rate, feasible, converged)

    @property
    def all_negative(self) -> bool:
        return self.max_rate < 0.0


def negativity_grid_scan(d: int, p: int, resolution: int) -> GridScanReport:
    """Scan the density simplex at the given grid resolution.

    Grid points within Euclidean distance 2/resolution of either equality
    point (uniform, e_0) are excluded; the maximum rate over the rest must
    be strictly negative.  Each row equals maxent_alpha's certificate at
    t/resolution: feasibility is decided for the whole grid in one facet
    test, and each feasible point goes straight to the Newton solve.
    """
    require_coprime_degree(p, d)
    if resolution < 10:
        raise ValueError("resolution must be at least 10")
    n_points = math.comb(resolution + p - 1, p - 1)
    if n_points > LATTICE_GUARD:
        raise GuardError(
            f"density grid has C({resolution}+{p - 1},{p - 1}) = {n_points} points, "
            f"over the guard of {LATTICE_GUARD}"
        )
    types = np.array(list(type_vectors(resolution, p)), dtype=np.int64)
    feasible = _in_cone(types, d, p)
    uniform = np.full(p, 1.0 / p)
    e0 = np.zeros(p)
    e0[0] = 1.0
    cutoff = 2.0 / resolution
    rows: List[Tuple[Tuple[float, ...], float, bool, bool]] = []
    n_excluded = n_infeasible = n_nonconverged = newton_steps = 0
    max_rate = float("-inf")
    argmax: Tuple[float, ...] = ()
    for nv, ok in zip(types / resolution, feasible.tolist()):
        if (
            float(np.linalg.norm(nv - uniform)) < cutoff
            or float(np.linalg.norm(nv - e0)) < cutoff
        ):
            n_excluded += 1
            continue
        density = tuple(nv.tolist())
        if not ok:
            rows.append((density, float("-inf"), False, False))
            n_infeasible += 1
            continue
        sol = _newton(nv, d, p)
        rows.append((density, sol.rate, True, sol.converged))
        newton_steps += sol.steps
        if not sol.converged:
            n_nonconverged += 1
        if sol.rate > max_rate:
            max_rate = sol.rate
            argmax = density
    return GridScanReport(
        d=d,
        p=p,
        resolution=resolution,
        n_points=n_points,
        n_excluded=n_excluded,
        n_infeasible=n_infeasible,
        n_nonconverged=n_nonconverged,
        newton_steps=newton_steps,
        max_rate=max_rate,
        argmax=argmax,
        rows=rows,
    )
