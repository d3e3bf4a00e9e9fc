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
exp(<theta, w_j>) and damped Newton iterations drive the moment residual
below tolerance.  One solver moves a stack of densities with one zero
pattern in lock-step, one stacked least-squares call per step, and each
lane gets the bits of a lone solve: a certificate is a stack of one, and a
grid scan solves in stacks of at most NEWTON_LANES.  A closed-form
stationary candidate and the AM-GM upper bound ln(amgm_sum) provide
independent cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .common import GuardError, require_coprime_degree
from .gfp_core import det_bareiss
from .walk_census import LATTICE_GUARD, build_U, over_lattice_guard, type_vectors

try:  # the gufunc behind np.linalg.lstsq, imported here alone
    from numpy.linalg._umath_linalg import lstsq as _LSTSQ
except ImportError as exc:
    msg = f"numpy.linalg._umath_linalg.lstsq (as in NumPy 2.4.6) is missing in NumPy {np.__version__}"
    raise ImportError(msg) from exc

DEFAULT_TOL = 1e-10
MAX_NEWTON_ITER = 200
NEWTON_LANES = 512  # densities per lock-step Newton stack in a grid scan
_EPS = float(np.finfo(float).eps)


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


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(a[i], b[i], rcond=None)[0] for every lane i, from one
    call of its gufunc with the wrapper's rcond, signature and errstate."""
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _LSTSQ(a, b[:, :, None], _EPS * a.shape[-1], signature="ddd->ddid")[0][:, :, 0]


def _lockstep_newton(nv: np.ndarray, d: int, p: int) -> Tuple[np.ndarray, ...]:
    """Damped Newton on the dual at a (B, p) stack of checked, feasible float
    densities sharing one zero pattern, every lane in lock-step.

    Each lane takes exactly the iterations of a lone solve: numpy's stacked
    matmul, row reductions and the lstsq gufunc run the same kernel per lane.
    A lane leaves the stack once it converges, or unconverged once its
    gradient is not finite (a non-finite probability makes it so), since
    lstsq raises or never returns on a NaN; the lanes still live after
    MAX_NEWTON_ITER steps stop together, unconverged.  Per lane it returns
    alpha (per distinct profile), theta, rate, residual, converged, steps.
    """
    w_all, m_all = _atoms(d, p)
    # Support restriction: coordinates with nv_k = 0 force alpha_j = 0 for
    # every atom with w_j(k) > 0, since the atoms are nonnegative.
    keep = ~((w_all > 0) & (nv[0] == 0.0)[None, :]).any(axis=1)
    w, m = w_all[keep], m_all[keep]

    def tilt(th: np.ndarray, tg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Grouped masses m_j exp(<th, w_j> - max) and the dual value, per lane."""
        s = np.matmul(w, th[:, :, None])[:, :, 0]
        c = s.max(axis=1)
        z = m * np.exp(s - c[:, None])
        logs = np.array(list(map(math.log, z.sum(axis=1).tolist())))
        return z, c + logs - np.matmul(th[:, None], tg[:, :, None])[:, 0, 0]

    n, steps = len(nv), 0
    lanes, target, theta = np.arange(n), d * nv, np.zeros((n, p))
    z, g0 = tilt(theta, target)
    prob_at, theta_at = np.empty((n, len(w))), np.empty((n, p))
    residual, converged, steps_at = np.empty(n), np.zeros(n, bool), np.empty(n, int)
    while True:
        prob = z / z.sum(axis=1)[:, None]
        mean = np.matmul(prob[:, None], w)[:, 0]
        grad = mean - target
        err = np.abs(grad).max(axis=1)
        conv = err < DEFAULT_TOL if steps < MAX_NEWTON_ITER else np.zeros(len(err), bool)
        stop = (conv | ~np.isfinite(err)) if steps < MAX_NEWTON_ITER else ~conv
        if np.count_nonzero(stop):
            at = lanes[stop]
            prob_at[at], theta_at[at], residual[at] = prob[stop], theta[stop], err[stop]
            converged[at], steps_at[at] = conv[stop], steps
            if len(at) == len(lanes):
                break
            live = ~stop
            lanes, target, theta, g0 = lanes[live], target[live], theta[live], g0[live]
            prob, mean, grad = prob[live], mean[live], grad[live]
        steps += 1
        hess = np.matmul((w * prob[:, :, None]).transpose(0, 2, 1), w) - mean[:, :, None] * mean[:, None]
        step = _lstsq(hess, -grad)
        slope = np.matmul(grad[:, None], step[:, :, None])[:, 0, 0]
        # Backtrack to sufficient decrease, each lane with its own t from 1; the
        # absolute noise allowance keeps full steps near the optimum, where true
        # dual decrease is below float resolution.  Once t <= 1e-14 the point is
        # taken untested.  The taken point's (z, dual) carry into the next step.
        noise = 1e-15 * (1.0 + np.abs(g0))
        trial = theta + step
        z, g = tilt(trial, target)
        back = g > g0 + 1e-4 * slope + noise
        if np.count_nonzero(back):
            back = np.flatnonzero(back)
            t = np.ones(len(back))
            while len(back):
                t *= 0.5
                trial[back] = theta[back] + t[:, None] * step[back]
                z[back], g[back] = tilt(trial[back], target[back])
                more = (t > 1e-14) & (g[back] > g0[back] + 1e-4 * t * slope[back] + noise[back])
                back, t = back[more], t[more]
        theta, g0 = trial, g

    # Per-atom weights: prob is the grouped mass, each atom in the group
    # carries prob/mult.
    weight = prob_at / m
    entropy = -np.sum(prob_at * np.log(np.where(weight > 0, weight, 1.0)), axis=1)
    density_sum = [sum(x * math.log(x) for x in row if x > 0.0) for row in nv.tolist()]
    alpha = np.zeros((n, len(keep)))
    alpha[:, keep] = weight
    return alpha, theta_at, entropy + (d - 1) * np.array(density_sum), residual, converged, steps_at


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
    alpha, theta, rate, residual, converged, steps = _lockstep_newton(nv_arr[None], d, p)
    return RateCertificate(
        density=density_t,
        alpha=_expand(alpha[0], m_all),
        dual=tuple(theta[0].tolist()),
        rate=float(rate[0]),
        residual=float(residual[0]),
        converged=bool(converged[0]),
        feasible=True,
        newton_steps=int(steps[0]),
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
    test, and the feasible points of each zero pattern are solved in
    lock-step stacks of at most NEWTON_LANES, keeping rate, flag and steps.
    """
    require_coprime_degree(p, d)
    if resolution < 10:
        raise ValueError("resolution must be at least 10")
    if over_lattice_guard(resolution, p - 1):
        raise GuardError(
            f"density grid has C({resolution}+{p - 1},{p - 1}) points, "
            f"over the guard of {LATTICE_GUARD}"
        )
    types = np.array(list(type_vectors(resolution, p)), dtype=np.int64)
    n_points = len(types)
    feasible = _in_cone(types, d, p)
    grid = types / resolution
    # |nv - x| < 2/resolution at x = uniform, e_0, as np.linalg.norm takes it (sqrt of a dot)
    diff = grid - np.array([np.full(p, 1.0 / p), np.eye(p)[0]])[:, None]
    dist = np.sqrt(np.matmul(diff[:, :, None], diff[..., None])[..., 0, 0])
    excluded = (dist < 2.0 / resolution).any(axis=0)
    del diff, dist  # freed before the rows are built: they set the peak memory
    solve, kept = np.flatnonzero(feasible & ~excluded), ~excluded
    rate, converged, steps = np.full(n_points, -np.inf), np.zeros(n_points, bool), np.zeros(n_points, int)
    patterns, group = np.unique(grid[solve] == 0.0, axis=0, return_inverse=True)
    for g in range(len(patterns)):
        members = solve[group == g]
        for part in np.array_split(members, range(NEWTON_LANES, len(members), NEWTON_LANES)):
            _, _, rate[part], _, converged[part], steps[part] = _lockstep_newton(grid[part], d, p)
    densities = zip(*grid[kept].T.tolist())  # one tuple per row, no list per row
    rows = list(zip(densities, rate[kept].tolist(), feasible[kept].tolist(), converged[kept].tolist()))
    max_rate, argmax = float("-inf"), ()
    for density, r, _, _ in rows:
        if r > max_rate:
            max_rate, argmax = r, density
    return GridScanReport(
        d=d,
        p=p,
        resolution=resolution,
        n_points=n_points,
        n_excluded=int(excluded.sum()),
        n_infeasible=int((kept & ~feasible).sum()),
        n_nonconverged=len(solve) - int(converged.sum()),
        newton_steps=int(steps.sum()),
        max_rate=max_rate,
        argmax=argmax,
        rows=rows,
    )
