"""The soft-spin landscape at a fixed pump: branches, critical points, basins, barriers.

Critical points of the soft-spin energy (`softspin.soft_energy`) at a fixed
pump solve dE/dx = 0; their Morse index is the number of negative Hessian
eigenvalues.  All of them come from one batched Newton root-finder,
`_newton_roots`: the E1 branch is one call of it seeded from the
two-amplitude ansatz, and `find_critical_points` runs it once on a batch of
random starts.  Enumeration is sampled, so reported counts carry the start
budget alongside; completeness is checked only in the sense that the known
analytic states are recovered.

The fixed-pump descent behind basin sampling and the barrier search is
gradient flow down to FLOW_TOL that hands over to the same root-finder,
accepting no root above the flow's endpoint.  A descent that lands on a
saddle is kicked off it along the most unstable direction (capped in length,
so a nearly flat saddle is not left far behind) and, like one whose Newton
failed, flows again to a tighter tolerance.  Barriers launch two descents
from each index-1 saddle, one to each side, with that kick; the descents from
all saddles at one pump run as one batch.  Basin minima and critical points
share one catalogue: `_cluster_rows` merges the rows and `_classify` makes
the `CriticalPoint` records.  Every entry point validates its pump,
nonlinearity and couplings by `_check_fixed_pump`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    _check_count,
    _check_finite,
    _check_positive,
    build_mobius_ladder,
    build_s0,
    build_s1,
    validate_coupling_matrix,
)
from .softspin import (
    _gradient_kernel,
    _spin_families,
    soft_energy,
    soft_gradient,
    soft_hessian,
    spin_readout,
)

__all__ = [
    "BarrierResult",
    "BasinSample",
    "BranchSolution",
    "CriticalPoint",
    "DescentBreakdown",
    "RegionMap",
    "barrier_height",
    "basin_descriptors",
    "basin_sample",
    "branch_crossing_pump",
    "branch_e0",
    "branch_e1",
    "critical_point_counts",
    "descent_state_probabilities",
    "find_critical_points",
    "region_map",
]

GRADIENT_TOL = 1e-9  # a Newton root counts as critical below this gradient
NEWTON_TOL = 1e-12  # a Newton row stops below this gradient
NEWTON_ITER = 80  # most Newton steps per row
DEGENERATE_TOL = 1e-8  # Hessian eigenvalues within this of zero count as zero
CERTIFY_MARGIN = 1e-10  # relative margin of the Gershgorin minimum test over eigh's error
ENERGY_TOL = 1e-8  # energies within this of each other count as one level
MATCH_TOL = 1e-4  # infinity-norm distance at which two descent endpoints are one minimum
DEDUP_TOL = 1e-6  # infinity-norm distance at which two Newton roots are one critical point
FLOW_TOL = 1e-3  # the fixed-pump descent hands its flow over to Newton below this gradient
MAX_FLOW_STEPS = 60000
LANDSCAPE_SCALE_MAX = 1e150  # largest landscape scale that the fixed-pump commands accept
KICK_ROUNDS = 3  # retries of a fixed-pump descent that ends off a minimum
KICK_MAX = 0.1  # longest step off a saddle


# ---------------------------------------------------------------------------
# validation, Newton and the analytic branches
# ---------------------------------------------------------------------------

def _start_box(p: float) -> float:
    """Half-width 1 + sqrt(max(p, 0)) of the box that holds every start at pump p."""
    return 1.0 + math.sqrt(max(p, 0.0))  # correctly rounded, so bitwise np.sqrt


def _check_fixed_pump(p: float, c: float, J: np.ndarray) -> None:
    """Raise ValueError unless the landscape of (p, c, J) stays finite.

    p must be finite and c finite and positive.  The box |x_i| <= B with

        B^2 = max(_start_box(p)^2, |p| + n max_ij |J_ij| / c)

    holds every start of `basin_sample` and `find_critical_points` and every
    critical point: at one, c M |M^2 - p| <= n max|J| M for M = max_i |x_i|.
    Over that box each term of the energy, gradient and Hessian is at most
    3 S, with the scale

        S = n (c (|p| + B^2)^2 + n max_ij |J_ij| B^2),

    and S must not exceed LANDSCAPE_SCALE_MAX = 1e150.  That leaves a factor
    above 1e150 below overflow for the iterates that leave the box: a Newton
    step moves a row by at most 2, so its 80 steps raise a term by less than
    161^4 < 1e9.  J is a validated coupling matrix.
    """
    _check_finite("p", p)
    _check_positive("c", c)
    n, p, c = J.shape[0], float(p), float(c)  # Python floats overflow to inf without a warning
    j_max = float(np.abs(J).max())
    box = _start_box(p)
    box2 = max(box * box, abs(p) + n * j_max / c)
    quartic = abs(p) + box2
    scale = n * (c * quartic * quartic + n * j_max * box2)
    if not scale <= LANDSCAPE_SCALE_MAX:  # NaN fails too
        raise ValueError(f"p = {p}, c = {c} and couplings up to {j_max:g} give a landscape "
                         f"scale of {scale:.3g}, above {LANDSCAPE_SCALE_MAX:g}: "
                         f"the energies would overflow")

def _row_max_abs(a: np.ndarray) -> np.ndarray:
    """max_j |a_ij| of each row of a (rows, n): np.max(np.abs(a), axis=1), bitwise.

    numpy reduces a C-ordered (rows, n) array along its short axis one row at
    a time, about 45 ns per row at n = 8; written into an (n, rows) buffer,
    the same maxima are n - 1 elementwise passes over long rows.  A maximum
    is exact in any order, and np.maximum propagates NaN like np.max.
    """
    return np.abs(a.T, out=np.empty(a.shape[::-1])).max(axis=0)


def _newton_roots(J: np.ndarray, p: float, c: float,
                  x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched undamped Newton on dE/dx = 0 from the rows of x0: (x, converged).

    Each step is capped at infinity norm 2.  A row whose gradient is below
    NEWTON_TOL has reached its final x and leaves the batch, so each
    iteration evaluates gradients and solves only for the rows still moving;
    a row whose Hessian is singular leaves it too and is marked inactive.
    converged marks the active rows whose final gradient is below
    GRADIENT_TOL.
    """
    x = x0.copy()
    active = np.ones(len(x), dtype=bool)
    rows = np.arange(len(x))  # the rows still moving
    for _ in range(NEWTON_ITER):
        if len(rows) == 1 < np.count_nonzero(active):
            # numpy multiplies a lone row by J through gemv, which can round
            # differently from a batch's gemm: evaluate it as a pair, as a
            # batch of every active row would
            g = -soft_gradient(x[rows.repeat(2)], p, c, J)[:1]
        else:
            g = -soft_gradient(x[rows], p, c, J)
        done = _row_max_abs(g) < NEWTON_TOL
        if done.all():
            break
        rows = rows[~done]
        g = g[~done]
        H = soft_hessian(x[rows], p, c, J)
        try:
            step = np.linalg.solve(H, -g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # retry rows individually, dropping the singular ones
            step = np.zeros_like(g)
            keep = np.ones(len(step), dtype=bool)
            for r in range(len(step)):
                try:
                    step[r] = np.linalg.solve(H[r], -g[r])
                except np.linalg.LinAlgError:
                    keep[r] = False
            active[rows[~keep]] = False
            rows, step = rows[keep], step[keep]
        del H  # the largest array here: the next iteration's must not be built beside it
        norm = _row_max_abs(step)[:, None]
        x[rows] += step * np.minimum(1.0, 2.0 / np.maximum(norm, 1e-30))
    g = soft_gradient(x, p, c, J)
    return x, active & (_row_max_abs(g) < GRADIENT_TOL)


@dataclass
class BranchSolution:
    """Uniform (E0) or two-amplitude (E1) steady state of the soft-spin flow."""

    branch: str
    exists: bool
    x_l: float = np.nan
    x_b: float = np.nan
    energy: float = np.nan
    amplitudes: np.ndarray | None = None


def branch_e0(p: float, j: float, n: int, c: float = 1.0) -> BranchSolution:
    """Uniform-amplitude steady state X = sqrt(p + (2 - j)/c) on the S0 pattern.

    Absent below the bifurcation pump p = (j - 2)/c.
    """
    J = build_mobius_ladder(n, j)
    _check_fixed_pump(p, c, J)
    X2 = p + (2.0 - j) / c
    if X2 < 0.0:
        return BranchSolution("E0", False)
    X = float(np.sqrt(X2))
    x = build_s0(n) * X
    return BranchSolution("E0", True, x_l=X, x_b=X, energy=soft_energy(x, p, c, J), amplitudes=x)


def branch_e1(p: float, j: float, n: int, c: float = 1.0) -> BranchSolution:
    """Two-amplitude steady state on the S1 pattern (four low, rest high spins).

    One call of the shared Newton root-finder, seeded from the two-amplitude
    ansatz; the root is the branch when it keeps the ansatz's sign pattern,
    is not the origin and is a local minimum (smallest Hessian eigenvalue
    >= -DEGENERATE_TOL).  x_l is the mean magnitude on the four
    defect-adjacent nodes, x_b the mean over the rest (x_l when none remain,
    n = 4).  Needs n/2 even; returns an absent branch otherwise or when no
    such root is found.
    """
    J = build_mobius_ladder(n, j)
    _check_fixed_pump(p, c, J)
    if (n // 2) % 2 != 0:
        return BranchSolution("E1", False)
    x_b0 = np.sqrt(max(p + (2.0 + j) / c, 0.05))
    low = np.zeros(n, dtype=bool)
    low[[0, 1, n // 2, n // 2 + 1]] = True  # the four defect-adjacent nodes of S1
    seed = build_s1(n) * np.where(low, 0.6 * x_b0, x_b0)
    roots, ok = _newton_roots(J, p, c, seed[None, :])
    x = roots[0]
    if not (ok[0] and np.array_equal(np.sign(x), np.sign(seed))
            and np.min(np.abs(x)) > 1e-10  # Newton's near-origin residue keeps the signs
            and np.linalg.eigvalsh(soft_hessian(x, p, c, J))[0] >= -DEGENERATE_TOL):
        return BranchSolution("E1", False)
    mags = np.abs(x)
    x_l = float(np.mean(mags[low]))
    return BranchSolution(
        "E1", True,
        x_l=x_l,
        x_b=float(np.mean(mags[~low])) if (~low).any() else x_l,
        energy=soft_energy(x, p, c, J),
        amplitudes=x,
    )


def _branch_gap(p: float, j: float, n: int, c: float) -> float:
    """E0 - E1 branch energy at pump p: -inf with only E0, +inf with only E1, NaN with neither."""
    e0 = branch_e0(p, j, n, c)
    e1 = branch_e1(p, j, n, c)
    if not e1.exists:
        return -np.inf if e0.exists else np.nan
    return e0.energy - e1.energy if e0.exists else np.inf


def branch_crossing_pump(j: float, n: int, c: float = 1.0,
                         p_lo: float = -1.5, p_hi: float = 1.0) -> float | None:
    """Pump value where the E0 and E1 branch energies cross, or None."""
    grid = np.linspace(p_lo, p_hi, 61)
    vals = np.array([_branch_gap(p, j, n, c) for p in grid])
    ok = np.isfinite(vals)
    for a, b, fa, fb in zip(grid[ok][:-1], grid[ok][1:], vals[ok][:-1], vals[ok][1:]):
        if fa == 0.0:
            return float(a)
        if fa * fb < 0.0:
            from scipy.optimize import brentq  # loaded on first use, not at package import

            return float(brentq(_branch_gap, a, b, args=(j, n, c), xtol=1e-12))
    return None


@dataclass
class RegionMap:
    """Global-minimum classification over a (j, p) grid.

    labels[i, k] is 0 where neither branch exists, 1 where the uniform E0
    branch is the lower of the two, 2 where the two-amplitude E1 branch wins.
    crossings holds (j, p*) pairs of the equal-energy contour.
    """

    j_grid: np.ndarray
    p_grid: np.ndarray
    labels: np.ndarray
    crossings: list


def region_map(j_grid, p_grid, n: int, c: float = 1.0) -> RegionMap:
    """Pointwise comparison of branch energies over a parameter grid."""
    j_grid = np.asarray(j_grid, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    if j_grid.size == 0 or p_grid.size == 0:
        raise ValueError("region map grids must be nonempty")
    labels = np.zeros((j_grid.size, p_grid.size), dtype=int)
    crossings = []
    for i, j in enumerate(j_grid):
        for k, p in enumerate(p_grid):
            gap = _branch_gap(p, j, n, c)
            if not np.isnan(gap):  # where neither branch exists, the label stays 0
                labels[i, k] = 1 if gap <= 0.0 else 2
        pc = branch_crossing_pump(j, n, c, p_grid.min(), p_grid.max())
        if pc is not None:
            crossings.append((float(j), pc))
    return RegionMap(j_grid, p_grid, labels, crossings)


# ---------------------------------------------------------------------------
# the fixed-pump descent and the catalogue of critical points
# ---------------------------------------------------------------------------

def _flow_into_basin(J: np.ndarray, p: float, c: float, x: np.ndarray, tol: float) -> None:
    """Euler gradient flow of the rows x (rows, n) in place until every row's gradient is below tol.

    Like the ensemble step, it writes the gradient into reused buffers; the
    kernel runs on `.T` views, as in :func:`soft_gradient`.  The step dt
    keeps the flow stable up to amplitudes half a unit outside the start box.
    """
    box = _start_box(p)
    curvature = c * (3.0 * (box + 0.5) ** 2 + abs(p)) + np.sum(np.abs(J), axis=1).max()
    dt = min(0.1, 1.5 / curvature)
    g, work = np.empty_like(x), np.empty_like(x)
    gradient = _gradient_kernel(x.T, c, J, g.T, work.T)
    for _ in range(MAX_FLOW_STEPS):
        gradient(p)
        if np.abs(g, work).max() < tol:
            break
        np.multiply(g, dt, g)
        np.add(x, g, x)


def _saddle_kick(vals: np.ndarray, vecs: np.ndarray, tol: float) -> np.ndarray:
    """Step along the most unstable eigenvector of Hessians with eigh pairs (vals, vecs).

    Its length 10 tol / |lambda_min| puts the gradient after the step above a
    flow tolerance tol, so a flow to tol moves away from the saddle; it is
    capped at KICK_MAX so that a nearly flat saddle is not left far behind.
    """
    return np.minimum(10.0 * tol / np.abs(vals[..., :1]), KICK_MAX) * vecs[..., 0]


def _certified_minima(J: np.ndarray, p: float, c: float, x: np.ndarray) -> np.ndarray:
    """Mask of the rows of x (rows, n) that the Gershgorin bound shows to be minima.

    The bound min_i (H_ii - sum_{j != i} |H_ij|) is taken on the matrix that
    `np.linalg.eigh` reads: the lower triangle of `soft_hessian`, mirrored.
    A row passes when the bound clears -DEGENERATE_TOL by
    CERTIFY_MARGIN max(1, ||H||_inf).  Its verdict is then the one eigh's
    smallest eigenvalue would give: the exact eigenvalue is at least the
    bound, eigh's lies within its backward error of it (about
    8 eps ||H||_2 <= 8 eps ||H||_inf at n = 8), and the bound's own rounding
    is a few eps ||H||_inf, while the margin is over 1e4 times both.  A row
    that fails is not known to be a saddle; eigh decides it.
    """
    low = np.abs(np.tril(J, -1))
    radius = (low.sum(axis=1) + low.sum(axis=0))[:, None]
    diag = np.square(x.T, out=np.empty(x.shape[::-1]))  # spin-major: reduce along the long axis
    np.multiply(diag, 3.0, diag)
    np.subtract(diag, p, diag)
    np.multiply(diag, c, diag)
    np.subtract(diag, np.diag(J)[:, None], diag)
    lower = (diag - radius).min(axis=0)
    norm = (np.abs(diag, diag) + radius).max(axis=0)
    return lower >= -DEGENERATE_TOL + CERTIFY_MARGIN * np.maximum(norm, 1.0)


def _descend_batch(J: np.ndarray, p: float, c: float, x0: np.ndarray):
    """The fixed-pump descent of the rows of x0: (x, converged).

    A Newton root from the flow's endpoint counts only if Newton converged
    without climbing above that endpoint's energy; it is a minimum when its
    smallest Hessian eigenvalue is at least -DEGENERATE_TOL, which the
    Gershgorin bound of `_certified_minima` settles for most minima without
    an `eigh`.  Rows without a minimum descend again, up to KICK_ROUNDS
    times, with a flow tolerance 1000 times tighter: from the flow's
    endpoint, or from a saddle kicked (`_saddle_kick`) to the side its flow
    came from.  converged marks the rows resting at a minimum.
    """
    x = np.asarray(x0, dtype=float).copy()
    converged = np.zeros(len(x), dtype=bool)
    rows = np.arange(len(x))
    tol = FLOW_TOL
    for attempt in range(KICK_ROUNDS + 1):
        xs = x[rows]
        _flow_into_basin(J, p, c, xs, tol)
        roots, ok = _newton_roots(J, p, c, xs)
        ok &= soft_energy(roots, p, c, J) <= soft_energy(xs, p, c, J) + 1e-12
        solved = np.flatnonzero(ok)
        # a certified row passes eigh's test below too: its bound clears the
        # test by a margin above eigh's backward error (`_certified_minima`)
        certified = _certified_minima(J, p, c, roots[solved])
        check = solved[~certified]
        vals, vecs = np.linalg.eigh(soft_hessian(roots[check], p, c, J))
        at_min = vals[:, 0] >= -DEGENERATE_TOL
        done = np.zeros(len(rows), dtype=bool)
        done[solved[certified]] = True
        done[check[at_min]] = True
        x[rows[done]] = roots[done]
        converged[rows[done]] = True
        if attempt == KICK_ROUNDS or done.all():
            break
        tol *= 1e-3
        saddle = check[~at_min]
        step = _saddle_kick(vals[~at_min], vecs[~at_min], tol)
        back = np.einsum("bi,bi->b", xs[saddle] - roots[saddle], step) < 0.0
        xs[saddle] = roots[saddle] + np.where(back[:, None], -step, step)
        x[rows[~done]] = xs[~done]
        rows = rows[~done]
    return x, converged

@dataclass
class CriticalPoint:
    """One critical point at a fixed pump with its Hessian classification."""

    x: np.ndarray
    energy: float
    index: int
    distance_from_origin: float
    degenerate: bool
    family: str
    is_ground: bool = False  # index 0 and within ENERGY_TOL of the lowest such point


def _cluster_rows(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy clustering at infinity-norm distance tol: (representative rows, label per row).

    Rows are assumed polished far tighter than tol, so a rounding key at
    10 tol groups most repeats: every row takes the label of the first row
    with its key.  Those first rows, in order, join the earliest
    representative within tol or become one themselves.
    """
    keys = np.round(points / (10.0 * tol)).astype(np.int64)
    order = np.lexsort(keys.T)  # stable: each run of equal keys starts at its first row
    sorted_keys = keys[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    first = order[starts]
    inverse = np.empty(len(order), dtype=int)
    inverse[order] = np.cumsum(starts) - 1
    key_labels = np.empty(len(first), dtype=int)
    reps: list[int] = []
    for k in np.argsort(first):
        x = points[first[k]]
        near = np.flatnonzero(np.max(np.abs(x - points[reps]), axis=1) < tol)
        if len(near):
            key_labels[k] = near[0]
        else:
            key_labels[k] = len(reps)
            reps.append(first[k])
    return points[reps], key_labels[inverse]


def _classify(J: np.ndarray, p: float, c: float, reps: np.ndarray) -> list[CriticalPoint]:
    """A CriticalPoint for each row of reps, in order, from one batched eigvalsh."""
    points = []
    families = _spin_families(spin_readout(reps))
    for x, evals, family in zip(reps, np.linalg.eigvalsh(soft_hessian(reps, p, c, J)), families):
        points.append(CriticalPoint(
            x=x,
            energy=float(soft_energy(x, p, c, J)),
            index=int(np.sum(evals < -DEGENERATE_TOL)),
            distance_from_origin=float(np.linalg.norm(x)),
            degenerate=bool(np.any(np.abs(evals) < DEGENERATE_TOL)),
            family=family,
        ))
    e_min = min((cp.energy for cp in points if cp.index == 0), default=np.inf)
    for cp in points:
        cp.is_ground = cp.index == 0 and abs(cp.energy - e_min) < ENERGY_TOL
    return points


# ---------------------------------------------------------------------------
# basins of attraction
# ---------------------------------------------------------------------------

def basin_descriptors(x):
    """Mean magnetization m and cyclic neighbor correlation of the fluctuations.

    Broadcasts over the leading axes of x (arrays of m and correlation);
    one row gives two floats.  The correlation is nan where the fluctuation
    variance vanishes (all components equal), where it is undefined.
    """
    x = np.asarray(x, dtype=float)
    m = np.mean(x, axis=-1)
    d = x - m[..., None]
    denom = np.sum(d * d, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.sum(d * np.roll(d, -1, axis=-1), axis=-1) / denom
    corr = np.where(denom > 1e-12, corr, np.nan)
    return (float(m), float(corr)) if x.ndim == 1 else (m, corr)


@dataclass
class BasinSample:
    m: np.ndarray
    xcorr: np.ndarray
    labels: np.ndarray          # index into minima, -1 for unresolved
    minima: list
    unresolved: int
    samples: int


def basin_sample(J: np.ndarray, p: float, c: float, samples: int, seed: int = 0) -> BasinSample:
    """Descend from uniform random starts in [-1, 1]^n and label the minima reached.

    Each start is characterized by its magnetization and cyclic correlation.
    Converged endpoints are clustered at MATCH_TOL into the distinct minima;
    non-converged descents count as unresolved (label -1).
    """
    J = validate_coupling_matrix(J)
    _check_fixed_pump(p, c, J)
    _check_count("samples", samples, 1)
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, J.shape[0]))
    m, xcorr = basin_descriptors(x0)
    xf, converged = _descend_batch(J, p, c, x0)
    labels = np.full(samples, -1, dtype=int)
    reps, labels[converged] = _cluster_rows(xf[converged], MATCH_TOL)
    return BasinSample(
        m=m,
        xcorr=xcorr,
        labels=labels,
        minima=_classify(J, p, c, reps),
        unresolved=int((~converged).sum()),
        samples=samples,
    )


@dataclass
class DescentBreakdown:
    """Fixed-pump descent statistics: which soft minimum each start reaches.

    sp[key] holds the reached fraction for "SP_0" (uniform S0 state), "SP_1"
    (the two-amplitude S1 state), "SP_2" (the next two-defect state family),
    "other" and "unresolved".
    """

    sp: dict
    counts: dict
    minima: list
    samples: int


def descent_state_probabilities(J: np.ndarray, p: float, c: float, samples: int,
                                seed: int = 0) -> DescentBreakdown:
    """Pure gradient descent at fixed pump from random starts in [-1, 1]^n."""
    result = basin_sample(J, p, c, samples, seed)
    counts = {"SP_0": 0, "SP_1": 0, "SP_2": 0, "other": 0, "unresolved": result.unresolved}
    sp2_energy = min((m.energy for m in result.minima if m.family.startswith("2-defect")),
                     default=None)
    reached = np.bincount(result.labels[result.labels >= 0], minlength=len(result.minima))
    for m, k in zip(result.minima, reached.tolist()):  # k starts reach minimum m
        sp2 = m.family.startswith("2-defect") and abs(m.energy - sp2_energy) < ENERGY_TOL
        counts[{"S0": "SP_0", "S1": "SP_1"}.get(m.family, "SP_2" if sp2 else "other")] += k
    sp = {k: v / samples for k, v in counts.items()}
    return DescentBreakdown(sp=sp, counts=counts, minima=result.minima, samples=samples)


# ---------------------------------------------------------------------------
# critical points and barriers
# ---------------------------------------------------------------------------

def find_critical_points(J: np.ndarray, p: float, c: float,
                         starts: int = 4000, seed: int = 0) -> list[CriticalPoint]:
    """Multistart Newton search for critical points, deduplicated and classified.

    Starts are uniform in the box [-B, B]^n, B = `_start_box(p)`; the origin
    is always included (it is critical for every p).  The found set is closed
    under the global sign flip and clustered at DEDUP_TOL; the records are
    the catalogue's, as for basin minima, sorted by (index, energy).
    """
    J = validate_coupling_matrix(J)
    _check_fixed_pump(p, c, J)
    _check_count("starts", starts, 1)
    n, half = J.shape[0], _start_box(p)
    x0 = np.random.default_rng(seed).uniform(-half, half, size=(starts, n))
    x0 = np.vstack([np.zeros((1, n)), x0])  # rebound, so the draws are freed before Newton
    x, ok = _newton_roots(J, p, c, x0)
    converged = np.vstack([x[ok], -x[ok]])  # -x is critical whenever x is
    points = _classify(J, p, c, _cluster_rows(converged, DEDUP_TOL)[0])
    points.sort(key=lambda cp: (cp.index, cp.energy))
    return points


def critical_point_counts(J: np.ndarray, p_grid, c: float,
                          starts: int | None = None, seed: int = 0):
    """Counts of critical points by Hessian index over a pump grid.

    The default start budget is 200 * 2^min(n, 10); counts are sampled (a
    lower bound), so the budget is returned with each row.
    """
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    budget = starts if starts is not None else 200 * 2 ** min(n, 10)
    rows = []
    for p in np.asarray(p_grid, dtype=float):
        points = find_critical_points(J, p, c, starts=budget, seed=seed)
        by_index: dict[int, int] = {}
        for cp in points:
            by_index[cp.index] = by_index.get(cp.index, 0) + 1
        rows.append({"p": float(p), "counts": by_index, "total": len(points),
                     "starts": budget})
    return rows


@dataclass
class BarrierResult:
    """Energy barrier between the uniform (S0) and two-amplitude (S1) minima."""

    found: bool
    barrier: float = np.nan          # saddle energy minus the S1 minimum energy
    e0_minus_e1: float = np.nan
    saddle_energy: float = np.nan
    saddle_x: np.ndarray | None = None


def barrier_height(J: np.ndarray, p: float, c: float,
                   starts: int = 4000, seed: int = 0) -> BarrierResult:
    """Height of the lowest index-1 saddle connecting the S0 and S1 minima.

    A saddle connects the two minima when the two descents launched from it
    by the saddle kick, one to each side along its unstable direction,
    terminate at one minimum of each family (matched at infinity-norm
    distance MATCH_TOL).  The descents of every index-1 saddle run as one
    `_descend_batch` call, and the lowest connecting saddle is kept.
    Returns a flagged absent result when either minimum is missing or no
    connecting saddle is found within the start budget.
    """
    points = find_critical_points(J, p, c, starts=starts, seed=seed)
    e0, e1 = ([cp for cp in points if cp.index == 0 and cp.family == f] for f in ("S0", "S1"))
    if not e0 or not e1:
        return BarrierResult(False)
    e1_energy = min(cp.energy for cp in e1)
    e0_minus_e1 = min(cp.energy for cp in e0) - e1_energy

    def hits(end, minima):
        return any(np.max(np.abs(end - cp.x)) < MATCH_TOL for cp in minima)

    best = None
    saddles = [cp for cp in points if cp.index == 1]  # sorted by energy: the first hit is the lowest
    if saddles:
        xs = np.array([cp.x for cp in saddles])
        step = _saddle_kick(*np.linalg.eigh(soft_hessian(xs, p, c, J)), FLOW_TOL)
        n = xs.shape[1]
        kicked = np.stack([xs + step, xs - step], axis=1).reshape(-1, n)  # saddle k: rows 2k, 2k + 1
        ends, ok = _descend_batch(J, p, c, kicked)
        pairs = zip(saddles, ends.reshape(-1, 2, n), ok.reshape(-1, 2).all(axis=1))
        for cp, (a, b), both in pairs:
            if both and ((hits(a, e0) and hits(b, e1)) or (hits(a, e1) and hits(b, e0))):
                best = cp
                break
    if best is None:
        return BarrierResult(False, e0_minus_e1=e0_minus_e1)
    return BarrierResult(True, barrier=best.energy - e1_energy, e0_minus_e1=e0_minus_e1,
                         saddle_energy=best.energy, saddle_x=best.x)
