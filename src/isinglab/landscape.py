"""Critical points of the soft-spin energy: enumeration, Hessian classes, barriers.

Critical points solve dE/dx = 0; their Morse index is the number of negative
Hessian eigenvalues.  Enumeration is sampled: multistart runs of softspin's
batched Newton root-finder, the same one that solves the E1 branch, so
reported counts carry the start budget alongside; completeness is checked
only in the sense that the known analytic states are recovered.  Barriers
launch two of softspin's fixed-pump descents from each index-1 saddle, one to
each side, with the kick that descent gives a row landing on a saddle
(capped in length, so a nearly flat saddle is not left far behind).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import validate_coupling_matrix
from .softspin import (
    DEDUP_TOL,
    FLOW_TOL,
    MATCH_TOL,
    CriticalPoint,
    _check_fixed_pump,
    _classify,
    _cluster_rows,
    _descend_batch,
    _newton_roots,
    _saddle_kick,
    soft_hessian,
)

__all__ = [
    "BarrierResult",
    "CriticalPoint",
    "barrier_height",
    "critical_point_counts",
    "find_critical_points",
]


def find_critical_points(J: np.ndarray, p: float, c: float,
                         starts: int = 4000, seed: int = 0) -> list[CriticalPoint]:
    """Multistart Newton search for critical points, deduplicated and classified.

    Starts are uniform in the box [-(1 + sqrt(max(p, 0))), +...]^n; the origin
    is always included (it is critical for every p).  The found set is closed
    under the global sign flip and clustered at DEDUP_TOL; the records are
    softspin's, as for basin minima, sorted by (index, energy).
    """
    J = validate_coupling_matrix(J)
    _check_fixed_pump(p, c)
    if starts < 1:
        raise ValueError("starts must be >= 1")
    n = J.shape[0]
    half = 1.0 + np.sqrt(max(p, 0.0))
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-half, half, size=(starts, n))
    x0 = np.vstack([np.zeros((1, n)), x0])
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
    distance MATCH_TOL).  Returns a flagged absent result when either
    minimum is missing or no connecting saddle is found within the start
    budget.
    """
    points = find_critical_points(J, p, c, starts=starts, seed=seed)
    minima = [cp for cp in points if cp.index == 0]
    e0 = [cp for cp in minima if cp.family == "S0"]
    e1 = [cp for cp in minima if cp.family == "S1"]
    if not e0 or not e1:
        return BarrierResult(False)
    e0_energy = min(cp.energy for cp in e0)
    e1_energy = min(cp.energy for cp in e1)
    targets0 = [cp.x for cp in e0]
    targets1 = [cp.x for cp in e1]

    def hits(end, targets):
        return any(np.max(np.abs(end - t)) < MATCH_TOL for t in targets)

    best = None
    for cp in points:  # sorted by (index, energy): the first connecting saddle is the lowest
        if cp.index != 1:
            continue
        step = _saddle_kick(*np.linalg.eigh(soft_hessian(cp.x, p, c, J)), FLOW_TOL)
        (a, b), ok = _descend_batch(J, p, c, cp.x + np.array([step, -step]))
        if not ok.all():
            continue
        if (hits(a, targets0) and hits(b, targets1)) or (hits(a, targets1) and hits(b, targets0)):
            best = cp
            break
    if best is None:
        return BarrierResult(False, e0_minus_e1=e0_energy - e1_energy)
    return BarrierResult(
        True,
        barrier=best.energy - e1_energy,
        e0_minus_e1=e0_energy - e1_energy,
        saddle_energy=best.energy,
        saddle_x=best.x,
    )
