"""All-state Ising energies, the ground-set tie rule, and the exhaustive oracle.

This module owns what every solver shares: the basis convention (bit k of
index xi is 1 when spin k is up, s_k = +1; all-down is index 0), the energy
table `all_energies(J, h)` and the tie rule `ground_set(E)`.  The quantum
diagonal and the master-equation energies are this table, and QA, SA, CA,
imaginary time and the oracle take their ground sets from this rule.  The
table splits the spins in two halves (meet in the middle): half-chain
energies plus one matrix product for the cross term, O(2^(n/2) * 2^(n/2))
vectorized work instead of a (2^n, n) spin table.  Only the oracle's reported
energy and histogram keys are rounded to 9 decimals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import validate_coupling_matrix

__all__ = ["SpectrumSummary", "all_energies", "basis_index", "exhaustive_ground_state",
           "ground_set", "ground_state_projector", "index_spins", "spins_table"]

MAX_SPINS = 24  # 2^24 energies; cost guard
ENERGY_DECIMALS = 9  # couplings are small rationals, ties are exact after rounding


@dataclass
class SpectrumSummary:
    """Exact minimum, all minimizers, and the full energy histogram."""

    ground_energy: float
    ground_states: list[np.ndarray]
    histogram: dict[float, int]
    ground_indices: np.ndarray  # sorted basis indices of ground_states


def basis_index(s: np.ndarray) -> int:
    """Basis index of a hard-spin configuration (bit k set iff s_k = +1)."""
    s = np.asarray(s)
    bits = (s > 0).astype(np.int64)
    return int(bits @ (1 << np.arange(len(s), dtype=np.int64)))


def index_spins(idx: int, n: int) -> np.ndarray:
    """Spin configuration of a basis index; inverse of :func:`basis_index`."""
    if not 0 <= idx < (1 << n):
        raise ValueError(f"index {idx} out of range for {n} spins")
    bits = (idx >> np.arange(n)) & 1
    return 2.0 * bits - 1.0


def spins_table(n: int) -> np.ndarray:
    """(2^n, n) array whose row xi is the spin configuration of index xi."""
    idx = np.arange(1 << n)
    return 2.0 * ((idx[:, None] >> np.arange(n)[None, :]) & 1) - 1.0


def all_energies(J: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Energies E(xi) = -(1/2) s.J.s - h.s of all 2^n configurations, by basis index.

    J and h are taken as given (square, shape (n,)); callers validate them.
    """
    n = J.shape[0]
    m = n // 2
    lo = spins_table(m)                      # bits 0..m-1
    hi = spins_table(n - m)                  # bits m..n-1
    # index = a | (b << m) is row b, column a of a C-ordered (2^(n-m), 2^m) table
    E = -(hi @ J[m:, :m]) @ lo.T
    E += -0.5 * np.einsum("ai,ai->a", lo @ J[:m, :m], lo)
    E += -0.5 * np.einsum("bi,bi->b", hi @ J[m:, m:], hi)[:, None]
    # The field goes last: equal energies then round to equal floats more
    # often, which keeps the master equation's CA level count small.
    if h is not None:
        E += -(hi @ h[m:])[:, None] - lo @ h[:m]
    return E.reshape(-1)


def ground_set(E: np.ndarray) -> np.ndarray:
    """Indices of the minimizers of E, ties taken to 9 decimals above the minimum."""
    d = E - E.min()
    return np.flatnonzero(np.round(d, ENERGY_DECIMALS, out=d) == 0.0)


def exhaustive_ground_state(J: np.ndarray) -> SpectrumSummary:
    """Enumerate all 2^n configurations and return the exact ground set."""
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    if n > MAX_SPINS:
        raise ValueError(f"exhaustive enumeration guarded to n <= {MAX_SPINS}, got {n}")
    E = all_energies(J)
    ground = ground_set(E)
    values, counts = np.unique(np.round(E, ENERGY_DECIMALS, out=E), return_counts=True)
    histogram = {float(v): int(c) for v, c in zip(values, counts)}
    states = [index_spins(int(i), n) for i in ground]
    return SpectrumSummary(float(values[0]), states, histogram, ground)


def ground_state_projector(J: np.ndarray) -> np.ndarray:
    """Sorted basis indices of all minimizers, under the shared basis convention."""
    return exhaustive_ground_state(J).ground_indices
