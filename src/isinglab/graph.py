"""Mobius-ladder coupling matrices, closed-form spectra, and analytic ground states.

The Mobius ladder on an even number of vertices n couples each vertex i to its
ring neighbors i +- 1 with strength -1 and to the opposite vertex i + n/2 with
strength -j (j > 0).  Both coupling types are antiferromagnetic, so the ring
prefers alternating spins while the cross-circle bonds frustrate the
alternation whenever n/2 is even.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroundStateInfo",
    "SpectralPair",
    "analytic_ground_state",
    "build_mobius_ladder",
    "build_s0",
    "build_s1",
    "ising_energy",
    "j_crit",
    "j_e",
    "load_edge_list",
    "mobius_eigenvalue",
    "mobius_eigenvector",
    "mobius_spectrum",
    "save_edge_list",
    "spectral_pair",
    "validate_coupling_matrix",
    "validate_spins",
]


@dataclass(frozen=True)
class SpectralPair:
    """Eigenvalue/eigenvector pair of a circulant coupling matrix."""

    index: int
    eigenvalue: float
    eigenvector: np.ndarray


@dataclass(frozen=True)
class GroundStateInfo:
    """Closed-form classification of the Ising ground state."""

    label: str  # "S0", "S1", or "tie"
    energy: float
    degeneracy: int


def _check_even_n(n: int) -> None:
    """Raise ValueError unless n is even and >= 4, the smallest Mobius ladder."""
    if n % 2 != 0 or n < 4:
        raise ValueError(f"n must be even and >= 4, got {n}")


def validate_coupling_matrix(J: np.ndarray) -> np.ndarray:
    """Check finite entries, symmetry, zero diagonal and n >= 2; return a float array."""
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError(f"coupling matrix must be square, got shape {J.shape}")
    if J.shape[0] < 2:
        raise ValueError("coupling matrix needs at least two spins")
    if not np.isfinite(J).all():
        raise ValueError("coupling matrix entries must be finite")
    if not np.allclose(J, J.T, atol=1e-12):
        raise ValueError("coupling matrix must be symmetric")
    if np.max(np.abs(np.diag(J))) > 1e-12:
        raise ValueError("coupling matrix must have zero diagonal")
    return J


# One validator per kind of numeric input; NaN fails every check.

def _check_positive(name: str, value) -> None:
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_nonnegative(name: str, value) -> None:
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")


def _check_finite(name: str, value) -> None:
    """A number or an array of them; a list fails, since abs() takes none."""
    if not np.all(abs(value) < np.inf):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_count(name: str, value, least: int) -> None:
    if not value >= least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def validate_spins(s: np.ndarray) -> np.ndarray:
    """Check that every component is exactly +-1; return a float array."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise ValueError("spin configuration must be a 1-d vector")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("spins must be exactly +-1")
    return s


def build_mobius_ladder(n: int, j: float) -> np.ndarray:
    """Build the n x n Mobius-ladder coupling matrix.

    Ring bonds carry -1, cross-circle bonds carry -j.  Requires even n >= 4
    and finite j > 0.
    """
    _check_even_n(n)
    if not 0 < j < np.inf:  # NaN fails too
        raise ValueError(f"cross-circle coupling must be finite and positive, got {j}")
    J = np.zeros((n, n))
    idx = np.arange(n)
    J[idx, (idx + 1) % n] = -1.0
    J[idx, (idx - 1) % n] = -1.0
    J[idx, (idx + n // 2) % n] = -float(j)
    return J


def mobius_eigenvalue(n: int, j: float, k: int) -> float:
    """Closed-form eigenvalue -2 cos(2 pi k / n) - j (-1)^k."""
    _check_even_n(n)
    if not 0 <= k < n:
        raise ValueError(f"mode index k must lie in [0, {n}), got {k}")
    return mobius_spectrum(n, j)[k]


def mobius_spectrum(n: int, j: float) -> np.ndarray:
    """All n closed-form eigenvalues, ordered by mode index k."""
    _check_even_n(n)
    k = np.arange(n)
    return -2.0 * np.cos(2.0 * np.pi * k / n) - j * (-1.0) ** k


def mobius_eigenvector(n: int, k: int) -> np.ndarray:
    """Real eigenvector for mode k: Re + Im of the k-th root-of-unity vector.

    Component i equals cos(2 pi k i / n) + sin(2 pi k i / n).  The vector for
    k = n/2 alternates (1, -1, 1, -1, ...).
    """
    _check_even_n(n)
    if not 0 <= k < n:
        raise ValueError(f"mode index k must lie in [0, {n}), got {k}")
    theta = 2.0 * np.pi * k * np.arange(n) / n
    return np.cos(theta) + np.sin(theta)


def spectral_pair(n: int, j: float, k: int) -> SpectralPair:
    """Eigenvalue and eigenvector for mode k as a single record."""
    return SpectralPair(k, mobius_eigenvalue(n, j, k), mobius_eigenvector(n, k))


def j_crit(n: int) -> float:
    """Coupling where S0 and S1 exchange roles as Ising ground state: 4/n."""
    _check_even_n(n)
    return 4.0 / n


def j_e(n: int) -> float:
    """Coupling where the two largest eigenvalues cross: 1 - cos(2 pi / n)."""
    _check_even_n(n)
    return 1.0 - np.cos(2.0 * np.pi / n)


def ising_energy(J: np.ndarray, s: np.ndarray) -> float:
    """Ising energy -sum_{i<j} J_ij s_i s_j of a hard-spin configuration."""
    J = np.asarray(J, dtype=float)
    s = np.asarray(s, dtype=float)
    if s.shape[-1] != J.shape[0]:
        raise ValueError(
            f"dimension mismatch: {s.shape[-1]} spins vs {J.shape[0]}x{J.shape[1]} couplings"
        )
    return float(-0.5 * s @ J @ s)


def build_s0(n: int) -> np.ndarray:
    """Fully alternating configuration: s_i = (-1)^i."""
    _check_even_n(n)
    return (-1.0) ** np.arange(n)


def build_s1(n: int, i0: int = 0) -> np.ndarray:
    """Two-defect configuration: aligned ring bonds at i0 and i0 + n/2.

    Spins alternate everywhere except across the two diametrically opposite
    ring bonds (i0, i0+1) and (i0+n/2, i0+n/2+1); this is the unique two-defect
    placement that leaves every cross-circle bond satisfied, with energy
    4 - (j + 2) n / 2.  Defined only when n/2 is even.
    """
    _check_even_n(n)
    if (n // 2) % 2 != 0:
        raise ValueError(f"S1 requires n/2 even, got n = {n}")
    if not 0 <= i0 < n:
        raise ValueError(f"defect position i0 must lie in [0, {n}), got {i0}")
    defects = {i0 % n, (i0 + n // 2) % n}
    s = np.ones(n)
    for i in range(n - 1):
        s[i + 1] = s[i] * (1.0 if i in defects else -1.0)
    return s


def analytic_ground_state(n: int, j: float) -> GroundStateInfo:
    """Classify the Ising ground state of the Mobius ladder in closed form.

    S0 wins for n/2 odd (any j > 0) and for j < 4/n otherwise; S1 wins for
    n/2 even and j > 4/n; the two families tie exactly at j = 4/n.
    Degeneracies are counted by symmetry: 2 for S0 (global flip), n for S1
    (n/2 defect-bond placements times global flip).
    """
    _check_even_n(n)
    half_odd = (n // 2) % 2 == 1
    e_s0 = -(j + 2.0) * n / 2.0 if half_odd else (j - 2.0) * n / 2.0
    if half_odd:
        return GroundStateInfo("S0", e_s0, 2)
    e_s1 = 4.0 - (j + 2.0) * n / 2.0
    jc = j_crit(n)
    if abs(j - jc) < 1e-12:
        return GroundStateInfo("tie", e_s0, 2 + n)
    if j < jc:
        return GroundStateInfo("S0", e_s0, 2)
    return GroundStateInfo("S1", e_s1, n)


def save_edge_list(J: np.ndarray, path: str) -> None:
    """Write a coupling matrix as a plain-text edge list.

    Format: header line with n, then one "i j weight" line per nonzero
    upper-triangle entry.  Weights keep 17 significant digits so a round trip
    is faithful to 1e-15 relative error.
    """
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    lines = [str(n)]
    for i in range(n):
        for k in range(i + 1, n):
            if J[i, k] != 0.0:
                lines.append(f"{i} {k} {J[i, k]:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path: str) -> np.ndarray:
    """Read a coupling matrix written by :func:`save_edge_list`."""
    with open(path) as fh:
        raw = [line.strip() for line in fh if line.strip()]
    if not raw:
        raise ValueError(f"empty edge-list file: {path}")
    n = int(raw[0])
    J = np.zeros((n, n))
    for line in raw[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed edge line: {line!r}")
        i, k, w = int(parts[0]), int(parts[1]), float(parts[2])
        J[i, k] = w
        J[k, i] = w
    return validate_coupling_matrix(J)
