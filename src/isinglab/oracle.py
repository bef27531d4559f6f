"""All-state Ising energies, the ground-set tie rule, and the exhaustive oracle.

This module owns what every solver shares: the basis convention (bit k of
index xi is 1 when spin k is up, s_k = +1; all-down is index 0), the energy
table `all_energies(J, h)` and the tie rule `ground_set(E)`.  The quantum
diagonal and the master-equation energies are this table, and QA, SA, CA,
imaginary time and the oracle take their ground sets from this rule.  The
table splits the spins in two halves (meet in the middle): half-chain
energies plus one matrix product for the cross term, O(2^(n/2) * 2^(n/2))
vectorized work instead of a (2^n, n) spin table.  One kernel writes the
table in row blocks of at most `BLOCK_ENTRIES` energies.  `all_energies`
fills its output block by block, into a caller's array when given one (QA
writes it into the memory of its half phase); `ground_set` applies the tie
rule in blocks through one block-sized buffer.  The oracle has no field, so
the global spin flip leaves every energy unchanged: the complement of index
a | (b << m) is (2^m - 1 - a) | ((2^(n-m) - 1 - b) << m), so row 2^(n-m) - 1 - b
of the table is row b reversed.  The oracle therefore streams only the rows
below the middle, through one reused buffer, keeping a running minimum, the
indices tied with it and the level counts of each block; each count stands
for two states and each tied index i for i and its mirror 2^n - 1 - i.  Its
memory is one block plus the output (the ground set and the histogram), not
the 2^n table.  Only the oracle's reported energy and histogram keys are
rounded to 9 decimals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import validate_coupling_matrix

__all__ = ["SpectrumSummary", "all_energies", "basis_index", "energy_scale",
           "exhaustive_ground_state", "ground_set", "ground_state_projector", "index_spins",
           "spins_table"]

MAX_SPINS = 24  # 2^24 energies; cost guard
ENERGY_DECIMALS = 9  # couplings are small rationals, ties are exact after rounding
BLOCK_ENTRIES = 1 << 17  # energies per row block of the table (1 MiB); bounds the oracle's memory
# The tie rule rounds energy differences, at most twice the scale, at 9 decimals: it scales
# them by 1e9, which stays finite below this
MAX_ENERGY_SCALE = 1e298


@dataclass
class SpectrumSummary:
    """Exact minimum, all minimizers, and the full energy histogram."""

    ground_energy: float
    ground_states: list[np.ndarray]
    histogram: dict[float, int]
    ground_indices: np.ndarray  # sorted basis indices of ground_states
    blocks: int  # row blocks of the streamed half of the energy table


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


def energy_scale(J: np.ndarray, h: np.ndarray | None = None) -> float:
    """(1/2) sum |J_ij| + sum |h_i|, which bounds every |E|; inf when the sum overflows."""
    with np.errstate(over="ignore"):
        return float(0.5 * np.abs(J).sum() + (0.0 if h is None else np.abs(h).sum()))


def _energy_rows(J: np.ndarray, h: np.ndarray | None = None):
    """The energy table as a (2^(n-m), 2^m) array, m = n // 2, written in row blocks.

    Index a | (b << m) is row b, column a of the C-ordered table.  Returns the
    table's shape, the rows of one block, and fill(r0, out), which writes
    rows r0 : r0 + len(out) into `out` and returns it.  Raises ValueError
    before any work when the energy scale (1/2) sum |J_ij| + sum |h_i|, which
    bounds every |E|, exceeds MAX_ENERGY_SCALE.
    """
    scale = energy_scale(J, h)
    if not scale <= MAX_ENERGY_SCALE:
        raise ValueError(f"energy scale (1/2) sum |J_ij| + sum |h_i| = {scale:.3g} "
                         f"exceeds {MAX_ENERGY_SCALE:.0e}")
    n = J.shape[0]
    m = n // 2
    lo = spins_table(m)                      # bits 0..m-1
    hi = spins_table(n - m)                  # bits m..n-1
    cross = -(hi @ J[m:, :m])
    lo_energy = -0.5 * np.einsum("ai,ai->a", lo @ J[:m, :m], lo)
    hi_energy = -0.5 * np.einsum("bi,bi->b", hi @ J[m:, m:], hi)[:, None]
    if h is not None:
        hi_field, lo_field = -(hi @ h[m:])[:, None], lo @ h[:m]

    def fill(r0: int, out: np.ndarray) -> np.ndarray:
        rows = slice(r0, r0 + len(out))
        np.matmul(cross[rows], lo.T, out=out)
        out += lo_energy
        out += hi_energy[rows]
        # The field goes last: equal energies then round to equal floats more
        # often, which keeps the master equation's CA level count small.
        if h is not None:
            out += hi_field[rows] - lo_field
        return out

    # At least two rows: numpy sends a one-row product to gemv, whose sums may round otherwise.
    return (len(hi), len(lo)), max(2, BLOCK_ENTRIES >> m), fill


def all_energies(J: np.ndarray, h: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Energies E(xi) = -(1/2) s.J.s - h.s of all 2^n configurations, by basis index.

    J and h are taken as given (square, shape (n,)); callers validate them.
    The table is written into `out`, a C-contiguous float64 array of 2^n
    entries, when one is given, and returned.
    """
    shape, step, fill = _energy_rows(J, h)
    E = np.empty(shape) if out is None else out.reshape(shape)
    for r0 in range(0, shape[0], step):
        fill(r0, E[r0:r0 + step])
    return E.reshape(-1)


def _ties(E: np.ndarray, minimum: float, out: np.ndarray | None = None) -> np.ndarray:
    """The tie rule: entries of E whose excess over `minimum` rounds to 0 at 9 decimals."""
    d = np.subtract(E, minimum, out)
    return np.round(d, ENERGY_DECIMALS, out=d) == 0.0


def ground_set(E: np.ndarray) -> np.ndarray:
    """Indices of the minimizers of E, ties taken to 9 decimals above the minimum.

    The rule runs in blocks of at most `BLOCK_ENTRIES` against the global
    minimum, through one block-sized buffer, so no table-sized temporary is
    made; it is elementwise, so the indices are those of the whole table.
    """
    E = np.ravel(E)
    minimum = E.min()
    buf = np.empty(min(E.size, BLOCK_ENTRIES))
    return np.concatenate([
        np.flatnonzero(_ties(E[i:i + BLOCK_ENTRIES], minimum, buf[:E.size - i])) + i
        for i in range(0, E.size, BLOCK_ENTRIES)])


def exhaustive_ground_state(J: np.ndarray) -> SpectrumSummary:
    """Enumerate all 2^n configurations and return the exact ground set.

    E(-s) = E(s), so only the rows below the middle of the table are
    streamed, in row blocks: each block keeps the indices within twice the
    tie width of the running minimum, a superset of the final ties because
    the minimum only falls, and adds its level counts, doubled for the
    mirrored half, to the histogram.  A block's levels are keyed by sorting
    its raw energies and rounding only the distinct ones, whose counts are
    then summed by key: rounding is elementwise, so these are the counts of
    the rounded block.  One pass of the tie rule with the global minimum then
    picks the ground states of the half, and their mirrors complete the set.
    """
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    if n > MAX_SPINS:
        raise ValueError(f"exhaustive enumeration guarded to n <= {MAX_SPINS}, got {n}")
    (rows, cols), step, fill = _energy_rows(J)
    half = rows // 2
    buf = np.empty((min(step, half), cols))
    slack = 10.0 ** -ENERGY_DECIMALS  # twice the widest tie: round(d, 9) == 0 needs d <= 5e-10
    minimum = np.inf
    near_idx, near_E, histogram = [], [], {}
    blocks = range(0, half, step)
    for r0 in blocks:
        block = fill(r0, buf[:half - r0]).reshape(-1)
        low = block.min()
        minimum = min(minimum, low)
        if low <= minimum + slack:
            near = np.flatnonzero(block <= minimum + slack)
            near_idx.append(near + r0 * cols)
            near_E.append(block[near])
        block.sort()
        starts = np.flatnonzero(np.concatenate(([True], block[1:] != block[:-1])))
        counts = np.diff(starts, append=block.size)
        levels = np.round(block[starts], ENERGY_DECIMALS)
        levels += 0.0  # -0.0 + 0.0 is 0.0: the zero level keeps one key whatever the block order
        for level, count in zip(levels.tolist(), counts.tolist()):  # levels may share a key
            histogram[level] = histogram.get(level, 0) + 2 * count
    near_E = np.concatenate(near_E)
    ground = np.concatenate(near_idx)[_ties(near_E, minimum)]
    ground = np.concatenate((ground, ((1 << n) - 1 - ground)[::-1]))  # the mirrors lie above
    histogram = dict(sorted(histogram.items()))
    states = [index_spins(int(i), n) for i in ground]
    return SpectrumSummary(next(iter(histogram)), states, histogram, ground, len(blocks))


def ground_state_projector(J: np.ndarray) -> np.ndarray:
    """Sorted basis indices of all minimizers, under the shared basis convention."""
    return exhaustive_ground_state(J).ground_indices
