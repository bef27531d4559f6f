"""Full state-vector quantum annealing of the transverse-field Ising model.

The Hamiltonian is H(t) = H_D - gamma(t) sum_k Sx_k with diagonal part
H_D(xi) = -(1/2) sum_{i != j} J_ij s_i s_j - sum_i h_i s_i, using Pauli
operators with eigenvalues +-1 so the diagonal coincides with the classical
Ising energy used everywhere else.  Time stepping is a second-order Strang
splitting: half step of the diagonal phase, one full transverse rotation with
the analytically integrated angle, then another half phase step.

QA runs in a real-rotation frame.  With D = diag(1, i) on every spin,
exp(i theta Sx) = D R(theta) D^dagger, R(theta) = [[cos, -sin], [sin, cos]]
real, and D commutes with the diagonal phases, so phi = D^dagger psi evolves
as phi <- half R(theta)^(x)n half phi.  D multiplies amplitude xi by
i^popcount(xi), exactly; `_frame` turns the uniform start into phi and the
final phi back into psi.  The rotation is applied four spins at a time: over
m spins it is one real 2^m x 2^m matrix whose entry (a, b) is
cos^(m-d) sin^d (-1)^popcount(~a & b), d the Hamming distance of a and b.
Every group above the lowest multiplies the complex state's float64 view,
real and imaginary parts side by side, so it is a real matrix product with
half the work of a complex one; n/4 products in all.
Imaginary time mixes with exp(theta Sx)^(x)m, entries cosh^(m-d) sinh^d,
through the same step and one table builder, `_mixer_tables`.

The sampled single-spin observables are read from one 2^m x 2^m Gram
matrix G = X X^H per group of m spins: prob_up from its diagonal, each
spin's cross term from a fixed sum of off-diagonal entries.  Populations
and |cross| are the same in both frames, so samples read phi directly.
A single spin's reduced density matrix is the same Gram matrix at m = 1.
G is summed over slabs of psi of at most CHUNK_BYTES, each conjugated into
one slab-sized buffer: bitwise the whole-conjugate G when psi is one slab
(n <= 16), within 1e-14 above.

QA and imaginary time walk the fixed-step clock of :mod:`isinglab.steps`
and share one split evolution, `_split_evolution`, whose step is
blocked for the cache: one pass over the state applies the leading half
phase and every group of spins that lies inside a CHUNK_BYTES chunk, chunk
by chunk, and each group above the chunk takes one more pass, the last with
the trailing half phase.  At n = 20 that is two passes where an unblocked
step makes seven (QA: spins 0-15 inside 1 MiB chunks, 16-19 above).

QA and imaginary time hold two state-sized arrays, psi and the half-step
factors, plus O(CHUNK_BYTES) of work space, from set-up through every
sample.  `_diagonal_factors` writes the energy table into the factors' own
memory (the first half of QA's complex array) and turns it into the
factors in place, psi is made after them, and one chunk of scratch serves
the steps and, in QA, the samples' conjugate slabs: 33 MiB at n = 20 for
QA, 17 MiB for imaginary time.

The basis convention (bit k of index xi set when spin k is up), the
all-state energy table behind the diagonal and the ground-set tie rule are
owned by :mod:`isinglab.oracle`; this module re-exports `basis_index`,
`index_spins`, `spins_table` and `ground_set` from there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph import _check_finite, validate_coupling_matrix
from .oracle import all_energies, basis_index, energy_scale, ground_set, index_spins, spins_table
from .steps import _fixed_steps, _time_grid

__all__ = [
    "BlochVector",
    "QAConfig",
    "QARun",
    "QuantumState",
    "basis_index",
    "bloch_vector",
    "build_diagonal",
    "gamma",
    "ground_set",
    "ground_state_probability",
    "index_spins",
    "initial_state",
    "instantaneous_ground_overlap",
    "load_state",
    "reduced_density_matrix",
    "run_qa",
    "save_state",
    "spins_table",
    "strang_step",
    "symmetry_breaking_field",
    "transverse_angle",
]

MAX_QUBITS = 20  # 2^20 complex amplitudes; memory guard for run_qa
MAX_DENSE_QUBITS = 12  # guard for instantaneous eigensolves
_BLOCK_SPINS = 4  # spins mixed by one matrix product in the transverse rotation
CHUNK_BYTES = 1 << 20  # state bytes the split step mixes while they are in cache: 1 MiB


@dataclass
class QuantumState:
    """State vector of n spins (2^n complex amplitudes) at time t."""

    amplitudes: np.ndarray
    t: float = 0.0

    @property
    def n(self) -> int:
        return int(round(np.log2(self.amplitudes.size)))

    def norm_error(self) -> float:
        return abs(float(np.vdot(self.amplitudes, self.amplitudes).real) - 1.0)


@dataclass
class QAConfig:
    """Annealing-schedule and integration parameters.

    gamma(t) = b / sqrt(t + t0); h is an optional longitudinal field vector.
    Raises ValueError for a bad grid or schedule, and when the largest
    transverse angle 2b(sqrt(t_end + t0) - sqrt(t0)) or the largest field
    gamma(0) = b / sqrt(t0) overflows.
    """

    b: float = 5.0
    t0: float = 0.5
    dt: float = 0.1
    t_end: float = 500.0
    h: np.ndarray | None = None
    sample_every: int = 10

    def __post_init__(self):
        # b = 0 is allowed: it disables the transverse drive (pure phase evolution)
        if not (0.0 <= self.b < np.inf and 0.0 < self.t0 < np.inf):  # NaN fails too
            raise ValueError(f"b must be finite and >= 0 and t0 finite and positive, "
                             f"got b = {self.b}, t0 = {self.t0}")
        _time_grid(self.dt, self.t_end, self.sample_every)  # a bad grid fails here, not mid-sweep
        # Python floats overflow to inf without a warning; the steps' angles and the sampled
        # gammas are no larger than these, computed in the same order
        b, t0 = float(self.b), float(self.t0)
        angle = 2.0 * b * (math.sqrt(self.t_end + t0) - math.sqrt(t0))
        if not (angle < math.inf and b / math.sqrt(t0) < math.inf):
            raise ValueError(f"the transverse angle 2b(sqrt(t_end + t0) - sqrt(t0)) or the field "
                             f"b / sqrt(t0) overflows: b = {self.b}, t0 = {self.t0}, "
                             f"t_end = {self.t_end}")


@dataclass
class BlochVector:
    u: float
    v: float
    w: float

    @property
    def magnitude(self) -> float:
        return float(np.sqrt(self.u**2 + self.v**2 + self.w**2))


def build_diagonal(J: np.ndarray, h: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Classical energies E(xi) = H_I(xi) - sum_i h_i s_i for every basis state.

    The table is written into `out`, a C-contiguous float64 array of 2^n
    entries, when one is given.  Raises ValueError for a field of the wrong
    shape or with a non-finite entry.
    """
    J = np.asarray(J, dtype=float)
    if J.shape != (1, 1):  # a single spin has no coupling to validate
        J = validate_coupling_matrix(J)
    n = J.shape[0]
    _check_qubits(n)
    if h is not None:
        h = np.asarray(h, dtype=float)
        if h.shape != (n,):
            raise ValueError(f"field must have shape ({n},), got {h.shape}")
        _check_finite("field", h)
    return all_energies(J, h, out)


def _check_qubits(n: int) -> None:
    if n > MAX_QUBITS:
        raise ValueError(f"diagonal for n = {n} exceeds the {MAX_QUBITS}-spin guard")


def _check_half_phase(J: np.ndarray, h: np.ndarray | None, dt: float) -> None:
    """Raise ValueError when dt times the energy scale overflows.

    That product bounds 0.5 dt |E| in QA's half phase and 0.5 dt (E - min E)
    in imaginary time's, which would otherwise overflow into a NaN state or
    warnings.  Call it after `build_diagonal`, which bounds the scale itself.
    """
    scale = energy_scale(J, h)
    if not float(dt) * scale < math.inf:  # Python floats overflow to inf without a warning
        raise ValueError(f"the half phase overflows: dt = {dt} times the energy scale "
                         f"{scale:.3g} is not finite")


def _diagonal_factors(J: np.ndarray, h: np.ndarray | None, dt: float,
                      rotation: bool) -> tuple[np.ndarray, np.ndarray]:
    """(factors, ground): the half-step diagonal factors of a split evolution and the ground set.

    rotation gives QA's complex phases exp(-0.5i dt E), otherwise imaginary
    time's decay factors exp(-0.5 dt (E - min E)).  The factors' array is
    the only state-sized one: `build_diagonal` writes the energy table into
    its first 8 * 2^n bytes (all of a real array's), the ground set is read
    off the table, and the table then becomes the factors in place.  QA's
    complex factors take twice the table's bytes, so they are made one
    block at a time from the last block to the first: block b's destination
    covers table blocks 2b and 2b + 1, already read for b >= 1, and block 0
    goes through its own temporary.  Each block is the product and exp of
    the whole-array expression, elementwise, so the factors are bitwise the
    same.
    """
    n = len(J)
    _check_qubits(n)  # before the 2^n allocation
    factors = np.empty(1 << n, complex if rotation else float)
    E = build_diagonal(J, h, factors.view(np.float64)[:factors.size])
    _check_half_phase(J, h, dt)
    ground = ground_set(E)
    if rotation:
        block = CHUNK_BYTES // factors.itemsize
        scale = -0.5j * dt
        for r in reversed(range(0, E.size, block)):
            dest = factors[r:r + block]
            np.exp(np.multiply(scale, E[r:r + block], dest if r else None), dest)
    else:
        np.subtract(E, E.min(), out=E)  # shift for overflow safety only
        np.multiply(-0.5 * dt, E, out=E)
        np.exp(E, out=E)
    return factors, ground


def initial_state(n: int) -> QuantumState:
    """Uniform superposition, the ground state of the pure transverse field."""
    if n < 1:
        raise ValueError("need at least one spin")
    amp = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    return QuantumState(amp, 0.0)


def gamma(t: float, b: float, t0: float) -> float:
    """Transverse-field schedule b / sqrt(t + t0)."""
    if not t + t0 > 0:  # NaN fails too
        raise ValueError("t + t0 must be positive")
    return b / np.sqrt(t + t0)


def transverse_angle(t_start: float, t_end: float, b: float, t0: float) -> float:
    """Exact integral of gamma over [t_start, t_end], elementwise for arrays of times."""
    return 2.0 * b * (np.sqrt(t_end + t0) - np.sqrt(t_start + t0))


@functools.cache
def _popcounts(m: int) -> np.ndarray:
    """Number of set bits of every m-bit index, a table of 2^m integers."""
    idx = np.arange(1 << m)
    table = np.zeros_like(idx)
    for k in range(m):
        table += (idx >> k) & 1
    table.flags.writeable = False  # shared by every caller through the cache
    return table


@functools.cache
def _hamming_distances(m: int) -> np.ndarray:
    """(2^m, 2^m) table of the Hamming distances between m-bit basis indices."""
    idx = np.arange(1 << m)
    table = _popcounts(m)[idx[:, None] ^ idx[None, :]]
    table.flags.writeable = False
    return table


@functools.cache
def _rotation_index(m: int) -> np.ndarray:
    """(2^m, 2^m) gather index of R(theta)^(x)m from the m + 1 powers cos^(m-d) sin^d and their negatives.

    Entry (a, b) is the Hamming distance d of a and b, plus m + 1 (the
    negatives) when popcount(~a & b) is odd: every bit set in b but not in a
    takes R's -sin.
    """
    idx = np.arange(1 << m)
    odd = _popcounts(m)[~idx[:, None] & idx[None, :]] & 1
    table = _hamming_distances(m) + (m + 1) * odd
    table.flags.writeable = False
    return table


def _block_sizes(n: int) -> list[int]:
    """Sizes of the mixer blocks of n spins: 4 if n >= 4, then n mod 4 if nonzero."""
    return [m for m in (_BLOCK_SPINS, n % _BLOCK_SPINS) if 0 < m <= n]


def _mixer_tables(angles: np.ndarray, sizes: list[int], rotation: bool) -> list[np.ndarray]:
    """One C-contiguous real (K, 2^m, 2^m) table per size m: the mixer over m spins per angle.

    rotation gives R(theta)^(x)m, QA's mixer in its frame; otherwise
    exp(theta Sx)^(x)m, imaginary time's, whose entry between indices at
    Hamming distance d is cosh(theta)^(m-d) sinh(theta)^d.  One cos and one
    sin (or cosh and sinh) over the K angles serve every size.
    """
    c, s = (np.cos, np.sin) if rotation else (np.cosh, np.sinh)
    c, s = c(angles)[:, None], s(angles)[:, None]
    tables = []
    for m in sizes:
        d = np.arange(m + 1)
        powers = c ** (m - d) * s ** d
        if rotation:
            powers, index = np.concatenate((powers, -powers), axis=1), _rotation_index(m)
        else:
            index = _hamming_distances(m)
        # `take` keeps each step's block C-contiguous; an `[:, table]` gather would put the
        # steps innermost, and matmul would multiply the strided blocks in another order
        tables.append(powers.take(index, axis=1))
    return tables


_QUARTER_TURNS = np.array([1, 1j, -1, -1j])  # i^p for p = 0, 1, 2, 3


def _frame(psi: np.ndarray, n: int, inverse: bool = False) -> None:
    """Multiply amplitude xi of psi in place by i^popcount(xi) (D), or its conjugate (D^dagger).

    Every factor is 1, i, -1 or -i, so the products are exact and a round
    trip gives psi back bit for bit.  The bits are split into a low and a
    high half, one broadcast product each, so no state-sized table is made.
    """
    turns = np.conj(_QUARTER_TURNS) if inverse else _QUARTER_TURNS
    low = (n + 1) // 2
    view = psi.reshape(-1, 1 << low)
    np.multiply(view, turns[_popcounts(low) & 3], view)
    np.multiply(view, turns[_popcounts(n - low) & 3, None], view)


def _chunk_scratch(psi: np.ndarray) -> np.ndarray:
    """One chunk of scratch for psi: 2^c amplitudes, CHUNK_BYTES but at least 2^7, at most psi.

    The split step mixes psi chunk by chunk through it, and the samples'
    Gram matrices read psi slab by slab through it (see `_split_stepper` for
    the lower clamp).
    """
    c = max(_BLOCK_SPINS + 3, (CHUNK_BYTES // psi.itemsize).bit_length() - 1)
    return np.empty(min(psi.size, 1 << c), psi.dtype)


def _split_stepper(psi: np.ndarray, half: np.ndarray, n: int, scratch: np.ndarray | None = None):
    """Strang steps in place on psi: step(blocks) sets psi <- half * M * half * psi.

    M is the product over spins of one real 2 x 2 mixer, applied as one real
    2^m x 2^m block per group of m = 4 consecutive spins (a smaller last
    group takes n mod 4); `blocks` holds the step's blocks, one per entry of
    `_block_sizes(n)`.  The group of the lowest spins is a
    (rows, 2^m) x (2^m, 2^m) product; the others are batched over the spins
    above them on psi's float64 view, where a complex amplitude is two
    adjacent numbers, so a complex state is mixed by real products.

    The step is blocked for the cache.  Each contiguous chunk of 2^c
    amplitudes (CHUNK_BYTES, but at least 2^7 amplitudes, so that the lowest
    group's chunk product keeps >= 2 rows and a slab >= 8 columns: a one-row
    product goes to gemv and a narrower slab through another BLAS kernel,
    and both round otherwise) takes the leading half phase and every group
    whose spins lie below c while it is in cache, alternating between the
    chunk and one chunk-sized scratch so that it ends in the chunk.  Each
    remaining group then runs as slabs of 2^m rows by a chunk's worth of
    columns through the scratch, copied back, and the last group's slabs
    take the trailing half phase on the way; a state of one chunk has no
    such group and takes the trailing half phase in a pass of its own.
    Every output entry is the same sum as in one product over the whole
    state, so the result does not depend on the chunk.  All views are made
    once here; `scratch`, a `_chunk_scratch(psi)` that the caller may share
    between steps, is made here when not given.
    """
    parts = psi.itemsize // 8  # float64 numbers per amplitude
    if scratch is None:
        scratch = _chunk_scratch(psi)
    c = scratch.size.bit_length() - 1
    groups = [(k, min(_BLOCK_SPINS, n - k)) for k in range(0, n, _BLOCK_SPINS)]
    inner = [(k, m) for k, m in groups if k + m <= c]
    outer = groups[len(inner):]

    chunks = []  # (chunk of psi, its half phase, first buffer, products) per chunk
    for r in range(0, psi.size, 1 << c):
        chunk = psi[r:r + (1 << c)]
        buffers = (scratch, chunk) if len(inner) % 2 else (chunk, scratch)
        products = []  # (full-size block?, lowest spins?, source view, destination view) per group
        for g, (k, m) in enumerate(inner):
            src, dst = buffers[g % 2], buffers[1 - g % 2]
            if k == 0:
                src, dst = src.reshape(-1, 1 << m), dst.reshape(-1, 1 << m)
            else:
                shape = (1 << (c - k - m), 1 << m, parts << k)
                src, dst = src.view(np.float64).reshape(shape), dst.view(np.float64).reshape(shape)
            products.append((m == _BLOCK_SPINS, k == 0, src, dst))
        chunks.append((chunk, half[r:r + (1 << c)], buffers[0], products))
    slabs = []  # (full-size block?, slab of psi's float64 view, its scratch, half phase or None)
    for k, m in outer:
        width = 1 << (c - m)  # amplitudes per slab row
        shape = (1 << (n - k - m), 1 << m, 1 << k)
        real = psi.view(np.float64).reshape(*shape[:2], parts << k)
        out = scratch.view(np.float64).reshape(1 << m, parts * width)
        fused = (k, m) == outer[-1]
        for b in range(shape[0]):
            for j in range(0, 1 << k, width):
                cols = slice(j, j + width)
                phase = (scratch.reshape(1 << m, width), half.reshape(shape)[b, :, cols],
                         psi.reshape(shape)[b, :, cols]) if fused else None
                slabs.append((m == _BLOCK_SPINS, real[b, :, parts * j:parts * (j + width)], out,
                              phase))
    trailing = not outer

    def step(blocks) -> None:
        for chunk, chunk_half, first, products in chunks:
            np.multiply(chunk, chunk_half, first)  # ufuncs take out positionally, parsed faster
            for full, lowest, src, dst in products:
                block = blocks[0] if full else blocks[-1]
                if lowest:  # the lowest spins index contiguous rows: one matrix product
                    np.matmul(src, block.T, dst)
                else:
                    np.matmul(block, src, dst)
        for full, slab, out, phase in slabs:
            np.matmul(blocks[0] if full else blocks[-1], slab, out)
            if phase is None:
                np.copyto(slab, out)
            else:
                np.multiply(*phase)
        if trailing:
            np.multiply(psi, half, psi)

    return step


def _split_evolution(psi: np.ndarray, half: np.ndarray, grid, config: QAConfig, rotation: bool,
                     scratch: np.ndarray | None = None):
    """Strang steps in place on psi along `grid`, yielding (t, sampled) after each.

    A step is half * M * half with theta the exact integral of gamma over the
    step: QA (rotation) mixes a state in its real-rotation frame with
    R(theta), imaginary time with exp(theta Sx).  The steps mix through
    `scratch` (see `_split_stepper`), which is free between them.
    """
    n = psi.size.bit_length() - 1
    sizes = _block_sizes(n)
    step = _split_stepper(psi, half, n, scratch)

    def mixer_tables(ts):
        angles = transverse_angle(ts[:-1], ts[1:], config.b, config.t0)
        return _mixer_tables(angles, sizes, rotation)

    step_bytes = 8 * sum(4 ** m for m in sizes)  # float64 blocks
    for t, sampled, *blocks in _fixed_steps(grid, config.dt, step_bytes, mixer_tables):
        step(blocks)
        yield t, sampled


def strang_step(state: QuantumState, energies: np.ndarray, schedule: QAConfig) -> QuantumState:
    """One Strang split step of schedule.dt: half diagonal phase, transverse rotation, half phase.

    The transverse rotation angle is the exact integral of gamma over the
    step, applied as exp(+i theta Sx_k) on every spin: D R(theta) D^dagger
    per spin, the state taken into the real-rotation frame and back.
    """
    dt = schedule.dt
    theta = transverse_angle(state.t, state.t + dt, schedule.b, schedule.t0)
    n = state.n
    psi = np.array(state.amplitudes, dtype=complex)
    blocks = [table[0] for table in _mixer_tables(np.array([theta]), _block_sizes(n), True)]
    _frame(psi, n, inverse=True)
    _split_stepper(psi, np.exp(-0.5j * dt * energies), n)(blocks)
    _frame(psi, n)
    return QuantumState(psi, state.t + dt)


def symmetry_breaking_field(n: int, coeff0: float, coeff1: float) -> np.ndarray:
    """Longitudinal field h = coeff0 * s^(S0) + coeff1 * s^(S1) componentwise.

    Raises ValueError unless coeff0 and coeff1 (the CLI's --h0 and --h1) are
    finite.  The check comes before the sum, where inf and -inf would make
    a NaN that neither coefficient holds.
    """
    from .graph import build_s0, build_s1

    if not (np.isfinite(coeff0) and np.isfinite(coeff1)):
        raise ValueError(f"field must be finite, got h0 = {coeff0} and h1 = {coeff1}")
    h = coeff0 * build_s0(n)
    if coeff1 != 0.0:
        h = h + coeff1 * build_s1(n)
    return h


def ground_state_probability(state: QuantumState | np.ndarray,
                             projector_indices) -> tuple[float, np.ndarray]:
    """Total and per-state probability of the listed basis states."""
    psi = state.amplitudes if isinstance(state, QuantumState) else np.asarray(state)
    idx = np.asarray(list(projector_indices), dtype=np.int64)
    per_state = np.abs(psi[idx]) ** 2
    return float(per_state.sum()), per_state


def reduced_density_matrix(state: QuantumState | np.ndarray, k: int) -> np.ndarray:
    """Single-spin reduced density matrix of spin k in the (up, down) basis.

    The one-spin Gram matrix of `_group_grams`, whose rows run (down, up),
    reversed; the full 2^n x 2^n density matrix is never formed.
    """
    psi = state.amplitudes if isinstance(state, QuantumState) else state
    psi = np.ascontiguousarray(psi, dtype=complex)
    n = int(round(np.log2(psi.size)))
    if not 0 <= k < n:
        raise ValueError(f"spin index {k} out of range for {n} spins")
    return _group_grams(psi, n, [(k, 1)])[0][::-1, ::-1]


def bloch_vector(rho: np.ndarray) -> BlochVector:
    """Bloch vector (u, v, w) with rho = (1/2)(identity + u.Sx + v.Sy + w.Sz)."""
    u = 2.0 * rho[0, 1].real
    v = -2.0 * rho[0, 1].imag
    w = (rho[0, 0] - rho[1, 1]).real
    return BlochVector(float(u), float(v), float(w))


@dataclass
class QARun:
    """Sampled observables of one quantum-annealing evolution."""

    times: np.ndarray
    gammas: np.ndarray
    p_gs: np.ndarray                # (T,) total ground-space probability
    p_gs_per_state: np.ndarray      # (T, n_ground)
    prob_up: np.ndarray             # (T, n) probability of spin k up
    bloch_mag: np.ndarray           # (T, n) Bloch-vector magnitudes
    ground_indices: np.ndarray
    state: QuantumState
    max_norm_drift: float = 0.0     # worst |<psi|psi> - 1| over all steps
    steps: int = 0                  # Strang steps taken


@functools.cache
def _gram_readout(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(up, polarity, pairs): what reads m spins' observables off a flattened 2^m x 2^m Gram matrix.

    up[s] is 1 at the indices with bit s set and 0 elsewhere, polarity[s] is
    +1 there and -1 elsewhere, and pairs[s] holds the flat positions of
    G[a, a ^ 2^s] for the 2^(m-1) indices a with bit s set.
    """
    idx = np.arange(1 << m)
    bits = (idx >> np.arange(m)[:, None]) & 1
    up = bits.astype(float)
    with_bit = np.array([idx[b == 1] for b in bits])  # (m, 2^(m-1))
    pairs = (with_bit << m) + (with_bit ^ (1 << np.arange(m))[:, None])
    for table in (up, pairs):
        table.flags.writeable = False
    polarity = 2.0 * up - 1.0
    polarity.flags.writeable = False
    return up, polarity, pairs


def _group_grams(psi: np.ndarray, n: int, groups: list[tuple[int, int]],
                 scratch: np.ndarray | None = None) -> list[np.ndarray]:
    """G = X X^H per group (k, m), X the (2^m, 2^(n-m)) matrix of psi with spins k..k+m-1 as rows.

    G[a, b] sums psi[x] conj(psi[y]) over the index pairs x, y whose spins
    k..k+m-1 read a and b and whose other spins agree.  psi is read in slabs
    of 2^c amplitudes, the size of a `_chunk_scratch(psi)`, each conjugated
    once into `scratch` (made here when not given), and each G sums its
    slabs' products.  A group whose spins lie below c reads every contiguous
    slab: the lowest group as one product, the others batched over the spins
    above the group, a chunk of rows at a time, so the batched products take
    at most a sixty-fourth of the state's bytes.  A higher group reads slabs
    of 2^m rows by 2^(c-m) columns.  Each operand is a row-strided or
    transposed view, which matmul hands to BLAS without a copy.  A state of
    one slab, at most CHUNK_BYTES, is conjugated once and gives the G of a
    whole conjugate copy bit for bit.
    """
    conj = _chunk_scratch(psi) if scratch is None else scratch
    slab = conj.size
    c = slab.bit_length() - 1
    # one buffer holds each group's batched products in turn: chunk * 4^m <= max(2^n / 64, 4^m)
    products = np.empty(max(psi.size >> 6, 1 << 2 * _BLOCK_SPINS), psi.dtype)
    grams = [np.zeros((1 << m, 1 << m), dtype=psi.dtype) for _, m in groups]
    inner = [(gram, k, m) for gram, (k, m) in zip(grams, groups) if k + m <= c]
    for r in range(0, psi.size if inner else 0, slab):
        X = psi[r:r + slab]
        np.conjugate(X, conj)
        for gram, k, m in inner:
            if k == 0:
                gram += X.reshape(-1, 1 << m).T @ conj.reshape(-1, 1 << m)
                continue
            shape = (slab >> (k + m), 1 << m, 1 << k)
            Xg, Cg = X.reshape(shape), conj.reshape(shape).transpose(0, 2, 1)
            chunk = max(1, min(shape[0], psi.size >> (2 * m + 6)))  # a power of two: divides rows
            out = products[:chunk << 2 * m].reshape(chunk, 1 << m, 1 << m)
            for q in range(0, shape[0], chunk):
                np.matmul(Xg[q:q + chunk], Cg[q:q + chunk], out)
                gram += np.add.reduce(out, axis=0)
    for gram, (k, m) in zip(grams, groups):
        if k + m > c:
            width = slab >> m
            C = conj.reshape(1 << m, width)
            for rows in psi.reshape(-1, 1 << m, 1 << k):
                for j in range(0, 1 << k, width):
                    X = rows[:, j:j + width]
                    gram += X @ np.conjugate(X, C).T
    return grams


def _single_spin_observables(psi: np.ndarray, n: int,
                             scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """prob_up and Bloch-vector magnitude of every spin, read through one conjugate slab of psi.

    Each group of m = 4 consecutive spins (the last takes n mod 4) is read
    off one Gram matrix G of `_group_grams`: the population of spin s up is
    the sum of diag G over the indices with bit s set, and its cross term
    sum up * conj(down) the sum of G[a, a ^ 2^s] over the same indices.
    All groups read psi through `scratch` (one `_chunk_scratch(psi)`).
    """
    groups = [(k, min(_BLOCK_SPINS, n - k)) for k in range(0, n, _BLOCK_SPINS)]
    prob_up, polarization = np.empty(n), np.empty(n)
    cross = np.empty(n, dtype=complex)
    for (k, m), gram in zip(groups, _group_grams(psi, n, groups, scratch)):
        up, polarity, pairs = _gram_readout(m)
        gram = gram.reshape(-1)
        populations = gram[::(1 << m) + 1].real
        prob_up[k:k + m] = up @ populations
        polarization[k:k + m] = polarity @ populations
        cross[k:k + m] = np.add.reduce(gram[pairs], axis=1)
    return prob_up, np.sqrt(4.0 * np.abs(cross) ** 2 + polarization ** 2)


def run_qa(J: np.ndarray, config: QAConfig) -> QARun:
    """Anneal from the uniform superposition and sample observables.

    Aborts with RuntimeError if the state norm drifts by more than 1e-8; the
    worst drift over the run is reported as `max_norm_drift`.
    """
    grid = _time_grid(config.dt, config.t_end, config.sample_every)
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    half_phase, ground = _diagonal_factors(J, config.h, config.dt, True)  # guards n
    psi = initial_state(n).amplitudes
    _frame(psi, n, inverse=True)  # the steps evolve phi = D^dagger psi, the samples read it
    scratch = _chunk_scratch(psi)  # the steps mix through it, the samples read psi through it

    samples = []  # one (t, gamma, p_gs, p_gs_per_state, prob_up, bloch_mag) row per sample

    def record(t: float):
        samples.append((t, gamma(t, config.b, config.t0),
                        *ground_state_probability(psi, ground),
                        *_single_spin_observables(psi, n, scratch)))

    record(0.0)
    t = 0.0
    steps = 0
    max_drift = 0.0
    evolution = _split_evolution(psi, half_phase, grid, config, True, scratch)
    for steps, (t, sampled) in enumerate(evolution, 1):
        drift = abs(float(np.vdot(psi, psi).real) - 1.0)
        if not drift <= 1e-8:  # a NaN state fails too
            raise RuntimeError(f"norm drift {drift:.3e} at t = {t:.2f}")
        max_drift = max(max_drift, drift)
        if sampled:
            record(t)
    _frame(psi, n)

    times, gammas, p_gs, per_state, prob_up, bloch_mag = map(np.array, zip(*samples))
    return QARun(times=times, gammas=gammas, p_gs=p_gs, p_gs_per_state=per_state,
                 prob_up=prob_up, bloch_mag=bloch_mag, ground_indices=ground,
                 state=QuantumState(psi, t), max_norm_drift=max_drift, steps=steps)


def _hamiltonian_operator(energies: np.ndarray, gamma_now: float, n: int) -> LinearOperator:
    from scipy.sparse.linalg import LinearOperator  # loaded on first use, not at package import

    def matvec(v):
        v = v.reshape(-1)  # LinearOperator passes (dim, 1) columns to matmat
        out = energies * v
        for k in range(n):
            a = v.reshape(1 << (n - 1 - k), 2, 1 << k)
            out = out - gamma_now * a[:, ::-1, :].reshape(-1)
        return out

    dim = 1 << n
    return LinearOperator((dim, dim), matvec=matvec, dtype=float)


def instantaneous_ground_overlap(state: QuantumState | np.ndarray, J: np.ndarray,
                                 h: np.ndarray | None, gamma_now: float) -> float:
    """Squared overlap with the instantaneous ground space of H(t).

    Projects onto every eigenvector within 1e-10 of the lowest eigenvalue.
    At gamma = 0, H is diagonal and its ground space is spanned by the basis
    states that `ground_set`, the Ising tie rule, picks, so no eigensolve
    runs.  Above 16 states eigsh finds the lowest pair; when that pair lies
    within 1e-10, a dense eigh resolves the whole ground space, because
    Lanczos misses copies of a degenerate eigenvalue (ARPACK returned 7 of 8
    ground states at n = 8, j = 0.6).
    """
    psi = state.amplitudes if isinstance(state, QuantumState) else np.asarray(state)
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"instantaneous eigensolve guarded to n <= {MAX_DENSE_QUBITS}")
    dim = 1 << n
    energies = build_diagonal(J, h)
    if gamma_now == 0.0:
        return float(np.sum(np.abs(psi[ground_set(energies)]) ** 2))
    H = _hamiltonian_operator(energies, gamma_now, n)
    vals = None
    if dim > 16:
        from scipy.sparse.linalg import eigsh

        vals, vecs = eigsh(H, k=2, which="SA")
    if vals is None or abs(vals[1] - vals[0]) < 1e-10:
        vals, vecs = np.linalg.eigh(H @ np.eye(dim))
    lowest = vals - vals.min() < 1e-10
    return float(np.sum(np.abs(vecs[:, lowest].conj().T @ psi) ** 2))


def save_state(path: str, state: QuantumState) -> None:
    """Binary snapshot (npz) of the amplitudes and time at exactly `path`, for regression checks."""
    with open(path, "wb") as fh:  # np.savez would append ".npz" to a bare path
        np.savez(fh, amplitudes=state.amplitudes, t=state.t)


def load_state(path: str) -> QuantumState:
    with np.load(path) as data:
        return QuantumState(data["amplitudes"], float(data["t"]))
