"""Full state-vector quantum annealing of the transverse-field Ising model.

The Hamiltonian is H(t) = H_D - gamma(t) sum_k Sx_k with diagonal part
H_D(xi) = -(1/2) sum_{i != j} J_ij s_i s_j - sum_i h_i s_i, using Pauli
operators with eigenvalues +-1 so the diagonal coincides with the classical
Ising energy used everywhere else.  Time stepping is a second-order Strang
splitting: half step of the diagonal phase, one full transverse rotation with
the analytically integrated angle, then another half phase step.  The
rotation prod_k exp(z Sx_k) is applied four spins at a time: over m spins it
is one 2^m x 2^m matrix whose entry between basis indices at Hamming distance
d is cosh(z)^(m-d) sinh(z)^d, so one batched matrix product per group of four
spins mixes them, n/4 passes through the state in all.

Every fixed-step evolution (QA, imaginary time, the master equation, the
soft-spin ensembles) walks one step iterator, `_fixed_steps`, which builds the
per-step coefficients for chunks of steps that fit in TABLE_BYTES.  QA and
imaginary time (z = i or 1 on the angle) share one split evolution,
`_split_evolution`, which moves the state between two buffers allocated once,
so no step allocates a state-sized array.

The basis convention (bit k of index xi set when spin k is up), the
all-state energy table behind the diagonal and the ground-set tie rule are
owned by :mod:`isinglab.oracle`; this module re-exports `basis_index`,
`index_spins`, `spins_table` and `ground_set` from there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .graph import validate_coupling_matrix
from .oracle import all_energies, basis_index, ground_set, index_spins, spins_table

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
TABLE_BYTES = 1 << 18  # coefficients per chunk of steps: 256 KB; SA and CA run slower below it


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


@dataclass
class BlochVector:
    u: float
    v: float
    w: float

    @property
    def magnitude(self) -> float:
        return float(np.sqrt(self.u**2 + self.v**2 + self.w**2))


def build_diagonal(J: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Classical energies E(xi) = H_I(xi) - sum_i h_i s_i for every basis state.

    Raises ValueError for a field of the wrong shape or with a non-finite entry.
    """
    J = np.asarray(J, dtype=float)
    if J.shape != (1, 1):  # a single spin has no coupling to validate
        J = validate_coupling_matrix(J)
    n = J.shape[0]
    if n > MAX_QUBITS:
        raise ValueError(f"diagonal for n = {n} exceeds the {MAX_QUBITS}-spin guard")
    if h is not None:
        h = np.asarray(h, dtype=float)
        if h.shape != (n,):
            raise ValueError(f"field must have shape ({n},), got {h.shape}")
        if not np.isfinite(h).all():
            raise ValueError(f"field must be finite, got {h}")
    return all_energies(J, h)


def initial_state(n: int) -> QuantumState:
    """Uniform superposition, the ground state of the pure transverse field."""
    if n < 1:
        raise ValueError("need at least one spin")
    amp = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    return QuantumState(amp, 0.0)


def gamma(t: float, b: float, t0: float) -> float:
    """Transverse-field schedule b / sqrt(t + t0)."""
    if t + t0 <= 0:
        raise ValueError("t + t0 must be positive")
    return b / np.sqrt(t + t0)


def transverse_angle(t_start: float, t_end: float, b: float, t0: float) -> float:
    """Exact integral of gamma over [t_start, t_end], elementwise for arrays of times."""
    return 2.0 * b * (np.sqrt(t_end + t0) - np.sqrt(t_start + t0))


def _time_grid(dt: float, t_end: float, sample_every: int):
    """Lazy "sampled" flags of the round(t_end / dt) steps: every sample_every-th and the last.

    Raises ValueError at the call unless finite dt > 0, finite t_end >= 0 and sample_every >= 1.
    """
    if not (0.0 < dt < np.inf and 0.0 <= t_end < np.inf and t_end / dt < np.inf):
        raise ValueError(f"need finite dt > 0 and t_end >= 0, got dt = {dt}, t_end = {t_end}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    steps = int(round(t_end / dt))
    return ((step + 1) % sample_every == 0 or step == steps - 1 for step in range(steps))


def _chunk_times(grid, dt: float, step_bytes: int):
    """(flags, ts) per chunk of max(1, TABLE_BYTES // step_bytes) steps of a flag iterator.

    flags holds the chunk's flags as bytes, one byte (0 or 1) per step, and
    ts the chunk's start time and the times after its steps, summed as the
    scalar t += dt sums them.
    """
    chunk = max(1, TABLE_BYTES // step_bytes)
    t = 0.0
    while flags := bytes(islice(grid, chunk)):
        ts = np.full(len(flags) + 1, dt)
        ts[0] = t
        t = np.add.accumulate(ts, out=ts)[-1]
        yield flags, ts


def _fixed_steps(grid, dt: float, step_bytes: int, coefficients):
    """(t, sampled, *coefficients(ts)) for every step of a flag iterator such as `_time_grid`.

    coefficients(ts) gives the per-step tables of each chunk of `_chunk_times`;
    they take step_bytes bytes per step.  A chunk holds no Python object per
    step: each t is made as the step comes, a float read through a
    memoryview of ts, and sampled is 0 or 1 from the flags' bytes.
    """
    for flags, ts in _chunk_times(grid, dt, step_bytes):
        yield from zip(memoryview(ts)[1:], flags, *coefficients(ts))


@functools.cache
def _hamming_distances(m: int) -> np.ndarray:
    """(2^m, 2^m) table of the Hamming distances between m-bit basis indices."""
    idx = np.arange(1 << m)
    flips = idx[:, None] ^ idx[None, :]
    table = sum((flips >> k) & 1 for k in range(m))
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _block_sizes(n: int) -> list[int]:
    """Sizes of the mixer blocks of n spins: 4 if n >= 4, then n mod 4 if nonzero."""
    return [m for m in (_BLOCK_SPINS, n % _BLOCK_SPINS) if 0 < m <= n]


def _mixer_blocks(zs: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """One C-contiguous (K, 2^m, 2^m) table per size m: prod_k exp(z Sx_k) over m spins per z.

    The entry between indices at Hamming distance d is cosh(z)^(m-d) sinh(z)^d;
    one cosh and one sinh over the K values of z serve every size.
    """
    c, s = np.cosh(zs)[:, None], np.sinh(zs)[:, None]
    tables = []
    for m in sizes:
        d = np.arange(m + 1)
        # `take` keeps each step's block C-contiguous; an `[:, table]` gather would put the
        # steps innermost, and matmul would multiply the strided blocks in another order
        tables.append((c ** (m - d) * s ** d).take(_hamming_distances(m), axis=1))
    return tables


def _split_stepper(psi: np.ndarray, other: np.ndarray, n: int):
    """Strang steps in place on psi: step(half, blocks) sets psi <- half * U * half * psi.

    U = prod_k exp(z Sx_k) is the transverse rotation; exp(z Sx) mixes each
    spin pair with (cosh z, sinh z).  QA passes z = i theta
    (exactly cos theta, i sin theta), imaginary time a real z = theta.  The
    product over spins is applied as one symmetric 2^m x 2^m block per group of
    m = 4 consecutive spins (a smaller last group takes n mod 4); `blocks` holds
    the step's blocks, one per entry of `_block_sizes(n)`.  The group of the
    lowest spins is one (2^(n-m), 2^m) x (2^m, 2^m) product; the others are
    batched over the spins below them.  Each product writes into the other of
    the two buffers psi and `other`, through views made once here, and the
    last half phase lands in psi.
    """
    products = []  # (full-size block?, lowest spins?, source view, destination view) per group
    buffers = (psi, other)
    for g, k in enumerate(range(0, n, _BLOCK_SPINS)):
        m = min(_BLOCK_SPINS, n - k)
        shape = (-1, 1 << m) if k == 0 else (1 << (n - k - m), 1 << m, 1 << k)
        products.append((m == _BLOCK_SPINS, k == 0, buffers[g % 2].reshape(shape),
                         buffers[1 - g % 2].reshape(shape)))
    last = buffers[len(products) % 2]

    def step(half: np.ndarray, blocks) -> None:
        np.multiply(psi, half, psi)  # ufuncs take out positionally, which numpy parses faster
        for full, lowest, src, dst in products:
            block = blocks[0] if full else blocks[-1]
            if lowest:  # the lowest spins index contiguous rows: one matrix product for all
                np.matmul(src, block.T, dst)
            else:
                np.matmul(block, src, dst)
        np.multiply(last, half, psi)

    return step


def _split_evolution(psi: np.ndarray, other: np.ndarray, half: np.ndarray, grid,
                     config: QAConfig, z):
    """Strang steps in place on psi along `grid`, yielding (t, sampled) after each.

    A step is half * exp(z theta Sx) * half, theta the exact integral of gamma
    over the step: QA passes z = 1j, imaginary time z = 1, which leaves the
    angles' bits as they are.  `other` is the split step's second buffer.
    """
    n = psi.size.bit_length() - 1
    sizes = _block_sizes(n)
    step = _split_stepper(psi, other, n)

    def mixer_blocks(ts):
        return _mixer_blocks(z * transverse_angle(ts[:-1], ts[1:], config.b, config.t0), sizes)

    step_bytes = psi.itemsize * sum(4 ** m for m in sizes)
    for t, sampled, *blocks in _fixed_steps(grid, config.dt, step_bytes, mixer_blocks):
        step(half, blocks)
        yield t, sampled


def strang_step(state: QuantumState, energies: np.ndarray, schedule: QAConfig) -> QuantumState:
    """One Strang split step of schedule.dt: half diagonal phase, transverse rotation, half phase.

    The transverse rotation angle is the exact integral of gamma over the
    step, applied as exp(+i theta Sx_k) on every spin.
    """
    dt = schedule.dt
    theta = transverse_angle(state.t, state.t + dt, schedule.b, schedule.t0)
    psi = np.array(state.amplitudes, dtype=complex)
    blocks = [table[0] for table in _mixer_blocks(np.array([1j * theta]), _block_sizes(state.n))]
    _split_stepper(psi, np.empty_like(psi), state.n)(np.exp(-0.5j * dt * energies), blocks)
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


def _spin_moments(psi: np.ndarray, conj: np.ndarray, n: int, k: int):
    """<up|up>, <down|down> and sum up * conj(down) over the bit-k partners of psi.

    psi is C-contiguous complex and conj = np.conj(psi), made once by the
    caller; the sums run over strided views, so nothing state-sized is made
    per spin.
    """
    rows = 1 << (n - 1 - k)
    parts = psi.view(np.float64).reshape(rows, 2, 2 << k)  # real and imaginary parts interleaved
    down, up = np.einsum("rsj,rsj->s", parts, parts)
    cross = np.einsum("rc,rc->", psi.reshape(rows, 2, 1 << k)[:, 1],
                      conj.reshape(rows, 2, 1 << k)[:, 0])
    return up, down, cross


def reduced_density_matrix(state: QuantumState | np.ndarray, k: int) -> np.ndarray:
    """Single-spin reduced density matrix of spin k in the (up, down) basis.

    Computed from pairwise amplitude sums over the bit-k partners; the full
    2^n x 2^n density matrix is never formed.
    """
    psi = state.amplitudes if isinstance(state, QuantumState) else state
    psi = np.ascontiguousarray(psi, dtype=complex)
    n = int(round(np.log2(psi.size)))
    if not 0 <= k < n:
        raise ValueError(f"spin index {k} out of range for {n} spins")
    up, down, cross = _spin_moments(psi, np.conj(psi), n, k)
    return np.array([[up, cross], [np.conj(cross), down]])


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


def _single_spin_observables(psi: np.ndarray, n: int,
                             conj: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """prob_up and Bloch-vector magnitude of every spin, with one conjugate copy of psi.

    The copy is written into `conj` when given, else into a new array.
    """
    conj = np.conj(psi, out=conj)
    up, down, cross = np.array([_spin_moments(psi, conj, n, k) for k in range(n)]).T
    return up.real, np.sqrt(4.0 * np.abs(cross) ** 2 + (up - down).real ** 2)


def run_qa(J: np.ndarray, config: QAConfig) -> QARun:
    """Anneal from the uniform superposition and sample observables.

    Aborts with RuntimeError if the state norm drifts by more than 1e-8; the
    worst drift over the run is reported as `max_norm_drift`.
    """
    grid = _time_grid(config.dt, config.t_end, config.sample_every)
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    energies = build_diagonal(J, config.h)  # guards n <= MAX_QUBITS
    ground = ground_set(energies)

    psi = initial_state(n).amplitudes
    half_phase = np.multiply(-0.5j * config.dt, energies)
    del energies  # the steps need only the half phase
    np.exp(half_phase, out=half_phase)
    other = np.empty_like(psi)  # the split step's second buffer, and the sampled conjugate

    samples = []  # one (t, gamma, p_gs, p_gs_per_state, prob_up, bloch_mag) row per sample

    def record(t: float):
        samples.append((t, gamma(t, config.b, config.t0),
                        *ground_state_probability(psi, ground),
                        *_single_spin_observables(psi, n, other)))

    record(0.0)
    t = 0.0
    steps = 0
    max_drift = 0.0
    for steps, (t, sampled) in enumerate(_split_evolution(psi, other, half_phase, grid,
                                                          config, 1j), 1):
        drift = abs(float(np.vdot(psi, psi).real) - 1.0)
        if not drift <= 1e-8:  # a NaN state fails too
            raise RuntimeError(f"norm drift {drift:.3e} at t = {t:.2f}")
        max_drift = max(max_drift, drift)
        if sampled:
            record(t)

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
    """Squared overlap with the instantaneous ground state of H(t).

    Reports the projection onto the two-dimensional lowest subspace when the
    lowest pair is degenerate below 1e-10.
    """
    psi = state.amplitudes if isinstance(state, QuantumState) else np.asarray(state)
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"instantaneous eigensolve guarded to n <= {MAX_DENSE_QUBITS}")
    dim = 1 << n
    H = _hamiltonian_operator(build_diagonal(J, h), gamma_now, n)
    if dim <= 16:
        vals, vecs = np.linalg.eigh(H @ np.eye(dim))
    else:
        from scipy.sparse.linalg import eigsh

        vals, vecs = eigsh(H, k=2, which="SA")
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    overlap = abs(np.vdot(vecs[:, 0], psi)) ** 2
    if vals[1] - vals[0] < 1e-10:
        overlap += abs(np.vdot(vecs[:, 1], psi)) ** 2
    return float(overlap)


def save_state(path: str, state: QuantumState) -> None:
    """Binary snapshot (npz) of the amplitudes and time at exactly `path`, for regression checks."""
    with open(path, "wb") as fh:  # np.savez would append ".npz" to a bare path
        np.savez(fh, amplitudes=state.amplitudes, t=state.t)


def load_state(path: str) -> QuantumState:
    with np.load(path) as data:
        return QuantumState(data["amplitudes"], float(data["t"]))
