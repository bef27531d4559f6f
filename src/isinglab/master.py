"""Master-equation annealing over all 2^n configurations, plus imaginary time.

Transition rates follow the Bose-Einstein acceptance
A_ij = 1 / (1 + exp((E_i - E_j)/T)), which satisfies detailed balance with
respect to the Boltzmann distribution.  Simulated annealing (SA) allows
single-spin flips only; classical annealing (CA) keeps the same rate between
every pair of configurations.  Diagonal elements are fixed by probability
conservation, A_ii = -sum_{k != i} A_ki.  The temperature is annealed as
T(t) = d / sqrt(t + t0).

Each mode has one rate kernel.  SA gathers the n single-flip partners of
every state.  CA rates depend only on the two energies, so the all-pairs
generator is applied exactly through the L distinct energy levels at
O(2^n + L^2) cost per application.  CA has no spin-count limit of its own:
only the diagonal's 20-spin guard and the bound on L apply.  Both kernels
read their rates from one table helper: a rate depends only on dE / T, so
`expit` runs once per distinct energy difference for a whole chunk of
temperatures, and the anneal builds at most RATE_TABLE_ENTRIES table
entries at a time.  Imaginary time runs the QA split step with real
factors, and every evolution here steps on the QA time grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .graph import validate_coupling_matrix
from .quantum import QAConfig, _split_step, _time_grid, build_diagonal, ground_set, transverse_angle

__all__ = [
    "AnnealSchedule",
    "ImagRun",
    "MasterRun",
    "anneal_master",
    "boltzmann_reference",
    "ca_generator_apply",
    "imaginary_time_evolve",
    "sa_generator_apply",
    "temperature",
]

MAX_CA_LEVELS = 1 << 12  # the all-pairs rates between L levels are an L x L matrix
NEGATIVITY_TOL = -1e-10
RATE_TABLE_ENTRIES = 1 << 15  # rate-table entries per chunk of temperatures (256 KB)


@dataclass
class AnnealSchedule:
    """Temperature schedule T(t) = d / sqrt(t + t0)."""

    d: float = 5.0
    t0: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.d < np.inf and 0.0 < self.t0 < np.inf):  # NaN fails too
            raise ValueError("d and t0 must be positive and finite")


def temperature(t: float, schedule: AnnealSchedule) -> float:
    return schedule.d / np.sqrt(t + schedule.t0)


def _rate_tables(dE: np.ndarray):
    """dE -> (Ts -> C-contiguous (K, *dE.shape) tables of expit(dE / T), one per temperature).

    A rate depends only on dE / T, so one `expit` over the distinct differences
    serves a whole chunk of temperatures.  Gathering along axis 1 keeps each
    temperature's table contiguous; an `[:, inv]` gather would put the
    temperatures innermost, and BLAS would then sum CA's `W @ P` in another
    order.
    """
    from scipy.special import expit  # loaded on first use, not at package import

    D, inv = np.unique(dE.ravel(), return_inverse=True)
    return lambda Ts: expit(D / Ts[:, None]).take(inv, axis=1).reshape(len(Ts), *dE.shape)


def _chunk_length(entries: int) -> int:
    """Steps per chunk so that the 2K + 1 tables of K RK4 steps hold RATE_TABLE_ENTRIES entries."""
    return max(1, (RATE_TABLE_ENTRIES // entries - 1) // 2)


def _sa_rates(E: np.ndarray):
    """Single-spin-flip generator: E -> (chunk length, Ts -> one rhs per T), n rates per state.

    Row k < n of a temperature's table holds the rate into each state from its
    bit-k partner.  Row n pairs each state with itself and holds
    sum_k w_k - n, which is minus the rate out (A_ij + A_ji = 1 for every
    pair).  So one gather, one product and one sum over the rows give the rhs.
    """
    n = int(round(np.log2(E.size)))
    states = np.arange(E.size)
    partner = np.vstack([states ^ (1 << np.arange(n))[:, None], states])  # (n + 1, 2^n)
    tables = _rate_tables(E[partner] - E)
    terms = np.empty(partner.shape)  # reused by every rhs call

    def rhs(w):
        def apply(q):
            q.take(partner, out=terms, mode="wrap")  # in range; "wrap" skips the buffered copy
            np.multiply(terms, w, out=terms)
            return np.add.reduce(terms, axis=0)
        return apply

    def at(Ts):
        w = tables(Ts)
        w[:, n] = np.add.reduce(w[:, :n], axis=1) - n
        return [rhs(w_T) for w_T in w]

    return _chunk_length(partner.size), at


def _ca_rates(E: np.ndarray):
    """All-pairs generator through the energy levels: E -> (chunk length, Ts -> one rhs per T).

    A_ij depends only on E_i and E_j, so with P_b the probability summed over
    level b and g_b its degeneracy, dp_i = (W P)_a - p_i (2^n - W g)_a at
    a = level(i), where W_ab = 1 / (1 + exp((E_a - E_b)/T)).  This holds for
    any p, not only level-uniform ones.
    """
    levels, level, g = np.unique(E, return_inverse=True, return_counts=True)
    L = levels.size
    if L > MAX_CA_LEVELS:
        raise ValueError(f"all-pairs rates guarded to {MAX_CA_LEVELS} energy levels, got {L}")
    tables = _rate_tables(levels[None, :] - levels[:, None])

    def rhs(W):
        w_out = (E.size - W @ g)[level]
        return lambda q: (W @ np.bincount(level, weights=q, minlength=L))[level] - w_out * q

    return _chunk_length(L * L), lambda Ts: [rhs(W) for W in tables(Ts)]


def _apply_at(rates, p, energies, T: float) -> np.ndarray:
    if T <= 0:
        raise ValueError("temperature must be positive")
    _, at = rates(np.asarray(energies, dtype=float))
    return at(np.array([T], dtype=float))[0](np.asarray(p, dtype=float))


def sa_generator_apply(p: np.ndarray, energies: np.ndarray, T: float) -> np.ndarray:
    """dp/dt under single-spin-flip rates (n terms per state)."""
    return _apply_at(_sa_rates, p, energies, T)


def ca_generator_apply(p: np.ndarray, energies: np.ndarray, T: float) -> np.ndarray:
    """dp/dt under all-pairs rates, applied through the energy levels."""
    return _apply_at(_ca_rates, p, energies, T)


@dataclass
class MasterRun:
    """Sampled time series of one master-equation anneal."""

    times: np.ndarray
    temps: np.ndarray
    p_gs: np.ndarray
    p_gs_per_state: np.ndarray
    ground_indices: np.ndarray
    probabilities: np.ndarray          # final distribution
    negativity_events: int
    mode: str
    energies: np.ndarray = field(repr=False)  # the diagonal the run annealed on


def anneal_master(J: np.ndarray, h: np.ndarray | None, schedule: AnnealSchedule,
                  mode: str = "sa", dt: float = 0.01, t_end: float = 500.0,
                  sample_every: int = 1000) -> MasterRun:
    """Anneal the probability vector from uniform with RK4 at fixed step dt.

    The ground projector is taken from the minimizers of the full diagonal
    (field included).  Breaches of probability conservation abort; small
    negative entries are clipped and renormalized with the event counted.
    """
    if mode not in ("sa", "ca"):
        raise ValueError(f"mode must be 'sa' or 'ca', got {mode!r}")
    grid = _time_grid(dt, t_end, sample_every)
    J = validate_coupling_matrix(J)
    E = build_diagonal(J, h)
    ground = ground_set(E)
    p = np.full(E.size, 1.0 / E.size)
    chunk, make_rhs = (_sa_rates if mode == "sa" else _ca_rates)(E)

    times, temps, pgs, per_state = [], [], [], []
    negativity = 0

    def record(t):
        times.append(t)
        temps.append(temperature(t, schedule))
        pgs.append(float(p[ground].sum()))
        per_state.append(p[ground].copy())

    record(0.0)
    t = 0.0
    while flags := list(islice(grid, chunk)):
        ts = np.add.accumulate([t] + [dt] * len(flags))  # the t values that t += dt reaches
        # one table build per chunk: every step's start and end, then its midpoint
        rhs = make_rhs(temperature(np.concatenate([ts, ts[:-1] + 0.5 * dt]), schedule))
        for sampled, rhs_a, rhs_m, rhs_end in zip(flags, rhs, rhs[len(ts):], rhs[1:]):
            k1 = rhs_a(p)
            k2 = rhs_m(p + 0.5 * dt * k1)
            k3 = rhs_m(p + 0.5 * dt * k2)
            k4 = rhs_end(p + dt * k3)
            p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += dt
            pmin = p.min()
            if pmin < NEGATIVITY_TOL:
                negativity += 1
                np.clip(p, 0.0, None, out=p)
                p /= p.sum()
            total = p.sum()
            if not abs(total - 1.0) <= 1e-8:  # NaN breaches too
                raise RuntimeError(f"probability conservation breach {abs(total - 1.0):.3e} at t = {t:.2f}")
            if sampled:
                record(t)

    return MasterRun(
        times=np.array(times),
        temps=np.array(temps),
        p_gs=np.array(pgs),
        p_gs_per_state=np.array(per_state),
        ground_indices=ground,
        probabilities=p,
        negativity_events=negativity,
        mode=mode,
        energies=E,
    )


def boltzmann_reference(energies: np.ndarray, T: float,
                        ground_indices: np.ndarray | None = None) -> float:
    """Equilibrium ground-space occupancy sum_g e^(-E_g/T) / sum_all e^(-E/T)."""
    if T <= 0:
        raise ValueError("temperature must be positive")
    E = np.asarray(energies, dtype=float)
    if ground_indices is None:
        ground_indices = ground_set(E)
    w = np.exp(-(E - E.min()) / T)
    return float(w[ground_indices].sum() / w.sum())


@dataclass
class ImagRun:
    times: np.ndarray
    p_gs: np.ndarray
    ground_indices: np.ndarray
    amplitudes: np.ndarray


def imaginary_time_evolve(J: np.ndarray, h: np.ndarray | None, config: QAConfig) -> ImagRun:
    """Norm-preserved imaginary-time analog of the quantum anneal.

    Runs the QA split step with real decay factors exp(-dt E/2) and cosh/sinh
    mixing; renormalizing after every step plays the role of the energy-shift
    term that keeps the wavefunction normalized.  The field is h; a
    config.h that differs from it raises ValueError rather than being dropped.
    """
    if config.h is not None and not np.array_equal(config.h, h):
        raise ValueError("config.h differs from h; imaginary time anneals under h")
    grid = _time_grid(config.dt, config.t_end, config.sample_every)
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    E = build_diagonal(J, h)
    ground = ground_set(E)
    psi = np.full(1 << n, 2.0 ** (-n / 2))
    dt = config.dt
    half = np.exp(-0.5 * dt * (E - E.min()))  # shift for overflow safety only

    times, pgs = [0.0], [float(np.sum(psi[ground] ** 2))]
    t = 0.0
    for sampled in grid:
        _split_step(psi, half, transverse_angle(t, t + dt, config.b, config.t0), n)
        norm = np.linalg.norm(psi)
        if norm == 0.0 or not np.isfinite(norm):
            raise RuntimeError(f"norm underflow at t = {t:.2f}")
        psi /= norm
        t += dt
        if sampled:
            times.append(t)
            pgs.append(float(np.sum(psi[ground] ** 2)))

    return ImagRun(np.array(times), np.array(pgs), ground, psi)
