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
temperatures.  The anneal walks the fixed-step clock of :mod:`isinglab.steps`,
which fits the two new tables of each step (its midpoint and its end) for a
chunk of steps in `steps.TABLE_BYTES`.  RK4 keeps its four slopes, one stage
buffer and one accumulator for the whole anneal, and each rhs writes into the
slope it fills, so no step allocates a 2^n array.  Imaginary time is QA's split
evolution with real factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import _check_positive, validate_coupling_matrix
from .oracle import energy_scale
from .quantum import QAConfig, _diagonal_factors, _split_evolution, build_diagonal, ground_set
from .steps import _fixed_steps, _time_grid

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
LOG_FLOAT_MAX = math.log(np.finfo(float).max)
RK4_STABLE_LIMIT = 2.785  # RK4 is stable on the negative real axis for dt |lambda| up to this


@dataclass
class AnnealSchedule:
    """Temperature schedule T(t) = d / sqrt(t + t0)."""

    d: float = 5.0
    t0: float = 0.5

    def __post_init__(self):
        _check_positive("d", self.d)
        _check_positive("t0", self.t0)


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


def _sa_rates(E: np.ndarray):
    """Single-spin-flip generator: E -> (bytes per step, Ts -> one rhs per T), n rates per state.

    Row k < n of a temperature's table holds the rate into each state from its
    bit-k partner.  Row n pairs each state with itself and holds
    sum_k w_k - n, which is minus the rate out (A_ij + A_ji = 1 for every
    pair).  So one gather, one product and one sum over the rows give the rhs,
    summed into `out` when given.
    """
    n = int(round(np.log2(E.size)))
    states = np.arange(E.size)
    partner = np.vstack([states ^ (1 << np.arange(n))[:, None], states])  # (n + 1, 2^n)
    tables = _rate_tables(E[partner] - E)
    terms = np.empty(partner.shape)  # reused by every rhs call

    def rhs(w):
        def apply(q, out=None):
            q.take(partner, out=terms, mode="wrap")  # in range; "wrap" skips the buffered copy
            np.multiply(terms, w, out=terms)
            return np.add.reduce(terms, 0, None, out)  # positional out: out= parses slower
        return apply

    def at(Ts):
        w = tables(Ts)
        w[:, n] = np.add.reduce(w[:, :n], axis=1) - n
        return [rhs(w_T) for w_T in w]

    return 16 * partner.size, at  # two float64 tables per RK4 step


def _ca_rates(E: np.ndarray):
    """All-pairs generator through the energy levels: E -> (bytes per step, Ts -> one rhs per T).

    A_ij depends only on E_i and E_j, so with P_b the probability summed over
    level b and g_b its degeneracy, dp_i = (W P)_a - p_i (2^n - W g)_a at
    a = level(i), where W_ab = 1 / (1 + exp((E_a - E_b)/T)).  This holds for
    any p, not only level-uniform ones.  The rhs lands in `out` when given.
    """
    levels, level, g = np.unique(E, return_inverse=True, return_counts=True)
    L = levels.size
    if L > MAX_CA_LEVELS:
        raise ValueError(f"all-pairs rates guarded to {MAX_CA_LEVELS} energy levels, got {L}")
    tables = _rate_tables(levels[None, :] - levels[:, None])

    def rhs(W):
        w_out = (E.size - W @ g)[level]

        def apply(q, out=None):
            P = np.bincount(level, weights=q, minlength=L)
            out = (W @ P).take(level, out=out, mode="wrap")  # in range, as in SA
            out -= w_out * q
            return out
        return apply

    return 16 * L * L, lambda Ts: [rhs(W) for W in tables(Ts)]  # two float64 tables per step


def _apply_at(rates, p, energies, T: float) -> np.ndarray:
    if not T > 0:  # NaN fails too
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
    steps: int                         # RK4 steps taken
    dt_bound: float                    # dt times the eigenvalue bound, against RK4_STABLE_LIMIT


def anneal_master(J: np.ndarray, h: np.ndarray | None, schedule: AnnealSchedule,
                  mode: str = "sa", dt: float = 0.01, t_end: float = 500.0,
                  sample_every: int = 1000) -> MasterRun:
    """Anneal the probability vector from uniform with RK4 at fixed step dt.

    The ground projector is taken from the minimizers of the full diagonal
    (field included).  Breaches of probability conservation abort; small
    negative entries are clipped and renormalized with the event counted.
    A step at which RK4 is unstable raises ValueError up front: both
    generators obey detailed balance with pair rates pi_b / (pi_a + pi_b),
    so their Dirichlet forms bound every eigenvalue by |lambda| <= n for SA
    and 2^n - 1 for CA, and dt times that bound must not exceed
    RK4_STABLE_LIMIT.  A schedule whose largest |dE| / T, at most
    2 * energy_scale * sqrt(t_end + dt + t0) / d, is not finite raises
    ValueError too: its rates and Boltzmann weights would overflow.
    """
    if mode not in ("sa", "ca"):
        raise ValueError(f"mode must be 'sa' or 'ca', got {mode!r}")
    grid = _time_grid(dt, t_end, sample_every)
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    bound = n if mode == "sa" else (1 << n) - 1
    if dt * bound > RK4_STABLE_LIMIT:
        raise ValueError(f"dt = {dt} is unstable for RK4 in mode {mode} at n = {n}: "
                         f"dt * {bound} > {RK4_STABLE_LIMIT}, so dt must be "
                         f"<= {RK4_STABLE_LIMIT / bound:.3g}")
    E = build_diagonal(J, h)
    # every time the anneal reads T at, midpoints included, is below t_end + dt
    ratio = 2.0 * energy_scale(J, h) * math.sqrt(t_end + dt + schedule.t0) / schedule.d
    if not ratio < math.inf:  # Python floats overflow to inf without a warning
        raise ValueError(f"the largest |dE| / T, 2 * energy scale * sqrt(t_end + dt + t0) / d, "
                         f"is not finite: d = {schedule.d} is too small")
    ground = ground_set(E)
    p = np.full(E.size, 1.0 / E.size)
    k1, k2, k3, k4, stage, acc = (np.empty_like(p) for _ in range(6))
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    step_bytes, make_rhs = (_sa_rates if mode == "sa" else _ca_rates)(E)

    times, temps, pgs, per_state = [], [], [], []
    negativity = 0
    steps = 0

    def record(t):
        times.append(t)
        temps.append(temperature(t, schedule))
        pgs.append(float(p[ground].sum()))
        per_state.append(p[ground].copy())

    def step_rates(ts):
        # one table build per chunk: every step's start and end, then its midpoint
        rhs = make_rhs(temperature(np.concatenate([ts, ts[:-1] + 0.5 * dt]), schedule))
        return rhs, rhs[len(ts):], rhs[1:]

    record(0.0)
    for steps, (t, sampled, rhs_a, rhs_m, rhs_end) in enumerate(
            _fixed_steps(grid, dt, step_bytes, step_rates), 1):
        # stages p + (c dt) k and p + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), in the
        # textbook expressions' order (2 k is k + k exactly); ufuncs take out
        # positionally, which numpy parses faster than out=
        rhs_a(p, k1)
        np.multiply(half_dt, k1, stage)
        np.add(stage, p, stage)
        rhs_m(stage, k2)
        np.multiply(half_dt, k2, stage)
        np.add(stage, p, stage)
        rhs_m(stage, k3)
        np.multiply(dt, k3, stage)
        np.add(stage, p, stage)
        rhs_end(stage, k4)
        np.add(k2, k2, acc)
        np.add(acc, k1, acc)
        np.add(k3, k3, stage)
        np.add(acc, stage, acc)
        np.add(acc, k4, acc)
        np.multiply(sixth_dt, acc, acc)
        np.add(p, acc, p)
        if np.minimum.reduce(p) < NEGATIVITY_TOL:
            negativity += 1
            np.clip(p, 0.0, None, out=p)
            p /= p.sum()
        total = np.add.reduce(p)
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
        steps=steps,
        dt_bound=dt * bound,
    )


def boltzmann_reference(energies: np.ndarray, T: float,
                        ground_indices: np.ndarray | None = None) -> float:
    """Equilibrium ground-space occupancy sum_g e^(-E_g/T) / sum_all e^(-E/T).

    A gap (E - min E) / T that overflows is an exact zero weight, its T -> 0 limit.
    """
    if not T > 0:  # NaN fails too
        raise ValueError("temperature must be positive")
    E = np.asarray(energies, dtype=float)
    if ground_indices is None:
        ground_indices = ground_set(E)
    with np.errstate(over="ignore"):  # -inf, and exp(-inf) = 0
        w = np.exp(-(E - E.min()) / T)
    return float(w[ground_indices].sum() / w.sum())


@dataclass
class ImagRun:
    times: np.ndarray
    p_gs: np.ndarray
    ground_indices: np.ndarray
    amplitudes: np.ndarray
    steps: int  # Strang steps taken


def imaginary_time_evolve(J: np.ndarray, h: np.ndarray | None, config: QAConfig) -> ImagRun:
    """Norm-preserved imaginary-time analog of the quantum anneal.

    Runs QA's split evolution with real decay factors exp(-dt E/2) and cosh/sinh
    mixing; renormalizing after every step (a zero or non-finite norm aborts)
    keeps the wavefunction normalized, as the energy-shift term would.  The
    field is h; a config.h that differs from it raises ValueError.  So does a
    first step theta = 2b(sqrt(dt + t0) - sqrt(t0)) whose mixer, which can
    grow the norm by e^(n theta), would overflow the squared norm:
    2 n theta >= ln(float max).
    """
    if config.h is not None and not np.array_equal(config.h, h):
        raise ValueError("config.h differs from h; imaginary time anneals under h")
    grid = _time_grid(config.dt, config.t_end, config.sample_every)
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    # the first step's angle is the largest; Python floats overflow to inf without a warning
    b, t0 = float(config.b), float(config.t0)
    theta = 2.0 * b * (math.sqrt(config.dt + t0) - math.sqrt(t0))
    if not 2.0 * n * theta < LOG_FLOAT_MAX:
        raise ValueError(f"the squared norm overflows in the first step: 2 n theta = "
                         f"{2.0 * n * theta:.4g} >= ln(float max) = {LOG_FLOAT_MAX:.4f} for its "
                         f"transverse angle theta = 2b(sqrt(dt + t0) - sqrt(t0)), b = {config.b}, "
                         f"dt = {config.dt}, t0 = {config.t0}")
    half, ground = _diagonal_factors(J, h, config.dt, False)
    psi = np.full(1 << n, 2.0 ** (-n / 2))

    times, pgs = [0.0], [float(np.sum(psi[ground] ** 2))]
    steps = 0
    for steps, (t, sampled) in enumerate(_split_evolution(psi, half, grid, config, False), 1):
        norm = math.sqrt(psi.dot(psi))  # what np.linalg.norm computes for a real vector
        if norm == 0.0 or not math.isfinite(norm):
            raise RuntimeError(f"state norm {norm:.3e} at t = {t:.2f}")
        psi /= norm
        if sampled:
            times.append(t)
            pgs.append(float(np.sum(psi[ground] ** 2)))

    return ImagRun(np.array(times), np.array(pgs), ground, psi, steps)
