"""Gain-based soft-spin dynamics: annealed energy, solver variants, ensembles.

The soft-spin energy of n amplitudes x with pump p and nonlinearity c is

    E(x) = (c/4) sum_i (p - x_i^2)^2 - (1/2) sum_ij J_ij x_i x_j,

minimized by gradient flow while the pump rises from p0 toward 1.  Solver
variants: "ht" (linear Hopfield-Tank), "cim1" (gradient flow with a scalar
pump schedule), "cim2" (per-spin pump feedback), "cim3" (cim1 plus per-step
amplitude homogenization of configurable strength delta).  Spins are read out
as s_i = sign(x_i).  The landscape of E at a fixed pump (branches, critical
points, basins and barriers) is the `landscape` module's.

Trajectories and ensembles walk the fixed-step clock of :mod:`isinglab.steps`,
with each step's pumps and locked flag from `_schedule`.  Each forward-Euler
step of a batch is one product with an n x n matrix plus the cubic term,
x <- (1 + dt c p) x + dt J x - (dt c) x^2 x (see `_integrate_batch`), which
equals the step of the public `soft_gradient`, `cim2_pump_step` and
`homogenize_intensities` to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .graph import (
    _check_count,
    _check_finite,
    _check_positive,
    analytic_ground_state,
    build_mobius_ladder,
    build_s0,
    build_s1,
    ising_energy,
    validate_coupling_matrix,
)
from .oracle import MAX_SPINS, exhaustive_ground_state
from .steps import _chunk_times, _fixed_steps, _step_count

__all__ = [
    "EnsembleResult",
    "SolverConfig",
    "SuccessStats",
    "TrajectoryResult",
    "cim2_pump_step",
    "default_delta_grid",
    "default_solver_config",
    "ground_hits",
    "ground_readouts",
    "homogenize_intensities",
    "ht_rhs",
    "manifold_reduce",
    "pump_tanh",
    "run_ensemble",
    "run_trajectory",
    "soft_energy",
    "soft_gradient",
    "soft_hessian",
    "spin_readout",
    "success_probability",
    "tune_delta",
]

VARIANTS = ("ht", "cim1", "cim2", "cim3")
DIVERGENCE_LIMIT = 1e6
FREEZE_STEPS = 200  # early stop after this many steps without a sign change


# ---------------------------------------------------------------------------
# energy, gradients, schedules
# ---------------------------------------------------------------------------

def soft_energy(x, p, c, J):
    """Annealed soft-spin energy; broadcasts over leading batch axes of x."""
    x = np.asarray(x, dtype=float)
    quartic = 0.25 * c * np.sum((p - x**2) ** 2, axis=-1)
    coupling = -0.5 * np.einsum("...i,...i->...", x @ J.T, x)
    out = quartic + coupling
    return float(out) if out.ndim == 0 else out


def soft_gradient(x, p, c, J):
    """Flow right-hand side c (p x - x^3) + J x, equal to -dE/dx; x is (..., n)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    _gradient_kernel(x.T, c, J, out.T, np.empty_like(x).T)(np.transpose(p))
    return out


def _gradient_kernel(x, c, J, out, scratch):
    """soft_gradient of spin-major x (n, runs) as a function of the pump: p -> out.

    The returned function writes into out, with scratch (x's shape) as work
    space, through views bound once here, so a loop over steps binds nothing
    per step.  The cube is a product: numpy raises an array to the power 3
    through `pow` per element, about fifty times slower than `x * x * x` on
    an ensemble batch.  Every operation writes into out or scratch, in the
    order of `c * (p * x - x * x * x) + J x`.  The coupling term is written
    (J x).T = x.T J.T: numpy runs it as the product `J @ x` on a C-contiguous
    (n, runs) x, and on the `.T` views of (..., n) rows that
    :func:`soft_gradient` passes as `rows @ J.T`.
    """
    xT, JT, coupling = x.T, J.T, scratch.T
    scaled = c != 1.0  # y * 1.0 is y bitwise

    def gradient(p):
        np.multiply(p, x, out)  # ufuncs take out positionally, which numpy parses faster
        np.square(x, scratch)  # x * x bitwise, by a unary loop that runs about twice as fast
        np.multiply(scratch, x, scratch)
        np.subtract(out, scratch, out)
        if scaled:
            np.multiply(out, c, out)
        np.matmul(xT, JT, coupling)
        np.add(out, scratch, out)
        return out

    return gradient


def soft_hessian(x, p, c, J):
    """Energy Hessian H_ij = delta_ij c (3 x_i^2 - p) - J_ij; x is (..., n).

    -J is written into a fresh array and the diagonal term added through the
    strided view of each matrix's diagonal, with no index arrays.
    """
    x = np.asarray(x, dtype=float)
    n = J.shape[0]
    H = np.negative(J, out=np.empty(x.shape[:-1] + J.shape))
    H.reshape(x.shape[:-1] + (n * n,))[..., ::n + 1] += c * (3.0 * x**2 - p)
    return H


def ht_rhs(x, p, J):
    """Linear Hopfield-Tank right-hand side p x + J x; x is (..., n)."""
    x = np.asarray(x, dtype=float)
    return p * x + x @ J.T


def pump_tanh(t, p0, eps):
    """Scalar pump schedule (1 - p0) tanh(eps t) + p0; starts at p0, tends to 1."""
    return (1.0 - p0) * np.tanh(eps * t) + p0


def cim2_pump_step(p_i, x, eps, dt):
    """Forward-Euler update of the per-spin pumps: p_i += eps (1 - x_i^2) dt."""
    x = np.asarray(x, dtype=float)
    return np.asarray(p_i, dtype=float) + eps * (1.0 - x**2) * dt


def manifold_reduce(x, delta):
    """Pull each amplitude toward the mean squared radius R = sum x_i^2 / n.

    Maps x_i -> (1 - delta) x_i + delta R sign(x_i); signs are preserved,
    zero components stay at zero, delta = 0 is the identity and delta = 1
    sends every magnitude to R.
    """
    delta = _mixing_fraction(delta)
    x = np.asarray(x, dtype=float)
    R = np.mean(x**2, axis=-1, keepdims=True)
    return np.where(x != 0.0, (1.0 - delta) * x + delta * R * np.sign(x), x)


def homogenize_intensities(x, frac):
    """Mix every squared amplitude toward the mean: x_i^2 -> (1-frac) x_i^2 + frac R.

    Scale-free counterpart of :func:`manifold_reduce` used inside cim3 steps:
    it preserves signs and the total squared radius, so it homogenizes
    amplitude patterns at any overall scale (at frac = 1 every magnitude
    becomes the root mean square).  Zero components stay at zero and so do
    not take up their share frac R: the radius is preserved in rows without
    zeros.  frac = 0 returns x unchanged.  frac is a scalar or broadcasts
    against the batch axes of x, e.g. one fraction per run of shape (runs, 1).
    """
    x = np.asarray(x, dtype=float)
    frac = _mixing_fraction(frac)
    intensity = x * x
    R = np.mean(intensity, axis=-1, keepdims=True)
    return np.where(frac > 0.0, np.sign(x) * np.sqrt((1.0 - frac) * intensity + frac * R), x)


def _mixing_fraction(frac) -> np.ndarray:
    """frac as a float array, raising ValueError unless every entry lies in [0, 1]."""
    frac = np.asarray(frac, dtype=float)
    if not (0.0 <= frac.min() and frac.max() <= 1.0):  # NaN fails too
        raise ValueError(f"mixing fraction must lie in [0, 1], got {frac}")
    return frac


def _mixer(x, sq, mag, sgn, frac):
    """cim3's homogenization of spin-major x (n, runs) in place, as mix().

    frac holds one range-checked mixing fraction per run (runs,).  Each call
    of mix() squares x into sq, mixes it into the intensity
    keep x^2 + frac R, with keep = 1 - frac and R the mean of x^2 over the
    spin axis (one reduction), and gives x the magnitudes sqrt(intensity),
    taken into mag, with the signs of x; runs at frac = 0 keep x and x^2.
    sq then holds the mixed intensity, the square of the new x to rounding.
    sgn is work space of x's shape; keep is repeated to x's shape, since
    numpy multiplies by a same-shape array about twice as fast as by a
    broadcast row.  mix() returns whether it took the `copysign` path.

    The signs come by one `np.copysign(mag, x, x)` when every run is mixed
    and every square x^2 is positive, so x has no exact zero and no NaN.
    Otherwise they come from `np.sign` and a masked multiply: `copysign`
    would give an exact-zero component the magnitude sqrt(frac R) and a NaN
    component a number.
    """
    n, runs = x.shape
    frac = frac.reshape(1, runs)
    keep = np.repeat(1.0 - frac, n, axis=0)
    share = frac / n  # frac R is the row sum times frac / n
    mixed = frac > 0.0
    mixed = True if mixed.all() else mixed
    by_copysign_ok = mixed is True and x.size > 0  # `min` needs an entry
    R = np.empty((1, runs))

    def mix():
        np.square(x, sq)
        by_copysign = by_copysign_ok and sq.min() > 0.0  # NaN fails too
        np.multiply(np.add.reduce(sq, axis=0, out=R, keepdims=True), share, R)
        np.multiply(sq, keep, sq)
        np.add(sq, R, sq)
        np.sqrt(sq, mag)
        if by_copysign:
            np.copysign(mag, x, x)
        else:
            np.sign(x, sgn)
            np.multiply(sgn, mag, x, where=mixed)
        return by_copysign

    return mix


def spin_readout(x):
    """Hard spins sign(x_i); zero components read as +1."""
    return np.where(np.asarray(x) >= 0.0, 1, -1).astype(np.int8)


def spin_family(spins: np.ndarray) -> str:
    """Name the symmetry family of a hard-spin pattern by its ring defects."""
    return _spin_families(np.asarray(spins)[None, :])[0]


def _spin_families(spins: np.ndarray) -> list[str]:
    """:func:`spin_family` of each row of spins (rows, n), from one pass over all ring defects.

    A ring defect is an aligned ring bond (s_b s_{b+1} = +1).  A row with
    two defects at b0 < b1 has gap min(b1 - b0, n - (b1 - b0)).
    """
    n = spins.shape[1]
    aligned = spins * np.roll(spins, -1, axis=1) > 0
    first = aligned.argmax(axis=1)
    span = n - 1 - aligned[:, ::-1].argmax(axis=1) - first
    gaps = np.minimum(span, n - span)
    names = []
    for count, gap in zip(aligned.sum(axis=1).tolist(), gaps.tolist()):
        if count == 0:
            names.append("S0")
        elif count != 2:
            names.append(f"{count}-defect")
        else:
            names.append("S1" if gap == n // 2 else f"2-defect(sep={gap})")
    return names


# ---------------------------------------------------------------------------
# trajectories and ensembles
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Parameters of one soft-spin solver run."""

    variant: str = "cim1"
    p0: float | None = None
    c: float = 1.0
    eps: float = 0.003
    dt: float = 0.1
    t_end: float = 3000.0
    delta: float = 0.0
    init_amplitude: float = 0.001
    seed: int = 0
    sample_every: int = 0
    early_stop: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        _check_positive("dt", self.dt)
        _check_positive("t_end", self.t_end)
        _step_count(self.t_end, self.dt)  # a finite step count too
        _mixing_fraction(self.delta)
        _check_positive("eps", self.eps)  # the pump rises, cim2 locks at 2/eps
        if self.p0 is not None:
            _check_finite("p0", self.p0)
        _check_positive("c", self.c)
        _check_positive("init_amplitude", self.init_amplitude)
        if self.init_amplitude > DIVERGENCE_LIMIT:  # every run would start diverged
            raise ValueError(f"init_amplitude must be at most the divergence limit "
                             f"{DIVERGENCE_LIMIT:g}, got {self.init_amplitude}")
        _check_count("sample_every", self.sample_every, 0)

    @property
    def steps(self) -> int:
        """Euler steps from t = 0 to t_end."""
        return _step_count(self.t_end, self.dt)


def default_solver_config(j: float, variant: str = "cim1", **overrides) -> SolverConfig:
    """Baseline configuration with the pump starting at p0 = j - 2."""
    cfg = SolverConfig(variant=variant, p0=j - 2.0)
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class TrajectoryResult:
    """Final state of one integrated trajectory plus optional samples."""

    x: np.ndarray
    spins: np.ndarray
    t: float
    ising_energy: float
    soft_energy: float
    diverged: bool
    samples: list = field(default_factory=list)  # rows (t, pump, x, soft energy)


@dataclass
class EnsembleResult:
    spins: np.ndarray        # (runs, n) int8 readouts
    final_x: np.ndarray      # (runs, n)
    diverged: np.ndarray     # (runs,) bool
    steps_run: int
    locked_step: int         # first step of the locked regime, or the step count if never locked


@dataclass
class SuccessStats:
    p_gs: float
    stderr: float
    hits: int
    runs: int
    diverged: int


def _initial_batch(n: int, runs: int, amplitude: float, seed: int) -> np.ndarray:
    """Per-run initial conditions from independent, scheduling-free seed streams."""
    x0 = np.empty((runs, n))
    for r in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        x0[r] = rng.uniform(-amplitude, amplitude, n)
    return x0


def _schedule(config: SolverConfig):
    """The step schedule of one solver call: (bytes per step, ts -> per-step coefficients).

    For chunk times ts, a step's coefficients are its start and end pumps,
    pump_tanh(ts), and whether it is locked, so that early stopping may end it:
    its start pump is above 0.9 (for cim2, its end is past 2 / eps).
    """
    def coefficients(ts):
        pumps = pump_tanh(ts, config.p0, config.eps)
        locked = ts[1:] > 2.0 / config.eps if config.variant == "cim2" else pumps[:-1] > 0.9
        return pumps[:-1], pumps[1:], locked

    return 17, coefficients  # a time and a pump (float64) and a locked flag per step


def _locked_step(config: SolverConfig) -> int:
    """The first step of the locked regime, or the step count if the run never reaches it."""
    if config.variant == "ht":  # no locked regime
        return config.steps
    step_bytes, coefficients = _schedule(config)
    start = 0
    for flags, ts in _chunk_times(repeat(False, config.steps), config.dt, step_bytes):
        first = np.flatnonzero(coefficients(ts)[2])
        if first.size:
            return start + int(first[0])
        start += len(flags)
    return config.steps


def _check_scale(J: np.ndarray, config: SolverConfig) -> None:
    """Raise ValueError unless a step's terms stay finite over the divergence box.

    Every run starts a step inside the box |x_i| <= L = DIVERGENCE_LIMIT, or
    is clipped back into it, and the square it holds is at most L^2.  There
    the pumps stay within P = max(|p0|, 1) (pump_tanh runs from p0 towards
    1; a cim2 pump moves by eps |1 - x^2| dt <= eps L^2 dt a step, so P
    grows by eps (t_end + dt) L^2).  With G = max(c, 1) (P L + L^3) +
    n max_ij |J_ij| L, the product |A_s x| is at most L + dt G, and the
    cubic term dt c |x|^3 and cim2's dt c |p_i - x^2| |x| are each at most
    dt G, so an amplitude after the step is at most X = L + 2 dt G.  The
    bound is the largest of n X^2, which the square of the unclipped step
    and cim3's row sum of it reach, and the energy terms
    n max(c, 1) (P + A^2)^2 + n^2 max_ij |J_ij| A^2 of a sample or the end
    of a trajectory, at amplitudes up to A = L (A = X for ht, whose runs the
    box does not clip: a trajectory stops at the step that leaves
    |x_i| < 1).  The pump schedule's argument eps (t_end + dt) counts too.
    J is a validated coupling matrix.
    """
    n, limit = J.shape[0], DIVERGENCE_LIMIT
    j_max = float(np.abs(J).max())
    c_bound, dt = max(float(config.c), 1.0), float(config.dt)  # Python floats overflow without a warning
    pump = max(abs(float(config.p0)), 1.0)
    if config.variant == "cim2":
        pump += float(config.eps) * (float(config.t_end) + dt) * limit * limit
    gradient = c_bound * (pump * limit + limit * limit * limit) + n * j_max * limit
    reach = limit + 2.0 * dt * gradient
    amplitude = reach if config.variant == "ht" else limit
    quartic = pump + amplitude * amplitude
    bound = max(n * reach * reach, n * c_bound * quartic * quartic + n * n * j_max * amplitude * amplitude,
                float(config.eps) * (float(config.t_end) + dt))
    if not bound < np.inf:
        raise ValueError(f"variant {config.variant} with p0 = {config.p0}, c = {config.c}, "
                         f"dt = {config.dt} and couplings up to {j_max:g} overflows over "
                         f"the divergence box |x_i| <= {limit:g}")


def _integrate_batch(J: np.ndarray, config: SolverConfig, x0: np.ndarray,
                     delta_per_run: np.ndarray | None = None,
                     collect_samples: bool = False):
    """Shared integration core for trajectories and ensembles.

    Returns (x, spins, diverged, steps, locked_step, samples, (t, pump)), t and
    the (runs, n) pumps at the end of the last step.  HT runs read spins out at
    the first time max|x_i| >= 1 (the linear dynamics has no saturation);
    the other variants stop early once every run's signs have been stable for
    FREEZE_STEPS steps in the locked regime.  A run whose squared amplitudes
    leave [0, DIVERGENCE_LIMIT^2] or stop being finite is clipped into the
    box |x_i| <= DIVERGENCE_LIMIT, flagged as diverged and frozen there.
    Each step checks the whole batch with one reduction; per-run masks are
    built only when it fails.

    Each Euler step x + dt (c (p x - x^3) + J x) is one product with an
    (n, n) matrix plus the cubic term: ht steps x <- A_s x with
    A_s = (1 + dt p_s) I + dt J, cim1 and cim3 x <- A_s x - (dt c) x^2 x
    with A_s = (1 + dt c p_s) I + dt J, and cim2 x <- A x + (dt c)(p_i - x^2) x
    with A = I + dt J.  One matrix serves the batch; its diagonal is
    rewritten each step from the step's pump (J's diagonal is zero).  x^2
    is the square the step already holds: the divergence check's, and for
    cim3 the mixed intensity before its square root (`_mixer`).  The cim2
    pumps then move by (eps dt)(1 - x^2) in place, from amplitudes in the
    box, so a diverged run's pumps stay bounded.  A step thus agrees with
    `x + dt * soft_gradient(...)`, `cim2_pump_step` and
    `homogenize_intensities` to rounding, not bit for bit.

    The batch is stored spin-major: x0 is transposed once into a C-contiguous
    (n, runs) array and x back once at the end, so every elementwise
    operation, the product `A @ x` and the cim3 row sum run along the
    contiguous run axis.  A step makes no new batch-sized arrays: the
    product goes into a second (n, runs) buffer (for ht it then swaps roles
    with x; the others write the sum with the cubic term back into x), and
    two more hold the square and the cubic term (the pump increment, signs
    and |x| at other times).

    Signs are tracked only where they can decide the early stop: from step
    locked_step - FREEZE_STEPS + 1 on (from step 0 when that is negative),
    and not at all when early stopping is off or samples are collected,
    since neither then stops early.  No step before locked_step
    is locked, so none can stop, and at a locked step s the stop asks only
    whether a sign changed in steps s - FREEZE_STEPS + 1 .. s, all inside
    that window, so the step count is the one that tracking every step
    gives.  The tracking swaps a pair of sign buffers each step and
    compares them into one bool mask.
    """
    if config.p0 is None:
        raise ValueError("SolverConfig.p0 is unset; use default_solver_config(j, ...)")
    _check_scale(J, config)
    runs, n = x0.shape
    c, eps, dt = config.c, config.eps, config.dt
    dtc = dt * c
    variant = config.variant
    x = np.array(x0.T, order="C")  # spin-major (n, runs)
    steps = config.steps
    locked_step = _locked_step(config)
    step_bytes, coefficients = _schedule(config)
    every = config.sample_every if collect_samples else 0  # 0: no step is sampled
    grid = ((s + 1) % every == 0 for s in range(steps)) if every else repeat(False, steps)
    samples = []

    A = np.multiply(J, dt)
    diagonal = A.reshape(-1)[::n + 1]
    diagonal.fill(1.0)  # cim2's A = I + dt J; the others rewrite it every step
    gain = dt if variant == "ht" else dtc
    new_x = np.empty_like(x)  # the product A x (ht's next x; cim3's magnitudes)
    sq = np.empty_like(x)  # x^2 held from the last check (the mixed intensity for cim3)
    work = np.empty_like(x)  # cubic term, pump increment, signs, |x|
    if variant != "ht":
        np.square(x, sq)
    limit_sq = DIVERGENCE_LIMIT * DIVERGENCE_LIMIT
    if variant == "cim3":  # one mixing fraction per run, range-checked once
        frac = np.full(runs, config.delta) if delta_per_run is None else delta_per_run
        mix = _mixer(x, sq, new_x, work, _mixing_fraction(frac))

    pump_i = np.full((n, runs), config.p0) if variant == "cim2" else None
    ht_spins = np.zeros((n, runs), dtype=np.int8)
    ht_done = np.zeros(runs, dtype=bool)
    diverged = np.zeros(runs, dtype=bool)
    any_diverged = False
    frozen_x = np.zeros_like(x)
    track = config.early_stop and not collect_samples and variant != "ht"
    track_from = max(0, locked_step - FREEZE_STEPS + 1) if track else steps
    signs, new_signs = np.empty_like(x), np.empty_like(x)
    changed = np.empty((n, runs), dtype=bool)
    last_change = 0  # last step at which some run's signs changed

    all_read = False  # every HT run has read out: the loop ends after this step's sample
    t, pump_end = 0.0, pump_tanh(0.0, config.p0, eps)  # where a run of no steps ends
    for step, (t, sampled, pump, pump_end, locked) in enumerate(
            _fixed_steps(grid, dt, step_bytes, coefficients)):
        if step == track_from:
            np.sign(x, signs)
        if variant != "cim2":
            diagonal.fill(1.0 + gain * pump)
        np.matmul(A, x, new_x)
        if variant == "ht":
            x, new_x = new_x, x
            if np.abs(x, work).max() >= 1.0:
                hit = (work.max(axis=0) >= 1.0) & ~ht_done
                if np.any(hit):
                    ht_spins[:, hit] = spin_readout(x[:, hit])
                    ht_done[hit] = True
                all_read = ht_done.all()
        else:
            if variant == "cim2":
                np.subtract(pump_i, sq, work)
                np.multiply(work, x, work)
                np.multiply(work, dtc, work)
                np.add(new_x, work, x)
            else:
                np.multiply(sq, x, work)
                np.multiply(work, dtc, work)
                np.subtract(new_x, work, x)
            if variant == "cim3":
                mix()  # squares x into sq and mixes it there
            if any_diverged:
                x[:, diverged] = frozen_x[:, diverged]  # diverged runs stay flagged, not evolved
            if variant != "cim3" or any_diverged:
                np.square(x, sq)
            if not sq.max() <= limit_sq:  # NaN fails too
                bad = ~(sq.max(axis=0) <= limit_sq)
                x[:, bad] = np.nan_to_num(np.clip(x[:, bad], -DIVERGENCE_LIMIT, DIVERGENCE_LIMIT))
                np.square(x, sq)
                frozen_x[:, bad] = x[:, bad]
                diverged |= bad
                any_diverged = True
            if variant == "cim2":
                np.subtract(1.0, sq, work)
                np.multiply(work, eps * dt, work)
                np.add(pump_i, work, pump_i)

        if sampled:
            pv = pump_i[:, 0].copy() if variant == "cim2" else pump_end
            x_0 = x[:, 0].copy()
            samples.append((t, pv, x_0, soft_energy(x_0, pv, c, J)))
        if all_read:
            step += 1
            break

        if step >= track_from:
            np.sign(x, new_signs)
            if np.not_equal(new_signs, signs, changed).any():
                last_change = step
            signs, new_signs = new_signs, signs
            if locked and step - last_change >= FREEZE_STEPS:
                step += 1
                break
    else:
        step = steps

    x = np.ascontiguousarray(x.T)
    spins = spin_readout(x)
    if variant == "ht":
        spins = np.where(ht_done[:, None], ht_spins.T, spins)
    return x, spins, diverged, step, locked_step, samples, (
        t, pump_i.T if variant == "cim2" else np.full(x.shape, pump_end))


def run_trajectory(J: np.ndarray, config: SolverConfig) -> TrajectoryResult:
    """Integrate one trajectory from a random start in [-a, a]^n."""
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    x0 = _initial_batch(n, 1, config.init_amplitude, config.seed)
    x, spins, diverged, _, _, samples, (t, pump) = _integrate_batch(
        J, config, x0, collect_samples=config.sample_every > 0)
    xf = x[0]
    return TrajectoryResult(
        x=xf,
        spins=spins[0],
        t=t,
        ising_energy=ising_energy(J, spins[0].astype(float)),
        soft_energy=soft_energy(xf, pump[0], config.c, J),
        diverged=bool(diverged[0]),
        samples=samples,
    )


def run_ensemble(J: np.ndarray, config: SolverConfig, runs: int, seed: int,
                 delta_per_run: np.ndarray | None = None) -> EnsembleResult:
    """Integrate `runs` independent trajectories; run r draws its start from
    the seed stream (seed, r), so results do not depend on batch composition."""
    J = validate_coupling_matrix(J)
    _check_count("runs", runs, 1)
    n = J.shape[0]
    x0 = _initial_batch(n, runs, config.init_amplitude, seed)
    x, spins, diverged, steps, locked_step, *_ = _integrate_batch(J, config, x0, delta_per_run)
    return EnsembleResult(spins=spins, final_x=x, diverged=diverged, steps_run=steps,
                          locked_step=locked_step)


def ground_readouts(J: np.ndarray) -> np.ndarray:
    """(G, n) int8 rows of every Ising ground state of J, as :func:`spin_readout` gives them.

    Exhaustive enumeration up to the oracle's spin limit.  Beyond it J must
    be a Mobius ladder, whose ground set is analytic: S0 and/or the n/2
    rotations of S1, each with its global flip.
    """
    J = validate_coupling_matrix(J)
    n = J.shape[0]
    if n <= MAX_SPINS:
        return np.array(exhaustive_ground_state(J).ground_states, dtype=np.int8)
    j = -float(J[0, n // 2])
    if j <= 0.0 or not np.array_equal(J, build_mobius_ladder(n, j)):
        raise ValueError(f"ground set for n = {n} > {MAX_SPINS} spins is known "
                         "only for Mobius ladders")
    label = analytic_ground_state(n, j).label
    configs = [build_s0(n)] if label in ("S0", "tie") else []
    if label in ("S1", "tie"):
        configs.extend(build_s1(n, i0) for i0 in range(n // 2))
    configs = np.array(configs, dtype=np.int8)
    return np.concatenate([configs, -configs])


def ground_hits(spins: np.ndarray, ground: np.ndarray) -> np.ndarray:
    """Mask over the +-1 rows of `spins` that equal some row of `ground`, at any n."""
    def keys(rows):  # sign bits packed into bytes: one opaque key per row
        packed = np.packbits(np.asarray(rows) > 0, axis=-1)
        return np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[-1])))[:, 0]

    return np.isin(keys(spins), keys(ground))


def success_probability(J: np.ndarray, config: SolverConfig, runs: int, seed: int = 0,
                        ground_spins: np.ndarray | None = None) -> SuccessStats:
    """Fraction of runs whose readout is a row of `ground_spins` (default: ground_readouts(J)).

    A diverged run stays in the count: its readout is the signs of its frozen
    amplitudes, clipped into [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT] (a NaN
    component reads as 0, so +1), and it is a hit when those signs match a
    ground state.  `diverged` reports how many runs diverged.
    """
    J = validate_coupling_matrix(J)
    ground = ground_readouts(J) if ground_spins is None else ground_spins
    return _success_stats(run_ensemble(J, config, runs, seed), ground)


def _success_stats(res: EnsembleResult, ground: np.ndarray) -> SuccessStats:
    """Ground hits of an ensemble's readouts, their share p and its binomial standard error."""
    runs = len(res.spins)
    hits = int(ground_hits(res.spins, ground).sum())
    p = hits / runs
    return SuccessStats(
        p_gs=p,
        stderr=float(np.sqrt(p * (1.0 - p) / runs)),
        hits=hits,
        runs=runs,
        diverged=int(res.diverged.sum()),
    )


def default_delta_grid() -> np.ndarray:
    """Homogenization strengths scanned when tuning cim3, log-spaced in (0, 1)."""
    return np.round(np.geomspace(0.002, 0.9, 19), 6)


def tune_delta(J: np.ndarray, config: SolverConfig, seed: int = 0,
               grid: np.ndarray | None = None, prelim_runs: int = 200,
               ground_spins: np.ndarray | None = None):
    """Pick the cim3 delta maximizing ground-state probability on preliminary runs.

    Scans the grid with `prelim_runs` trajectories per candidate (one batched
    integration) and returns (best_delta, table of (delta, p_gs)).  Ties go to
    the smaller delta.
    """
    J = validate_coupling_matrix(J)
    ground = ground_readouts(J) if ground_spins is None else ground_spins
    grid = default_delta_grid() if grid is None else np.asarray(grid, dtype=float)
    deltas = np.repeat(grid, prelim_runs)
    cfg = replace(config, variant="cim3")
    res = run_ensemble(J, cfg, len(deltas), seed, delta_per_run=deltas)
    hits = ground_hits(res.spins, ground).reshape(grid.size, prelim_runs).sum(axis=1)
    table = [(float(d), int(k) / prelim_runs) for d, k in zip(grid, hits)]
    return max(table, key=lambda row: row[1])[0], table  # max keeps the first of ties


def __getattr__(name: str):
    # The benchmark harness traces `softspin.basin_sample` by that name
    # (perfbench/layers.py); the sampler lives in `landscape`, imported on
    # first access so that either module may be imported first.
    if name == "basin_sample":
        from .landscape import basin_sample
        return basin_sample
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
