"""The invariant registry: exact-kernel checks shared by `isinglab verify` and the tests.

`REGISTRY` is an ordered list of `(name, fn)` entries; `fn()` returns
`(measured, threshold)` and an entry passes iff `measured < threshold`.  The
CLI's `verify` command and the acceptance suite both run every entry through
`run(name)`, so the two cannot drift apart.  Each entry runs at desk scale
(seconds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import graph, landscape, master, oracle, quantum, softspin

__all__ = ["HEADER", "REGISTRY", "Outcome", "check", "names", "run"]

REGISTRY: list = []

HEADER = f"{'check':28s} {'measured':>12s} {'threshold':>12s} result"


def check(name: str):
    """Register the decorated `fn() -> (measured, threshold)` under `name`."""
    def wrap(fn):
        REGISTRY.append((name, fn))
        return fn
    return wrap


def names() -> list[str]:
    return [name for name, _ in REGISTRY]


@dataclass(frozen=True)
class Outcome:
    name: str
    measured: float
    threshold: float
    seconds: float

    @property
    def passed(self) -> bool:
        return bool(self.measured < self.threshold)

    def line(self) -> str:
        return (f"{self.name:28s} {self.measured:12.3e} {self.threshold:12.3e} "
                f"{'PASS' if self.passed else 'FAIL'}  [{self.seconds:.1f}s]")


def run(name: str) -> Outcome:
    """Run one registry entry and time it; exceptions propagate."""
    fn = dict(REGISTRY)[name]
    t0 = time.monotonic()
    measured, threshold = fn()
    return Outcome(name, float(measured), float(threshold), time.monotonic() - t0)


@check("spectral-exactness")
def _spectral():
    worst = 0.0
    for n in (4, 6, 8, 10, 12):
        for j in (0.1, 0.5, 1.0):
            dense = np.sort(np.linalg.eigvalsh(graph.build_mobius_ladder(n, j)))
            analytic = np.sort(graph.mobius_spectrum(n, j))
            worst = max(worst, float(np.max(np.abs(dense - analytic))))
    return worst, 1e-10


@check("ground-state-crossing")
def _crossing():
    """Oracle ground family is S0 just below j_crit and S1 just above (count of misses)."""
    misses = 0
    for n in (8, 12):
        jc = graph.j_crit(n)
        for j, family in ((jc - 1e-3, "S0"), (jc + 1e-3, "S1")):
            ground = oracle.exhaustive_ground_state(graph.build_mobius_ladder(n, j))
            misses += softspin.spin_family(ground.ground_states[0].astype(int)) != family
    return misses, 0.5


@check("branch-crossing-pump")
def _pc():
    pc = landscape.branch_crossing_pump(0.4, 8, 1.0)
    return (np.inf if pc is None else abs(pc - (-0.0872))), 5e-4


@check("gradient-consistency")
def _grad():
    """soft_gradient against central differences of soft_energy (relative error)."""
    J = graph.build_mobius_ladder(8, 0.4)
    rng = np.random.default_rng(31)
    hstep = 1e-5
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, 8)
        p = rng.uniform(-1.5, 2.0)
        g = softspin.soft_gradient(x, p, 1.0, J)
        for i in range(8):
            e = np.zeros(8)
            e[i] = hstep
            fd = (softspin.soft_energy(x + e, p, 1.0, J)
                  - softspin.soft_energy(x - e, p, 1.0, J)) / (2 * hstep)
            worst = max(worst, abs(-fd - g[i]) / max(1.0, abs(g[i])))
    return worst, 1e-6


@check("strang-norm")
def _norm():
    J = graph.build_mobius_ladder(6, 0.5)
    run = quantum.run_qa(J, quantum.QAConfig(dt=0.05, t_end=500.0, sample_every=10**9))
    return run.state.norm_error(), 1e-10


@check("strang-order")
def _order():
    """Halving dt divides the error by 4 (second order): |ratio - 4|."""
    E = quantum.build_diagonal(graph.build_mobius_ladder(4, 0.4))

    def evolve(dt):
        state = quantum.initial_state(4)
        cfg = quantum.QAConfig(b=5.0, dt=dt)
        for _ in range(int(round(5.0 / dt))):
            state = quantum.strang_step(state, E, cfg)
        return state.amplitudes

    ref = evolve(5.0 / 3200)
    ratio = np.linalg.norm(evolve(0.05) - ref) / np.linalg.norm(evolve(0.025) - ref)
    return abs(ratio - 4.0), 0.5


@check("master-conservation")
def _conserve():
    J = graph.build_mobius_ladder(6, 0.5)
    worst = 0.0
    for mode in ("sa", "ca"):
        run = master.anneal_master(J, None, master.AnnealSchedule(), mode=mode,
                                   dt=0.01, t_end=100.0)
        worst = max(worst, abs(float(run.probabilities.sum()) - 1.0))
    return worst, 1e-8


@check("detailed-balance")
def _balance():
    """Flux balance G_ij pi_j = G_ji pi_i of the SA and CA generators at Boltzmann pi."""
    E = quantum.build_diagonal(graph.build_mobius_ladder(4, 0.7))
    worst = 0.0
    for apply_fn in (master.sa_generator_apply, master.ca_generator_apply):
        for T in (0.3, 1.0, 5.0):
            pi = np.exp(-(E - E.min()) / T)
            flux = np.column_stack([apply_fn(col, E, T) for col in np.diag(pi)])
            np.fill_diagonal(flux, 0.0)
            worst = max(worst, float(np.max(np.abs(flux - flux.T))))
    return worst, 1e-12


@check("bloch-bounds")
def _bloch():
    """Every single-spin Bloch vector of a product state has unit length."""
    state = quantum.initial_state(6)
    worst = max(abs(quantum.bloch_vector(quantum.reduced_density_matrix(state, k)).magnitude - 1.0)
                for k in range(6))
    return worst, 1e-8


@check("bloch-run-bound")
def _bloch_run():
    """max |u| - 1 over a QA run: reduced states stay inside the Bloch ball."""
    J = graph.build_mobius_ladder(6, 0.5)
    run = quantum.run_qa(J, quantum.QAConfig(t_end=100.0, sample_every=20))
    return float(np.max(run.bloch_mag)) - 1.0, 1e-12


@check("flip-symmetry")
def _flip():
    """Zero-field QA and SA distributions are invariant under the global spin flip."""
    J = graph.build_mobius_ladder(6, 0.5)
    qa = quantum.run_qa(J, quantum.QAConfig(t_end=50.0, sample_every=10**9))
    sa = master.anneal_master(J, None, master.AnnealSchedule(), mode="sa",
                              dt=0.01, t_end=50.0)
    worst = 0.0
    for probs in (np.abs(qa.state.amplitudes) ** 2, sa.probabilities):
        worst = max(worst, float(np.max(np.abs(probs - probs[::-1]))))  # complement = reversal
    return worst, 1e-10


@check("oracle-vs-analytic")
def _oracle_analytic():
    """Oracle ground energy and degeneracy against the analytic ones (count of misses)."""
    misses = 0
    for n in (6, 8, 10, 12):
        for j in np.linspace(0.05, 1.0, 20):
            if abs(j - graph.j_crit(n)) < 1e-9:
                continue
            summary = oracle.exhaustive_ground_state(graph.build_mobius_ladder(n, j))
            info = graph.analytic_ground_state(n, j)
            misses += not (abs(summary.ground_energy - info.energy) < 1e-9
                           and len(summary.ground_states) == info.degeneracy)
    return misses, 0.5
