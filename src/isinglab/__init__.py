"""Ising-Hamiltonian minimization lab on Mobius-ladder graphs.

Subpackages by theme: `graph` (instances, spectra, analytic ground states),
`oracle` (exhaustive enumeration), `softspin` (gain-based soft-spin solvers,
branches, basins), `landscape` (critical points and barriers), `quantum`
(state-vector annealing), `master` (master-equation annealing),
`invariants` (the check registry shared by `isinglab verify` and the tests),
`cli` (experiment runner).
"""

from . import graph, invariants, landscape, master, oracle, quantum, softspin
from .graph import (
    analytic_ground_state,
    build_mobius_ladder,
    build_s0,
    build_s1,
    ising_energy,
    j_crit,
    j_e,
    mobius_eigenvalue,
    mobius_eigenvector,
    mobius_spectrum,
)
from .oracle import exhaustive_ground_state, ground_state_projector
from .softspin import (
    SolverConfig,
    basin_sample,
    branch_e0,
    branch_e1,
    default_solver_config,
    manifold_reduce,
    run_trajectory,
    soft_energy,
    soft_gradient,
    success_probability,
)
from .quantum import QAConfig, run_qa
from .master import AnnealSchedule, anneal_master

__version__ = "0.1.0"
