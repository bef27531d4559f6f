"""Ising-Hamiltonian minimization lab on Mobius-ladder graphs.

Subpackages by theme: `graph` (instances, spectra, analytic ground states),
`oracle` (exhaustive enumeration), `softspin` (gain-based soft-spin solvers
and ensembles), `landscape` (the fixed-pump landscape: branches, critical
points, basins and barriers), `quantum` (state-vector annealing), `master`
(master-equation annealing), `invariants` (the check registry shared by
`isinglab verify` and the tests), `cli` (experiment runner).

`import isinglab` loads no submodule.  Each submodule, and each name below,
is imported on first access (PEP 562), so a command loads only the modules it
runs.  A name is looked up in its home module on every access, never cached
here, so rebinding it there (as a tracer or a test patch does) shows through.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("graph", "invariants", "landscape", "master", "oracle", "quantum", "softspin")

_EXPORTS = {  # name -> its home submodule
    **dict.fromkeys(("analytic_ground_state", "build_mobius_ladder", "build_s0", "build_s1",
                     "ising_energy", "j_crit", "j_e", "mobius_eigenvalue",
                     "mobius_eigenvector", "mobius_spectrum"), "graph"),
    **dict.fromkeys(("exhaustive_ground_state", "ground_state_projector"), "oracle"),
    **dict.fromkeys(("basin_sample", "branch_e0", "branch_e1"), "landscape"),
    **dict.fromkeys(("SolverConfig", "default_solver_config", "manifold_reduce",
                     "run_trajectory", "soft_energy", "soft_gradient",
                     "success_probability"), "softspin"),
    **dict.fromkeys(("QAConfig", "run_qa"), "quantum"),
    **dict.fromkeys(("AnnealSchedule", "anneal_master"), "master"),
}

__all__ = [*_SUBMODULES, *_EXPORTS]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
