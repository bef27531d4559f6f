"""The package namespace: every public name resolves lazily to its home module."""

import importlib

import pytest

import isinglab

# the names `isinglab` exports, with the submodule each lives in
EXPORTS = {
    "graph": ["analytic_ground_state", "build_mobius_ladder", "build_s0", "build_s1",
              "ising_energy", "j_crit", "j_e", "mobius_eigenvalue", "mobius_eigenvector",
              "mobius_spectrum"],
    "oracle": ["exhaustive_ground_state", "ground_state_projector"],
    "landscape": ["basin_sample", "branch_e0", "branch_e1"],
    "softspin": ["SolverConfig", "default_solver_config", "manifold_reduce", "run_trajectory",
                 "soft_energy", "soft_gradient", "success_probability"],
    "quantum": ["QAConfig", "run_qa"],
    "master": ["AnnealSchedule", "anneal_master"],
    "invariants": [],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_home_modules(module, name):
    home = importlib.import_module(f"isinglab.{module}")
    assert getattr(isinglab, name) is getattr(home, name)
    assert name in dir(isinglab)


@pytest.mark.parametrize("module", EXPORTS)
def test_submodule_is_an_attribute(module):
    assert getattr(isinglab, module) is importlib.import_module(f"isinglab.{module}")
    assert module in dir(isinglab)


def test_table_holds_exactly_the_exported_names():
    assert sorted(isinglab.__all__) == sorted([*EXPORTS, *(name for _, name in NAMES)])


def test_name_follows_a_rebinding_in_its_home_module(monkeypatch):
    # a tracer or a patch rebinds a function in its home module; the package sees it
    from isinglab import quantum

    sentinel = object()
    monkeypatch.setattr(quantum, "run_qa", sentinel)
    assert isinglab.run_qa is sentinel
    from isinglab import run_qa

    assert run_qa is sentinel


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'isinglab' has no attribute 'bogus'"):
        isinglab.bogus
    assert not hasattr(isinglab, "bogus")
    with pytest.raises(ImportError):
        from isinglab import bogus  # noqa: F401
