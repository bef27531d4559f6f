"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single pass/fail line with the measured value and runtime;
run with ``pytest tests/test_acceptance.py -s`` to see them.  Budgets are
asserted alongside the numerical thresholds.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from isinglab import graph, invariants, landscape, master, oracle, quantum, softspin


def _ring(n):
    """Cycle graph with antiferromagnetic ring bonds only (the j = 0 limit)."""
    J = np.zeros((n, n))
    for i in range(n):
        J[i, (i + 1) % n] = J[(i + 1) % n, i] = -1.0
    return J


class _Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start


def _report(name, ok, detail, elapsed, budget):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} [{elapsed:.1f}s / {budget:.0f}s]")


def test_criterion_01_spectral_exactness():
    budget = 1.0
    with _Timer() as t:
        spectral = invariants.run("spectral-exactness")
        exact = all(
            graph.mobius_eigenvalue(8, j, 4) == 2.0 - j
            and graph.mobius_eigenvalue(8, j, 0) == -2.0 - j
            for j in (0.1, 0.5, 1.0)
        )
    ok = spectral.passed and exact and t.elapsed < budget
    _report("criterion-1 spectral exactness", ok,
            f"max |analytic - dense| = {spectral.measured:.2e}, special values exact = {exact}",
            t.elapsed, budget)
    assert spectral.passed
    assert exact
    assert t.elapsed < budget


def test_criterion_02_ground_state_crossing():
    budget = 10.0
    with _Timer() as t:
        brackets = {}
        for n in (8, 12):
            jc = graph.j_crit(n)
            grid = jc + (np.arange(-3, 3) + 0.5) * 1e-3
            labels = []
            for j in grid:
                summary = oracle.exhaustive_ground_state(graph.build_mobius_ladder(n, j))
                fam = softspin.spin_family(summary.ground_states[0].astype(int))
                labels.append(fam)
            switches = [i for i in range(len(grid) - 1) if labels[i] != labels[i + 1]]
            assert len(switches) == 1
            i = switches[0]
            brackets[n] = (grid[i], grid[i + 1])
    ok = True
    for n, (lo, hi) in brackets.items():
        jc = graph.j_crit(n)
        ok &= lo < jc < hi and (hi - lo) <= 1e-3 + 1e-12
    ok &= t.elapsed < budget
    _report("criterion-2 ground-state crossing", ok,
            ", ".join(f"n={n}: 4/n in ({lo:.4f}, {hi:.4f})" for n, (lo, hi) in brackets.items()),
            t.elapsed, budget)
    for n, (lo, hi) in brackets.items():
        assert lo < graph.j_crit(n) < hi
        assert hi - lo <= 1e-3 + 1e-12
    assert t.elapsed < budget


def test_criterion_03_branch_crossing_pump():
    budget = 1.0
    with _Timer() as t:
        crossing = invariants.run("branch-crossing-pump")
    ok = crossing.passed and t.elapsed < budget
    _report("criterion-3 soft-spin branch crossing", ok,
            f"|p_c - (-0.0872)| = {crossing.measured:.2e} (< 5e-4, inf if no crossing)",
            t.elapsed, budget)
    assert crossing.passed
    assert t.elapsed < budget


def test_criterion_04_descent_plateau():
    budget = 120.0
    J = graph.build_mobius_ladder(8, 0.4)
    with _Timer() as t:
        worst_sp0 = 0.0
        for p in np.linspace(-0.2, 2.0, 12):
            br = softspin.descent_state_probabilities(J, float(p), 1.0, 2000, seed=11)
            worst_sp0 = max(worst_sp0, br.sp["SP_0"])
    ok = worst_sp0 <= 0.25 and t.elapsed < budget
    _report("criterion-4 fixed-pump descent plateau", ok,
            f"max SP_0 over p grid = {worst_sp0:.3f} (<= 0.25)", t.elapsed, budget)
    assert worst_sp0 <= 0.25
    assert t.elapsed < budget


def test_criterion_05_basin_ratio():
    budget = 300.0
    J = graph.build_mobius_ladder(8, 0.4)
    with _Timer() as t:
        sample = softspin.basin_sample(J, 2.0, 1.0, 20000, seed=13)
        ground = sum(1 for lab in sample.labels if lab >= 0 and sample.minima[lab].is_ground)
        excited = sum(1 for lab in sample.labels if lab >= 0 and not sample.minima[lab].is_ground)
        ratio = excited / ground
    ok = 3.2 <= ratio <= 4.8 and t.elapsed < budget
    _report("criterion-5 basin-volume ratio", ok,
            f"excited:ground = {ratio:.3f} (target [3.2, 4.8]), "
            f"unresolved = {sample.unresolved}", t.elapsed, budget)
    assert 3.2 <= ratio <= 4.8
    assert sample.unresolved < 0.005 * 20000
    assert t.elapsed < budget


def test_criterion_06_minima_census():
    budget = 120.0
    J = graph.build_mobius_ladder(8, 0.4)
    expected_order = ["S0", "S1", "2-defect(sep=3)", "2-defect(sep=2)", "4-defect"]
    with _Timer() as t:
        points = landscape.find_critical_points(J, 2.0, 1.0, starts=10000, seed=17)
        energy_by_family = {}
        for cp in points:
            if cp.index == 0:
                e = energy_by_family.get(cp.family)
                energy_by_family[cp.family] = cp.energy if e is None else min(e, cp.energy)
        found = all(f in energy_by_family for f in expected_order)
        energies = [energy_by_family.get(f, np.inf) for f in expected_order]
        ordered = all(a < b for a, b in zip(energies, energies[1:]))
    ok = found and ordered and t.elapsed < budget
    _report("criterion-6 minima census", ok,
            "energies = " + ", ".join(f"{e:.4f}" for e in energies), t.elapsed, budget)
    assert found
    assert ordered
    assert t.elapsed < budget


def test_criterion_07_qa_degenerate_split():
    budget = 30.0
    J = _ring(8)
    with _Timer() as t:
        run = quantum.run_qa(J, quantum.QAConfig(b=5.0, dt=0.1, t_end=500.0,
                                                 sample_every=10**9))
        per = run.p_gs_per_state[-1]
    ok = len(per) == 2 and all(abs(v - 0.5) <= 0.05 for v in per) and t.elapsed < budget
    _report("criterion-7 QA degeneracy split", ok,
            f"per-state probabilities = {per[0]:.4f}, {per[1]:.4f} (target 0.5 +- 0.05)",
            t.elapsed, budget)
    assert len(per) == 2
    for v in per:
        assert abs(v - 0.5) <= 0.05
    assert t.elapsed < budget


def test_criterion_08_sa_with_field():
    budget = 60.0
    J = _ring(8)
    h = quantum.symmetry_breaking_field(8, 0.05, 0.05)
    with _Timer() as t:
        run = master.anneal_master(J, h, master.AnnealSchedule(d=5.0), mode="sa",
                                   dt=0.01, t_end=500.0)
        p = run.p_gs[-1]
    ok = 0.57 <= p <= 0.77 and t.elapsed < budget
    _report("criterion-8 SA success with field", ok,
            f"terminal P_GS = {p:.4f} (target [0.57, 0.77])", t.elapsed, budget)
    assert 0.57 <= p <= 0.77
    assert t.elapsed < budget


def test_criterion_09_hard_region_ordering():
    budget = 120.0
    J = graph.build_mobius_ladder(8, 0.35)
    h = quantum.symmetry_breaking_field(8, 0.05, 0.05)
    with _Timer() as t:
        qa = quantum.run_qa(J, quantum.QAConfig(b=5.0, h=h, sample_every=10**9)).p_gs[-1]
        ca = master.anneal_master(J, h, master.AnnealSchedule(d=5.0), mode="ca",
                                  dt=0.01, t_end=500.0).p_gs[-1]
        sa = master.anneal_master(J, h, master.AnnealSchedule(d=5.0), mode="sa",
                                  dt=0.01, t_end=500.0).p_gs[-1]
    ok = qa >= 0.9 and ca >= 0.9 and sa <= min(qa, ca) - 0.1 and t.elapsed < budget
    _report("criterion-9 hard-region ordering", ok,
            f"QA = {qa:.4f}, CA = {ca:.4f}, SA = {sa:.4f}", t.elapsed, budget)
    assert qa >= 0.9
    assert ca >= 0.9
    assert sa <= min(qa, ca) - 0.1
    assert t.elapsed < budget


def test_criterion_10_homogenization_dominance():
    budget = 900.0
    runs = 2000
    with _Timer() as t:
        results = []
        for j in (0.30, 0.35, 0.40, 0.45):
            J = graph.build_mobius_ladder(8, j)
            gset = softspin.ground_readouts(J)
            cfg1 = softspin.default_solver_config(j)
            s1 = softspin.success_probability(J, cfg1, runs, seed=23, ground_spins=gset)
            cfg3 = softspin.default_solver_config(j, variant="cim3")
            best, _ = softspin.tune_delta(J, cfg3, seed=29, prelim_runs=200,
                                          ground_spins=gset)
            s3 = softspin.success_probability(J, replace(cfg3, delta=best), runs,
                                              seed=23, ground_spins=gset)
            sigma = np.sqrt(s1.p_gs * (1 - s1.p_gs) / runs + s3.p_gs * (1 - s3.p_gs) / runs)
            results.append((j, best, s1.p_gs, s3.p_gs, sigma))
    ok = all(p3 - p1 > 2 * sg for _, _, p1, p3, sg in results) and t.elapsed < budget
    detail = "; ".join(
        f"j={j}: cim1={p1:.3f} cim3={p3:.3f} (delta={d:.4g}, 2sig={2*sg:.3f})"
        for j, d, p1, p3, sg in results)
    _report("criterion-10 homogenization dominance", ok, detail, t.elapsed, budget)
    for j, d, p1, p3, sg in results:
        assert p3 - p1 > 2 * sg, f"no dominance at j={j}"
    assert t.elapsed < budget


class TestCriterion11Properties:
    """Always-on property suite: every entry of the registry that `isinglab verify` runs."""

    @pytest.mark.parametrize("name", invariants.names())
    def test_invariant(self, name):
        outcome = invariants.run(name)
        print(outcome.line())
        assert outcome.passed, outcome.line()
