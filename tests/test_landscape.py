import numpy as np
import pytest

from isinglab import graph, landscape, softspin
from isinglab.softspin import _descend_batch, soft_energy, soft_gradient, soft_hessian

J8 = graph.build_mobius_ladder(8, 0.4)

# soft energies of the five minima families at p = 2 (computed by polished
# Newton solves seeded from the hard-spin patterns; see the census test)
CENSUS_ENERGIES = [-17.92, -16.662246, -14.824305, -12.076135, 2.88]
CENSUS_FAMILIES = ["S0", "S1", "2-defect(sep=3)", "2-defect(sep=2)", "4-defect"]


class TestFindCriticalPoints:
    def test_gradient_residuals(self):
        points = landscape.find_critical_points(J8, 0.5, 1.0, starts=800, seed=0)
        for cp in points:
            assert np.max(np.abs(soft_gradient(cp.x, 0.5, 1.0, J8))) < 1e-9

    def test_minima_census_at_p2(self):
        points = landscape.find_critical_points(J8, 2.0, 1.0, starts=4000, seed=1)
        minima = [cp for cp in points if cp.index == 0]
        by_family = {}
        for cp in minima:
            by_family.setdefault(cp.family, set()).add(round(cp.energy, 6))
        for family, energy in zip(CENSUS_FAMILIES, CENSUS_ENERGIES):
            assert family in by_family
            vals = sorted(by_family[family])
            assert len(vals) == 1  # every variant of a family shares one energy
            assert vals[0] == pytest.approx(energy, abs=1e-5)
        energies = [min(by_family[f]) for f in CENSUS_FAMILIES]
        assert energies == sorted(energies)
        # exactly these five families of minima exist at p = 2
        assert set(by_family) == set(CENSUS_FAMILIES)

    def test_far_below_bifurcations_only_origin(self):
        points = landscape.find_critical_points(J8, -2.5, 1.0, starts=400, seed=3)
        assert len(points) == 1
        assert points[0].distance_from_origin == 0.0
        assert points[0].index == 0

    @pytest.mark.parametrize("p", [-1.0, 0.5, 2.0])
    def test_origin_index_matches_spectrum(self, p):
        points = landscape.find_critical_points(J8, p, 1.0, starts=400, seed=3)
        origin = [cp for cp in points if cp.distance_from_origin < 1e-12]
        assert len(origin) == 1
        lam = graph.mobius_spectrum(8, 0.4)
        assert origin[0].index == int(np.sum(p + lam > 0.0))

    def test_set_closed_under_flip(self):
        points = landscape.find_critical_points(J8, 1.0, 1.0, starts=1500, seed=5)
        reps = [cp.x for cp in points]
        for x in reps:
            assert any(np.max(np.abs(x + r)) < 1e-6 for r in reps)

    def test_index_stable_under_tighter_polish(self):
        points = landscape.find_critical_points(J8, 1.0, 1.0, starts=800, seed=2)
        for cp in points[:20]:
            x = cp.x.copy()
            for _ in range(5):  # a few extra Newton steps at much tighter residual
                g = -soft_gradient(x, 1.0, 1.0, J8)
                if np.max(np.abs(g)) < 1e-13:
                    break
                x = x - np.linalg.solve(soft_hessian(x, 1.0, 1.0, J8), g)
            evals = np.linalg.eigvalsh(soft_hessian(x, 1.0, 1.0, J8))
            assert int(np.sum(evals < -1e-8)) == cp.index

    def test_distance_ordering_near_birth(self):
        # just after the two-defect branch is born it sits farthest out
        points = landscape.find_critical_points(J8, -1.2, 1.0, starts=1500, seed=4)
        farthest = max(points, key=lambda cp: cp.distance_from_origin)
        assert farthest.family == "S1"

    def test_distance_ordering_at_large_pump(self):
        # at large pump the uniform minimum overtakes every other critical point
        points = landscape.find_critical_points(J8, 2.0, 1.0, starts=3000, seed=4)
        farthest = max(points, key=lambda cp: cp.distance_from_origin)
        assert farthest.family == "S0"
        assert farthest.index == 0

    def test_starts_validated(self):
        with pytest.raises(ValueError):
            landscape.find_critical_points(J8, 0.0, 1.0, starts=0)

    @pytest.mark.parametrize("p, c", [(np.nan, 1.0), (np.inf, 1.0), (0.0, -1.0),
                                      (0.0, np.nan), (0.0, np.inf)])
    def test_pump_and_nonlinearity_validated(self, p, c):
        with pytest.raises(ValueError):
            landscape.find_critical_points(J8, p, c, starts=10)


class TestDescent:
    def test_descent_from_every_index1_saddle_reaches_a_minimum(self):
        # a start exactly on a saddle has zero gradient: only the kick moves it
        points = landscape.find_critical_points(J8, 2.0, 1.0, starts=4000, seed=1)
        saddles = np.array([cp.x for cp in points if cp.index == 1])
        assert len(saddles) > 0
        x, converged = _descend_batch(J8, 2.0, 1.0, saddles)
        assert converged.all()
        assert np.max(np.abs(soft_gradient(x, 2.0, 1.0, J8))) < 1e-9
        assert np.all(np.linalg.eigvalsh(soft_hessian(x, 2.0, 1.0, J8))[:, 0] > -1e-8)
        assert np.all(soft_energy(x, 2.0, 1.0, J8) < soft_energy(saddles, 2.0, 1.0, J8))

    def test_newton_never_climbs_out_of_a_flat_basin(self):
        # these starts leave the flow at gradient ~3e-4 in a flat basin next
        # to an index-1 saddle; undamped Newton from there climbs to that
        # saddle, and a kick off it lands in the S1 basin.  A flow run on to
        # gradient 1e-10 ends at the 2-defect(sep=5) minimum.
        J12 = graph.build_mobius_ladder(12, 0.4)
        result = softspin.basin_sample(J12, 0.5, 1.0, 1500, seed=0)
        for i in (62, 447, 541, 945):
            assert result.minima[result.labels[i]].family == "2-defect(sep=5)"

    def test_kick_is_capped_on_a_flat_saddle(self):
        vals = np.array([[-1e-9, 1.0], [-4.0, 1.0]])
        vecs = np.array([np.eye(2), np.eye(2)])
        step = softspin._saddle_kick(vals, vecs, softspin.FLOW_TOL)
        assert np.allclose(step, [[softspin.KICK_MAX, 0.0], [2.5e-3, 0.0]])


class TestCriticalPointCounts:
    def test_counts_grow_with_pump(self):
        rows = landscape.critical_point_counts(J8, [-1.0, 0.0, 1.0, 2.0], 1.0,
                                               starts=3000, seed=0)
        totals = [r["total"] for r in rows]
        assert totals == sorted(totals)
        assert all(r["starts"] == 3000 for r in rows)

    def test_counts_by_index_present(self):
        rows = landscape.critical_point_counts(J8, [2.0], 1.0, starts=3000, seed=0)
        counts = rows[0]["counts"]
        assert counts[0] >= 5  # at least the five minima families (with variants)
        assert any(idx >= 4 for idx in counts)  # heavily unstable points appear too


class TestBarrierHeight:
    def test_barrier_grows_with_pump(self):
        barriers = []
        for p in (-0.5, -0.2, 0.0, 0.3, 0.7):
            result = landscape.barrier_height(J8, p, 1.0, starts=2500, seed=2)
            assert result.found
            assert result.barrier > 0.0
            barriers.append(result.barrier)
        assert barriers == sorted(barriers)

    def test_branch_gap_changes_sign_near_crossing(self):
        lo = landscape.barrier_height(J8, -0.2, 1.0, starts=2500, seed=2)
        hi = landscape.barrier_height(J8, 0.0, 1.0, starts=2500, seed=2)
        assert lo.e0_minus_e1 > 0.0 > hi.e0_minus_e1

    def test_flagged_absent_when_no_direct_saddle(self):
        result = landscape.barrier_height(J8, 2.0, 1.0, starts=2500, seed=2)
        assert not result.found
        assert np.isfinite(result.e0_minus_e1)

    def test_saddle_found_at_p1(self):
        # a fine-step steepest descent (tolerance 1e-9) from this saddle at
        # E = -6.91143 reaches S0 and S1; the kick off it must clear the
        # flow's tolerance, which a fixed 1e-4 kick did not
        result = landscape.barrier_height(J8, 1.0, 1.0, starts=600, seed=3)
        assert result.found
        assert result.barrier == pytest.approx(4.015140933595829, abs=1e-9)

    def test_saddle_symmetric_under_flip(self):
        result = landscape.barrier_height(J8, 0.0, 1.0, starts=2500, seed=2)
        assert result.found
        x = result.saddle_x
        g = soft_gradient(-x, 0.0, 1.0, J8)
        assert np.max(np.abs(g)) < 1e-9  # the mirrored saddle is critical too
