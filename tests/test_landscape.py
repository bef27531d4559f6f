import json
from pathlib import Path

import numpy as np
import pytest

from isinglab import graph, landscape, softspin
from isinglab.softspin import (
    GRADIENT_TOL,
    NEWTON_ITER,
    NEWTON_TOL,
    _classify,
    _cluster_rows,
    _descend_batch,
    _newton_roots,
    spin_family,
    spin_readout,
    soft_energy,
    soft_gradient,
    soft_hessian,
)

J8 = graph.build_mobius_ladder(8, 0.4)
GOLDEN = json.loads((Path(__file__).parent / "data" / "landscape_golden.json").read_text())

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

    def test_ground_marks_the_lowest_minima_only(self):
        points = landscape.find_critical_points(J8, 2.0, 1.0, starts=2000, seed=1)
        ground = [cp for cp in points if cp.is_ground]
        assert len(ground) == 2  # the uniform minimum and its flip
        assert all(cp.index == 0 and cp.family == "S0" for cp in ground)
        assert all(cp.energy > ground[0].energy for cp in points if not cp.is_ground)

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

    def test_scale_bounds_every_term_over_the_start_box(self):
        # the validator's claim: |E|, |dE/dx_i| and |H_ij| are at most 3 S for
        # |x_i| <= B = 1 + sqrt(max(p, 0))
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            J = _random_coupling(n, int(rng.integers(1 << 30))) * 10.0 ** rng.uniform(-3, 3)
            p, c = rng.uniform(-50.0, 50.0), 10.0 ** rng.uniform(-3, 3)
            box = 1.0 + np.sqrt(max(p, 0.0))
            scale = n * (c * (abs(p) + box**2) ** 2 + n * np.abs(J).max() * box**2)
            x = box * rng.choice([-1.0, 1.0, rng.uniform(-1.0, 1.0)], size=(50, n))
            assert np.abs(soft_energy(x, p, c, J)).max() <= 3.0 * scale
            assert np.abs(soft_gradient(x, p, c, J)).max() <= 3.0 * scale
            assert np.abs(soft_hessian(x, p, c, J)).max() <= 3.0 * scale

    @pytest.mark.parametrize("p, c, j", [(1e75, 1.0, 0.4), (1.0, 1e148, 0.4), (1.0, 1.0, 1e149)])
    def test_scale_above_the_limit_rejected(self, p, c, j):
        with pytest.raises(ValueError, match="landscape scale"):
            landscape.find_critical_points(graph.build_mobius_ladder(8, j), p, c, starts=10)
        with pytest.raises(ValueError, match="landscape scale"):
            softspin.basin_sample(graph.build_mobius_ladder(8, j), p, c, 10)


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


class TestRecordedCatalogue:
    """Basins, critical points and barriers as recorded when each kept its own
    classification loop and `_cluster_rows` went row by row; all must match exactly."""

    J = graph.build_mobius_ladder(GOLDEN["n"], GOLDEN["j"])

    def test_basin_labels_and_minima(self):
        want = GOLDEN["basins"]
        sample = softspin.basin_sample(self.J, GOLDEN["p"], GOLDEN["c"], want["samples"],
                                       seed=GOLDEN["seed"])
        assert sample.labels.tolist() == want["labels"]
        assert sample.unresolved == want["unresolved"]
        assert [(m.family, m.energy, m.is_ground) for m in sample.minima] == \
            [(m["family"], m["energy"], m["is_ground"]) for m in want["minima"]]

    def test_critical_table(self):
        want = GOLDEN["critical"]
        points = landscape.find_critical_points(self.J, GOLDEN["p"], GOLDEN["c"],
                                                starts=want["starts"], seed=GOLDEN["seed"])
        assert [(cp.energy, cp.index, cp.family, cp.degenerate, cp.distance_from_origin)
                for cp in points] == \
            [(w["energy"], w["index"], w["family"], w["degenerate"], w["distance_from_origin"])
             for w in want["points"]]

    @pytest.mark.parametrize("case", GOLDEN["barrier"]["cases"], ids=lambda case: f"p={case['p']}")
    def test_barrier(self, case):
        result = landscape.barrier_height(self.J, case["p"], GOLDEN["c"],
                                          starts=GOLDEN["barrier"]["starts"], seed=GOLDEN["seed"])
        assert (result.found, result.barrier, result.e0_minus_e1, result.saddle_energy) == \
            (case["found"], case["barrier"], case["e0_minus_e1"], case["saddle_energy"])
        assert result.saddle_x.tolist() == case["saddle_x"]


def _cluster_rows_per_row(points, tol):
    """The row-by-row clustering that `_cluster_rows` replaced, kept as its reference."""
    reps: list[int] = []
    labels = np.empty(len(points), dtype=int)
    key_cache: dict[tuple, int] = {}
    for i, x in enumerate(points):
        key = tuple(np.round(x / (10.0 * tol)).astype(np.int64))
        label = key_cache.get(key)
        if label is None:
            for label, rep in enumerate(reps):
                if np.max(np.abs(x - points[rep])) < tol:
                    break
            else:
                label = len(reps)
                reps.append(i)
            key_cache[key] = label
        labels[i] = label
    return points[reps], labels


class TestClusterRows:
    def _assert_matches_reference(self, points, tol):
        reps, labels = _cluster_rows(points, tol)
        want_reps, want_labels = _cluster_rows_per_row(points, tol)
        np.testing.assert_array_equal(reps, want_reps)
        np.testing.assert_array_equal(labels, want_labels)
        assert reps.shape == want_reps.shape and labels.dtype == want_labels.dtype
        return labels

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("tol", [softspin.DEDUP_TOL, softspin.MATCH_TOL])
    def test_newton_roots_match_the_reference(self, seed, tol):
        rng = np.random.default_rng(seed)
        x, ok = _newton_roots(J8, 1.0, 1.0, rng.uniform(-2.0, 2.0, size=(600, 8)))
        roots = np.vstack([x[ok], -x[ok]])
        assert len(np.unique(np.round(roots, 6), axis=0)) > 20  # many distinct points
        # the same cloud with each root repeated at a jitter far under tol
        jitter = roots + rng.uniform(-1e-3, 1e-3, size=roots.shape) * tol
        self._assert_matches_reference(rng.permutation(np.vstack([roots, jitter])), tol)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_descent_endpoints_match_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        x, converged = _descend_batch(J8, 2.0, 1.0, rng.uniform(-1.0, 1.0, size=(400, 8)))
        self._assert_matches_reference(x[converged], softspin.MATCH_TOL)

    def test_rows_within_tol_across_a_cell_boundary_share_a_label(self):
        tol = softspin.MATCH_TOL
        edge = 5.0 * tol  # the rounding keys at 10 tol change here
        points = np.array([[edge - 0.2 * tol, 1.0], [edge + 0.2 * tol, 1.0],
                           [3.0, 1.0], [edge + 0.2 * tol, 1.0]])
        keys = np.round(points / (10.0 * tol))
        assert not np.array_equal(keys[0], keys[1])
        labels = self._assert_matches_reference(points, tol)
        assert labels.tolist() == [0, 0, 1, 0]

    def test_rows_sharing_a_key_share_a_label_even_beyond_tol(self):
        tol = softspin.MATCH_TOL
        points = np.array([[0.0, 1.0], [3.0, 1.0], [3.0 * tol, 1.0], [0.5, 1.0]])
        assert np.array_equal(np.round(points[0] / (10.0 * tol)), np.round(points[2] / (10.0 * tol)))
        assert np.max(np.abs(points[0] - points[2])) > tol
        labels = self._assert_matches_reference(points, tol)
        assert labels.tolist() == [0, 1, 0, 2]

    def test_row_near_two_representatives_joins_the_earlier(self):
        tol = softspin.MATCH_TOL
        # a and b lie 1.1 tol apart in different cells; c, in a third cell, is
        # within 0.8 tol of both
        points = np.array([[4.5, 4.6], [5.6, 4.6], [5.05, 5.4]]) * tol
        assert len(np.unique(np.round(points / (10.0 * tol)), axis=0)) == 3
        labels = self._assert_matches_reference(points, tol)
        assert labels.tolist() == [0, 1, 0]

    def test_empty_input(self):
        reps, labels = _cluster_rows(np.empty((0, 8)), softspin.MATCH_TOL)
        assert reps.shape == (0, 8) and labels.shape == (0,)
        self._assert_matches_reference(np.empty((0, 8)), softspin.MATCH_TOL)


def _newton_roots_all_rows(J, p, c, x0):
    """The Newton loop that `_newton_roots` replaced, kept as its reference.

    It evaluates the gradient of every active row on every iteration, rows
    that have already converged included.
    """
    x = x0.copy()
    active = np.ones(len(x), dtype=bool)
    for _ in range(NEWTON_ITER):
        g = -soft_gradient(x[active], p, c, J)
        done = np.max(np.abs(g), axis=1) < NEWTON_TOL
        if done.all():
            break
        rows = np.flatnonzero(active)[~done]
        g = g[~done]
        H = soft_hessian(x[rows], p, c, J)
        try:
            step = np.linalg.solve(H, -g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.zeros_like(g)
            keep = np.ones(len(step), dtype=bool)
            for r in range(len(step)):
                try:
                    step[r] = np.linalg.solve(H[r], -g[r])
                except np.linalg.LinAlgError:
                    keep[r] = False
            active[rows[~keep]] = False
            rows, step = rows[keep], step[keep]
        norm = np.max(np.abs(step), axis=1, keepdims=True)
        x[rows] += step * np.minimum(1.0, 2.0 / np.maximum(norm, 1e-30))
    g = soft_gradient(x, p, c, J)
    return x, active & (np.max(np.abs(g), axis=1) < GRADIENT_TOL)


class TestNewtonRoots:
    def _assert_matches_reference(self, J, p, x0):
        x, ok = _newton_roots(J, p, 1.0, x0)
        want_x, want_ok = _newton_roots_all_rows(J, p, 1.0, x0)
        assert np.array_equal(x, want_x) and np.array_equal(ok, want_ok)
        return x, ok

    @pytest.mark.parametrize("p", [2.0, -0.5])
    def test_matches_the_all_rows_loop(self, p):
        # the search box of find_critical_points, with the origin as its first start
        half = 1.0 + np.sqrt(max(p, 0.0))
        x0 = np.random.default_rng(3).uniform(-half, half, size=(3000, 8))
        x, ok = self._assert_matches_reference(J8, p, np.vstack([np.zeros((1, 8)), x0]))
        assert ok[0] and len(np.unique(np.round(x[ok], 6), axis=0)) > 20

    def test_a_lone_moving_row_matches_the_batch(self):
        # rows 0 and 1 start at critical points and leave at once, so row 2 is
        # the only row moving while the reference still evaluates all three
        rng = np.random.default_rng(5)
        for _ in range(20):
            x0 = np.vstack([np.zeros(8), graph.build_s0(8) * np.sqrt(3.6), rng.uniform(-2.0, 2.0, 8)])
            self._assert_matches_reference(J8, 2.0, x0)

    def test_singular_rows_are_retried_one_by_one_and_dropped(self):
        # at j = 0.5 and p = 1.25 the uniform row x_i = 0.5 has the Hessian
        # -0.5 I - J, which is exactly singular, and it is not critical
        J = graph.build_mobius_ladder(8, 0.5)
        uniform = np.full(8, 0.5)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(soft_hessian(uniform, 1.25, 1.0, J), np.ones(8))
        assert np.max(np.abs(soft_gradient(uniform, 1.25, 1.0, J))) == 0.75
        x0 = np.vstack([np.random.default_rng(0).uniform(-2.0, 2.0, size=(40, 8)), uniform])
        x, ok = self._assert_matches_reference(J, 1.25, x0)
        assert np.array_equal(x[-1], uniform) and not ok[-1]
        assert ok[:-1].sum() > 0


def _descend_batch_all_rows(J, p, c, x0):
    """The descent that `_descend_batch` replaced, kept as its reference.

    It decides every solved row by `eigh`, with no Gershgorin gate.
    """
    x = np.asarray(x0, dtype=float).copy()
    converged = np.zeros(len(x), dtype=bool)
    rows = np.arange(len(x))
    tol = softspin.FLOW_TOL
    for attempt in range(softspin.KICK_ROUNDS + 1):
        xs = x[rows]
        softspin._flow_into_basin(J, p, c, xs, tol)
        roots, ok = _newton_roots(J, p, c, xs)
        ok &= soft_energy(roots, p, c, J) <= soft_energy(xs, p, c, J) + 1e-12
        solved = np.flatnonzero(ok)
        vals, vecs = np.linalg.eigh(soft_hessian(roots[solved], p, c, J))
        at_min = vals[:, 0] >= -softspin.DEGENERATE_TOL
        done = np.zeros(len(rows), dtype=bool)
        done[solved[at_min]] = True
        x[rows[done]] = roots[done]
        converged[rows[done]] = True
        if attempt == softspin.KICK_ROUNDS or done.all():
            break
        tol *= 1e-3
        saddle = solved[~at_min]
        step = softspin._saddle_kick(vals[~at_min], vecs[~at_min], tol)
        back = np.einsum("bi,bi->b", xs[saddle] - roots[saddle], step) < 0.0
        xs[saddle] = roots[saddle] + np.where(back[:, None], -step, step)
        x[rows[~done]] = xs[~done]
        rows = rows[~done]
    return x, converged


def _random_coupling(n, seed):
    upper = np.triu(np.random.default_rng(seed).uniform(-0.6, 0.6, size=(n, n)), 1)
    return upper + upper.T


class TestGershgorinGate:
    COUPLINGS = {
        "mobius-4": graph.build_mobius_ladder(4, 0.4),
        "mobius-8": J8,
        "mobius-12": graph.build_mobius_ladder(12, 0.4),
        "random-5": _random_coupling(5, 1),
        "random-10": _random_coupling(10, 2),
    }

    # cases whose solved rows fall on both sides of the gate at either margin
    SPLIT = {("mobius-8", -0.5), ("mobius-8", 1.0), ("random-10", 1.0), ("random-10", 2.5)}

    @pytest.mark.parametrize("margin", [softspin.CERTIFY_MARGIN, 0.12], ids=["default", "wide"])
    @pytest.mark.parametrize("p", [-0.5, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("name", sorted(COUPLINGS))
    def test_matches_the_all_rows_descent(self, monkeypatch, name, p, margin):
        J = self.COUPLINGS[name]
        n = J.shape[0]
        # random starts plus starts on index-1 saddles, whose descents are kicked
        saddles = [cp.x for cp in landscape.find_critical_points(J, p, 1.0, starts=200, seed=0)
                   if cp.index == 1]
        x0 = np.vstack([np.random.default_rng(4).uniform(-1.0, 1.0, size=(150, n)),
                        np.reshape(saddles, (-1, n))])
        monkeypatch.setattr(softspin, "CERTIFY_MARGIN", margin)
        gated = []
        gate = softspin._certified_minima
        monkeypatch.setattr(softspin, "_certified_minima",
                            lambda *args: gated.append(gate(*args)) or gated[-1])
        x, converged = _descend_batch(J, p, 1.0, x0)
        want_x, want_converged = _descend_batch_all_rows(J, p, 1.0, x0)
        assert np.array_equal(x, want_x) and np.array_equal(converged, want_converged)
        assert converged.sum() > 0.9 * len(x0)
        certified = np.concatenate(gated)
        if (name, p) in self.SPLIT:
            assert 0 < certified.sum() < len(certified)

    def test_every_p2_basin_endpoint_is_certified(self):
        x0 = np.random.default_rng(1).uniform(-1.0, 1.0, size=(500, 8))
        x, converged = _descend_batch(J8, 2.0, 1.0, x0)
        assert converged.all() and softspin._certified_minima(J8, 2.0, 1.0, x).all()
        evals = np.linalg.eigvalsh(soft_hessian(x, 2.0, 1.0, J8))
        assert evals[:, 0].min() > 0.1

    def test_certifies_only_what_the_eigenvalues_allow(self):
        # the gate never passes a row whose exact smallest eigenvalue is
        # below -DEGENERATE_TOL, at any pump and point
        rng = np.random.default_rng(6)
        for name, J in self.COUPLINGS.items():
            # spin patterns at amplitudes from 0 to 2.5, each component jittered
            n = J.shape[0]
            x = rng.choice([-1.0, 1.0], size=(2000, n)) * rng.uniform(0.0, 2.5, size=(2000, 1))
            x += rng.uniform(-0.3, 0.3, size=x.shape)
            for p in (-0.5, 0.5, 2.5):
                certified = softspin._certified_minima(J, p, 1.0, x)
                evals = np.linalg.eigvalsh(soft_hessian(x, p, 1.0, J))[:, 0]
                assert np.all(evals[certified] >= -softspin.DEGENERATE_TOL), name
                assert certified.any() and not certified.all(), (name, p)

    def test_no_rows(self):
        assert softspin._certified_minima(J8, 2.0, 1.0, np.empty((0, 8))).shape == (0,)


class TestRowMaxAbs:
    @pytest.mark.parametrize("rows", [0, 1, 2, 10000])
    def test_equals_numpy_max_of_abs_bitwise(self, rows):
        a = np.random.default_rng(rows).standard_normal((rows, 8))
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
        if rows:
            a.flat[np.random.default_rng(7).integers(0, a.size, size=min(a.size, 40))] = \
                np.resize(specials, min(a.size, 40))
        if rows >= 3:
            a[-3:] = [[-0.0] * 8, [-np.inf, 1.0, *[0.0] * 6], [np.nan, *[-np.inf] * 7]]
        got = softspin._row_max_abs(a)
        want = np.max(np.abs(a), axis=1)
        assert got.shape == want.shape == (rows,) and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_keeps_nan_and_infinities(self):
        a = np.array([[1.0, np.nan, -2.0], [-np.inf, 1.0, 0.0], [-0.0, -0.0, -0.0]])
        got = softspin._row_max_abs(a)
        assert np.isnan(got[0]) and got[1] == np.inf
        assert got[2] == 0.0 and not np.signbit(got[2])


class TestClassify:
    def test_batched_eigenvalues_equal_the_per_point_ones(self):
        points = landscape.find_critical_points(J8, 0.5, 1.0, starts=400, seed=2)
        reps = np.array([cp.x for cp in points])
        got = _classify(J8, 0.5, 1.0, reps)
        e_min = min(float(soft_energy(x, 0.5, 1.0, J8)) for x, cp in zip(reps, got) if cp.index == 0)
        for x, cp in zip(reps, got):
            evals = np.linalg.eigvalsh(soft_hessian(x, 0.5, 1.0, J8))
            energy = float(soft_energy(x, 0.5, 1.0, J8))
            assert (cp.energy, cp.index, cp.degenerate, cp.distance_from_origin, cp.family) == \
                (energy, int(np.sum(evals < -softspin.DEGENERATE_TOL)),
                 bool(np.any(np.abs(evals) < softspin.DEGENERATE_TOL)),
                 float(np.linalg.norm(x)), spin_family(spin_readout(x)))
            assert cp.is_ground == (cp.index == 0 and abs(energy - e_min) < softspin.ENERGY_TOL)
        assert {cp.index for cp in got} >= {0, 1, 2}

    def test_no_points(self):
        assert _classify(J8, 0.5, 1.0, np.empty((0, 8))) == []
