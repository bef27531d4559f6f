import numpy as np
import pytest

from isinglab import graph


class TestBuildMobiusLadder:
    def test_n8_structure(self):
        j = 0.7
        J = graph.build_mobius_ladder(8, j)
        expected = np.zeros((8, 8))
        for i in range(8):
            expected[i, (i + 1) % 8] = -1.0
            expected[i, (i - 1) % 8] = -1.0
            expected[i, (i + 4) % 8] = -j
        np.testing.assert_allclose(J, expected)
        np.testing.assert_allclose(J, J.T)
        assert np.all(np.diag(J) == 0.0)

    def test_n4_row_sums(self):
        J = graph.build_mobius_ladder(4, 1.0)
        np.testing.assert_allclose(J.sum(axis=1), -3.0)
        assert J[0, 2] == -1.0  # opposite node

    def test_row_zero_nonzeros(self):
        J = graph.build_mobius_ladder(8, 0.4)
        row = J[0]
        nz = np.flatnonzero(row)
        assert list(nz) == [1, 4, 7]
        assert row[1] == -1.0 and row[7] == -1.0 and row[4] == -0.4

    @pytest.mark.parametrize("n,j", [(7, 0.5), (2, 0.5), (8, 0.0), (8, -1.0)])
    def test_rejects_bad_parameters(self, n, j):
        with pytest.raises(ValueError):
            graph.build_mobius_ladder(n, j)

    @pytest.mark.parametrize("j", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite_coupling(self, j):
        with pytest.raises(ValueError, match="finite and positive"):
            graph.build_mobius_ladder(8, j)


class TestValidateCouplingMatrix:
    @pytest.mark.parametrize("value", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite_entries_before_symmetry(self, value):
        J = graph.build_mobius_ladder(8, 0.5)
        J[0, 4] = J[4, 0] = value
        with pytest.raises(ValueError, match="must be finite"):
            graph.validate_coupling_matrix(J)

    def test_accepts_a_finite_ladder(self):
        J = graph.build_mobius_ladder(8, 0.5)
        np.testing.assert_array_equal(graph.validate_coupling_matrix(J), J)


class TestSpectrum:
    def test_n8_special_values(self):
        for j in (0.3, 0.5, 1.0):
            assert graph.mobius_eigenvalue(8, j, 4) == pytest.approx(2.0 - j, abs=1e-15)
            assert graph.mobius_eigenvalue(8, j, 0) == pytest.approx(-2.0 - j, abs=1e-15)

    def test_decoupled_value(self):
        assert graph.mobius_eigenvalue(6, 0.0, 3) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("j", [0.1, 0.5, 1.0])
    def test_matches_dense_eigensolver(self, n, j):
        J = graph.build_mobius_ladder(n, j)
        dense = np.sort(np.linalg.eigvalsh(J))
        analytic = np.sort(graph.mobius_spectrum(n, j))
        np.testing.assert_allclose(analytic, dense, atol=1e-10)

    @pytest.mark.parametrize("n,j", [(8, 0.4), (8, 0.9), (10, 0.3), (12, 0.25)])
    def test_eigenvector_residuals(self, n, j):
        J = graph.build_mobius_ladder(n, j)
        for k in range(n):
            pair = graph.spectral_pair(n, j, k)
            residual = J @ pair.eigenvector - pair.eigenvalue * pair.eigenvector
            assert np.max(np.abs(residual)) < 1e-10

    def test_alternating_eigenvector(self):
        mu = graph.mobius_eigenvector(8, 4)
        np.testing.assert_allclose(mu, [1, -1, 1, -1, 1, -1, 1, -1], atol=1e-14)

    def test_near_degenerate_eigenvector(self):
        mu = graph.mobius_eigenvector(8, 5)
        r2 = np.sqrt(2.0)
        np.testing.assert_allclose(mu, [1, -r2, 1, 0, -1, r2, -1, 0], atol=1e-14)

    def test_uniform_eigenvector(self):
        np.testing.assert_allclose(graph.mobius_eigenvector(4, 0), np.ones(4))

    def test_out_of_range_mode(self):
        with pytest.raises(ValueError):
            graph.mobius_eigenvalue(8, 0.5, 8)
        with pytest.raises(ValueError):
            graph.mobius_eigenvector(8, -1)


class TestThresholds:
    def test_values(self):
        assert graph.j_crit(8) == pytest.approx(0.5)
        assert graph.j_crit(100) == pytest.approx(0.04)
        assert graph.j_e(8) == pytest.approx(1.0 - np.sqrt(2.0) / 2.0, abs=1e-15)

    def test_ordering(self):
        for n in range(6, 22, 2):
            assert graph.j_e(n) < graph.j_crit(n)

    @pytest.mark.parametrize("n", [8, 12, 16])  # needs n/2 even, else no crossing
    def test_top_eigenvalues_cross_at_j_e(self, n):
        je = graph.j_e(n)

        def gap(j):
            return graph.mobius_eigenvalue(n, j, n // 2) - graph.mobius_eigenvalue(n, j, n // 2 + 1)

        assert gap(je - 1e-12) * gap(je + 1e-12) < 0.0


class TestIsingEnergy:
    def test_s0_s1_values(self):
        J = graph.build_mobius_ladder(8, 0.4)
        assert graph.ising_energy(J, graph.build_s0(8)) == pytest.approx(-6.4)
        assert graph.ising_energy(J, graph.build_s1(8)) == pytest.approx(-5.6)
        assert graph.ising_energy(J, np.ones(8)) == pytest.approx(9.6)

    def test_s1_below_s0_beyond_crossing(self):
        J = graph.build_mobius_ladder(8, 0.6)
        assert graph.ising_energy(J, graph.build_s1(8)) == pytest.approx(-6.4)
        assert graph.ising_energy(J, graph.build_s0(8)) == pytest.approx(-5.6)

    def test_half_odd_ring(self):
        J = graph.build_mobius_ladder(6, 1.0)
        assert graph.ising_energy(J, graph.build_s0(6)) == pytest.approx(-9.0)

    def test_crossing_sign_change_at_j_crit(self):
        for n in (8, 12):
            jc = graph.j_crit(n)

            def gap(j):
                J = graph.build_mobius_ladder(n, j)
                return graph.ising_energy(J, graph.build_s0(n)) - graph.ising_energy(J, graph.build_s1(n))

            assert gap(jc - 1e-6) < 0 < gap(jc + 1e-6)

    def test_global_flip_invariance(self):
        rng = np.random.default_rng(0)
        J = graph.build_mobius_ladder(10, 0.7)
        for _ in range(20):
            s = rng.choice([-1.0, 1.0], 10)
            assert graph.ising_energy(J, s) == pytest.approx(graph.ising_energy(J, -s), abs=1e-12)

    def test_dimension_mismatch(self):
        J = graph.build_mobius_ladder(8, 0.4)
        with pytest.raises(ValueError):
            graph.ising_energy(J, np.ones(6))


class TestConfigurations:
    def test_s0_alternates(self):
        for n in (4, 6, 8, 12):
            s = graph.build_s0(n)
            assert np.all(s * np.roll(s, -1) == -1.0)

    def test_s1_defect_bonds(self):
        for n in (8, 12):
            for i0 in range(n):
                s = graph.build_s1(n, i0)
                bonds = s * np.roll(s, -1)
                defects = set(int(b) for b in np.flatnonzero(bonds > 0))
                assert defects == {i0 % n, (i0 + n // 2) % n}
                # every cross-circle bond stays satisfied
                assert np.all(s * np.roll(s, n // 2) == -1.0)

    def test_s1_rejected_for_half_odd(self):
        with pytest.raises(ValueError):
            graph.build_s1(6)

    def test_s1_rejects_bad_position(self):
        with pytest.raises(ValueError):
            graph.build_s1(8, 8)


class TestAnalyticGroundState:
    def test_below_crossing(self):
        info = graph.analytic_ground_state(8, 0.4)
        assert info.label == "S0"
        assert info.energy == pytest.approx(-6.4)
        assert info.degeneracy == 2

    def test_above_crossing(self):
        info = graph.analytic_ground_state(8, 0.6)
        assert info.label == "S1"
        assert info.energy == pytest.approx(-6.4)
        assert info.degeneracy == 8

    def test_tie(self):
        info = graph.analytic_ground_state(8, 0.5)
        assert info.label == "tie"
        assert info.energy == pytest.approx(-6.0)

    def test_half_odd_always_s0(self):
        for j in (0.1, 1.0, 3.0):
            info = graph.analytic_ground_state(6, j)
            assert info.label == "S0"
            assert info.energy == pytest.approx(-(j + 2.0) * 3.0)


class TestEdgeListRoundTrip:
    def test_mobius_roundtrip(self, tmp_path):
        J = graph.build_mobius_ladder(10, 1.0 / 3.0)
        path = tmp_path / "ladder.edges"
        graph.save_edge_list(J, str(path))
        back = graph.load_edge_list(str(path))
        np.testing.assert_allclose(back, J, rtol=1e-15, atol=0.0)

    def test_general_symmetric_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 6))
        J = (A + A.T) / 2.0
        np.fill_diagonal(J, 0.0)
        path = tmp_path / "dense.edges"
        graph.save_edge_list(J, str(path))
        back = graph.load_edge_list(str(path))
        np.testing.assert_allclose(back, J, rtol=1e-15, atol=1e-300)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("")
        with pytest.raises(ValueError):
            graph.load_edge_list(str(path))

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("4\n0 1\n")
        with pytest.raises(ValueError):
            graph.load_edge_list(str(path))


class TestValidation:
    def test_asymmetric_rejected(self):
        J = np.zeros((3, 3))
        J[0, 1] = 1.0
        with pytest.raises(ValueError):
            graph.validate_coupling_matrix(J)

    def test_nonzero_diagonal_rejected(self):
        J = np.eye(3)
        with pytest.raises(ValueError):
            graph.validate_coupling_matrix(J)

    def test_spins_checked(self):
        with pytest.raises(ValueError):
            graph.validate_spins(np.array([1.0, 0.5, -1.0]))
