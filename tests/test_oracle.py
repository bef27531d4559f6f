import numpy as np
import pytest

from isinglab import graph, oracle, quantum
from isinglab.quantum import basis_index, spins_table


def _sign_set(states):
    return {tuple(s.astype(int)) for s in states}


def _random_couplings(rng, n, integer=False):
    A = rng.integers(-2, 3, size=(n, n)).astype(float) if integer else rng.normal(size=(n, n))
    J = np.triu(A, 1)
    return J + J.T


class TestAllEnergies:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_entrywise_energy(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            J = _random_couplings(rng, n)
            h = rng.normal(size=n)
            S = spins_table(n)
            direct = np.array([graph.ising_energy(J, s) - h @ s for s in S])
            scale = max(1.0, np.abs(direct).max())
            np.testing.assert_allclose(oracle.all_energies(J, h), direct,
                                       rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(oracle.all_energies(J), direct + S @ h,
                                       rtol=0, atol=1e-13 * scale)


    def test_energy_scale_bounded_up_front(self):
        # (1/2) sum |J_ij| + sum |h_i| bounds every |E| and must stay at or
        # below MAX_ENERGY_SCALE, where the tie rule's rounding stays finite
        J = graph.build_mobius_ladder(4, 1.0)  # (1/2) sum |J_ij| = 6
        big = oracle.MAX_ENERGY_SCALE / 10
        E = oracle.all_energies(J * big, np.full(4, big / 4))  # scale 7e297: no warning
        assert np.isfinite(E).all() and oracle.ground_set(E).size > 0
        for args in ((J * big, np.full(4, oracle.MAX_ENERGY_SCALE)), (J * 1e308, None)):
            with pytest.raises(ValueError, match="energy scale"):
                oracle.all_energies(*args)
        with pytest.raises(ValueError, match="energy scale"):
            oracle.exhaustive_ground_state(J * oracle.MAX_ENERGY_SCALE)


class TestOneGroundRule:
    def test_oracle_projector_and_quantum_agree(self):
        rng = np.random.default_rng(12)
        instances = [graph.build_mobius_ladder(n, j)
                     for n, j in ((8, 0.4), (8, 0.5), (8, 0.6), (12, 0.35))]
        for n in (3, 5, 6, 9):
            instances.append(_random_couplings(rng, n))
            instances.append(_random_couplings(rng, n, integer=True))  # degenerate levels
        for J in instances:
            summary = oracle.exhaustive_ground_state(J)
            via_quantum = quantum.ground_set(quantum.build_diagonal(J))
            np.testing.assert_array_equal(summary.ground_indices, via_quantum)
            np.testing.assert_array_equal(oracle.ground_state_projector(J), via_quantum)
            assert [basis_index(s) for s in summary.ground_states] == list(via_quantum)


class TestExhaustiveGroundState:
    def test_mobius_below_crossing(self):
        J = graph.build_mobius_ladder(8, 0.4)
        summary = oracle.exhaustive_ground_state(J)
        assert summary.ground_energy == pytest.approx(-6.4)
        s0 = graph.build_s0(8)
        assert _sign_set(summary.ground_states) == _sign_set([s0, -s0])

    def test_mobius_above_crossing(self):
        J = graph.build_mobius_ladder(8, 0.6)
        summary = oracle.exhaustive_ground_state(J)
        assert summary.ground_energy == pytest.approx(-6.4)
        expected = []
        for i0 in range(4):
            s1 = graph.build_s1(8, i0)
            expected.extend([s1, -s1])
        assert _sign_set(summary.ground_states) == _sign_set(expected)

    def test_two_spin_ferromagnet(self):
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        summary = oracle.exhaustive_ground_state(J)
        assert summary.ground_energy == pytest.approx(-1.0)
        assert _sign_set(summary.ground_states) == {(1, 1), (-1, -1)}

    @pytest.mark.parametrize("n,j", [(6, 0.3), (8, 0.7), (10, 0.45)])
    def test_histogram_counts_sum(self, n, j):
        J = graph.build_mobius_ladder(n, j)
        summary = oracle.exhaustive_ground_state(J)
        assert sum(summary.histogram.values()) == 2**n
        assert summary.histogram[summary.ground_energy] == len(summary.ground_states)

    def test_ground_set_closed_under_flip(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(7, 7))
        J = (A + A.T) / 2.0
        np.fill_diagonal(J, 0.0)
        summary = oracle.exhaustive_ground_state(J)
        signs = _sign_set(summary.ground_states)
        assert {tuple(-v for v in s) for s in signs} == signs

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 6))
        J = (A + A.T) / 2.0
        np.fill_diagonal(J, 0.0)
        S = spins_table(6)
        direct = -0.5 * np.einsum("bi,ij,bj->b", S, J, S)
        summary = oracle.exhaustive_ground_state(J)
        assert summary.ground_energy == pytest.approx(direct.min(), abs=1e-9)
        assert len(summary.ground_states) == int(np.sum(np.round(direct - direct.min(), 9) == 0))

    def test_size_guard(self):
        with pytest.raises(ValueError):
            oracle.exhaustive_ground_state(np.zeros((25, 25)))


class TestGroundStateProjector:
    def test_projector_counts(self):
        assert len(oracle.ground_state_projector(graph.build_mobius_ladder(8, 0.4))) == 2
        assert len(oracle.ground_state_projector(graph.build_mobius_ladder(8, 0.6))) == 8

    def test_projector_matches_configs(self):
        J = graph.build_mobius_ladder(8, 0.4)
        idx = set(int(i) for i in oracle.ground_state_projector(J))
        s0 = graph.build_s0(8)
        assert idx == {basis_index(s0), basis_index(-s0)}

    def test_two_spin_indices(self):
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert list(oracle.ground_state_projector(J)) == [0b00, 0b11]


class TestAgainstAnalytic:
    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_classification_on_grid(self, n):
        for j in np.linspace(0.05, 1.0, 20):
            if abs(j - graph.j_crit(n)) < 1e-9:
                continue
            J = graph.build_mobius_ladder(n, j)
            summary = oracle.exhaustive_ground_state(J)
            info = graph.analytic_ground_state(n, j)  # energy and degeneracy: oracle-vs-analytic
            family = {tuple(np.sign(s).astype(int)) for s in summary.ground_states}
            if info.label == "S0":
                assert tuple(graph.build_s0(n).astype(int)) in family
            else:
                assert tuple(graph.build_s1(n, 0).astype(int)) in family


def _whole_table_formula(J, h=None):
    """all_energies as one (2^(n-m), 2^m) table: the formula the row blocks replaced."""
    n = J.shape[0]
    m = n // 2
    lo, hi = spins_table(m), spins_table(n - m)
    E = -(hi @ J[m:, :m]) @ lo.T
    E += -0.5 * np.einsum("ai,ai->a", lo @ J[:m, :m], lo)
    E += -0.5 * np.einsum("bi,bi->b", hi @ J[m:, m:], hi)[:, None]
    if h is not None:
        E += -(hi @ h[m:])[:, None] - lo @ h[:m]
    return E.reshape(-1)


def _whole_table_ground_set(E):
    """The tie rule over the whole table at once: the formula the blocked rule replaced."""
    return np.flatnonzero(np.round(E - E.min(), oracle.ENERGY_DECIMALS) == 0)


def _whole_table_summary(J):
    """Ground energy, ground indices and histogram from the whole table at once."""
    E = oracle.all_energies(J)
    ground = _whole_table_ground_set(E)
    values, counts = np.unique(np.round(E, oracle.ENERGY_DECIMALS), return_counts=True)
    return float(values[0]), ground, dict(zip(values.tolist(), counts.tolist()))


def _assert_streamed_equals_whole_table(J):
    summary = oracle.exhaustive_ground_state(J)
    energy, ground, histogram = _whole_table_summary(J)
    assert summary.ground_energy == energy
    np.testing.assert_array_equal(summary.ground_indices, ground)
    assert summary.histogram == histogram
    assert list(summary.histogram) == sorted(histogram)
    return summary


class TestBlockedEnergies:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_bitwise_equal_to_the_whole_table(self, n):
        rng = np.random.default_rng(300 + n)
        J = _random_couplings(rng, n)
        h = rng.normal(size=n)
        assert np.array_equal(oracle.all_energies(J), _whole_table_formula(J))
        assert np.array_equal(oracle.all_energies(J, h), _whole_table_formula(J, h))

    @pytest.mark.parametrize("entries", [1, 8, 64])
    def test_bitwise_equal_with_small_blocks(self, monkeypatch, entries):
        monkeypatch.setattr(oracle, "BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(entries)
        for n in range(2, 15):
            J = _random_couplings(rng, n)
            h = rng.normal(size=n)
            assert np.array_equal(oracle.all_energies(J, h), _whole_table_formula(J, h)), n


class TestFlipSymmetry:
    """The oracle streams half the table: field-free, the complement is the reversal."""

    @pytest.mark.parametrize("n", range(2, 15))
    def test_random_couplings_bitwise(self, n):
        rng = np.random.default_rng(800 + n)
        for integer in (False, True):
            E = oracle.all_energies(_random_couplings(rng, n, integer=integer))
            assert np.array_equal(E, E[::-1])

    @pytest.mark.parametrize("n", range(4, 21, 2))
    def test_mobius_ladders_bitwise(self, n):
        for j in (0.15, 0.5, 4.0 / n, 1.0):
            E = oracle.all_energies(graph.build_mobius_ladder(n, j))
            assert np.array_equal(E, E[::-1]), j


class TestBlockedGroundSet:
    @pytest.mark.parametrize("entries", [1, 8, 64, oracle.BLOCK_ENTRIES])
    def test_equals_the_whole_table_rule(self, monkeypatch, entries):
        monkeypatch.setattr(oracle, "BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(500 + entries)
        for n in range(2, 13):
            for integer in (False, True):  # integer couplings tie many states
                E = oracle.all_energies(_random_couplings(rng, n, integer=integer))
                expected = _whole_table_ground_set(E)
                got = oracle.ground_set(E)
                assert got.dtype == expected.dtype and np.array_equal(got, expected), n

    def test_ties_straddle_block_boundaries(self, monkeypatch):
        # blocks of 8: the minimum sits in the last block, so every block is
        # ruled against the global minimum, not its own
        monkeypatch.setattr(oracle, "BLOCK_ENTRIES", 8)
        E = np.ones(37)
        E[36] = -2.0 - 2e-10  # the minimum
        E[[7, 8, 31, 32]] = -2.0  # 2e-10 above it: ties
        E[[15, 16]] = -2.0 + 2e-10  # 4e-10 above: ties
        E[23] = -2.0 + 4e-10  # 6e-10 above: rounds to 1e-9, no tie
        expected = [7, 8, 15, 16, 31, 32, 36]
        assert _whole_table_ground_set(E).tolist() == expected
        assert oracle.ground_set(E).tolist() == expected

    def test_memory_is_one_block_not_the_table(self):
        import tracemalloc

        E = oracle.all_energies(graph.build_mobius_ladder(20, 0.15))
        tracemalloc.start()
        try:
            ground = oracle.ground_set(E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(ground, _whole_table_ground_set(E))
        assert peak < E.nbytes / 4


class TestStreamedOracle:
    @pytest.mark.parametrize("n", range(4, 21, 2))
    def test_mobius_ladders(self, n):
        for j in (0.15, 0.5, 4.0 / n, 1.0, 2.0):
            _assert_streamed_equals_whole_table(graph.build_mobius_ladder(n, j))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_random_couplings(self, n):
        rng = np.random.default_rng(400 + n)
        for integer in (False, True):
            _assert_streamed_equals_whole_table(_random_couplings(rng, n, integer=integer))

    @pytest.mark.parametrize("entries", [1, 16, 256])
    def test_many_blocks(self, monkeypatch, entries):
        monkeypatch.setattr(oracle, "BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(500 + entries)
        cases = [graph.build_mobius_ladder(n, j) for n in (4, 8, 12) for j in (0.4, 0.5, 0.6)]
        cases += [_random_couplings(rng, n, integer=k % 2 == 0) for k, n in enumerate(range(3, 12))]
        for J in cases:
            summary = _assert_streamed_equals_whole_table(J)
            n = len(J)
            block = max(entries, 2 << n // 2)  # a block holds at least two rows
            assert summary.blocks == max(1, (1 << n - 1) // block)  # blocks of the half

    def test_tie_split_across_blocks(self, monkeypatch):
        # the S1 states of the n = 8 ladder above the crossing lie in rows 2, 4, 5
        # and 6 of the streamed half of the 16 x 16 table, in the second, third and
        # fourth of its four blocks of two rows; their mirrors fill rows 9 to 13
        monkeypatch.setattr(oracle, "BLOCK_ENTRIES", 32)
        summary = _assert_streamed_equals_whole_table(graph.build_mobius_ladder(8, 0.6))
        assert summary.blocks == 4
        assert [int(i) >> 4 for i in summary.ground_indices] == [2, 4, 5, 6, 9, 10, 11, 13]
        # below the crossing S0 (row 5) finds -S0 (row 10) only as its mirror
        summary = _assert_streamed_equals_whole_table(graph.build_mobius_ladder(8, 0.4))
        assert [int(i) >> 4 for i in summary.ground_indices] == [5, 10]

    def test_minimum_found_late_drops_earlier_candidates(self, monkeypatch):
        # E = s3 s4 in blocks of two rows, that is of fixed (s3, s4): every state of
        # the first block (s3 = s4 = -1) ties with its running minimum 1, the second
        # and last block of the half lowers it to -1, and only the states with
        # s3 != s4 remain
        monkeypatch.setattr(oracle, "BLOCK_ENTRIES", 8)
        J = np.zeros((5, 5))
        J[3, 4] = J[4, 3] = -1.0
        summary = _assert_streamed_equals_whole_table(J)
        assert summary.blocks == 2
        assert summary.ground_energy == -1.0
        assert len(summary.ground_indices) == 16
        assert all((int(i) >> 3 & 1) != (int(i) >> 4 & 1) for i in summary.ground_indices)

    def test_raw_levels_sharing_a_key(self):
        # at n = 8, j = 0.15 the distinct raw energies outnumber their rounded keys,
        # and 58 of the 64 states at the zero key are exact zeros: each key sums the
        # counts of every raw level that rounds to it, and the zero key is +0.0
        J = graph.build_mobius_ladder(8, 0.15)
        E = oracle.all_energies(J)
        assert np.unique(E).size > np.unique(np.round(E, oracle.ENERGY_DECIMALS)).size
        summary = _assert_streamed_equals_whole_table(J)
        assert summary.histogram[0.0] == 64 and np.count_nonzero(E == 0.0) < 64
        assert [repr(k) for k in summary.histogram if k == 0.0] == ["0.0"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_row_pair(self, n):
        # the table has two (n = 2) or four rows: the half is one row or one block
        rng = np.random.default_rng(600 + n)
        for J in (np.zeros((n, n)), -_random_couplings(rng, n) ** 2,
                  _random_couplings(rng, n), _random_couplings(rng, n, integer=True)):
            summary = _assert_streamed_equals_whole_table(J)
            assert summary.blocks == 1

    @pytest.mark.parametrize("entries", [8, 64, oracle.BLOCK_ENTRIES])
    def test_fills_only_the_lower_half(self, monkeypatch, entries):
        monkeypatch.setattr(oracle, "BLOCK_ENTRIES", entries)
        energy_rows = oracle._energy_rows
        filled = []

        def spy(J, h=None):
            shape, step, fill = energy_rows(J, h)

            def spied_fill(r0, out):
                filled.append((r0, len(out)))
                return fill(r0, out)
            return shape, step, spied_fill

        monkeypatch.setattr(oracle, "_energy_rows", spy)
        rng = np.random.default_rng(700)
        for n in range(2, 13):
            filled.clear()
            oracle.exhaustive_ground_state(_random_couplings(rng, n))
            half = 1 << n - n // 2 - 1  # rows of the table below its middle
            assert filled and all(r0 + k <= half for r0, k in filled), n
            assert [r0 for r0, _ in filled] == list(range(0, half, filled[0][1])), n

    def test_memory_is_one_block_not_the_table(self):
        import tracemalloc

        J = graph.build_mobius_ladder(20, 0.15)
        table_bytes = 8 << 20
        oracle.exhaustive_ground_state(J)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            oracle.exhaustive_ground_state(J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 4
