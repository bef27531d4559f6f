import json
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from isinglab import graph, master, quantum
from isinglab import steps as clock
from isinglab.master import (
    AnnealSchedule,
    anneal_master,
    boltzmann_reference,
    ca_generator_apply,
    imaginary_time_evolve,
    sa_generator_apply,
    temperature,
)
from isinglab.quantum import QAConfig, build_diagonal
from isinglab.steps import _time_grid

GOLDEN = Path(__file__).parent / "data" / "master_golden.json"


def _random_instance(rng, n, integer=False):
    """Seeded symmetric couplings; integer ones (no field) give degenerate levels."""
    if integer:
        A = rng.integers(-2, 3, (n, n)).astype(float)
        h = None
    else:
        A = rng.normal(size=(n, n))
        h = rng.normal(size=n)
    J = np.triu(A, 1) + np.triu(A, 1).T
    return J, h


def _dense_generator(E, T, single_flip_only):
    """Rate matrix built entry by entry; columns sum to zero."""
    dim = E.size
    G = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            if i == j or (single_flip_only and bin(i ^ j).count("1") != 1):
                continue
            G[i, j] = expit((E[j] - E[i]) / T)  # rate into i from j
    for j in range(dim):
        G[j, j] = -G[:, j].sum()
    return G


def _per_temperature_rhs(E, T, mode):
    """The rate kernels as they were before the chunked tables: expit(dE / T), then the rhs."""
    if mode == "sa":
        n = int(round(np.log2(E.size)))
        partner = np.arange(E.size) ^ (1 << np.arange(n))[:, None]
        w_in = expit((E[partner] - E) / T)
        w_out = n - w_in.sum(axis=0)
        return lambda q: (w_in * q[partner]).sum(axis=0) - w_out * q
    levels, level, g = np.unique(E, return_inverse=True, return_counts=True)
    W = expit((levels[None, :] - levels[:, None]) / T)
    w_out = (E.size - W @ g)[level]
    return lambda q: (W @ np.bincount(level, weights=q, minlength=levels.size))[level] - w_out * q


def _per_step_anneal(E, schedule, mode, dt, steps):
    """RK4 from uniform with one rate table per temperature and no chunks."""
    p = np.full(E.size, 1.0 / E.size)
    t = 0.0
    for _ in range(steps):
        rhs_a, rhs_m, rhs_e = (_per_temperature_rhs(E, temperature(s, schedule), mode)
                               for s in (t, t + 0.5 * dt, t + dt))
        k1 = rhs_a(p)
        k2 = rhs_m(p + 0.5 * dt * k1)
        k3 = rhs_m(p + 0.5 * dt * k2)
        k4 = rhs_e(p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return p


def _steps_per_chunk(step_bytes):
    return max(1, clock.TABLE_BYTES // step_bytes)


def _criterion9():
    return graph.build_mobius_ladder(8, 0.35), quantum.symmetry_breaking_field(8, 0.05, 0.05)


class TestRateTables:
    @pytest.mark.parametrize("mode", ["sa", "ca"])
    def test_chunked_rhs_equals_per_temperature_kernel(self, mode):
        rates = master._sa_rates if mode == "sa" else master._ca_rates
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            J, h = _random_instance(rng, n, integer=seed % 3 == 0)
            E = build_diagonal(J, h)
            step_bytes, at = rates(E)
            for K in (1, 2, 2 * _steps_per_chunk(step_bytes) + 2):  # a chunk's 2K + 1, and more
                Ts = rng.uniform(0.05, 8.0, K)
                for T, rhs in zip(Ts, at(Ts), strict=True):
                    q = rng.random(E.size)
                    expected = _per_temperature_rhs(E, T, mode)(q)
                    assert np.array_equal(rhs(q), expected)
                    out = np.empty(E.size)  # the anneal's slope buffers
                    assert rhs(q, out) is out and np.array_equal(out, expected)

    def test_tables_are_contiguous_per_temperature(self):
        rng = np.random.default_rng(7)
        for shape in ((5,), (3, 16), (6, 6)):
            dE = rng.integers(-4, 5, shape) * 0.25
            for K in (1, 2, 9):
                Ts = rng.uniform(0.1, 3.0, K)
                tables = master._rate_tables(dE)(Ts)
                assert tables.shape == (K, *shape) and tables.flags.c_contiguous
                for T, table in zip(Ts, tables):
                    assert np.array_equal(table, expit(dE / T))

    def test_chunks_follow_the_table_budget(self, monkeypatch):
        # K steps take 2K + 1 tables: the start and end of every step, and its
        # midpoint; the two new float64 tables of each step fit in TABLE_BYTES,
        # and a chunk never holds less than one step
        J, h = _criterion9()
        E = build_diagonal(J, h)
        for table_bytes in (clock.TABLE_BYTES, 1):
            monkeypatch.setattr(clock, "TABLE_BYTES", table_bytes)
            for mode, entries in (("sa", 9 * 256), ("ca", np.unique(E).size ** 2)):
                rates = getattr(master, f"_{mode}_rates")
                temperatures = []  # temperatures per table build of the anneal

                def counted(E, rates=rates):
                    step_bytes, at = rates(E)
                    assert step_bytes == 2 * 8 * entries
                    return step_bytes, lambda Ts: temperatures.append(len(Ts)) or at(Ts)

                monkeypatch.setattr(master, f"_{mode}_rates", counted)
                steps = anneal_master(J, h, AnnealSchedule(), mode=mode, dt=0.01, t_end=0.4).steps
                monkeypatch.setattr(master, f"_{mode}_rates", rates)
                chunk = (temperatures[0] - 1) // 2
                if table_bytes == 1:
                    assert chunk == 1
                else:
                    step_bytes = 16 * entries
                    assert 1 < chunk and chunk * step_bytes <= table_bytes < (chunk + 1) * step_bytes
                assert sum(K - 1 for K in temperatures) == 2 * steps == 80
                assert all(K == 2 * chunk + 1 for K in temperatures[:-1])


class TestRates:
    def test_equal_energies_give_half(self):
        E = np.zeros(4)
        p = np.array([1.0, 0.0, 0.0, 0.0])
        dp = sa_generator_apply(p, E, 1.0)
        # both single-flip partners of state 0 gain at rate 1/2
        assert dp[1] == pytest.approx(0.5)
        assert dp[2] == pytest.approx(0.5)
        assert dp[0] == pytest.approx(-1.0)

    def test_uphill_frozen_at_low_temperature(self):
        # state 1 sits far above state 0: at T -> 0+ nothing climbs back up
        E = np.array([0.0, 5.0])
        p = np.array([1.0, 0.0])
        dp = sa_generator_apply(p, E, 1e-3)
        assert dp[1] == pytest.approx(0.0, abs=1e-300)

    def test_two_state_relaxation_closed_form(self):
        # single spin in a field: relaxation rate is A01 + A10 = 1 and the
        # fixed point is the Boltzmann ratio
        h = 0.7
        T = 1.3
        E = np.array([h, -h])  # (down, up)
        p = np.array([1.0, 0.0])
        dt = 0.01
        for _ in range(3000):
            k1 = sa_generator_apply(p, E, T)
            k2 = sa_generator_apply(p + dt / 2 * k1, E, T)
            k3 = sa_generator_apply(p + dt / 2 * k2, E, T)
            k4 = sa_generator_apply(p + dt * k3, E, T)
            p = p + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        w = np.exp(-E / T)
        expected = w / w.sum()
        # analytic solution: exponential approach at unit rate
        np.testing.assert_allclose(p, expected, atol=1e-10)
        assert p[0] / p[1] == pytest.approx(np.exp((E[1] - E[0]) / T))

    def test_uniform_flat_is_stationary_for_ca(self):
        E = np.zeros(8)
        p = np.full(8, 1.0 / 8.0)
        np.testing.assert_allclose(ca_generator_apply(p, E, 1.0), 0.0, atol=1e-15)

    def test_generator_columns_sum_to_zero(self):
        E = build_diagonal(graph.build_mobius_ladder(4, 0.4))
        for apply_fn in (sa_generator_apply, ca_generator_apply):
            for j in range(16):
                e_j = np.zeros(16)
                e_j[j] = 1.0
                dp = apply_fn(e_j, E, 0.8)
                assert abs(dp.sum()) < 1e-12

    def test_ca_mixes_faster_than_sa(self):
        # dense 4x4 generators for two spins: the all-pairs spectral gap wins
        E = build_diagonal(graph.build_mobius_ladder(4, 0.5))[:4]  # any 4 energies
        T = 1.0

        def generator(single_flip_only):
            G = np.zeros((4, 4))
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    flips = bin(i ^ j).count("1")
                    if single_flip_only and flips != 1:
                        continue
                    G[i, j] = expit((E[j] - E[i]) / T)
            G -= np.diag(G.sum(axis=0))
            return G

        gap_sa = sorted(np.real(np.linalg.eigvals(generator(True))))[-2]
        gap_ca = sorted(np.real(np.linalg.eigvals(generator(False))))[-2]
        assert abs(gap_ca) > abs(gap_sa)

    def test_temperature_must_be_positive(self):
        # NaN used to pass the guard and return NaN rates
        for T in (0.0, float("nan")):
            for apply in (sa_generator_apply, ca_generator_apply):
                with pytest.raises(ValueError, match="temperature must be positive"):
                    apply(np.ones(2), np.zeros(2), T)
            with pytest.raises(ValueError, match="temperature must be positive"):
                boltzmann_reference(np.zeros(2), T)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("integer", [False, True])
    def test_generators_match_dense_matrix(self, n, integer):
        rng = np.random.default_rng(100 * n + integer)
        J, h = _random_instance(rng, n, integer)
        E = build_diagonal(J, h)
        p = rng.random(1 << n)
        p /= p.sum()
        for T in (0.3, 1.0, 4.0):
            for apply_fn, single_flip_only in ((sa_generator_apply, True),
                                               (ca_generator_apply, False)):
                expected = _dense_generator(E, T, single_flip_only) @ p
                np.testing.assert_allclose(apply_fn(p, E, T), expected, rtol=0, atol=1e-12)

    def test_ca_size_guard(self):
        # the all-pairs action runs on energy levels, so 2^13 states need no
        # spin guard; only the L x L level matrix is bounded
        rng = np.random.default_rng(13)
        E = rng.integers(-20, 20, 2**13).astype(float)
        p = rng.random(2**13)
        p /= p.sum()
        assert abs(ca_generator_apply(p, E, 1.0).sum()) < 1e-12
        with pytest.raises(ValueError):
            ca_generator_apply(p, np.arange(2.0**13), 1.0)


class TestAnnealMaster:
    def test_probability_conserved_and_nonnegative(self):
        J = graph.build_mobius_ladder(6, 0.5)
        run = anneal_master(J, None, AnnealSchedule(), mode="sa", dt=0.01, t_end=50.0)
        assert abs(run.probabilities.sum() - 1.0) < 1e-8
        assert run.probabilities.min() > -1e-10
        assert run.negativity_events <= 1  # < 1 per 1e5 steps at dt = 0.01

    def test_degenerate_pair_split_equally(self):
        J = graph.build_mobius_ladder(8, 0.4)
        run = anneal_master(J, None, AnnealSchedule(), mode="sa", dt=0.01, t_end=100.0)
        per = run.p_gs_per_state[-1]
        assert len(per) == 2
        assert per[0] == pytest.approx(per[1], abs=1e-10)

    def test_fixed_temperature_reaches_boltzmann(self):
        # a huge offset keeps T effectively constant over the run
        J = graph.build_mobius_ladder(4, 0.4)
        schedule = AnnealSchedule(d=1.5 * np.sqrt(1e10), t0=1e10)
        run = anneal_master(J, None, schedule, mode="sa", dt=0.05, t_end=1000.0)
        E = build_diagonal(J)
        expected = boltzmann_reference(E, 1.5, run.ground_indices)
        assert run.p_gs[-1] == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("d, t0", [(np.nan, 0.5), (5.0, np.nan), (np.inf, 0.5), (0.0, 0.5)])
    def test_schedule_validated(self, d, t0):
        with pytest.raises(ValueError):
            AnnealSchedule(d=d, t0=t0)

    @pytest.mark.parametrize("mode", ["sa", "ca"])
    def test_nan_probabilities_abort(self, mode, monkeypatch):
        monkeypatch.setattr(master, "_rate_tables",
                            lambda dE: lambda Ts: np.full((len(Ts), *dE.shape), np.nan))
        with pytest.raises(RuntimeError, match="conservation breach nan"):
            anneal_master(graph.build_mobius_ladder(4, 0.5), None, AnnealSchedule(),
                          mode=mode, t_end=1.0)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            anneal_master(graph.build_mobius_ladder(4, 0.4), None, AnnealSchedule(),
                          mode="metropolis")

    @pytest.mark.parametrize("mode", ["sa", "ca"])
    def test_matches_dense_rk4(self, mode):
        rng = np.random.default_rng(41)
        J, h = _random_instance(rng, 4)
        E = build_diagonal(J, h)
        schedule = AnnealSchedule(d=2.0, t0=0.5)
        dt = 0.01
        run = anneal_master(J, h, schedule, mode=mode, dt=dt, t_end=0.3)
        p = np.full(16, 1.0 / 16.0)
        t = 0.0
        for _ in range(30):
            G_a, G_m, G_e = (_dense_generator(E, temperature(s, schedule), mode == "sa")
                             for s in (t, t + 0.5 * dt, t + dt))
            k1 = G_a @ p
            k2 = G_m @ (p + 0.5 * dt * k1)
            k3 = G_m @ (p + 0.5 * dt * k2)
            k4 = G_e @ (p + dt * k3)
            p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += dt
        np.testing.assert_allclose(run.probabilities, p, rtol=0, atol=1e-12)

    def test_ca_guard(self):
        # only the diagonal's 20-spin guard and the RK4 step bound CA; 14 spins
        # run at a step within the bound, dt (2^14 - 1) <= 2.785
        with pytest.raises(ValueError, match="20-spin guard"):
            anneal_master(np.zeros((21, 21)), None, AnnealSchedule(), mode="ca", dt=1e-6)
        J = graph.build_mobius_ladder(14, 0.35)
        h = quantum.symmetry_breaking_field(14, 0.05, 0.0)
        run = anneal_master(J, h, AnnealSchedule(), mode="ca", dt=1.6e-4, t_end=1.6e-3)
        assert abs(run.probabilities.sum() - 1.0) < 1e-12
        assert run.negativity_events == 0

    @pytest.mark.parametrize("mode, n, dt_ok", [("sa", 8, 0.348), ("ca", 8, 0.0109),
                                               ("ca", 12, 6.8e-4)])
    def test_unstable_rk4_step_rejected(self, mode, n, dt_ok):
        # |lambda| <= n (SA) or 2^n - 1 (CA): dt must keep dt |lambda| <= 2.785
        J = graph.build_mobius_ladder(n, 0.35)
        with pytest.raises(ValueError, match="unstable for RK4"):
            anneal_master(J, None, AnnealSchedule(), mode=mode, dt=dt_ok * 1.01, t_end=1.0)
        run = anneal_master(J, None, AnnealSchedule(), mode=mode, dt=dt_ok, t_end=5 * dt_ok)
        assert len(run.times) == 2

    @pytest.mark.parametrize("mode", ["sa", "ca"])
    def test_overflowing_energy_over_temperature_rejected(self, mode):
        # 2 * energy scale * sqrt(t_end + dt + t0) / d must stay finite: at d = 1e-308
        # the rate tables and Boltzmann weights would divide into overflow
        J = graph.build_mobius_ladder(4, 0.5)
        with pytest.raises(ValueError, match="energy scale"):
            anneal_master(J, None, AnnealSchedule(d=1e-308), mode=mode, dt=0.01, t_end=1.0)
        run = anneal_master(J, None, AnnealSchedule(d=1e-300), mode=mode, dt=0.01, t_end=1.0)
        for T in run.temps:  # frozen from the start: no warning, no NaN
            assert 0.0 <= boltzmann_reference(run.energies, T, run.ground_indices) <= 1.0
        assert abs(run.probabilities.sum() - 1.0) < 1e-12

    def test_temperature_schedule(self):
        schedule = AnnealSchedule(d=5.0, t0=0.5)
        assert temperature(0.0, schedule) == pytest.approx(5.0 / np.sqrt(0.5))
        assert temperature(99.5, schedule) == pytest.approx(0.5)


class TestChunkedAnneal:
    @pytest.mark.parametrize("case", range(4),
                             ids=["criterion9-sa", "criterion9-ca", "random6-sa", "random6-ca"])
    def test_matches_the_recorded_anneal(self, case):
        # recorded before the rate tables were built per chunk of temperatures
        golden = json.loads(GOLDEN.read_text())
        c = golden["cases"][case]
        run = anneal_master(np.array(c["J"]), np.array(c["h"]),
                            AnnealSchedule(**golden["schedule"]), mode=c["mode"], dt=c["dt"],
                            t_end=c["t_end"], sample_every=c["sample_every"])
        assert np.array_equal(run.times, c["times"]) and np.array_equal(run.temps, c["temps"])
        assert run.negativity_events == c["negativity_events"]
        if c["mode"] == "sa":
            assert np.array_equal(run.probabilities, c["probabilities"])
            assert np.array_equal(run.p_gs, c["p_gs"])
        else:  # W @ P runs through BLAS
            np.testing.assert_allclose(run.probabilities, c["probabilities"], rtol=0, atol=1e-12)
            np.testing.assert_allclose(run.p_gs, c["p_gs"], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["sa", "ca"])
    def test_chunk_boundaries(self, mode):
        J, h = _criterion9()
        E = build_diagonal(J, h)
        chunk = _steps_per_chunk((master._sa_rates if mode == "sa" else master._ca_rates)(E)[0])
        schedule, dt, every = AnnealSchedule(), 0.01, 4
        for steps in sorted({0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk + 1}):
            run = anneal_master(J, h, schedule, mode=mode, dt=dt, t_end=steps * dt,
                                sample_every=every)
            t, expected = 0.0, [0.0]
            for sampled in _time_grid(dt, steps * dt, every):
                t += dt
                if sampled:
                    expected.append(t)
            assert np.array_equal(run.times, expected)
            assert np.array_equal(run.temps, [temperature(s, schedule) for s in expected])
            assert np.array_equal(run.probabilities, _per_step_anneal(E, schedule, mode, dt, steps))
            assert run.steps == steps
            assert run.dt_bound == dt * (8 if mode == "sa" else 255)


class TestBoltzmannReference:
    def test_high_temperature_limit(self):
        J = graph.build_mobius_ladder(8, 0.4)
        E = build_diagonal(J)
        assert boltzmann_reference(E, 1e12) == pytest.approx(2.0 / 256.0, rel=1e-6)

    def test_low_temperature_limit(self):
        E = build_diagonal(graph.build_mobius_ladder(8, 0.4))
        assert boltzmann_reference(E, 1e-3) == pytest.approx(1.0)

    @pytest.mark.parametrize("T", [1e-300, 1e-320])
    def test_overflowing_gap_is_the_zero_temperature_limit(self, T):
        # (E - min E) / T overflows: each excited weight is exactly 0, without a warning
        E = build_diagonal(graph.build_mobius_ladder(4, 0.5))
        assert boltzmann_reference(E, T) == 1.0

    def test_against_direct_summation(self):
        E = build_diagonal(graph.build_mobius_ladder(8, 0.4))
        direct = np.exp(-E / 1.0)
        expected = direct[np.round(E - E.min(), 9) == 0].sum() / direct.sum()
        assert boltzmann_reference(E, 1.0) == pytest.approx(expected, rel=1e-12)


class TestImaginaryTime:
    def test_fixed_hamiltonian_converges_to_ground_state(self):
        # a huge schedule offset keeps gamma effectively constant
        J = graph.build_mobius_ladder(4, 0.4)
        g = 1.3
        t0 = 1e9
        config = QAConfig(b=g * np.sqrt(t0), t0=t0, dt=0.02, t_end=600.0,
                          sample_every=10**9)
        run = imaginary_time_evolve(J, None, config)
        E = build_diagonal(J)
        dim = 16
        H = np.diag(E)
        for k in range(4):
            idx = np.arange(dim)
            M = np.zeros((dim, dim))
            M[idx, idx ^ (1 << k)] = 1.0
            H -= g * M
        _, vecs = np.linalg.eigh(H)
        overlap = abs(vecs[:, 0] @ run.amplitudes) ** 2
        assert overlap > 1.0 - 1e-6

    def test_zero_drive_concentrates_instantly(self):
        J = graph.build_mobius_ladder(8, 0.4)
        config = QAConfig(b=0.0, dt=0.1, t_end=30.0, sample_every=10**9)
        run = imaginary_time_evolve(J, None, config)
        assert run.p_gs[-1] > 1.0 - 1e-10

    def test_annealed_at_least_as_greedy_as_quantum(self):
        J = graph.build_mobius_ladder(8, 0.35)
        h = quantum.symmetry_breaking_field(8, 0.05, 0.05)
        config = QAConfig(h=h, sample_every=10**9)
        imag = imaginary_time_evolve(J, h, config)
        qa = quantum.run_qa(J, config)
        assert imag.p_gs[-1] >= qa.p_gs[-1] - 0.01

    def test_overflowing_first_step_rejected(self):
        # the first step's mixer grows the norm by up to e^(n theta) and the renormalization
        # squares it: 2 n theta >= ln(float max) is rejected up front.  At n = 8, dt = 0.01,
        # 2 n theta is 0.2252 b: b = 3500 (788) once overflowed the squared norm into an
        # inf norm, b = 3100 (698) runs
        J = graph.build_mobius_ladder(8, 0.35)
        for b in (1e4, 3500.0):
            with pytest.raises(ValueError, match="squared norm"):
                imaginary_time_evolve(J, None, QAConfig(b=b, dt=0.01, t_end=1.0))
        run = imaginary_time_evolve(J, None, QAConfig(b=3100.0, dt=0.01, t_end=1.0))
        assert np.isfinite(run.amplitudes).all() and 0.0 < run.p_gs[-1] <= 1.0

    def test_field_only_in_config_is_rejected(self):
        # imaginary time anneals under its h argument, so a differing config.h is an error
        J = graph.build_mobius_ladder(8, 0.35)
        h = quantum.symmetry_breaking_field(8, 0.05, 0.05)
        config = QAConfig(h=h, t_end=1.0, sample_every=10**9)
        with pytest.raises(ValueError, match="config.h"):
            imaginary_time_evolve(J, None, config)
        with pytest.raises(ValueError, match="config.h"):
            imaginary_time_evolve(J, 2.0 * h, config)
        assert imaginary_time_evolve(J, h.copy(), config).p_gs[-1] > 0.0
