import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from isinglab import graph, master, oracle, quantum, softspin
from isinglab.cli import main
from isinglab.quantum import (
    QAConfig,
    _time_grid,
    basis_index,
    bloch_vector,
    build_diagonal,
    gamma,
    ground_set,
    ground_state_probability,
    index_spins,
    initial_state,
    instantaneous_ground_overlap,
    load_state,
    reduced_density_matrix,
    run_qa,
    save_state,
    strang_step,
    symmetry_breaking_field,
    transverse_angle,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "quantum_golden.json").read_text())


def _butterfly_split_step(psi, half, z, n):
    """The per-spin transverse mixer the block mixer replaced: one pair update per spin."""
    diag, off = np.cosh(z), np.sinh(z)
    psi *= half
    for k in range(n):
        a = psi.reshape(1 << (n - 1 - k), 2, 1 << k)
        lo = a[:, 0, :].copy()
        hi = a[:, 1, :].copy()
        a[:, 0, :] = diag * lo + off * hi
        a[:, 1, :] = off * lo + diag * hi
    psi *= half


def _per_step_split_step(psi, half, z, n):
    """The block split step as it ran before the chunked tables: blocks and a temporary per step."""
    psi *= half
    for k in range(0, n, 4):
        m = min(4, n - k)
        d = np.arange(m + 1)
        block = (np.cosh(z) ** (m - d) * np.sinh(z) ** d)[quantum._hamming_distances(m)]
        if k == 0:
            a = psi.reshape(-1, 1 << m)
            a[...] = a @ block.T
        else:
            a = psi.reshape(1 << (n - k - m), 1 << m, 1 << k)
            a[...] = np.matmul(block, a)
    psi *= half


def _per_step_evolution(J, h, config, imaginary):
    """QA or imaginary time one step at a time, with the scalar t += dt: (times, samples, psi).

    A sample is (p_gs, prob_up, bloch_mag) for QA and p_gs for imaginary time.
    """
    n = len(J)
    E = build_diagonal(J, h)
    ground = ground_set(E)
    dt = config.dt
    if imaginary:
        psi = np.full(1 << n, 2.0 ** (-n / 2))
        half = np.exp(-0.5 * dt * (E - E.min()))
    else:
        psi = initial_state(n).amplitudes
        half = np.exp(-0.5j * dt * E)

    def sample():
        if imaginary:
            return float(np.sum(psi[ground] ** 2))
        return (ground_state_probability(psi, ground)[0],
                *quantum._single_spin_observables(psi, n))

    t, times, samples = 0.0, [0.0], [sample()]
    for sampled in _time_grid(dt, config.t_end, config.sample_every):
        theta = transverse_angle(t, t + dt, config.b, config.t0)
        _per_step_split_step(psi, half, theta if imaginary else 1j * theta, n)
        if imaginary:
            psi /= np.linalg.norm(psi)
        t += dt
        if sampled:
            times.append(t)
            samples.append(sample())
    return times, samples, psi


class TestBasisConvention:
    def test_all_down_is_zero(self):
        assert basis_index(-np.ones(8)) == 0

    def test_two_spin_up_down(self):
        assert basis_index(np.array([1.0, -1.0])) == 1

    def test_round_trip(self):
        for idx in range(256):
            assert basis_index(index_spins(idx, 8)) == idx

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            index_spins(256, 8)


class TestBuildDiagonal:
    def test_matches_oracle_minimum(self):
        J = graph.build_mobius_ladder(8, 0.4)
        E = build_diagonal(J)
        summary = oracle.exhaustive_ground_state(J)
        assert E.min() == pytest.approx(summary.ground_energy)
        ground_idx = np.flatnonzero(np.round(E - E.min(), 9) == 0)
        assert set(ground_idx) == set(oracle.ground_state_projector(J))

    def test_single_spin_field(self):
        E = build_diagonal(np.zeros((1, 1)), np.array([1.0]))
        np.testing.assert_allclose(E, [1.0, -1.0])  # (down, up)

    def test_field_splits_degenerate_pair(self):
        J = graph.build_mobius_ladder(8, 0.4)
        s0 = graph.build_s0(8)
        E = build_diagonal(J, 0.05 * s0)
        up, dn = basis_index(s0), basis_index(-s0)
        assert E[up] == pytest.approx(-6.4 - 0.05 * 8)
        assert E[dn] == pytest.approx(-6.4 + 0.05 * 8)


class TestInitialState:
    def test_uniform_amplitudes(self):
        state = initial_state(8)
        np.testing.assert_allclose(state.amplitudes, 1.0 / 16.0)
        assert abs(state.amplitudes[37]) ** 2 == pytest.approx(1.0 / 256.0)

    def test_bloch_vectors_point_along_x(self):
        state = initial_state(4)
        for k in range(4):
            b = bloch_vector(reduced_density_matrix(state, k))
            assert (b.u, b.v, b.w) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


class TestSchedule:
    def test_values(self):
        assert gamma(0.0, 5.0, 0.5) == pytest.approx(5.0 / np.sqrt(0.5))
        assert gamma(99.5, 5.0, 0.5) == pytest.approx(0.5)

    def test_angle_matches_quadrature(self):
        for (a, b) in ((0.0, 0.1), (3.0, 3.1), (10.0, 20.0)):
            exact = transverse_angle(a, b, 5.0, 0.5)
            numeric, _ = quad(lambda t: gamma(t, 5.0, 0.5), a, b)
            assert exact == pytest.approx(numeric, rel=1e-10)


class TestStrangStep:
    def test_zero_drive_preserves_probabilities(self):
        J = graph.build_mobius_ladder(4, 0.5)
        E = build_diagonal(J)
        rng = np.random.default_rng(0)
        amp = rng.normal(size=16) + 1j * rng.normal(size=16)
        amp /= np.linalg.norm(amp)
        state = quantum.QuantumState(amp.copy(), 0.0)
        cfg = QAConfig(b=0.0, dt=0.1)
        for _ in range(50):
            state = strang_step(state, E, cfg)
        np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, np.abs(amp) ** 2,
                                   atol=1e-12)

    def test_single_spin_rotation(self):
        # pick b so the integrated angle over one step is pi/2
        t0, dt = 0.5, 0.1
        b = (np.pi / 2.0) / (2.0 * (np.sqrt(dt + t0) - np.sqrt(t0)))
        state = quantum.QuantumState(np.array([1.0 + 0j, 0.0]), 0.0)  # spin down
        out = strang_step(state, np.zeros(2), QAConfig(b=b, t0=t0, dt=dt))
        assert abs(out.amplitudes[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        J = graph.build_mobius_ladder(6, 0.5)
        E = build_diagonal(J)
        state = initial_state(6)
        cfg = QAConfig(b=5.0, dt=0.1)
        for _ in range(200):
            state = strang_step(state, E, cfg)
        assert state.norm_error() < 1e-12

    @pytest.mark.parametrize("schedule", [
        {"b": np.inf}, {"b": np.nan}, {"b": -1.0}, {"t0": np.inf}, {"t0": np.nan}, {"t0": 0.0},
    ], ids=["b-inf", "b-nan", "b-negative", "t0-inf", "t0-nan", "t0-zero"])
    def test_schedule_must_be_finite(self, schedule):
        # an infinite b or t0 used to run to a NaN state and fail the norm check
        with pytest.raises(ValueError, match="b must be finite and >= 0 and t0 finite"):
            QAConfig(**schedule)


class TestSplitStep:
    @pytest.mark.parametrize("n", range(1, 14))  # every remainder of n mod 4
    @pytest.mark.parametrize("kind", ["real-time", "imaginary-time"])
    def test_matches_per_spin_butterfly(self, n, kind):
        rng = np.random.default_rng(100 + n)
        theta = rng.uniform(0.05, 0.7)  # QA's first step at the default schedule turns 0.68
        if kind == "real-time":
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            half = np.exp(-1j * rng.uniform(0.0, 2.0 * np.pi, size=1 << n))
            z = 1j * theta
        else:
            psi = rng.normal(size=1 << n)
            half = np.exp(-rng.uniform(0.0, 1.0, size=1 << n))
            z = theta
        psi /= np.linalg.norm(psi)
        expected = psi.copy()
        _butterfly_split_step(expected, half, z, n)
        blocks = [table[0] for table in quantum._mixer_blocks(np.array([z]),
                                                                quantum._block_sizes(n))]
        quantum._split_stepper(psi, np.empty_like(psi), n)(half, blocks)
        assert psi.dtype == expected.dtype
        # imaginary time grows the norm by up to e^(n theta); compare the
        # renormalized state it goes on with (the unitary case has norm 1)
        scale = np.linalg.norm(expected)
        np.testing.assert_allclose(psi / scale, expected / scale, rtol=0, atol=1e-13)


def _mixer_step_bytes(n, itemsize):
    """Bytes of one step's mixer blocks of n spins: itemsize times the sum of 4^m over the blocks."""
    return itemsize * sum(4 ** m for m in quantum._block_sizes(n))


def _steps_per_chunk(step_bytes):
    return max(1, quantum.TABLE_BYTES // step_bytes)


class TestFixedSteps:
    """One step iterator: the scalar t += dt and `_time_grid`'s flags, whatever the chunk."""

    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["K=1", "K=3", "K=default"])
    def test_times_and_flags(self, chunk, monkeypatch):
        step_bytes = _mixer_step_bytes(8, 16)
        if chunk is None:
            chunk = _steps_per_chunk(step_bytes)
        else:  # TABLE_BYTES is the one knob of the chunk length
            monkeypatch.setattr(quantum, "TABLE_BYTES", chunk * step_bytes + step_bytes - 1)
        dt, every = 0.1, 2
        for steps in sorted({0, 1, chunk - 1, chunk, chunk + 1}):
            t_end = steps * dt
            starts = []  # the times coefficients() was called with, chunk by chunk

            def coefficients(ts):
                starts.append(ts[0])
                return (ts[:-1],)  # each step's start time as its one coefficient

            got = list(quantum._fixed_steps(_time_grid(dt, t_end, every), dt, step_bytes,
                                            coefficients))
            t, times, begins = 0.0, [], []
            for _ in range(steps):
                begins.append(t)
                t += dt
                times.append(t)
            assert [row[0] for row in got] == times  # bitwise: floats compare exactly
            assert [row[1] for row in got] == list(_time_grid(dt, t_end, every))
            assert [row[2] for row in got] == begins
            assert starts == begins[::chunk]
            assert all(len(row) == 3 for row in got)

    @pytest.mark.parametrize("table_bytes", [None, 5000, 1], ids=["default", "5000", "1"])
    def test_one_chunk_rule(self, monkeypatch, table_bytes):
        # every evolution calls its coefficients once per chunk of
        # max(1, TABLE_BYTES // step_bytes) steps, with the bytes per step it declares
        if table_bytes is not None:
            monkeypatch.setattr(quantum, "TABLE_BYTES", table_bytes)
        calls = []  # (step_bytes, steps of each coefficients call) per walk of the iterator
        fixed_steps = quantum._fixed_steps

        def counted(grid, dt, step_bytes, coefficients):
            lengths = []
            calls.append((step_bytes, lengths))

            def count(ts):
                lengths.append(len(ts) - 1)
                return coefficients(ts)
            return fixed_steps(grid, dt, step_bytes, count)

        for module in (quantum, master, softspin):
            monkeypatch.setattr(module, "_fixed_steps", counted)
        J, h = graph.build_mobius_ladder(8, 0.35), symmetry_breaking_field(8, 0.05, 0.05)
        config = QAConfig(dt=0.1, t_end=3.7, h=h)
        cases = [  # (evolution, its steps, bytes per step)
            (lambda: run_qa(J, config).steps, _mixer_step_bytes(8, 16)),
            (lambda: master.imaginary_time_evolve(J, h, config).steps, _mixer_step_bytes(8, 8)),
            (lambda: master.anneal_master(J, h, master.AnnealSchedule(), "sa", 0.01, 0.53).steps,
             16 * 9 * 256),
            (lambda: master.anneal_master(J, h, master.AnnealSchedule(), "ca", 0.01, 0.53).steps,
             16 * np.unique(build_diagonal(J, h)).size ** 2),
            (lambda: softspin.run_ensemble(J, softspin.default_solver_config(
                0.35, variant="cim2", t_end=70.0, early_stop=False), 5, 0).steps_run, 17),
        ]
        for evolution, step_bytes in cases:
            calls.clear()
            steps = evolution()
            assert [b for b, _ in calls] == [step_bytes]
            chunk = _steps_per_chunk(step_bytes)
            lengths = calls[0][1]
            assert len(lengths) == -(-steps // chunk) and sum(lengths) == steps > 0
            assert all(k == chunk for k in lengths[:-1]) and 0 < lengths[-1] <= chunk


class TestChunkedEvolutions:
    """run_qa and imaginary time build their mixer blocks per chunk of steps and
    move the state between two buffers; both must equal the per-step loop bitwise."""

    @pytest.mark.parametrize("n", range(2, 14))  # every remainder of n mod 4
    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["K=1", "K=3", "K=default"])
    def test_match_the_per_step_loop(self, n, chunk, monkeypatch):
        rng = np.random.default_rng(500 + n)
        A = rng.normal(scale=0.5, size=(n, n))
        J, h = np.triu(A, 1) + np.triu(A, 1).T, rng.normal(scale=0.2, size=n)
        qa_bytes, imag_bytes = _mixer_step_bytes(n, 16), _mixer_step_bytes(n, 8)
        if chunk is None:
            chunk = _steps_per_chunk(qa_bytes)
            assert chunk > 3 and _steps_per_chunk(imag_bytes) >= chunk
        table_bytes = {}  # TABLE_BYTES that gives each evolution chunks of `chunk` steps
        if chunk in (1, 3):
            table_bytes = {"qa": chunk * qa_bytes, "imag": chunk * imag_bytes}
        for steps in sorted({0, 1, chunk - 1, chunk, chunk + 1}):
            config = QAConfig(b=2.0, t0=0.5, dt=0.1, t_end=steps * 0.1, sample_every=2)
            times, samples, psi = _per_step_evolution(J, h, replace(config, h=h), False)
            if table_bytes:
                monkeypatch.setattr(quantum, "TABLE_BYTES", table_bytes["qa"])
            run = run_qa(J, replace(config, h=h))
            assert run.steps == steps and np.array_equal(run.times, times)
            assert np.array_equal(run.state.amplitudes, psi) and run.state.t == times[-1]
            p_gs, prob_up, bloch_mag = (np.array(col) for col in zip(*samples))
            assert np.array_equal(run.p_gs, p_gs)
            assert np.array_equal(run.prob_up, prob_up)
            assert np.array_equal(run.bloch_mag, bloch_mag)

            times, samples, psi = _per_step_evolution(J, h, config, True)
            if table_bytes:
                monkeypatch.setattr(quantum, "TABLE_BYTES", table_bytes["imag"])
            imag = master.imaginary_time_evolve(J, h, config)
            assert imag.steps == steps and np.array_equal(imag.times, times)
            assert np.array_equal(imag.amplitudes, psi) and np.array_equal(imag.p_gs, samples)


class TestGoldenEvolutions:
    """Outputs recorded with the per-spin mixer; restructured evolutions must match to 1e-12."""

    J = graph.build_mobius_ladder(GOLDEN["n"], GOLDEN["j"])
    h = symmetry_breaking_field(GOLDEN["n"], GOLDEN["h0"], GOLDEN["h1"])

    def _config(self, **kwargs):
        return QAConfig(b=GOLDEN["b"], t0=GOLDEN["t0"], dt=GOLDEN["dt"],
                        t_end=GOLDEN["t_end"], **kwargs)

    def test_qa_final_amplitudes(self):
        run = run_qa(self.J, self._config(h=self.h, sample_every=10**9))
        expected = np.array(GOLDEN["qa_final_real"]) + 1j * np.array(GOLDEN["qa_final_imag"])
        np.testing.assert_allclose(run.state.amplitudes, expected, rtol=0, atol=1e-12)

    def test_imaginary_time_p_gs(self):
        run = master.imaginary_time_evolve(
            self.J, self.h, self._config(sample_every=GOLDEN["imag_sample_every"]))
        np.testing.assert_allclose(run.times, GOLDEN["imag_times"], rtol=0, atol=1e-9)
        np.testing.assert_allclose(run.p_gs, GOLDEN["imag_p_gs"], rtol=0, atol=1e-12)


class TestSymmetryBreakingField:
    def test_component_values(self):
        h = symmetry_breaking_field(8, 0.05, 0.05)
        assert set(np.round(h, 10)) <= {-0.1, 0.0, 0.1}

    def test_zero_coefficients(self):
        np.testing.assert_allclose(symmetry_breaking_field(8, 0.0, 0.0), np.zeros(8))

    def test_degeneracy_retained_without_field(self):
        J = graph.build_mobius_ladder(8, 0.4)
        E = build_diagonal(J, symmetry_breaking_field(8, 0.0, 0.0))
        assert len(np.flatnonzero(np.round(E - E.min(), 9) == 0)) == 2

    def test_stronger_s1_term_biases_early_alignment(self):
        J = graph.build_mobius_ladder(8, 0.35)
        s1 = graph.build_s1(8, 0)

        def early_alignment(h1):
            h = symmetry_breaking_field(8, 0.05, h1)
            run = run_qa(J, QAConfig(h=h, t_end=30.0, sample_every=10))
            z = 2.0 * run.prob_up[len(run.times) // 2] - 1.0
            return float(z @ s1)

        assert early_alignment(0.1) > early_alignment(0.005)


class TestGroundStateProbability:
    def test_initial_uniform(self):
        state = initial_state(8)
        total, per = ground_state_probability(state, [3])
        assert total == pytest.approx(2.0**-8)

    def test_degenerate_pair_equal_by_symmetry(self):
        J = graph.build_mobius_ladder(8, 0.4)
        run = run_qa(J, QAConfig(t_end=50.0, sample_every=100))
        per = run.p_gs_per_state[-1]
        assert per[0] == pytest.approx(per[1], abs=1e-10)


class TestReducedDensityMatrix:
    def test_trace_hermitian_eigenvalues(self):
        rng = np.random.default_rng(9)
        amp = rng.normal(size=32) + 1j * rng.normal(size=32)
        amp /= np.linalg.norm(amp)
        for k in range(5):
            rho = reduced_density_matrix(amp, k)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
            evals = np.linalg.eigvalsh(rho)
            assert evals[0] >= -1e-12 and evals[1] <= 1.0 + 1e-12

    def test_matches_explicit_partial_trace(self):
        rng = np.random.default_rng(4)
        n = 4
        amp = rng.normal(size=16) + 1j * rng.normal(size=16)
        amp /= np.linalg.norm(amp)
        rho_full = np.outer(amp, amp.conj())
        for k in range(n):
            # reorder axes so spin k is first, then trace the rest
            t = rho_full.reshape([2] * (2 * n))
            # axis for bit k of the ket side is n-1-k (bit 0 is the fastest axis)
            ket_axis = n - 1 - k
            bra_axis = 2 * n - 1 - k
            t = np.moveaxis(t, (ket_axis, bra_axis), (0, n))
            t = t.reshape(2, 2**(n - 1), 2, 2**(n - 1))
            expected = np.einsum("iaja->ij", t)
            # expected is in (bit=0, bit=1) order; ours is (up, down) = (1, 0)
            expected = expected[::-1, ::-1]
            np.testing.assert_allclose(reduced_density_matrix(amp, k), expected, atol=1e-12)

    def test_bell_pair_fully_mixed(self):
        amp = np.zeros(4, dtype=complex)
        amp[0b00] = amp[0b11] = 1.0 / np.sqrt(2.0)
        for k in range(2):
            b = bloch_vector(reduced_density_matrix(amp, k))
            assert b.magnitude == pytest.approx(0.0, abs=1e-12)

    def test_product_state_on_sphere(self):
        state = initial_state(6)
        for k in range(6):
            mag = bloch_vector(reduced_density_matrix(state, k)).magnitude
            assert mag == pytest.approx(1.0, abs=1e-8)

    def test_spin_index_checked(self):
        with pytest.raises(ValueError):
            reduced_density_matrix(initial_state(3), 3)


def _partner_copies_rho(psi, k):
    """The reduced density matrix from copies of the bit-k halves and vdot: the formula replaced."""
    n = int(round(np.log2(psi.size)))
    a = psi.reshape(1 << (n - 1 - k), 2, 1 << k)
    down, up = a[:, 0, :].ravel(), a[:, 1, :].ravel()
    rho = np.empty((2, 2), dtype=complex)
    rho[0, 0] = np.vdot(up, up)
    rho[1, 1] = np.vdot(down, down)
    rho[0, 1] = up @ np.conj(down)
    rho[1, 0] = np.conj(rho[0, 1])
    return rho


class TestSingleSpinObservables:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_match_partner_copies(self, n):
        rng = np.random.default_rng(700 + n)
        for _ in range(3):
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            psi /= np.linalg.norm(psi)
            prob_up, mags = quantum._single_spin_observables(psi, n)
            conj = np.empty_like(psi)  # run_qa passes its second state buffer
            for got, want in zip(quantum._single_spin_observables(psi, n, conj), (prob_up, mags)):
                assert np.array_equal(got, want)
            assert np.array_equal(conj, np.conj(psi))
            for k in range(n):
                rho = _partner_copies_rho(psi, k)
                np.testing.assert_allclose(reduced_density_matrix(psi, k), rho, rtol=0, atol=1e-14)
                assert prob_up[k] == pytest.approx(rho[0, 0].real, rel=0, abs=1e-14)
                assert mags[k] == pytest.approx(bloch_vector(rho).magnitude, rel=0, abs=1e-14)

    def test_one_state_sized_temporary(self):
        import tracemalloc

        n = 14
        rng = np.random.default_rng(7)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        tracemalloc.start()
        try:
            quantum._single_spin_observables(psi, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * psi.nbytes


class TestRunQA:
    def test_matches_strang_steps(self):
        # run_qa and strang_step share one split step; the registry checks its order
        J = graph.build_mobius_ladder(4, 0.4)
        h = symmetry_breaking_field(4, 0.05, 0.05)
        cfg = QAConfig(h=h, dt=0.05, t_end=5.0, sample_every=10**9)
        state, E = initial_state(4), build_diagonal(J, h)
        for _ in range(100):
            state = strang_step(state, E, cfg)
        np.testing.assert_allclose(run_qa(J, cfg).state.amplitudes, state.amplitudes,
                                   rtol=0, atol=1e-12)

    def test_hard_region_with_field(self):
        J = graph.build_mobius_ladder(8, 0.35)
        h = symmetry_breaking_field(8, 0.05, 0.05)
        run = run_qa(J, QAConfig(h=h, sample_every=5))
        assert len(run.ground_indices) == 1
        assert run.p_gs[-1] > 0.9
        mean_u = run.bloch_mag.mean(axis=1)
        # entanglement develops mid-run and clears by the end
        assert mean_u.min() < 0.9
        assert run.bloch_mag[-1].min() > 0.95
        # the entanglement maximum accompanies the late spin flips
        t_min_u = run.times[np.argmin(mean_u)]
        flip_times = []
        for k in range(8):
            pu = run.prob_up[:, k]
            crossings = np.flatnonzero(np.sign(pu[1:] - 0.5) != np.sign(pu[:-1] - 0.5))
            if len(crossings):
                flip_times.append(run.times[crossings[-1] + 1])
        assert flip_times
        assert abs(t_min_u - max(flip_times)) < 25.0

    def test_bloch_vectors_shrink_without_field(self):
        J = graph.build_mobius_ladder(8, 0.35)
        run = run_qa(J, QAConfig(sample_every=100))
        assert run.bloch_mag[-1].mean() < 0.3

    def test_strong_frustration_spin_resolved(self):
        J = graph.build_mobius_ladder(8, 0.6)
        h = symmetry_breaking_field(8, 0.05, 0.05)
        run = run_qa(J, QAConfig(h=h, sample_every=10))
        ground_spins = index_spins(int(run.ground_indices[0]), 8)
        final_z = 2.0 * run.prob_up[-1] - 1.0
        assert np.all(np.sign(final_z) == np.sign(ground_spins))
        # the four frustrated spins polarize less than the rest, like the
        # depressed amplitudes of the soft-spin picture
        s = ground_spins
        defects = np.flatnonzero(s * np.roll(s, -1) > 0)
        frustrated = sorted({int(b) for b in defects} | {int((b + 1) % 8) for b in defects})
        rest = [i for i in range(8) if i not in frustrated]
        polarization = np.abs(run.prob_up - 0.5)
        split = polarization[:, rest].mean(axis=1) - polarization[:, frustrated].mean(axis=1)
        assert split.max() > 0.1
        assert polarization[-1, frustrated].max() < polarization[-1, rest].min()

    def test_memory_guard(self):
        with pytest.raises(ValueError):
            run_qa(np.zeros((22, 22)), QAConfig())

    def test_max_norm_drift_reported(self):
        J = graph.build_mobius_ladder(6, 0.5)
        run = run_qa(J, QAConfig(t_end=20.0, sample_every=10**9))
        assert 0.0 < run.max_norm_drift < 1e-8  # rounding drift, far under the abort limit
        assert run.max_norm_drift >= run.state.norm_error()
        assert run_qa(J, QAConfig(t_end=0.0)).max_norm_drift == 0.0  # no step taken

    def test_nan_state_aborts(self, monkeypatch, tmp_path, capsys):
        split_stepper = quantum._split_stepper

        def poisoned(psi, other, n):
            step = split_stepper(psi, other, n)

            def poisoned_step(half, blocks):
                step(half, blocks)
                psi[3] = np.nan
            return poisoned_step

        monkeypatch.setattr(quantum, "_split_stepper", poisoned)
        J = graph.build_mobius_ladder(4, 0.5)
        with pytest.raises(RuntimeError, match="norm drift nan"):
            run_qa(J, QAConfig(t_end=1.0))
        # imaginary time steps through the same split evolution and names the bad norm
        with pytest.raises(RuntimeError, match="state norm nan at t = 0.10"):
            master.imaginary_time_evolve(J, None, QAConfig(t_end=1.0))
        argv = ["master-run", "--mode", "imag", "--n", "4", "--j", "0.5", "--t-end", "1",
                "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert "state norm nan" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected_up_front(self, value):
        h = np.zeros(4)
        h[1] = value
        with pytest.raises(ValueError, match="field must be finite"):
            run_qa(graph.build_mobius_ladder(4, 0.5), QAConfig(h=h, t_end=1.0))


class TestInstantaneousOverlap:
    def test_initial_state_tracks_transverse_ground(self):
        J = graph.build_mobius_ladder(8, 0.35)
        state = initial_state(8)
        g0 = gamma(0.0, 5.0, 0.5)
        assert instantaneous_ground_overlap(state, J, None, g0) > 0.9

    def test_zero_drive_limit_is_ground_projection(self):
        J = graph.build_mobius_ladder(8, 0.4)
        run = run_qa(J, QAConfig(t_end=100.0, sample_every=10**9))
        overlap = instantaneous_ground_overlap(run.state, J, None, 0.0)
        total, _ = ground_state_probability(run.state, run.ground_indices)
        assert overlap == pytest.approx(total, abs=1e-8)

    def test_adiabatic_tracking_j0(self):
        # slow schedule on the cross-free ring: the state stays within 0.05 of
        # the instantaneous ground space throughout the anneal
        J = graph.build_mobius_ladder(8, 1e-9)  # effectively decoupled ring
        E = build_diagonal(J)
        state = initial_state(8)
        cfg = QAConfig()
        worst = 1.0
        for step in range(5000):
            state = strang_step(state, E, cfg)
            if (step + 1) % 1000 == 0:
                g = gamma(state.t, cfg.b, cfg.t0)
                worst = min(worst, instantaneous_ground_overlap(state, J, None, g))
        assert worst > 0.95

    def test_dense_guard(self):
        with pytest.raises(ValueError):
            instantaneous_ground_overlap(initial_state(13), np.zeros((13, 13)), None, 1.0)

    @staticmethod
    def _kron_hamiltonian(J, h, gamma_now):
        """H = -(1/2) sum J_ij Z_i Z_j - sum h_i Z_i - gamma sum X_k from explicit Kronecker products.

        Spin k is bit k of the basis index, up (Z = +1) when set, so its
        operator is I(2^(n-1-k)) (x) op (x) I(2^k).
        """
        n = len(J)

        def on_spin(op, k):
            return np.kron(np.kron(np.eye(1 << (n - 1 - k)), op), np.eye(1 << k))

        Z = [on_spin(np.diag([-1.0, 1.0]), k) for k in range(n)]
        X = [on_spin(np.array([[0.0, 1.0], [1.0, 0.0]]), k) for k in range(n)]
        H = sum(-0.5 * J[i, k] * Z[i] @ Z[k] for i in range(n) for k in range(n) if i != k)
        H = H - sum(h[k] * Z[k] for k in range(n)) - gamma_now * sum(X)
        return H

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("case", ["field-and-drive", "degenerate-pair"])
    def test_dense_branch_matches_kronecker_eigh(self, n, case):
        # n <= 4 takes the dense eigh branch (dimension <= 16)
        rng = np.random.default_rng(40 + n)
        if case == "field-and-drive":
            J = np.triu(rng.normal(size=(n, n)), 1)
            h, gamma_now = rng.normal(size=n), 0.7
        else:  # ferromagnetic bonds, no field, no drive: all up and all down share the ground
            J = np.triu(rng.uniform(0.5, 1.5, size=(n, n)), 1)
            h, gamma_now = None, 0.0
        J = J + J.T
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        H = self._kron_hamiltonian(J, np.zeros(n) if h is None else h, gamma_now)
        vals, vecs = np.linalg.eigh(H)
        lowest = vals - vals[0] < 1e-10
        assert lowest.sum() == (2 if case == "degenerate-pair" else 1)
        expected = float(np.sum(np.abs(vecs[:, lowest].conj().T @ psi) ** 2))
        assert instantaneous_ground_overlap(psi, J, h, gamma_now) == pytest.approx(
            expected, rel=0, abs=1e-12)
        if case == "degenerate-pair":
            assert expected == pytest.approx(abs(psi[0]) ** 2 + abs(psi[-1]) ** 2, abs=1e-12)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        J = graph.build_mobius_ladder(4, 0.5)
        run = run_qa(J, QAConfig(t_end=10.0, sample_every=10**9))
        path = str(tmp_path / "state.npz")
        save_state(path, run.state)
        back = load_state(path)
        np.testing.assert_array_equal(back.amplitudes, run.state.amplitudes)
        assert back.t == run.state.t

    def test_path_without_suffix_written_exactly(self, tmp_path):
        J = graph.build_mobius_ladder(4, 0.5)
        run = run_qa(J, QAConfig(t_end=10.0, sample_every=10**9))
        path = tmp_path / "snap"
        save_state(str(path), run.state)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap"]
        back = load_state(str(path))
        assert back.amplitudes.tobytes() == run.state.amplitudes.tobytes()
        assert back.amplitudes.dtype == run.state.amplitudes.dtype
        assert back.t == run.state.t
