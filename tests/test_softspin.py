import json
from dataclasses import replace
from itertools import product, repeat
from pathlib import Path

import numpy as np
import pytest

from isinglab import graph, landscape, oracle, softspin
from isinglab import steps as clock
from isinglab.cli import main
from isinglab.landscape import (
    basin_descriptors,
    branch_crossing_pump,
    branch_e0,
    branch_e1,
    descent_state_probabilities,
    region_map,
)
from isinglab.softspin import (
    SolverConfig,
    cim2_pump_step,
    default_solver_config,
    homogenize_intensities,
    ht_rhs,
    manifold_reduce,
    pump_tanh,
    run_ensemble,
    run_trajectory,
    soft_energy,
    soft_gradient,
    soft_hessian,
    spin_family,
    success_probability,
)

J8 = graph.build_mobius_ladder(8, 0.4)
GOLDEN = json.loads((Path(__file__).parent / "data" / "softspin_golden.json").read_text())


def _mixing_reference(x, frac):
    """cim3's homogenization as one array expression, independent of `softspin`'s kernels.

    sign(x) sqrt((1 - frac) x^2 + frac R) with R the mean of x^2 over each
    row, and x itself in rows at frac = 0.  np.sign maps an exact zero of
    either sign to +0.0, which the product keeps.
    """
    intensity = x * x
    R = np.mean(intensity, axis=-1, keepdims=True)
    return np.where(frac > 0.0, np.sign(x) * np.sqrt((1.0 - frac) * intensity + frac * R), x)


def _force_chunk(monkeypatch, config, steps):
    """Make the step iterator walk `config`'s schedule in chunks of `steps` steps."""
    monkeypatch.setattr(clock, "TABLE_BYTES", steps * softspin._schedule(config)[0])


class TestSoftEnergy:
    def test_origin_value(self):
        for n, p, c in ((8, 0.7, 1.0), (4, -1.2, 2.0)):
            J = graph.build_mobius_ladder(n, 0.4)
            assert soft_energy(np.zeros(n), p, c, J) == pytest.approx(0.25 * c * n * p**2)

    def test_uniform_branch_value(self):
        # S0 pattern at its steady amplitude, p = 0: closed form gives -5.12
        x = graph.build_s0(8) * np.sqrt(1.6)
        assert soft_energy(x, 0.0, 1.0, J8) == pytest.approx(-5.12)

    def test_single_site(self):
        assert soft_energy(np.array([1.0]), 1.0, 1.0, np.zeros((1, 1))) == pytest.approx(0.0)

    def test_batch_shape(self):
        x = np.zeros((5, 8))
        out = soft_energy(x, 0.5, 1.0, J8)
        assert out.shape == (5,)


class TestGradient:
    def test_zero_fixed_point(self):
        assert np.all(soft_gradient(np.zeros(8), 0.3, 1.0, J8) == 0.0)

    def test_finite_difference_consistency(self):
        # the batched, per-spin-pump form the ensemble integrator calls (cim2);
        # the scalar form is the registry entry gradient-consistency
        rng = np.random.default_rng(12)
        h = 1e-5
        x = rng.uniform(-2.0, 2.0, (100, 8))
        p = rng.uniform(-1.5, 2.0, (100, 8))
        g = soft_gradient(x, p, 1.0, J8)
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd = (soft_energy(x + e, p, 1.0, J8) - soft_energy(x - e, p, 1.0, J8)) / (2 * h)
            assert np.max(np.abs(-fd - g[:, i]) / np.maximum(1.0, np.abs(g[:, i]))) < 1e-6

    def test_steady_state(self):
        p = 0.5
        x = graph.build_s0(8) * np.sqrt(p + 1.6)
        assert np.max(np.abs(soft_gradient(x, p, 1.0, J8))) < 1e-12

    def test_hessian_matches_gradient_jacobian(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 8)
        p = 0.4
        H = soft_hessian(x, p, 1.0, J8)
        h = 1e-6
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            col = -(soft_gradient(x + e, p, 1.0, J8) - soft_gradient(x - e, p, 1.0, J8)) / (2 * h)
            np.testing.assert_allclose(col, H[:, i], atol=1e-6)

    def test_hessian_equals_the_broadcast_construction(self):
        # the -J copy with the diagonal added through index arrays that
        # soft_hessian replaced
        def broadcast_hessian(x, p, c, J):
            H = np.broadcast_to(-J, x.shape[:-1] + J.shape).copy()
            n = J.shape[0]
            H[..., np.arange(n), np.arange(n)] += c * (3.0 * x**2 - p)
            return H

        rng = np.random.default_rng(8)
        J = rng.normal(size=(8, 8))  # not symmetric: the layout of -J must be kept
        for shape in [(8,), (1, 8), (50, 8), (3, 4, 8), (0, 8)]:
            x = rng.uniform(-2.0, 2.0, shape)
            for p, c in [(0.4, 1.0), (-1.3, 0.7)]:
                H = soft_hessian(x, p, c, J)
                assert H.shape == shape[:-1] + (8, 8)
                assert np.array_equal(H, broadcast_hessian(x, p, c, J))

    def test_unit_nonlinearity_equals_the_multiply_by_c(self):
        # at c = 1.0 the kernel skips `out *= c`, which would leave every value as it is
        rng = np.random.default_rng(9)
        J = rng.normal(size=(8, 8))
        x = rng.normal(size=(300, 8)) * 10.0 ** rng.uniform(-3.0, 3.0, (300, 1))
        x[rng.random(x.shape) < 0.1] = 0.0
        x[0, :3] = -0.0, np.inf, np.nan
        for p in (0.7, rng.uniform(-2.0, 2.0, (300, 8))):
            with np.errstate(invalid="ignore"):
                want = 1.0 * (p * x - x * x * x) + x @ J.T
                got = soft_gradient(x, p, 1.0, J)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_ht_rhs(self):
        assert np.all(ht_rhs(np.zeros(8), 0.5, J8) == 0.0)
        x = np.ones(8)
        np.testing.assert_allclose(ht_rhs(x, 0.5, J8), 0.5 * x + J8 @ x)


class TestPumpSchedules:
    def test_tanh_endpoints(self):
        assert pump_tanh(0.0, -1.6, 0.003) == pytest.approx(-1.6)
        assert pump_tanh(1e9, -1.6, 0.003) == pytest.approx(1.0)

    def test_tanh_value(self):
        # direct evaluation: -1.6 + 2.6 tanh(3)
        assert pump_tanh(1000.0, -1.6, 0.003) == pytest.approx(0.9871423595854992, abs=1e-12)

    def test_monotone(self):
        t = np.linspace(0.0, 5000.0, 200)
        p = pump_tanh(t, -1.6, 0.003)
        assert np.all(np.diff(p) > 0.0)

    def test_cim2_step(self):
        p = np.zeros(3)
        np.testing.assert_allclose(cim2_pump_step(p, np.array([1.0, -1.0, 1.0]), 0.003, 0.1), p)
        out = cim2_pump_step(np.zeros(1), np.zeros(1), 0.003, 0.1)
        assert out[0] == pytest.approx(3e-4)
        out = cim2_pump_step(np.zeros(1), np.array([2.0]), 0.003, 0.1)
        assert out[0] == pytest.approx(-3 * 0.003 * 0.1)
        assert cim2_pump_step(0.0, 0.5, 0.003, 0.1) == pytest.approx(0.75 * 0.003 * 0.1)


class TestManifoldReduce:
    def test_identity_at_zero(self):
        x = np.array([0.3, -1.2, 0.8])
        np.testing.assert_allclose(manifold_reduce(x, 0.0), x)

    def test_full_reduction_uses_mean_square(self):
        np.testing.assert_allclose(manifold_reduce(np.array([2.0, -2.0]), 1.0), [4.0, -4.0])

    def test_uniform_unit_vector_fixed(self):
        np.testing.assert_allclose(manifold_reduce(np.array([1.0, -1.0]), 0.5), [1.0, -1.0])

    def test_signs_preserved_and_zero_unchanged(self):
        x = np.array([0.5, -0.2, 0.0, 1.5])
        out = manifold_reduce(x, 0.7)
        assert out[2] == 0.0
        assert np.all(np.sign(out[[0, 1, 3]]) == np.sign(x[[0, 1, 3]]))

    def test_delta_one_output_uniform(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
        out = manifold_reduce(x, 1.0)
        mags = np.abs(out)
        np.testing.assert_allclose(mags, mags[0])
        # a second application keeps the sign pattern and magnitude uniformity
        again = manifold_reduce(out, 1.0)
        np.testing.assert_allclose(np.abs(again), np.abs(again)[0])
        assert np.all(np.sign(again) == np.sign(x))

    def test_range_check(self):
        with pytest.raises(ValueError):
            manifold_reduce(np.ones(2), 1.5)


class TestHomogenizeIntensities:
    def test_preserves_total_intensity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=10)
        out = homogenize_intensities(x, 0.4)
        assert np.sum(out**2) == pytest.approx(np.sum(x**2), rel=1e-12)
        assert np.all(np.sign(out) == np.sign(x))

    @pytest.mark.parametrize("seed", range(5))
    def test_per_row_fractions_preserve_intensity_and_signs(self, seed):
        # property: any batch of nonzero amplitudes, any per-row fractions in [0, 1]
        rng = np.random.default_rng(seed)
        rows, n = 200, int(rng.integers(2, 17))
        x = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        frac = rng.uniform(0.0, 1.0, (rows, 1))
        frac[:10] = rng.choice([0.0, 1.0], (10, 1))
        out = homogenize_intensities(x, frac)
        np.testing.assert_allclose(np.sum(out * out, axis=1), np.sum(x * x, axis=1), rtol=1e-12)
        np.testing.assert_array_equal(np.sign(out), np.sign(x))

    def test_full_mixing_gives_rms(self):
        x = np.array([2.0, -1.0])
        out = homogenize_intensities(x, 1.0)
        rms = np.sqrt(2.5)
        np.testing.assert_allclose(np.abs(out), rms)

    def test_zero_component_stays(self):
        out = homogenize_intensities(np.array([0.0, 2.0]), 1.0)
        assert out[0] == 0.0


class TestTrajectories:
    def test_monotone_descent_at_fixed_pump(self):
        # fixed p: energy must not increase along the integrated flow
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (50, 8))
        p = 0.7
        worst = -np.inf
        for _ in range(2000):
            e0 = soft_energy(x, p, 1.0, J8)
            x = x + 0.1 * soft_gradient(x, p, 1.0, J8)
            worst = max(worst, float(np.max(soft_energy(x, p, 1.0, J8) - e0)))
        assert worst < 1e-8

    def test_cim3_full_delta_keeps_amplitudes_equal(self):
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        config = SolverConfig(variant="cim3", p0=-1.0, delta=1.0, t_end=100.0,
                              sample_every=5, early_stop=False)
        result = run_trajectory(J, config)
        assert result.samples, "sampling was requested"
        for _, _, x, _ in result.samples:
            assert abs(abs(x[0]) - abs(x[1])) < 1e-12

    def test_ground_state_found_in_hard_region(self):
        # j just above the eigenvalue crossing: plain gradient flow still
        # reaches the alternating ground state in a visible fraction of runs
        j = 0.30
        J = graph.build_mobius_ladder(8, j)
        stats = success_probability(J, default_solver_config(j), runs=300, seed=21)
        assert stats.p_gs > 0.05
        assert stats.diverged == 0

    def test_s1_final_states_have_depressed_frustrated_amplitudes(self):
        j = 0.55
        J = graph.build_mobius_ladder(8, j)
        res = run_ensemble(J, default_solver_config(j), runs=100, seed=4)
        checked = 0
        for spins, x in zip(res.spins, res.final_x):
            if spin_family(spins) != "S1":
                continue
            defects = np.flatnonzero(spins * np.roll(spins, -1) > 0)
            frustrated = set()
            for b in defects:
                frustrated.update([int(b), int((b + 1) % 8)])
            rest = [i for i in range(8) if i not in frustrated]
            assert np.max(np.abs(x[list(frustrated)])) < np.min(np.abs(x[rest]))
            checked += 1
        assert checked > 50

    def test_s0_final_states_have_uniform_amplitudes(self):
        j = 0.30
        J = graph.build_mobius_ladder(8, j)
        res = run_ensemble(J, default_solver_config(j), runs=200, seed=21)
        s0 = graph.build_s0(8).astype(int)
        uniform_checked = 0
        for spins, x in zip(res.spins, res.final_x):
            if not (np.array_equal(spins, s0) or np.array_equal(spins, -s0)):
                continue
            mags = np.abs(x)
            assert mags.max() - mags.min() < 1e-6
            uniform_checked += 1
        assert uniform_checked > 0

    def test_readout_flip_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)  # nonzero components almost surely
        np.testing.assert_array_equal(softspin.spin_readout(-x), -softspin.spin_readout(x))

    def test_ensemble_deterministic(self):
        j = 0.35
        J = graph.build_mobius_ladder(8, j)
        cfg = default_solver_config(j, t_end=300.0)
        a = run_ensemble(J, cfg, runs=40, seed=9)
        b = run_ensemble(J, cfg, runs=40, seed=9)
        np.testing.assert_array_equal(a.spins, b.spins)
        np.testing.assert_array_equal(a.final_x, b.final_x)

    def test_ht_reads_out_at_unit_amplitude(self):
        j = 0.30
        J = graph.build_mobius_ladder(8, j)
        stats = success_probability(J, default_solver_config(j, variant="ht"),
                                    runs=200, seed=3)
        assert 0.0 <= stats.p_gs <= 1.0

    def test_ht_samples_its_final_step(self):
        # an HT trajectory stops at the step where its amplitude reaches 1,
        # and that step is sampled like any other
        cfg = default_solver_config(0.35, "ht", sample_every=1)
        res = run_trajectory(graph.build_mobius_ladder(8, 0.35), cfg)
        t, _, x, _ = res.samples[-1]
        assert len(res.samples) < cfg.steps
        assert res.t == t and np.array_equal(res.x, x)
        assert np.max(np.abs(x)) >= 1.0 > np.max(np.abs(res.samples[-2][2]))

    def test_divergence_flagged(self):
        j = 0.4
        J = graph.build_mobius_ladder(8, j)
        cfg = default_solver_config(j, dt=1.3, t_end=2000.0, early_stop=False)
        res = run_ensemble(J, cfg, runs=4, seed=0)
        assert res.diverged.any()

    @pytest.mark.parametrize("pattern, hit", [("s0", True), ("ferro", False)])
    def test_diverged_run_is_read_out_by_its_clipped_signs(self, monkeypatch, pattern, hit):
        # run 0 starts outside the box, overshoots in one step and is clipped there:
        # it counts as a hit exactly when the signs of its clipped amplitudes form a ground state
        j = 0.4
        J = graph.build_mobius_ladder(8, j)
        start = graph.build_s0(8) if pattern == "s0" else np.ones(8)
        initial_batch = softspin._initial_batch

        def batch(n, runs, amplitude, seed):
            x0 = initial_batch(n, runs, amplitude, seed)
            x0[0] = 2 * softspin.DIVERGENCE_LIMIT * start
            return x0

        monkeypatch.setattr(softspin, "_initial_batch", batch)
        cfg = default_solver_config(j)
        res = run_ensemble(J, cfg, runs=8, seed=0)
        stats = success_probability(J, cfg, runs=8, seed=0)
        ground = softspin.ground_readouts(J)
        np.testing.assert_array_equal(res.diverged, np.arange(8) == 0)
        np.testing.assert_array_equal(res.final_x[0], -softspin.DIVERGENCE_LIMIT * start)
        np.testing.assert_array_equal(res.spins[0], softspin.spin_readout(res.final_x[0]))
        assert bool(softspin.ground_hits(res.spins[:1], ground)[0]) is hit
        assert stats.diverged == 1
        assert stats.hits == int(softspin.ground_hits(res.spins, ground).sum())
        assert stats.hits == int(softspin.ground_hits(res.spins[1:], ground).sum()) + hit

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(variant="bogus")
        with pytest.raises(ValueError):
            SolverConfig(delta=1.5)
        with pytest.raises(ValueError):
            run_trajectory(J8, SolverConfig())  # p0 unset
        for bad in ({"eps": np.nan}, {"eps": np.inf}, {"c": np.nan}, {"c": np.inf},
                    {"c": 0.0}, {"p0": np.nan}, {"p0": -np.inf}):
            with pytest.raises(ValueError):
                SolverConfig(**bad)
        for eps in (0.0, -0.0, -0.003, -np.inf):  # a pump that never rises, or falls
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                SolverConfig(variant="cim2", p0=-1.65, eps=eps)
        for amplitude in (np.inf, np.nan, -1.0, 0.0):  # 0 would leave every run at the origin
            with pytest.raises(ValueError, match="init_amplitude must be positive and finite"):
                default_solver_config(0.35, init_amplitude=amplitude)
        with pytest.raises(ValueError, match="sample_every must be >= 0, got -1"):
            default_solver_config(0.35, sample_every=-1)
        with pytest.raises(ValueError):
            run_ensemble(J8, default_solver_config(0.4), runs=0, seed=0)


class TestGoldenEnsembles:
    """Ensemble outputs recorded while soft_gradient still cubed with `x**3`.

    The early-stop step depends on the last step at which any run's signs
    changed, and the divergence flags on the whole-batch range check; both
    must come out exactly as recorded, the amplitudes to 1e-12.
    """

    @pytest.mark.parametrize("variant", softspin.VARIANTS)
    def test_early_stopped_ensemble(self, variant):
        g = GOLDEN
        J = graph.build_mobius_ladder(g["n"], g["j"])
        deltas = np.array(g["cim3_deltas"]) if variant == "cim3" else None
        res = run_ensemble(J, default_solver_config(g["j"], variant=variant), g["runs"], g["seed"],
                           delta_per_run=deltas)
        want = g["ensembles"][variant]
        assert res.steps_run == want["steps_run"]
        np.testing.assert_array_equal(res.spins, want["spins"])
        np.testing.assert_allclose(res.final_x, want["final_x"], rtol=0.0, atol=1e-12)
        assert not res.diverged.any()

    @pytest.mark.parametrize("variant", ["cim1", "cim2", "cim3"])
    def test_diverged_runs_are_flagged_clipped_and_frozen(self, variant):
        g = GOLDEN["divergence"]
        j = GOLDEN["j"]
        J = graph.build_mobius_ladder(GOLDEN["n"], j)
        cfg = default_solver_config(j, variant=variant, dt=g["dt"], t_end=g["t_end"],
                                    early_stop=False,
                                    delta=g["cim3_delta"] if variant == "cim3" else 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_ensemble(J, cfg, g["runs"], g["seed"])
            # runs diverging in the next five steps must leave those flagged by t_end in place
            later = run_ensemble(J, replace(cfg, t_end=g["t_end"] + 5 * g["dt"]), g["runs"], g["seed"])
        np.testing.assert_array_equal(res.diverged, np.array(g["diverged"][variant], dtype=bool))
        assert 0 < res.diverged.sum() < g["runs"]
        x = res.final_x[res.diverged]
        assert np.isfinite(x).all()
        assert np.abs(x).max() <= softspin.DIVERGENCE_LIMIT
        assert later.diverged.all()
        np.testing.assert_array_equal(later.final_x[res.diverged], x)


class TestGroundReadouts:
    @pytest.mark.parametrize("n", [8, 30, 70])  # 70 spins do not fit a packed int64 index
    def test_hit_count_matches_tuple_set_loop(self, n):
        rng = np.random.default_rng(n)
        spins = np.where(rng.random((300, n)) < 0.5, 1, -1).astype(np.int8)
        for size in (1, 5, 40):
            ground = np.concatenate([spins[rng.choice(300, size, replace=False)],
                                     np.where(rng.random((size, n)) < 0.5, 1, -1)]).astype(np.int8)
            gset = {tuple(int(v) for v in row) for row in ground}
            loop = [tuple(int(v) for v in row) in gset for row in spins]
            np.testing.assert_array_equal(softspin.ground_hits(spins, ground), loop)

    def test_oracle_rows_up_to_the_spin_limit(self):
        for j in (0.4, 0.6):
            J = graph.build_mobius_ladder(8, j)
            rows = softspin.ground_readouts(J)
            assert rows.dtype == np.int8
            expected = oracle.exhaustive_ground_state(J).ground_states
            np.testing.assert_array_equal(rows, np.array(expected))

    @pytest.mark.parametrize("j,family,count", [(0.1, "S0", 2), (0.3, "S1", 28),
                                                (4.0 / 28, None, 30)])
    def test_analytic_rows_beyond_the_spin_limit(self, j, family, count):
        n = 28
        J = graph.build_mobius_ladder(n, j)
        rows = softspin.ground_readouts(J)
        assert len({tuple(r) for r in rows}) == len(rows) == count
        energy = graph.analytic_ground_state(n, j).energy
        for r in rows:
            assert graph.ising_energy(J, r) == pytest.approx(energy, abs=1e-9)
            assert family is None or softspin.spin_family(r) == family

    def test_analytic_rows_need_a_mobius_ladder(self):
        J = graph.build_mobius_ladder(26, 0.3)
        J[0, 5] = J[5, 0] = -0.1
        with pytest.raises(ValueError):
            softspin.ground_readouts(J)


class TestCim3Homogenization:
    def test_per_run_deltas_equal_config_delta(self):
        j = 0.35
        J = graph.build_mobius_ladder(8, j)
        for d in (0.0, 0.01, 0.3):
            cfg = default_solver_config(j, variant="cim3", delta=d, t_end=400.0)
            a = run_ensemble(J, cfg, runs=30, seed=4)
            b = run_ensemble(J, replace(cfg, delta=0.7), runs=30, seed=4,
                             delta_per_run=np.full(30, d))
            np.testing.assert_array_equal(a.final_x, b.final_x)
            np.testing.assert_array_equal(a.spins, b.spins)
            assert a.steps_run == b.steps_run

    def test_zero_delta_is_cim1(self):
        j = 0.35
        J = graph.build_mobius_ladder(8, j)
        cim1 = run_ensemble(J, default_solver_config(j, t_end=400.0), runs=30, seed=4)
        cim3 = run_ensemble(J, default_solver_config(j, variant="cim3", t_end=400.0),
                            runs=30, seed=4)
        np.testing.assert_array_equal(cim1.final_x, cim3.final_x)
        np.testing.assert_array_equal(cim1.spins, cim3.spins)
        x = np.array([[0.5, -2.0, 0.0], [1e-200, 3.0, -1.0]])
        np.testing.assert_array_equal(homogenize_intensities(x, np.zeros((2, 1))), x)

    def test_mixing_fraction_range_checked(self):
        j = 0.35
        J = graph.build_mobius_ladder(8, j)
        cfg = default_solver_config(j, variant="cim3", t_end=10.0)
        for bad in (1.5, np.nan):
            with pytest.raises(ValueError, match="mixing fraction"):
                run_ensemble(J, cfg, runs=3, seed=0, delta_per_run=np.array([0.1, bad, 0.0]))
            with pytest.raises(ValueError, match="mixing fraction"):
                homogenize_intensities(np.ones((3, 4)), np.array([[0.1], [bad], [0.0]]))
        with pytest.raises(ValueError, match="mixing fraction"):
            softspin.tune_delta(J, cfg, grid=[1.5], prelim_runs=2)


class TestFusedStep:
    """The in-place step of `_integrate_batch` against the public kernels, bit for bit.

    Seeded random batches (sizes, scales, couplings, exact zeros, all-zero
    rows, cim3 rows with delta = 0) run a few steps through the loop and
    through the reference composition x + dt soft_gradient(x, p, c, J), then
    cim2_pump_step or the array expression of the cim3 mixing
    (`_mixing_reference`, which shares no code with the loop); later steps
    see the earlier steps' cim2 pumps.
    """

    @staticmethod
    def _reference(J, cfg, x, frac, steps):
        pump, t = np.full(x.shape, cfg.p0), 0.0
        for _ in range(steps):
            p = pump if cfg.variant == "cim2" else pump_tanh(t, cfg.p0, cfg.eps)
            x = x + cfg.dt * soft_gradient(x, p, cfg.c, J)
            if cfg.variant == "cim2":
                pump = cim2_pump_step(pump, x, cfg.eps, cfg.dt)
            if cfg.variant == "cim3":
                x = _mixing_reference(x, frac)
            t += cfg.dt
        return x

    @staticmethod
    def _random_case(rng, variant, n, runs, steps):
        A = rng.normal(size=(n, n)) * rng.uniform(0.1, 1.0) / np.sqrt(n)
        J = A + A.T
        np.fill_diagonal(J, 0.0)
        x0 = rng.normal(size=(runs, n)) * 10.0 ** rng.uniform(-3.0, 0.0, (runs, 1))
        x0[rng.random((runs, n)) < 0.1] = 0.0
        x0[rng.random(runs) < 0.05] = 0.0
        frac = rng.uniform(0.0, 1.0, (runs, 1))
        if rng.random() < 0.5:
            frac[rng.random(runs) < 0.2] = 0.0
        dt = rng.uniform(0.01, 0.2)
        cfg = SolverConfig(variant=variant, p0=rng.uniform(-2.0, 1.0), c=rng.uniform(0.5, 2.0),
                           eps=rng.uniform(0.001, 0.1), dt=dt, t_end=steps * dt,
                           early_stop=False)
        return J, cfg, x0, frac

    def _loop_and_reference(self, rng, variant, n, runs, steps):
        J, cfg, x0, frac = self._random_case(rng, variant, n, runs, steps)
        x, _, diverged, steps_run, *_ = softspin._integrate_batch(
            J, cfg, x0, delta_per_run=frac[:, 0] if variant == "cim3" else None)
        assert steps_run == steps and not diverged.any()
        return x, self._reference(J, cfg, x0, frac, steps)

    @pytest.mark.parametrize("variant", ["cim1", "cim2", "cim3"])
    def test_steps_equal_the_reference_composition(self, variant):
        rng = np.random.default_rng(softspin.VARIANTS.index(variant))
        for _ in range(40):
            n, runs, steps = int(rng.integers(2, 13)), int(rng.integers(1, 300)), int(rng.integers(1, 4))
            assert np.array_equal(*self._loop_and_reference(rng, variant, n, runs, steps))

    @pytest.mark.parametrize("variant", ["cim1", "cim2", "cim3"])
    def test_single_runs_and_up_to_15_spins(self, variant):
        # the spin-major loop's J @ x equals the reference's x @ J.T bitwise up to n = 15
        rng = np.random.default_rng(10 + softspin.VARIANTS.index(variant))
        for n in range(2, 16):
            for runs in (1, int(rng.integers(2, 300))):
                assert np.array_equal(*self._loop_and_reference(rng, variant, n, runs, 3))

    @pytest.mark.parametrize("variant", ["cim1", "cim2", "cim3"])
    @pytest.mark.parametrize("n", [16, 20, 24, 32])
    def test_larger_n_agrees_to_rounding(self, variant, n):
        # from n = 16 on, OpenBLAS may order J @ x's sum differently from x @ J.T
        rng = np.random.default_rng(n)
        for runs in (1, 7, 250):
            x, want = self._loop_and_reference(rng, variant, n, runs, 3)
            np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-12)

    def test_kernels_equal_their_array_expressions(self):
        # the in-place kernels behind the public functions, against the plain
        # expressions they replace
        rng = np.random.default_rng(7)
        for _ in range(100):
            n, runs = int(rng.integers(2, 17)), int(rng.integers(1, 400))
            J = rng.normal(size=(n, n))  # not symmetric: x @ J.T must stay J x per row
            x = rng.normal(size=(runs, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (runs, 1))
            x[rng.random((runs, n)) < 0.1] = 0.0
            p, c, eps, dt = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0, 0.1), 0.1
            pump = rng.uniform(-2.0, 2.0, (runs, n))
            frac = rng.uniform(0.0, 1.0, (runs, 1))
            frac[rng.random(runs) < 0.2] = 0.0
            for pv in (p, pump):
                assert np.array_equal(soft_gradient(x, pv, c, J), c * (pv * x - x * x * x) + x @ J.T)
            assert np.array_equal(cim2_pump_step(pump, x, eps, dt), pump + eps * (1.0 - x**2) * dt)
            assert np.array_equal(homogenize_intensities(x, frac), _mixing_reference(x, frac))

    @staticmethod
    def _mix_spin_major(x, frac):
        # the kernel as the loop runs it: (mixed x, magnitudes, whether it took the copysign path)
        xs, mag = np.ascontiguousarray(x.T), np.empty((x.shape[1], len(x)))
        mixed = softspin._mixed_rows(frac.T)
        by_copysign = softspin._mixer(xs, frac.T, (1.0 - frac).T, mixed, mag)()
        return xs.T, mag, by_copysign

    @pytest.mark.parametrize("case, copysign", [
        ("nonzero", True), ("signed-zeros", False), ("zero-rows", False), ("delta-0", False),
        ("nan-beside-zero", False), ("nan-run", False), ("underflowed-square", False),
        ("overflowed-square", True),
    ])
    def test_mixing_equals_the_reference_bitwise(self, case, copysign):
        # every bit, signed zeros included, on either path; on the copysign path
        # the magnitudes are |x| exactly.  NaNs compare by position: copysign
        # gives the NaN of keep * x^2 = 0 * inf (run 0 at delta = 1, with an
        # overflowed square) the sign of x, and the loop clips any NaN to 0
        def bits(a):
            return np.where(np.isnan(a), np.nan, a).view(np.uint64)

        rng = np.random.default_rng(sum(map(ord, case)))
        for _ in range(20):
            n, runs = int(rng.integers(2, 17)), int(rng.integers(3, 200))
            x = rng.normal(size=(runs, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (runs, 1))
            frac = rng.uniform(0.01, 1.0, (runs, 1))
            frac[0] = 1.0  # keep = 0
            if case == "signed-zeros":
                x[rng.random((runs, n)) < 0.1] = rng.choice([0.0, -0.0])
                x[0, 0] = -0.0
            elif case == "zero-rows":
                x[1], x[2] = 0.0, -0.0
            elif case == "delta-0":
                frac[rng.random(runs) < 0.3] = 0.0
                frac[1] = 0.0
            elif case == "nan-beside-zero":
                x[1] = np.nan
                x[2, 0] = 0.0
            elif case == "nan-run":
                x[1, int(rng.integers(n))] = np.nan
            elif case == "underflowed-square":
                x[1, 0] = 1e-170
            elif case == "overflowed-square":
                x[:2] *= 1e160
            with np.errstate(over="ignore", invalid="ignore"):
                want = _mixing_reference(x, frac)
                got, mag, by_copysign = self._mix_spin_major(x, frac)
                public = homogenize_intensities(x, frac)
            assert by_copysign == copysign
            assert np.array_equal(bits(got), bits(want))
            assert np.array_equal(bits(public), bits(want))
            if by_copysign:
                assert np.array_equal(bits(mag.T), bits(np.abs(got)))

    @staticmethod
    def _diverging_reference(J, cfg, x0, frac):
        # the cim3 loop in (runs, n) rows: check with np.abs on every step,
        # clip and freeze, track signs on every step; returns (x, diverged, steps run)
        limit = softspin.DIVERGENCE_LIMIT
        x, frozen, diverged = x0.copy(), np.zeros_like(x0), np.zeros(len(x0), dtype=bool)
        signs, last_change, t = np.sign(x), 0, 0.0
        for step in range(cfg.steps):
            p = pump_tanh(t, cfg.p0, cfg.eps)
            x = _mixing_reference(x + cfg.dt * soft_gradient(x, p, cfg.c, J), frac)
            x[diverged] = frozen[diverged]
            bad = ~np.isfinite(x).all(axis=1) | (np.abs(x).max(axis=1) > limit)
            x[bad] = np.nan_to_num(np.clip(x[bad], -limit, limit))
            frozen[bad] = x[bad]
            diverged |= bad
            t += cfg.dt
            new = np.sign(x)
            if np.any(new != signs):
                last_change = step
            signs = new
            if p > 0.9 and step - last_change >= softspin.FREEZE_STEPS:
                return x, diverged, step + 1
        return x, diverged, cfg.steps

    @pytest.mark.parametrize("starts", [{5: 30.0}, {2: 1e200, 4: 1e200, 7: 1e3}],
                             ids=["overshoot-at-step-2", "inf-nan-and-overshoot-at-step-1"])
    def test_cim3_divergence_equals_a_reference_loop(self, starts):
        # the loop reads max|x| from the mixing's magnitudes until a run diverges;
        # run 4 has delta = 1, so keep * x^2 = 0 * inf makes it NaN
        J = graph.build_mobius_ladder(8, 0.35)
        cfg = SolverConfig(variant="cim3", p0=-0.5, eps=0.02, dt=0.1, t_end=300.0)
        x0 = softspin._initial_batch(8, 10, 1e-3, 3)
        for run, scale in starts.items():
            x0[run] = scale * np.sign(x0[run])
        frac = np.linspace(0.05, 1.0, 10)
        frac[4] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            res = softspin._integrate_batch(J, cfg, x0, delta_per_run=frac)
            x, diverged, steps = self._diverging_reference(J, cfg, x0, frac[:, None])
        np.testing.assert_array_equal(res[2], diverged)
        np.testing.assert_array_equal(diverged, np.isin(np.arange(10), list(starts)))
        assert np.array_equal(res[0], x)
        assert res[3] == steps < cfg.steps

    def test_exact_zero_component_stays_zero_under_cim3_mixing(self):
        # spin 3 is decoupled, so its zero amplitude has zero gradient; mixing
        # must keep it at zero, where copysign would give it sqrt(delta R) > 0
        J = graph.build_mobius_ladder(4, 0.4)
        J[3, :] = J[:, 3] = 0.0
        x0 = np.random.default_rng(2).uniform(-0.5, 0.5, (6, 4))
        x0[:, 3] = 0.0
        cfg = SolverConfig(variant="cim3", p0=0.5, delta=0.3, t_end=1.0, early_stop=False)
        x = softspin._integrate_batch(J, cfg, x0)[0]
        assert np.all(x[:, :3] != 0.0)
        assert np.all(x[:, 3] == 0.0)
        np.testing.assert_array_equal(homogenize_intensities(x0, 0.3)[:, 3], 0.0)


class TestSpinMajorKernels:
    @pytest.mark.parametrize("n", range(2, 301))
    def test_row_sum_follows_numpy_pairwise_order(self, n):
        # magnitudes over 300 decades make every change of summation order visible
        rng = np.random.default_rng(n)
        runs = int(rng.integers(1, 8))
        m = 10.0 ** rng.uniform(-150.0, 150.0, (runs, n))
        m[rng.random((runs, n)) < 0.1] = 0.0
        want = np.add.reduce(m, axis=-1, keepdims=True)
        for spin_major in (np.ascontiguousarray(m.T), m.T):
            out = np.empty((1, runs))
            for op, *operands in softspin._row_sum_ops(spin_major, out, np.empty((n, runs))):
                op(*operands)
            assert np.array_equal(out.T, want)

    @pytest.mark.parametrize("block", [4096, 7, None], ids=["4096", "7", "default"])
    def test_schedule_equals_the_scalar_loop(self, monkeypatch, block):
        # the steps `_fixed_steps` walks over `_schedule`, in chunks of `block` steps
        rng = np.random.default_rng(3)
        for _ in range(40):
            dt = rng.uniform(0.001, 0.5)
            cfg = SolverConfig(variant=str(rng.choice(["cim1", "cim2", "cim3"])),
                               p0=rng.uniform(-2.0, 0.99), eps=10.0 ** rng.uniform(-3.0, 0.0),
                               dt=dt, t_end=dt * int(rng.integers(0, 2000)) + dt)
            step_bytes, coefficients = softspin._schedule(cfg)
            if block is not None:
                _force_chunk(monkeypatch, cfg, block)
            chunk = max(1, clock.TABLE_BYTES // step_bytes)  # `block` when forced
            lengths = []  # steps per coefficients call

            def counted(ts):
                lengths.append(len(ts) - 1)
                return coefficients(ts)

            got = list(clock._fixed_steps(repeat(False, cfg.steps), dt, step_bytes, counted))
            assert sum(lengths) == len(got) == cfg.steps and 0 < lengths[-1] <= chunk
            assert lengths[:-1] == [chunk] * (len(lengths) - 1)
            t, want_t, want_p = 0.0, [], []
            for _ in range(cfg.steps + 1):
                want_t.append(t)
                want_p.append(pump_tanh(t, cfg.p0, cfg.eps))
                t += dt
            times, sampled, starts, ends, locked = (list(col) for col in zip(*got))
            assert times == want_t[1:] and not any(sampled)  # bitwise: floats compare exactly
            assert starts == want_p[:-1] and ends == want_p[1:]
            if cfg.variant == "cim2":
                want_locked = [t + dt > 2.0 / cfg.eps for t in want_t[:-1]]
            else:
                want_locked = [p > 0.9 for p in want_p[:-1]]
            assert locked == want_locked
            want_step = want_locked.index(True) if any(want_locked) else cfg.steps
            assert softspin._locked_step(cfg) == want_step

    @pytest.mark.parametrize("variant", ["cim1", "cim2"])
    def test_samples_do_not_depend_on_the_schedule_block(self, monkeypatch, variant):
        cfg = default_solver_config(0.4, variant=variant, t_end=20.0, sample_every=3)
        want = run_trajectory(J8, cfg)
        _force_chunk(monkeypatch, cfg, 7)
        got = run_trajectory(J8, cfg)
        assert len(got.samples) == len(want.samples) == 66
        for a, b in zip(got.samples, want.samples):
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
        assert np.array_equal(got.x, want.x)

    @pytest.mark.parametrize("variant", ["cim1", "cim2", "cim3"])
    def test_final_record_is_the_last_sample(self, variant):
        # the result's time and soft energy come from the last step the loop took,
        # at cim2's per-spin pumps
        J = graph.build_mobius_ladder(8, 0.35)
        cfg = default_solver_config(0.35, variant=variant, t_end=700.0, sample_every=1)
        res = run_trajectory(J, cfg)
        t, pump, x, energy = res.samples[-1]
        assert len(res.samples) == cfg.steps == 7000
        assert res.t == t and res.soft_energy == energy and np.array_equal(res.x, x)
        none = run_trajectory(J, replace(cfg, t_end=0.04))  # rounds to 0 steps
        x0 = softspin._initial_batch(8, 1, cfg.init_amplitude, cfg.seed)[0]
        assert none.samples == [] and none.t == 0.0 and np.array_equal(none.x, x0)
        assert none.soft_energy == soft_energy(x0, cfg.p0, cfg.c, J)

    def test_public_kernels_take_any_leading_axes(self):
        # the spin-major kernels see (..., n) rows through .T views
        rng = np.random.default_rng(4)
        J = rng.normal(size=(8, 8))
        x, pump = rng.normal(size=(3, 5, 8)), rng.uniform(-2.0, 2.0, (3, 5, 8))
        assert np.array_equal(soft_gradient(x, pump, 1.5, J), 1.5 * (pump * x - x * x * x) + x @ J.T)
        assert np.array_equal(ht_rhs(x, 0.3, J), 0.3 * x + x @ J.T)
        frac = rng.uniform(0.0, 1.0, (3, 5, 1))
        assert np.array_equal(homogenize_intensities(x, frac), _mixing_reference(x, frac))


class TestEarlyStopWindow:
    """Sign tracking from locked_step - FREEZE_STEPS + 1 against tracking on every step."""

    @staticmethod
    def _reference(J, cfg, x0, frac):
        # the early stop as a plain loop over the public kernels; returns
        # (x, steps run, first locked step, the steps at which some sign changed)
        x, pump, t = x0.copy(), np.full(x0.shape, cfg.p0), 0.0
        signs, changes, first_locked = np.sign(x), [], None
        for step in range(int(round(cfg.t_end / cfg.dt))):
            p = pump_tanh(t, cfg.p0, cfg.eps)
            x = x + cfg.dt * soft_gradient(x, pump if cfg.variant == "cim2" else p, cfg.c, J)
            if cfg.variant == "cim2":
                pump = cim2_pump_step(pump, x, cfg.eps, cfg.dt)
            if cfg.variant == "cim3":
                x = homogenize_intensities(x, frac)
            t += cfg.dt
            new = np.sign(x)
            if np.any(new != signs):
                changes.append(step)
            signs = new
            locked = t > 2.0 / cfg.eps if cfg.variant == "cim2" else p > 0.9
            if locked and first_locked is None:
                first_locked = step
            if locked and step - (changes[-1] if changes else 0) >= softspin.FREEZE_STEPS:
                return x, step + 1, first_locked, changes
        return x, step + 1, first_locked, changes

    def _check(self, cfg, runs, seed):
        J = graph.build_mobius_ladder(8, 0.35)
        x0 = softspin._initial_batch(8, runs, cfg.init_amplitude, seed)
        frac = np.linspace(0.0, 0.5, runs)[:, None]
        x, steps, locked_step, changes = self._reference(J, cfg, x0, frac)
        got = softspin._integrate_batch(J, cfg, x0, delta_per_run=frac[:, 0])
        assert got[3] == steps
        assert np.array_equal(got[0], x)
        assert got[4] == softspin._locked_step(cfg) == locked_step
        return steps, locked_step, changes

    @pytest.mark.parametrize("block", [4096, 64])
    @pytest.mark.parametrize("variant, p0, eps", [
        ("cim1", -1.65, 0.02), ("cim2", -1.65, 0.05), ("cim3", -1.65, 0.02),
        ("cim1", 0.95, 0.003), ("cim3", 0.9, 0.003), ("cim2", 0.95, 0.2),
    ], ids=["cim1", "cim2", "cim3", "cim1-locked-at-0", "cim3-p0-0.9", "cim2-early-lock"])
    def test_matches_tracking_on_every_step(self, monkeypatch, variant, p0, eps, block):
        cfg = SolverConfig(variant=variant, p0=p0, eps=eps, dt=0.1, t_end=600.0)
        _force_chunk(monkeypatch, cfg, block)
        steps, locked_step, _ = self._check(cfg, 12, 5)
        assert locked_step < steps < 6000
        if variant != "cim2" and p0 >= 0.9:  # cim2 locks by time alone
            assert locked_step == (0 if p0 > 0.9 else 1)

    def test_sign_change_just_before_the_lock_delays_the_stop(self):
        # a change at step c in [locked_step - FREEZE_STEPS + 1, locked_step)
        # stops the run at c + FREEZE_STEPS, not at locked_step
        cfg = SolverConfig(variant="cim1", p0=0.75, eps=0.13, dt=0.01, t_end=20.0)
        steps, locked_step, changes = self._check(cfg, 6, 58)
        last = max(c for c in changes if c < steps)
        assert locked_step - softspin.FREEZE_STEPS < last < locked_step
        assert steps == last + softspin.FREEZE_STEPS + 1 > locked_step + 1

    def test_no_stop_without_early_stop(self):
        # locked from step 0 with signs that settle at once, the run still goes to t_end
        cfg = SolverConfig(variant="cim1", p0=0.95, eps=0.003, dt=0.1, t_end=30.0)
        x0 = softspin._initial_batch(8, 4, 1e-3, 0)
        assert softspin._integrate_batch(J8, cfg, x0)[3] < 300
        assert softspin._integrate_batch(J8, replace(cfg, early_stop=False), x0)[3] == 300
        assert softspin._integrate_batch(J8, replace(cfg, sample_every=50), x0,
                                         collect_samples=True)[3] == 300

    def test_ensemble_reports_the_locked_step(self):
        J = graph.build_mobius_ladder(8, 0.35)
        res = run_ensemble(J, default_solver_config(0.35, variant="cim1"), 24, 11)
        assert (res.locked_step, res.steps_run) == (6586, 6587)
        ht = run_ensemble(J, default_solver_config(0.35, variant="ht"), 24, 11)
        assert ht.locked_step == 30000 and ht.steps_run < 30000


class TestDeltaTuning:
    def test_tuning_reports_grid_and_improves(self):
        j = 0.35
        J = graph.build_mobius_ladder(8, j)
        cfg = default_solver_config(j, variant="cim3")
        grid = np.array([0.005, 0.3])
        best, table = softspin.tune_delta(J, cfg, seed=5, grid=grid, prelim_runs=60)
        assert best in grid
        assert len(table) == 2
        # the small homogenization rate is the effective one in the hard region
        assert best == pytest.approx(0.005)

    def test_tie_goes_to_smaller_delta(self):
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        cfg = default_solver_config(1.0, variant="cim3", t_end=300.0)
        best, table = softspin.tune_delta(J, cfg, seed=1, grid=np.array([0.1, 0.9]),
                                          prelim_runs=40)
        probs = [p for _, p in table]
        if probs[0] == probs[1]:
            assert best == pytest.approx(0.1)


class TestBranches:
    def test_e0_closed_form(self):
        b = branch_e0(0.0, 0.4, 8)
        assert b.exists
        assert b.x_l == pytest.approx(np.sqrt(1.6))
        assert b.energy == pytest.approx(-5.12)

    def test_e0_absent_below_threshold(self):
        assert not branch_e0(-1.7, 0.4, 8, 1.0).exists
        assert branch_e0(-1.5, 0.4, 8, 1.0).exists

    def test_branches_are_steady_states(self):
        for p in (-1.0, -0.5, 0.0, 1.0, 2.0):
            for b in (branch_e0(p, 0.4, 8), branch_e1(p, 0.4, 8)):
                if b.exists:
                    assert np.max(np.abs(soft_gradient(b.amplitudes, p, 1.0, J8))) < 1e-8

    def test_e1_low_amplitudes_on_frustrated_edges(self):
        b = branch_e1(0.5, 0.4, 8)
        assert b.exists
        assert b.x_l < b.x_b

    def test_crossing_pump(self):
        pc = branch_crossing_pump(0.4, 8, 1.0)
        assert pc == pytest.approx(-0.0872, abs=5e-4)

    def test_crossing_shifts_with_nonlinearity(self):
        values = [branch_crossing_pump(0.4, 8, c) for c in (1.0, 1.2, 1.5, 2.0, 4.0)]
        assert all(v is not None for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_general_n_newton_branch(self):
        b = branch_e1(1.0, 0.4, 12)
        assert b.exists
        J12 = graph.build_mobius_ladder(12, 0.4)
        assert np.max(np.abs(soft_gradient(b.amplitudes, 1.0, 1.0, J12))) < 1e-9
        # adjacency to the defects splits the high-amplitude class for n = 12
        assert len(set(np.round(np.abs(b.amplitudes), 6))) == 3

    @pytest.mark.parametrize("c", [0.7, 1.0, 1.5, 4.0])
    def test_e1_n8_solves_two_amplitude_relations(self, c):
        # the steady-state relations of the two-amplitude ansatz at n = 8
        found = 0
        for j in (0.1, 0.4, 0.7, 0.95):
            for p in np.linspace(-2.0, 2.0, 9):
                b = branch_e1(p, j, 8, c)
                if not b.exists:
                    continue
                found += 1
                x_l, x_b = b.x_l, b.x_b
                assert abs(x_b - ((1.0 - j - c * p) * x_l + c * x_l**3)) < 1e-9
                assert abs((c * p + 1.0 + j) * x_b + x_l - c * x_b**3) < 1e-9
        assert found >= 20

    @pytest.mark.parametrize("p,j,n", [(-2.5, 0.5, 4), (-3.0, 0.3, 12), (-2.5, 0.5, 16)])
    def test_e1_absent_where_newton_reaches_the_origin(self, p, j, n, tmp_path):
        # below the bifurcation the ansatz seed falls into the origin, which
        # is no E1 state; E0 is absent here too, so the region label is neither
        assert not branch_e1(p, j, n).exists
        out = tmp_path / "region.csv"
        assert main(["branches", "--what", "region", "--n", str(n), "--j-grid", str(j),
                     f"--p-grid={p}", "--out", str(out)]) == 0
        header, *rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert [row.split(",")[2] for row in rows] == ["neither"]

    def test_n4_uniform_branch(self):
        b = branch_e1(0.5, 0.9, 4)
        assert b.exists
        assert b.x_l == pytest.approx(np.sqrt(1.4))
        assert b.x_b == pytest.approx(np.sqrt(1.4))

    def test_half_odd_has_no_two_defect_branch(self):
        assert not branch_e1(1.0, 0.5, 6).exists

    def test_region_map(self):
        rmap = region_map(np.array([0.4, 0.6]), np.linspace(-1.4, 2.0, 18), 8)
        # j = 0.4 column: E1 wins at low pump, E0 at high pump
        row = rmap.labels[0]
        assert row[-1] == 1
        assert 2 in row
        # j = 0.6 > 4/n at large pump: the two-defect branch is global
        assert rmap.labels[1][-1] == 2
        crossings = dict(rmap.crossings)
        assert crossings[0.4] == pytest.approx(-0.0872, abs=5e-4)

    @pytest.mark.parametrize("n", [8, 6])
    def test_region_labels_compare_the_branches_cell_by_cell(self, n):
        # n = 8 holds all three labels; at n = 6 (n/2 odd) E1 never exists
        j_grid, p_grid = np.array([0.3, 0.4, 1.5]), np.array([-3.0, -1.7, -1.0, 0.0, 1.0])
        rmap = region_map(j_grid, p_grid, n)
        for i, j in enumerate(j_grid):
            for k, p in enumerate(p_grid):
                e0, e1 = branch_e0(p, j, n), branch_e1(p, j, n)
                if e0.exists and e1.exists:
                    expected = 1 if e0.energy <= e1.energy else 2
                else:
                    expected = 1 if e0.exists else 2 if e1.exists else 0
                assert rmap.labels[i, k] == expected
        if n == 8:
            assert rmap.labels.tolist() == [[0, 2, 1, 1, 1], [0, 2, 2, 1, 1], [0, 2, 2, 2, 2]]
        else:
            assert set(rmap.labels.ravel()) <= {0, 1}
        expected = [(float(j), pc) for j in j_grid
                    if (pc := branch_crossing_pump(j, n, 1.0, -3.0, 1.0)) is not None]
        assert rmap.crossings == expected
        assert len(expected) == (2 if n == 8 else 0)

    def test_region_map_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            region_map(np.array([]), np.array([0.0]), 8)

    @pytest.mark.parametrize("c", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("call", [
        lambda c: region_map(np.array([0.4]), np.array([0.0]), 8, c),
        lambda c: branch_e0(0.0, 0.4, 8, c),
        lambda c: branch_e1(0.0, 0.4, 8, c),
        lambda c: branch_crossing_pump(0.4, 8, c),
    ], ids=["region_map", "branch_e0", "branch_e1", "branch_crossing_pump"])
    def test_branches_reject_a_bad_nonlinearity(self, call, c):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            call(c)


class TestBasins:
    def test_descriptors_alternating(self):
        m, xc = basin_descriptors(graph.build_s0(8))
        assert m == pytest.approx(0.0)
        assert xc == pytest.approx(-1.0)

    def test_descriptors_uniform_flagged(self):
        m, xc = basin_descriptors(np.ones(8))
        assert m == pytest.approx(1.0)
        assert np.isnan(xc)

    def test_descriptors_period_four(self):
        m, xc = basin_descriptors(np.array([1.0, 1.0, -1.0, -1.0] * 2))
        assert xc == pytest.approx(0.0)

    def test_descriptors_broadcast_like_the_row_loop(self):
        def one_row(x):  # the per-row form basin_sample looped over
            m = float(np.mean(x))
            d = x - m
            denom = float(np.sum(d * d))
            if denom <= 1e-12:
                return m, float("nan")
            return m, float(np.sum(d * np.roll(d, -1)) / denom)

        rng = np.random.default_rng(6)
        x = rng.uniform(-1.0, 1.0, (300, 8))
        x[:3] = [np.ones(8), np.full(8, np.nan), graph.build_s0(8)]
        m, xc = basin_descriptors(x.reshape(3, 100, 8))
        loop = np.array([one_row(row) for row in x])
        np.testing.assert_array_equal(m.ravel(), loop[:, 0])
        np.testing.assert_array_equal(xc.ravel(), loop[:, 1])
        for row in x[:3]:  # one row still gives two floats
            got = basin_descriptors(row)
            assert all(type(v) is float for v in got)
            np.testing.assert_array_equal(got, one_row(row))

    @pytest.mark.parametrize("p, c", [(np.nan, 1.0), (-np.inf, 1.0), (0.0, -1.0), (0.0, np.nan)])
    def test_basin_sample_validates_pump_and_nonlinearity(self, p, c):
        with pytest.raises(ValueError):
            landscape.basin_sample(J8, p, c, 10)

    def test_basin_sample_small(self):
        sample = landscape.basin_sample(J8, 0.0, 1.0, 500, seed=2)
        assert sample.unresolved <= 2  # < 0.5% of 500
        families = {m.family for m in sample.minima}
        assert "S0" in families and "S1" in families
        grounds = [m for m in sample.minima if m.is_ground]
        assert grounds and all(m.family == "S0" for m in grounds)  # p = 0 > crossing pump

    def test_descent_breakdown(self):
        br = descent_state_probabilities(J8, 1.0, 1.0, 800, seed=7)
        total = sum(br.sp.values())
        assert total == pytest.approx(1.0)
        assert br.sp["SP_0"] <= 0.25
        assert br.sp["SP_2"] > 0.1  # the third state appears at large pump
        assert br.sp["unresolved"] < 0.005

    def test_basin_sample_validates(self):
        with pytest.raises(ValueError):
            landscape.basin_sample(J8, 0.0, 1.0, 0)


def _spin_family_reference(spins):
    """The family of one pattern from the positions of its ring defects: the per-row rule."""
    n = len(spins)
    s = np.asarray(spins)
    defects = np.flatnonzero(s * np.roll(s, -1) > 0)
    if len(defects) == 0:
        return "S0"
    if len(defects) == 2:
        gap = int(min((defects[1] - defects[0]) % n, (defects[0] - defects[1]) % n))
        if gap == n // 2:
            return "S1"
        return f"2-defect(sep={gap})"
    return f"{len(defects)}-defect"


class TestSpinFamily:
    def test_families(self):
        assert spin_family(graph.build_s0(8).astype(int)) == "S0"
        assert spin_family(graph.build_s1(8, 2).astype(int)) == "S1"
        assert spin_family(np.array([-1, -1, 1, -1, 1, -1, -1, 1])) == "2-defect(sep=3)"
        assert spin_family(np.array([1, -1, -1, 1, 1, -1, 1, -1])) == "2-defect(sep=2)"
        assert spin_family(np.array([1, -1, -1, 1, 1, -1, -1, 1])) == "4-defect"

    @pytest.mark.parametrize("n", [8, 10])
    def test_batch_names_every_pattern_as_the_single_pattern_function(self, n):
        patterns = np.array(list(product([-1, 1], repeat=n)), dtype=np.int8)
        expected = [_spin_family_reference(row) for row in patterns]
        assert softspin._spin_families(patterns) == expected
        assert [spin_family(row) for row in patterns] == expected
        assert softspin._spin_families(patterns[:0]) == []

    def test_invariant_under_rotation_and_flip(self):
        rng = np.random.default_rng(46)
        for _ in range(300):
            row = rng.choice([-1, 1], size=int(rng.integers(4, 17)))
            family = spin_family(row)
            assert spin_family(-row) == family
            for shift in range(1, len(row)):
                assert spin_family(np.roll(row, shift)) == family
