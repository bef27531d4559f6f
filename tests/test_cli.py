import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from isinglab import graph, oracle, quantum, softspin
from isinglab.cli import _build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def _read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


class TestGraphCommand:
    def test_spectrum_dump(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        rc = main(["graph", "--n", "8", "--j-grid", "0.2,0.4", "--out", str(out)])
        assert rc == 0
        comments, header, rows = _read_csv(out)
        assert header == ["j", "k", "eigenvalue"]
        assert len(rows) == 16
        assert any("protocol=" in c for c in comments)
        assert any("j_crit=0.5" in c for c in comments)
        row = next(r for r in rows if r[0] == "0.4" and r[1] == "4")
        assert float(row[2]) == pytest.approx(1.6)

    def test_bad_grid_is_validation_error(self):
        assert main(["graph", "--n", "8", "--j-grid", "abc"]) == 1


class TestOracleCommand:
    def test_json_output(self, tmp_path):
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "--n", "8", "--j", "0.6", "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(out.read_text())
        rows = {r[0]: r[1] for r in payload["rows"]}
        assert rows["ground_energy"] == pytest.approx(-6.4)
        assert rows["degeneracy"] == 8

    def test_stats_line_on_stderr_only(self, tmp_path, capsys, monkeypatch):
        outs = [tmp_path / "whole.csv", tmp_path / "blocks.csv"]
        assert main(["oracle", "--n", "8", "--j", "0.15", "--out", str(outs[0])]) == 0
        stats = _stats(capsys.readouterr().err)
        assert stats.keys() == {"states", "blocks", "wall_s"}
        assert (stats["states"], stats["blocks"]) == ("256", "1")
        monkeypatch.setattr(oracle, "BLOCK_ENTRIES", 32)
        assert main(["oracle", "--n", "8", "--j", "0.15", "--out", str(outs[1])]) == 0
        assert _stats(capsys.readouterr().err)["blocks"] == "4"  # blocks of the streamed half
        assert b"stats" not in outs[0].read_bytes()
        rows = _read_csv(outs[0])[2]
        assert ["count@0.0", "64"] in rows  # the zero level, whichever block meets it first
        assert rows == _read_csv(outs[1])[2]


class TestSweepCommand:
    def _config(self, tmp_path, runs=30):
        cfg = {
            "instance": {"n": 8, "j": 0.3},
            "variants": ["cim1"],
            "runs": runs,
            "seed": 5,
            "softspin": {"t_end": 600.0},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_deterministic_output(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_matches_the_recorded_sweep(self, tmp_path):
        # recorded before the soft-spin step wrote into reused buffers; QA is left
        # out, since its last digits follow the BLAS summation order
        cfg = {"instance": {"n": 8, "j": 0.35}, "variants": ["ht", "cim1", "cim2", "cim3"],
               "runs": 40, "seed": 0, "cim3": {"prelim_runs": 4}}
        path, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--threads", "1", "--out", str(out)]) == 0
        golden = Path(__file__).parent / "data" / "sweep_golden.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_row_schema(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        comments, header, rows = _read_csv(out)
        assert header == ["variant", "j", "delta", "runs", "p_gs", "p_gs_stderr",
                          "sp0", "sp1", "sp2"]
        assert len(rows) == 1
        assert rows[0][0] == "cim1"
        assert 0.0 <= float(rows[0][4]) <= 1.0
        # run statistics go to stderr, one line per variant and j, never into the CSV
        stats = [line.split() for line in capsys.readouterr().err.splitlines()
                 if line.startswith("# stats:")]
        assert len(stats) == 1
        fields = dict(item.split("=") for item in stats[0][2:])
        assert fields["variant"] == "cim1" and fields["j"] == "0.3"
        assert 0 < int(fields["steps_run"]) <= 6000  # t_end 600 at dt 0.1
        assert 0 <= int(fields["locked_step"]) <= 6000
        assert fields["diverged"] == "0"
        assert float(fields["wall_s"]) >= 0.0
        assert "steps_run" not in out.read_text()

    def test_qa_row_prints_stats(self, tmp_path, capsys):
        cfg = {"instance": {"n": 8, "j": 0.35}, "variants": ["qa"], "runs": 1, "seed": 0,
               "qa": {"dt": 0.1, "t_end": 2.5}}
        path, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        stats = _stats(capsys.readouterr().err)
        assert stats.keys() == {"variant", "j", "steps", "wall_s"}
        assert (stats["variant"], stats["j"], stats["steps"]) == ("qa", "0.35", "25")
        assert float(stats["wall_s"]) >= 0.0
        _, _, rows = _read_csv(out)
        assert [row[0] for row in rows] == ["qa"] and "steps" not in out.read_text()

    def test_qa_row_equals_the_last_sample_of_a_full_run(self, tmp_path):
        # the row samples the last step only; the full run at the default
        # sampling has it as its last sample, bit for bit
        cfg = {"instance": {"n": 8, "j": 0.35}, "variants": ["qa"], "runs": 1, "seed": 0}
        path, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        _, _, rows = _read_csv(out)
        run = quantum.run_qa(graph.build_mobius_ladder(8, 0.35), quantum.QAConfig())
        assert len(run.p_gs) == 501
        assert rows[0][4] == repr(float(run.p_gs[-1]))

    @pytest.mark.parametrize("field", ["b", "t0"])
    def test_non_finite_qa_schedule_rejected_before_any_run(self, tmp_path, capsys,
                                                           monkeypatch, field):
        # it used to run every soft-spin ensemble, then exit 2 on a NaN QA state
        ran = []
        monkeypatch.setattr(softspin, "run_ensemble", lambda *args, **kwargs: ran.append(args))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"instance": {"n": 8, "j": 0.35}, "variants": ["cim1", "qa"],
                                    "runs": 3, "qa": {field: float("inf")}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid solver config: b must be finite and >= 0")
        assert ran == [] and "# stats:" not in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    # every numeric field a sweep config passes on, each set to a hostile value
    HOSTILE_VALUES = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 1e308, 1e-308]
    HOSTILE_FIELDS = [("softspin", name) for name in
                      ("dt", "t_end", "eps", "c", "p0", "init_amplitude")]
    HOSTILE_FIELDS += [("qa", name) for name in ("b", "t0", "dt", "t_end")]
    HOSTILE_FIELDS += [("instance", "j"), ("cim3", "delta_grid")]

    @pytest.mark.parametrize("value", HOSTILE_VALUES, ids=repr)
    @pytest.mark.parametrize("section,name", HOSTILE_FIELDS,
                             ids=[".".join(field) for field in HOSTILE_FIELDS])
    def test_hostile_config_value_fails_cleanly(self, tmp_path, capsys, section, name, value):
        # exit 1 with an error line before any run, or exit 0 with no warning; never a
        # traceback
        cfg = {"instance": {"n": 4, "j": 0.4}, "variants": ["ht", "cim1", "cim2", "cim3", "qa"],
               "runs": 2, "seed": 1, "softspin": {"t_end": 5.0},
               "cim3": {"prelim_runs": 2, "delta_grid": [0.1, 0.2]}, "qa": {"t_end": 5.0}}
        if name == "delta_grid":
            cfg["cim3"]["delta_grid"][1] = value
        else:
            cfg[section][name] = value
        path, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        path.write_text(json.dumps(cfg))  # nan and inf as JSON's NaN and Infinity
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["sweep", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (0, 1) and "Traceback" not in err
        if rc == 1:
            assert err.startswith("error: ") and not out.exists()
        else:
            assert [str(w.message) for w in caught] == [] and "Warning" not in err
            assert len(_read_csv(out)[2]) == 5

    def test_analytic_ground_set_above_oracle_limit(self, tmp_path):
        # n = 64: the ground set comes from the closed form, and readouts no
        # longer fit a packed 62-bit index
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "instance": {"n": 64, "j": 0.3}, "variants": ["cim1", "cim3"], "runs": 3,
            "softspin": {"t_end": 30.0}, "cim3": {"prelim_runs": 2, "delta_grid": [0.1]}}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        _, _, rows = _read_csv(out)
        assert [r[0] for r in rows] == ["cim1", "cim3"]
        assert all(0.0 <= float(r[4]) <= 1.0 for r in rows)

    def test_seed_flag_defaults_to_the_config_seed(self):
        parser = _build_parser()
        assert parser.parse_args(["sweep"]).seed is None
        assert parser.parse_args(["sweep", "--seed", "7"]).seed == 7

    def test_parser_built_once(self):
        # parse_args leaves the parser unchanged, so every main call shares one
        assert _build_parser() is _build_parser()

    def test_seed_only_where_it_is_used(self, capsys):
        parser = _build_parser()
        for argv in (["basins", "--j", "0.4", "--p", "2"], ["critical", "--j", "0.4", "--p", "2"],
                     ["branches"], ["trajectory", "--j", "0.4"]):
            assert parser.parse_args([*argv, "--seed", "3"]).seed == 3
        # deterministic commands take no --seed: it would be recorded nowhere
        for argv in (["graph", "--n", "8", "--j-grid", "0.4"], ["oracle", "--n", "8", "--j", "0.4"],
                     ["qa-run", "--j", "0.4"], ["master-run", "--j", "0.4"]):
            assert main([*argv, "--seed", "3"]) == 1
            assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--seed", "-7"],  # cim3 would tune delta at seed + 7 = 0 first
        ["sweep", "--seed", "-1"],
        ["basins", "--j", "0.4", "--p", "2", "--seed", "-1"],
        ["critical", "--j", "0.4", "--p", "2", "--seed", "-1"],
        ["branches", "--what", "barrier", "--seed", "-1"],
        ["trajectory", "--j", "0.4", "--seed", "-1"],
        ["sweep"],  # with a config whose seed is -1
    ], ids=["sweep-7", "sweep", "basins", "critical", "branches", "trajectory", "sweep-config"])
    def test_negative_seed_rejected_up_front(self, argv, tmp_path, monkeypatch, capsys):
        from isinglab import landscape

        def never(*args, **kwargs):
            raise AssertionError("ran before the seed was checked")

        for module, name in ((softspin, "run_ensemble"), (softspin, "tune_delta"),
                             (landscape, "basin_sample"), (softspin, "run_trajectory"),
                             (landscape, "find_critical_points"), (landscape, "barrier_height")):
            monkeypatch.setattr(module, name, never)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"instance": {"n": 8, "j": 0.35}, "variants": ["cim3"],
                                      "runs": 4, "seed": -1, "cim3": {"prelim_runs": 2}}))
        if argv[0] == "sweep":
            argv = [*argv, "--config", str(config)]
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        expected = ("argument --seed: must be >= 0" if "--seed" in argv
                    else "seed must be >= 0, got -1")
        assert err.startswith("error: ") and expected in err
        assert not (tmp_path / "out.csv").exists()

    def test_empty_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"instance": {"n": 8, "j_grid": []}}))
        assert main(["sweep", "--config", str(path)]) == 1

    @pytest.mark.parametrize("config", [
        {"bogus": 1},
        {"instance": {"n": 8, "j": 0.3}, "softspin": {"t_endd": 100}},
        {"instance": {"n": 8, "j": 0.3}, "qa": {"bogus": 1}},
        {"instance": {"n": 8, "j": 0.3}, "cim3": {"prelim_runss": 3}},
        {"instance": {"n": 8, "j": 0.3}, "cim3": {"delta_grid": [0.1, 1.5]}},
        {"instance": {"n": 8, "j": 0.3}, "cim3": {"prelim_runs": 0}},
        {"instance": 5},
        {"instance": {"n": 8, "j_grid": 5}},
        {"runs": None},
        {"instance": {"n": 8, "j": 0.3, "extra": 1}, "variants": ["cim1"], "runs": 3},
        {"instance": {"n": 8.5, "j": 0.3}, "variants": ["cim1"], "runs": 3},
        {"instance": {"n": 8, "j": 0.3}, "variants": ["qa"], "qa": {"t_end": -1}},
        {"instance": {"n": 8, "j": 0.3}, "variants": ["cim1"], "softspin": {"eps": float("nan")}},
        {"instance": {"n": 8, "j": 0.3}, "cim3": {"prelim_runs": 2.7}},  # used to run as 2
        {"instance": {"n": 8, "j": 0.3}, "cim3": {"delta_grid": []}},
        {"instance": {"n": 8, "j": 0.3}, "cim3": 4},
    ], ids=["top-level", "softspin", "qa", "cim3", "cim3-grid", "cim3-runs",
            "instance-not-object", "j-grid-not-list", "runs-null", "instance-extra-key",
            "n-not-integer", "qa-time-grid", "softspin-eps-nan", "cim3-runs-not-integer",
            "cim3-grid-empty", "cim3-not-object"])
    def test_unknown_field_rejected(self, tmp_path, capsys, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"runs": 3, **config}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err and "# stats:" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("eps", [0.0, -0.003], ids=["zero", "negative"])
    def test_non_positive_eps_rejected(self, tmp_path, capsys, eps):
        # eps = 0 used to reach cim2's lock test t > 2 / eps and die with ZeroDivisionError
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"instance": {"n": 8, "j": 0.3}, "variants": ["cim2"],
                                    "runs": 3, "softspin": {"eps": eps}}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "error: invalid solver config: eps must be positive and finite" in err
        assert "Traceback" not in err and "# stats:" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("init_amplitude", "1e309", "init_amplitude must be positive and finite"),
        ("init_amplitude", "NaN", "init_amplitude must be positive and finite"),
        ("init_amplitude", "-1", "init_amplitude must be positive and finite"),
        ("init_amplitude", "0", "init_amplitude must be positive and finite"),
        ("init_amplitude", "1e7", "init_amplitude must be at most the divergence limit 1e+06"),
        ("sample_every", "-1", "sample_every must be >= 0, got -1"),
        ("sample_every", "10", "softspin fields ['sample_every'] are not used by a sweep"),
        ("seed", "9", "softspin fields ['seed'] are not used by a sweep"),
        ("delta", "0.2", "softspin fields ['delta'] are not used by a sweep"),
        ("p0", "[0.5]", ""),
        ("p0", "[0.5, 0.5]", ""),
    ], ids=["amplitude-inf", "amplitude-nan", "amplitude-negative", "amplitude-zero",
            "amplitude-above-divergence-limit",
            "sample-every-negative", "sample-every-ignored", "seed-ignored", "delta-ignored",
            "p0-list", "p0-pair"])
    def test_bad_softspin_start_rejected(self, tmp_path, capsys, field, value, message):
        # an infinite or NaN amplitude died with an OverflowError traceback, a negative one
        # only inside the first ensemble, and 0 left every run at the origin; the fields
        # a sweep ignores ran and left the CSV byte-identical; a one-entry p0 list died
        # with a TypeError traceback
        path = tmp_path / "bad.json"
        path.write_text('{"instance": {"n": 8, "j": 0.3}, "variants": ["cim1"], "runs": 3, '
                        f'"softspin": {{"{field}": {value}}}}}')
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert f"error: invalid solver config: {message}" in err
        assert "Traceback" not in err and "# stats:" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("j", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_j_rejected_before_any_run(self, tmp_path, capsys, j):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"instance": {"n": 8, "j_grid": [0.3, j]},
                                    "variants": ["cim1"], "runs": 3}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "error: all j values must be finite and positive" in err
        assert "# stats:" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_parse_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json }")
        assert main(["sweep", "--config", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_unused_softspin_fields_at_their_defaults_accepted(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"instance": {"n": 8, "j": 0.3}, "variants": ["cim1"],
                                    "runs": 3, "softspin": {"sample_every": 0, "t_end": 30.0}}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        path = self._config(tmp_path, runs=3)
        rc = main(["sweep", "--config", str(path), "--threads", threads,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: --threads must be >= 1, got {threads}" in err
        assert "# stats:" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("j_grid, expected", [([0.3], []), ([0.3, 0.4, 0.5], [3])],
                             ids=["one-point", "three-points"])
    def test_threads_capped_at_the_j_points(self, tmp_path, monkeypatch, j_grid, expected):
        # a stub pool that records its size and maps serially: no process starts
        import concurrent.futures

        pools = []

        class StubPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"instance": {"n": 8, "j_grid": j_grid}, "variants": ["cim1"],
                                    "runs": 3, "softspin": {"t_end": 30.0}}))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(path), "--threads", "5000", "--out", str(out)]) == 0
        assert pools == expected
        assert len(_read_csv(out)[2]) == len(j_grid)

    def test_unknown_variant_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"instance": {"n": 8, "j": 0.3},
                                    "variants": ["annealer9000"]}))
        assert main(["sweep", "--config", str(path)]) == 1


def _stats(err: str) -> dict:
    """The fields of the one `# stats:` line a run command prints to stderr."""
    lines = [line for line in err.splitlines() if line.startswith("# stats:")]
    assert len(lines) == 1, err
    return dict(field.split("=") for field in lines[0].removeprefix("# stats:").split())


class TestRunCommands:
    def test_qa_run_schema(self, tmp_path, capsys):
        out = tmp_path / "qa.csv"
        rc = main(["qa-run", "--n", "6", "--j", "0.5", "--t-end", "20",
                   "--sample-every", "50", "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out)
        assert header[:3] == ["t", "gamma", "p_gs_total"]
        assert len(header) == 3 + 2 + 6 + 6  # two degenerate ground states
        assert float(rows[0][0]) == 0.0
        stats = _stats(capsys.readouterr().err)
        assert stats.keys() == {"steps", "max_norm_drift"}
        assert int(stats["steps"]) == 200
        assert 0.0 < float(stats["max_norm_drift"]) < 1e-8

    def test_qa_snapshot(self, tmp_path):
        out = tmp_path / "qa.csv"
        snap = tmp_path / "state"  # written as given, without an added ".npz"
        rc = main(["qa-run", "--n", "4", "--j", "0.5", "--t-end", "5",
                   "--out", str(out), "--snapshot", str(snap)])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["qa.csv", "state"]
        from isinglab.quantum import load_state
        state = load_state(str(snap))
        assert state.amplitudes.size == 16

    def test_master_run_includes_equilibrium_reference(self, tmp_path, capsys):
        out = tmp_path / "sa.csv"
        rc = main(["master-run", "--n", "6", "--j", "0.5", "--t-end", "5",
                   "--sample-every", "100", "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out)
        assert header == ["t", "temperature", "p_gs", "equilibrium_p_gs"]
        assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)
        assert _stats(capsys.readouterr().err) == {"mode": "sa", "steps": "500",
                                                    "dt_bound": "0.06",
                                                    "negativity_events": "0"}

    def test_master_run_builds_diagonal_once(self, tmp_path, monkeypatch):
        from isinglab import master as master_module
        from isinglab import quantum as quantum_module

        original, calls = quantum_module.build_diagonal, []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (quantum_module, master_module):  # master binds it by name
            monkeypatch.setattr(module, "build_diagonal", counting)
        rc = main(["master-run", "--mode", "sa", "--n", "6", "--j", "0.5", "--t-end", "5",
                   "--out", str(tmp_path / "sa.csv")])
        assert rc == 0
        assert len(calls) == 1

    def test_imaginary_mode(self, tmp_path, capsys):
        out = tmp_path / "imag.csv"
        rc = main(["master-run", "--mode", "imag", "--n", "6", "--j", "0.5",
                   "--dt", "0.1", "--t-end", "10", "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out)
        assert header == ["t", "p_gs"]
        assert _stats(capsys.readouterr().err) == {"mode": "imag", "steps": "100"}

    def test_imaginary_mode_negative_drive_names_d(self, tmp_path, capsys):
        rc = main(["master-run", "--mode", "imag", "--n", "4", "--j", "0.5", "--d", "-1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: d must be >= 0")
        assert "b must" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["qa-run", "--b", "inf"],
        ["qa-run", "--t0", "inf"],
        ["master-run", "--mode", "imag", "--d", "inf"],
        ["master-run", "--mode", "imag", "--t0", "inf"],
    ], ids=["qa-b-inf", "qa-t0-inf", "imag-d-inf", "imag-t0-inf"])
    def test_non_finite_schedule_rejected(self, tmp_path, capsys, argv):
        # these ran to a NaN or infinite state and exited 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*argv, "--n", "4", "--j", "0.5", "--t-end", "1",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_branches_region_contains_crossing(self, tmp_path):
        out = tmp_path / "region.csv"
        rc = main(["branches", "--n", "8", "--j-grid", "0.4",
                   "--p-grid=-1.0,-0.5,0.0,0.5", "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out)
        crossing = [r for r in rows if r[2] == "crossing"]
        assert len(crossing) == 1
        assert float(crossing[0][1]) == pytest.approx(-0.0872, abs=5e-4)

    def test_basins_output(self, tmp_path):
        out = tmp_path / "basins.csv"
        rc = main(["basins", "--j", "0.4", "--p", "0.0", "--samples", "50",
                   "--out", str(out)])
        assert rc == 0
        comments, header, rows = _read_csv(out)
        assert len(rows) == 50
        assert header[0] == "magnetization"

    def test_critical_output(self, tmp_path):
        out = tmp_path / "critical.csv"
        rc = main(["critical", "--j", "0.4", "--p", "0.0", "--starts", "300",
                   "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out)
        assert header[:3] == ["energy", "distance_from_origin", "index"]
        assert len(rows) >= 5

    def test_trajectory_dump(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["trajectory", "--n", "8", "--j", "0.35", "--t-end", "100",
                   "--sample-every", "100", "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out)
        assert header == ["t", "p"] + [f"x_{k}" for k in range(8)] + ["energy"]
        assert len(rows) == 10

    def test_trajectory_per_spin_pump_columns(self, tmp_path):
        out = tmp_path / "traj2.csv"
        rc = main(["trajectory", "--n", "8", "--j", "0.35", "--variant", "cim2",
                   "--t-end", "50", "--sample-every", "100", "--out", str(out)])
        assert rc == 0
        _, header, _ = _read_csv(out)
        assert header[1:9] == [f"p_{k}" for k in range(8)]

    def test_threaded_sweep_matches_serial(self, tmp_path):
        cfg = {
            "instance": {"n": 8, "j_grid": [0.3, 0.5]},
            "variants": ["cim1"],
            "runs": 20,
            "seed": 3,
            "softspin": {"t_end": 400.0},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
        assert main(["sweep", "--config", str(path), "--out", str(serial)]) == 0
        assert main(["sweep", "--config", str(path), "--out", str(threaded),
                     "--threads", "2"]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["master-run", "--mode", "sa", "--sample-every", "0"],
        ["master-run", "--mode", "sa", "--dt", "0"],
        ["master-run", "--mode", "ca", "--sample-every", "-5"],
        ["qa-run", "--t-end", "-1"],
        ["qa-run", "--t-end", "inf"],
        ["qa-run", "--b", "nan"],
        ["master-run", "--mode", "sa", "--d", "nan", "--t-end", "1"],
        ["trajectory", "--t-end", "10", "--sample-every", "0"],
        ["trajectory", "--t-end", "10", "--sample-every", "-3"],
    ], ids=["sa-sample-every-0", "sa-dt-0", "ca-sample-every-negative", "qa-t-end-negative",
            "qa-t-end-inf", "qa-b-nan", "sa-d-nan", "trajectory-sample-every-0",
            "trajectory-sample-every--3"])
    def test_bad_time_grid_rejected(self, tmp_path, capsys, argv):
        rc = main([*argv, "--n", "4", "--j", "0.5", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, limit", [
        (["master-run", "--mode", "ca", "--n", "12", "--j", "0.25", "--h0", "0.05", "--h1", "0.05",
          "--t-end", "5"], "dt * 4095 > 2.785"),
        (["master-run", "--mode", "sa", "--n", "8", "--j", "0.35", "--dt", "0.5",
          "--t-end", "5"], "dt * 8 > 2.785"),
    ], ids=["ca-n12", "sa-dt-0.5"])
    def test_unstable_rk4_step_rejected(self, tmp_path, capsys, argv, limit):
        # the CA anneal at n = 12 used to clip negative probabilities on every
        # step and write p_gs = 0 where equilibrium is 0.0117
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "error: dt = " in err and limit in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["qa-run", "--h0", "nan"],
        ["qa-run", "--h1", "inf"],
        ["master-run", "--mode", "sa", "--h1", "inf"],
        ["master-run", "--mode", "ca", "--h0=-inf"],
        ["master-run", "--mode", "imag", "--h1", "nan"],
    ], ids=["qa-h0-nan", "qa-h1-inf", "sa-h1-inf", "ca-h0-minus-inf", "imag-h1-nan"])
    def test_non_finite_field_rejected(self, tmp_path, capsys, argv):
        rc = main([*argv, "--n", "4", "--j", "0.5", "--t-end", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: field must be finite" in err
        assert "invariant breach" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["master-run", "--mode", "sa", "--h0", "inf", "--h1=-inf"],
        ["qa-run", "--h0=-inf", "--h1", "inf"],
    ], ids=["sa-opposite-infinities", "qa-opposite-infinities"])
    def test_opposite_infinite_field_coefficients_warn_nothing(self, tmp_path, capsys, argv):
        # h0 inf and h1 -inf would sum to a NaN that the user never typed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*argv, "--n", "4", "--j", "0.5", "--t-end", "1",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: field must be finite, got h0 = " in err
        assert "nan" not in err and "Warning" not in err

    @pytest.mark.parametrize("argv", [["--t-end", "inf"], ["--dt", "1e-300", "--t-end", "1e10"]],
                             ids=["t-end-inf", "step-count-overflow"])
    def test_non_finite_trajectory_grid_rejected(self, capsys, argv):
        assert main(["trajectory", "--n", "4", "--j", "0.5", *argv]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_trajectory_variant_names_the_variants(self, tmp_path, capsys):
        # the parser takes any name; the solver config checks it against VARIANTS
        rc = main(["trajectory", "--j", "0.4", "--variant", "bogus",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'bogus'" in err
        assert all(repr(v) in err for v in softspin.VARIANTS)
        assert not (tmp_path / "x.csv").exists()

    # a soft-spin step whose gradient, step or energy overflows over the divergence box
    SOFT_SCALE_CASES = {
        **{f"trajectory-{v}-j": ["trajectory", "--n", "8", "--j", "1e308", "--variant", v,
                                 "--t-end", "5"] for v in softspin.VARIANTS},
        "trajectory-dt": ["trajectory", "--n", "8", "--j", "0.35", "--dt", "1e300",
                          "--t-end", "1e300"],
        "ht-energy-j": ["trajectory", "--n", "8", "--j", "1e100", "--variant", "ht",
                        "--t-end", "5"],
        "sweep-dt": ["sweep"],  # with a config whose soft-spin step is 1e300
    }

    @pytest.mark.parametrize("argv", SOFT_SCALE_CASES.values(), ids=SOFT_SCALE_CASES.keys())
    def test_overflowing_soft_spin_scale_rejected(self, tmp_path, capsys, argv):
        if argv == ["sweep"]:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"instance": {"n": 8, "j": 0.35}, "variants": ["cim1"],
                                          "runs": 3, "softspin": {"dt": 1e300, "t_end": 1e300}}))
            argv = ["sweep", "--config", str(config)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*argv, "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "divergence box" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_large_finite_soft_spin_scale_still_runs(self, tmp_path):
        # below the bound the run goes ahead, and every run diverges without a warning
        for variant in ("cim1", "cim2", "cim3"):
            out = tmp_path / f"{variant}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(["trajectory", "--n", "8", "--j", "1e100", "--variant", variant,
                           "--t-end", "5", "--out", str(out)])
            assert rc == 0
            assert " diverged=1 " in out.read_text().splitlines()[1]

    @pytest.mark.parametrize("argv", [
        ["critical", "--p", "nan", "--starts", "10"],
        ["branches", "--what", "barrier", "--p-grid=nan", "--starts", "10"],
        ["basins", "--c", "-1", "--samples", "10"],
    ], ids=["critical-p-nan", "barrier-p-nan", "basins-c-negative"])
    def test_bad_landscape_input_rejected(self, tmp_path, capsys, argv):
        assert main([*argv, "--j", "0.4", "--out", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    # every huge pump, nonlinearity and coupling, and a tiny nonlinearity,
    # which puts the critical points far out
    SCALE_COMMANDS = ("barrier", "basins", "critical", "region")
    SCALE_CASES = [(command, option, value) for command in SCALE_COMMANDS
                   for option in ("c", "j", "p") for value in ("1e200", "1e308")]
    SCALE_CASES += [(command, "c", "1e-300") for command in SCALE_COMMANDS]

    @pytest.mark.parametrize("command, option, value", SCALE_CASES,
                             ids=["-".join(case) for case in SCALE_CASES])
    def test_overflowing_landscape_scale_rejected(self, tmp_path, capsys, command, option, value):
        # these used to exit 0 after numpy overflow warnings
        scales = {"p": "1", "c": "1", "j": "0.3", option: value}
        argv = {"basins": ["basins", "--p", scales["p"], "--samples", "10"],
                "critical": ["critical", "--p", scales["p"], "--starts", "10"],
                "barrier": ["branches", "--what", "barrier", f"--p-grid={scales['p']}",
                            "--starts", "10"],
                "region": ["branches", "--what", "region", f"--j-grid={scales['j']}",
                           f"--p-grid={scales['p']}"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*argv, "--n", "4", "--j", scales["j"], "--c", scales["c"],
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "landscape scale" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "x.csv").exists()

    # an energy scale, transverse angle, half phase dt * E or |dE| / T that overflows:
    # unbounded, each runs into numpy overflow warnings, and some into a NaN
    # state; the last two have a scale below the ceiling and a huge step
    T1 = ["--t-end", "1"]
    BIG_STEP = ["--j", "1e296", "--dt", "1e12", "--t-end", "1e12"]
    ENERGY_CASES = {
        "qa-run-j": ["qa-run", "--n", "8", "--j", "1e308", *T1],
        "qa-run-h0": ["qa-run", "--n", "8", "--j", "0.3", "--h0", "1e308", *T1],
        "qa-run-b": ["qa-run", "--n", "8", "--j", "0.3", "--b", "1e308", *T1],
        "imag-j": ["master-run", "--mode", "imag", "--n", "4", "--j", "1e308", *T1],
        "ca-j": ["master-run", "--mode", "ca", "--n", "4", "--j", "1e308", *T1],
        "oracle-j": ["oracle", "--n", "8", "--j", "1e308"],
        "sa-j": ["master-run", "--mode", "sa", "--n", "4", "--j", "1e308", *T1],
        "qa-run-dt": ["qa-run", "--n", "8", *BIG_STEP],
        "imag-dt": ["master-run", "--mode", "imag", "--n", "4", *BIG_STEP],
        # a first imaginary-time step whose mixer overflows the squared norm, and a
        # temperature so small that |dE| / T overflows
        "imag-d": ["master-run", "--mode", "imag", "--n", "8", "--j", "0.35", "--d", "1e4"],
        "imag-d-norm": ["master-run", "--mode", "imag", "--n", "8", "--j", "0.35", "--d", "3500",
                        *T1],
        "sa-d": ["master-run", "--mode", "sa", "--n", "4", "--j", "0.5", "--d", "1e-308", *T1],
        "ca-d": ["master-run", "--mode", "ca", "--n", "4", "--j", "0.5", "--d", "1e-308", *T1],
    }

    @pytest.mark.parametrize("argv", ENERGY_CASES.values(), ids=ENERGY_CASES.keys())
    def test_overflowing_energy_scale_or_angle_rejected(self, tmp_path, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*argv, "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert any(what in err for what in ("energy scale", "transverse angle", "half phase"))
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_basins_csv_cells_equal_the_json_values(self, tmp_path):
        # the CSV joins each minimum's tail once; JSON keeps the values
        argv = ["basins", "--n", "8", "--j", "0.4", "--p", "2.0", "--samples", "300",
                "--seed", "3"]
        assert main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
        assert main([*argv, "--format", "json", "--out", str(tmp_path / "b.json")]) == 0
        _, header, rows = _read_csv(tmp_path / "b.csv")
        payload = json.loads((tmp_path / "b.json").read_text())
        assert payload["columns"] == header and len(payload["rows"]) == len(rows) == 300
        for cells, values in zip(rows, payload["rows"]):
            assert cells == ["" if v == "" else repr(v) if isinstance(v, float) else str(v)
                             for v in values]
        assert {r[2] for r in rows} >= {"S0", "S1"}

    @pytest.mark.parametrize("c", ["0", "inf"])
    def test_bad_region_nonlinearity_rejected(self, tmp_path, capsys, c):
        # a warning raised as an error here would escape main's handlers
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["branches", "--what", "region", "--n", "8", "--j-grid", "0.4",
                       "--p-grid=0.0,0.5", "--c", c, "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: c must be positive and finite, got {float(c)}" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["oracle", "--n", "4"],
        ["qa-run", "--n", "4", "--t-end", "1"],
        ["master-run", "--mode", "sa", "--n", "4", "--t-end", "1"],
        ["master-run", "--mode", "imag", "--n", "4", "--t-end", "1"],
        ["critical", "--p", "2.0", "--starts", "10"],
        ["basins", "--p", "2.0", "--samples", "10"],
    ], ids=["oracle", "qa-run", "master-sa", "master-imag", "critical", "basins"])
    @pytest.mark.parametrize("j", ["inf", "nan"])
    def test_non_finite_coupling_rejected(self, tmp_path, capsys, argv, j):
        rc = main([*argv, "--j", j, "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: cross-circle coupling must be finite and positive" in err
        assert "invariant breach" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["graph", "--n", "8", "--j-grid", "0.2,inf"],
        ["branches", "--n", "8", "--j-grid", "nan", "--p-grid=0.0"],
    ], ids=["graph", "branches-region"])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
        assert "error: --j-grid must hold finite numbers" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_required_flag(self):
        assert main(["qa-run", "--n", "8"]) == 1

    def test_invariant_breach_exits_two(self, tmp_path, capsys, monkeypatch):
        from isinglab import master

        def boom(*args, **kwargs):
            raise RuntimeError("probability conservation breach 1.0e-06 at t = 1.00")

        monkeypatch.setattr(master, "anneal_master", boom)
        rc = main(["master-run", "--n", "6", "--j", "0.5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "invariant breach" in capsys.readouterr().err


def _hostile_cases():
    """(command argv, base options, option) for every numeric option of the commands.

    The base options keep each run small: n = 4, t_end = 10, 50 samples or
    starts and one-point grids.  --threads is left out: a large value starts
    one worker process per j point.
    """
    anneal = {"n": "4", "j": "0.5", "t0": "0.5", "dt": "0.1", "t-end": "10", "h0": "0",
              "h1": "0", "sample-every": "10"}
    pump = {"n": "4", "j": "0.5", "p": "1", "c": "1", "seed": "0"}
    branches = {"n": "4", "c": "1", "j": "0.4", "j-grid": "0.4", "p-grid": "1.0",
                "starts": "50", "seed": "0"}
    commands = [
        (["oracle"], {"n": "4", "j": "0.5"}),
        (["graph"], {"n": "4", "j-grid": "0.5"}),
        (["trajectory", "--variant", "cim3"],
         {"n": "4", "j": "0.5", "delta": "0.1", "dt": "0.1", "t-end": "10",
          "sample-every": "10", "seed": "0"}),
        (["qa-run"], {**anneal, "b": "5"}),
        *((["master-run", "--mode", mode], {**anneal, "d": "5"}) for mode in ("sa", "ca", "imag")),
        (["basins"], {**pump, "samples": "50"}),
        (["critical"], {**pump, "starts": "50"}),
        *((["branches", "--what", what], branches) for what in ("region", "barrier")),
    ]
    return [(argv, base, option) for argv, base in commands for option in base]


class TestHostileInput:
    HOSTILE = ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-308"]
    CASES = _hostile_cases()

    @pytest.mark.parametrize("value", HOSTILE)
    @pytest.mark.parametrize("argv,base,option", CASES,
                             ids=[f"{'-'.join(argv)}--{option}" for argv, _, option in CASES])
    def test_hostile_option_fails_cleanly(self, tmp_path, capsys, argv, base, option, value):
        # exit 1 with an error line and no output file, or exit 0 with no warning; never a
        # traceback or an invariant breach
        options = {**base, option: value}
        out = tmp_path / "out.csv"
        args = [*argv, *(f"--{name}={text}" for name, text in options.items()), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(args)
        err = capsys.readouterr().err
        assert rc in (0, 1) and "Traceback" not in err
        if rc == 1:
            assert err.startswith("error: ") and not out.exists()
        else:
            assert [str(w.message) for w in caught] == [] and "Warning" not in err
            assert out.exists()


class TestStartup:
    # each check runs a fresh interpreter: this test session has imported everything already
    GRAPH = ("from isinglab import cli\n"
             "assert cli.main(['graph', '--n', '4', '--j-grid', '0.5', '--out', os.devnull]) == 0\n")

    @staticmethod
    def _loaded(code, prefix):
        """The modules named prefix or prefix.* that a fresh interpreter holds after code."""
        code = (f"import os, sys\n{code}"
                f"print(' '.join(m for m in sys.modules if m.split('.')[0] == {prefix!r}))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_cli_start_loads_no_scipy(self):
        code = ("import isinglab\n" + self.GRAPH
                + "assert 'concurrent.futures.process' not in sys.modules\n")
        assert self._loaded(code, "scipy") == set()

    def test_package_import_loads_no_submodule(self):
        assert self._loaded("import isinglab\n", "isinglab") == {"isinglab"}

    def test_graph_command_loads_only_its_modules(self):
        # the solver modules load in the commands that run them, not at start-up
        assert self._loaded(self.GRAPH, "isinglab") == {"isinglab", "isinglab.cli",
                                                        "isinglab.graph"}

    @pytest.mark.parametrize("argv", [
        ["trajectory", "--n", "4", "--j", "0.5", "--t-end", "10"],
        ["basins", "--n", "4", "--j", "0.5", "--p", "1", "--samples", "10"],
    ], ids=["trajectory", "basins"])
    def test_soft_spin_commands_load_no_state_vector_module(self, argv):
        # the fixed-step clock lives in steps, so only the commands that run QA load quantum
        code = f"from isinglab import cli\nassert cli.main({argv + ['--out', os.devnull]!r}) == 0\n"
        loaded = self._loaded(code, "isinglab")
        assert "isinglab.steps" in loaded and "isinglab.quantum" not in loaded

    def test_qa_run_loads_the_clock(self):
        code = ("from isinglab import cli\nassert cli.main(['qa-run', '--n', '4', '--j', '0.5', "
                "'--t-end', '1', '--out', os.devnull]) == 0\n")
        assert {"isinglab.quantum", "isinglab.steps"} <= self._loaded(code, "isinglab")


class TestVerifyCommand:
    def test_quick_checks_pass(self, capsys):
        rc = main(["verify", "--only",
                   "spectral-exactness,branch-crossing-pump,detailed-balance,bloch-bounds"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_detects_corrupted_eigenvalue_formula(self, capsys, monkeypatch):
        from isinglab import graph as graph_module

        orig = graph_module.mobius_spectrum
        monkeypatch.setattr(graph_module, "mobius_spectrum",
                            lambda n, j: orig(n, j) + 1e-6)
        rc = main(["verify", "--only", "spectral-exactness"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_check_name_rejected(self, capsys):
        rc = main(["verify", "--only", "spectral-exactness,bogus-name"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "bogus-name" in captured.err
        assert "gradient-consistency" in captured.err  # the known names are listed
        assert "PASS" not in captured.out  # rejected before any check runs
