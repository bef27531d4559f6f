"""Tests of the benchmark itself: tracer, binding replacement, failure counting,
tiny workloads, and agreement with BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def work(seconds):
        clock.now += seconds

    leaf = tracer.wrap(lambda: work(3.0), "leaf")

    def _mid():
        work(2.0)
        leaf()

    mid = tracer.wrap(_mid, "mid")

    def _outer():
        work(1.0)
        mid()
        work(1.0)
        leaf()

    tracer.wrap(_outer, "outer")()

    by_name = {}
    own = spans.self_times(tracer.spans)
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append((span, own[span.id]))
    (outer, outer_self), = by_name["outer"]
    (mid_span, mid_self), = by_name["mid"]
    assert outer.duration == 10.0 and outer_self == 2.0
    assert mid_span.parent == outer.id and mid_self == 2.0
    assert [s for _, s in by_name["leaf"]] == [3.0, 3.0]
    assert {s.parent for s, _ in by_name["leaf"]} == {outer.id, mid_span.id}


def test_self_time_counts_overlapping_children_once():
    tree = [spans.Span(0, None, "parent", 0.0, 10.0),
            spans.Span(1, 0, "a", 1.0, 4.0),
            spans.Span(2, 0, "b", 3.0, 6.0),
            spans.Span(3, 0, "c", 9.0, 12.0)]  # clipped to the parent's end
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_failed_call_still_records_its_span():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    (span,) = tracer.spans
    assert span.error == "ValueError: bad input"


def test_from_import_binding_is_traced():
    from isinglab import graph, master, quantum

    original = quantum.build_diagonal
    assert master.build_diagonal is original  # master binds it by `from .quantum import`
    tracer = spans.Tracer()
    with spans.installed(tracer, layers.TARGETS):
        assert master.build_diagonal is quantum.build_diagonal is not original
        master.imaginary_time_evolve(graph.build_mobius_ladder(4, 0.5), None,
                                     quantum.QAConfig(dt=0.1, t_end=0.5))
    assert master.build_diagonal is original and quantum.build_diagonal is original
    imag = next(s for s in tracer.spans if s.name == "master.imaginary_time_evolve")
    diag = next(s for s in tracer.spans if s.name == "quantum.build_diagonal")
    assert diag.parent == imag.id
    assert imag.counts == {"amp_steps": 16 * 5}
    metrics = layers.layer_metrics(tracer.spans)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER
                             if not name.startswith("trace.")]
    assert metrics["quantum.build_diagonal.calls"] == 1
    assert metrics["master.imaginary_time_evolve.amp_steps"] == 80


def test_nonzero_exit_counts_as_failure(tmp_path):
    commands = workloads.exact_n8(0, tmp_path, tiny=True)
    commands[0].argv[commands[0].argv.index("--n") + 1] = "7"  # odd n is a validation error
    wall, codes = run.execute(commands)
    assert codes[0][0] == 1
    _, failures = run.check(commands, codes)
    assert len(failures) == 1 and failures[0].startswith("qa-run: exit 1")


def test_corrupted_output_counts_as_failure(tmp_path):
    commands = workloads.exact_n8(0, tmp_path, tiny=True)
    wall, codes = run.execute(commands)
    assert run.check(commands, codes)[1] == []
    sa = next(c for c in commands if c.label == "master-run-sa")
    lines = sa.output.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[2] = "1.5"  # p_gs out of [0, 1]
    sa.output.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    (tmp_path / "qa.csv").write_text("garbage\n")
    _, failures = run.check(commands, codes)
    assert len(failures) == 2
    assert any("qa-run: qa.csv: missing protocol header" in f for f in failures)
    assert any("p_gs.sa = 1.5 outside [0, 1]" in f for f in failures)


def test_reference_mismatch_counts_as_failure(tmp_path):
    path = tmp_path / "qa.csv"
    path.write_text("# protocol=x\n# n=8\nt,p_gs_total\n500.0,0.96298970\n")
    with pytest.raises(workloads.CheckFailed, match="reference"):
        workloads.final_p_gs(path, "p_gs_total", "p_gs.qa", "exact-n8.qa.p_gs")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_in_seconds(name, tmp_path):
    commands = workloads.WORKLOADS[name](3, tmp_path, tiny=True)
    start = time.perf_counter()
    record = run.run_pass(commands)
    assert record["failures"] == []
    assert time.perf_counter() - start < 20.0
    assert record["results"]


def test_untimed_budget_still_samples_every_command_once(tmp_path):
    commands = workloads.exact_n8(0, tmp_path, tiny=True)
    runs = run.measure(commands, 0.0, trace=False)
    assert len(runs["untraced"]) == len(commands) and runs["traced"] == []
    assert all(s["attempted"] == 1 and s["failures"] == [] for s in runs["untraced"])
    times = run.command_times(commands, runs["untraced"])
    assert list(times) == [c.label for c in commands]
    assert [t["n"] for t in times.values()] == [1] * len(commands)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-n8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
