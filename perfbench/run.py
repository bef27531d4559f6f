"""Benchmark runner for isinglab: one workload, timed or traced, with output checks.

    python3 perfbench/run.py --workload exact-n8 --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a source checkout: it imports isinglab from the
`src` directory next to this one, and exits nonzero without a result if that
is missing.  It pins BLAS to one thread in its own process, then

1. with `--trace 0`, measures set-up time (`setup_s`: a fresh interpreter
   that imports isinglab, numpy and scipy, builds the parser and runs a
   trivial command, repeated and reported as the median), runs an untimed
   warm-up pass at tiny sizes, then runs the workload's commands round-robin
   until `--seconds` is used up (at least one whole pass), timing each run
   of a command as one sample.  It reports `wall_s`, the mean time of one
   pass (the sum of each command's mean sample), the process's peak RSS and
   the share of commands that succeeded;
2. with `--trace 1`, runs the warm-up, then whole passes, untraced and
   traced in turn (at least two traced), with spans on every layer (see
   layers.py), and reports per-layer self times and exact work counts, which
   must repeat on every traced pass, plus the tracing overhead: the median
   traced pass minus the median untraced pass.

Every command's output is checked after it runs, outside the timed region.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A fuller report (each command's mean,
minimum, median, quartiles and sample count, physics results, environment)
is printed before it and written to `.perfbench/` in the checkout, along
with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_TRACED_PASSES = 2
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
]

SETUP_CODE = ("import os, sys\n"
              "from isinglab import cli\n"
              "sys.exit(cli.main(['graph', '--n', '4', '--j-grid', '0.5', '--out', os.devnull]))\n")


def summary(values: list[float]) -> dict:
    """Mean, minimum, median, quartiles (as statistics.quantiles gives them) and count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"mean": statistics.fmean(values), "min": min(values),
            "median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def measure_setup(repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import isinglab and run a trivial command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited {proc.returncode}: {proc.stderr[-500:]}")
    return times


def call_cli(argv: list[str]) -> tuple[int | None, str]:
    """Run one isinglab command in this process; (exit code or None if it raised, stderr)."""
    from isinglab import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed command, not a benchmark crash
            return None, f"{err.getvalue()}{type(exc).__name__}: {exc}"
    return code, err.getvalue()


def execute(commands: list[workloads.Command]) -> tuple[float, list]:
    """Run the commands back to back; (wall seconds, [(exit code, stderr)])."""
    for command in commands:
        command.output.unlink(missing_ok=True)  # a failed command must not leave a stale file
    start = time.perf_counter()
    codes = [call_cli(command.argv) for command in commands]
    return time.perf_counter() - start, codes


def check(commands: list[workloads.Command], codes: list) -> tuple[dict, list[str]]:
    """Check each command's exit code and output; (physics results, failures)."""
    results, failures = {}, []
    for command, (code, err) in zip(commands, codes):
        if code != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            failures.append(f"{command.label}: exit {code} {tail[0]}")
            continue
        try:
            results.update(command.check(command.output))
        except workloads.CheckFailed as exc:
            failures.append(f"{command.label}: {exc}")
    return results, failures


def run_pass(commands: list[workloads.Command]) -> dict:
    wall, codes = execute(commands)
    results, failures = check(commands, codes)
    return {"wall_s": wall, "attempted": len(commands), "results": results,
            "failures": failures}


def traced_pass(commands: list[workloads.Command]) -> dict:
    tracer = spans.Tracer()
    with spans.installed(tracer, layers.TARGETS):
        record = run_pass(commands)
    record["metrics"] = layers.layer_metrics(tracer.spans)
    record["spans"] = tracer.spans
    return record


def measure(commands: list[workloads.Command], seconds: float, trace: bool) -> dict:
    """Run the workload until `seconds` is used up.

    Untraced: the commands run round-robin and each run is timed on its own,
    a sample of that command; a command starts only if its median sample so
    far still fits, and the first whole pass always runs.  Many short samples
    spread over the whole window average out the changing speed of a shared
    machine better than a few whole passes would.  Traced: whole passes,
    untraced first, then traced and untraced in turn while each kind's
    median pass still fits, with at least two traced passes.
    """
    start = time.perf_counter()

    def fits(done: list) -> bool:
        typical = statistics.median(p["wall_s"] for p in done)
        return time.perf_counter() - start + typical <= seconds

    if trace:
        untraced, traced = [run_pass(commands)], []
        while len(traced) < MIN_TRACED_PASSES or fits(traced):
            traced.append(traced_pass(commands))
            if fits(untraced):
                untraced.append(run_pass(commands))
        return {"untraced": untraced, "traced": traced}
    samples = []
    for i in itertools.count():
        k = i % len(commands)
        earlier = samples[k::len(commands)]
        if earlier and not fits(earlier):
            break
        samples.append(run_pass([commands[k]]))
    return {"untraced": samples, "traced": []}


def command_times(commands: list[workloads.Command], samples: list[dict]) -> dict:
    """Summary of each command's samples, in command order, from round-robin samples."""
    return {c.label: summary([s["wall_s"] for s in samples[k::len(commands)]])
            for k, c in enumerate(commands)}


def git_sha() -> str:
    """The checked-out commit, or 'unknown' outside a clone.

    Read from .git directly: `git rev-parse` would search the parent
    directories, outside the checkout, when the checkout is not a clone.
    """
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV}, "git_sha": git_sha()}


def traced_metrics(traced: list[dict], untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics in report order: timings are the median over traced
    passes, counts must be identical on every traced pass."""
    per_pass = [p["metrics"] for p in traced]
    counts = [layers.exact_counts(m) for m in per_pass]
    problems = [f"exact counts differ between traced passes 1 and {i}: "
                + str({k: (counts[0][k], c[k]) for k in c if c[k] != counts[0][k]})
                for i, c in enumerate(counts[1:], start=2) if c != counts[0]]
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    measured = {"trace.traced_wall_s": traced_wall, "trace.untraced_wall_s": untraced_wall,
                "trace.overhead_s": traced_wall - untraced_wall, **counts[0]}
    metrics = {name: measured[name] if name in measured
               else statistics.median(m[name] for m in per_pass)
               for name, _, _ in layers.PER_LAYER}
    return metrics, problems


def span_records(traced: list[dict]) -> list[dict]:
    return [{"pass": i, "id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
             "end": s.end, "counts": s.counts, "error": s.error}
            for i, record in enumerate(traced, start=1) for s in record["spans"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="isinglab benchmark: one workload")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isinglab" / "cli.py").is_file():
        print(f"perfbench: no isinglab sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported, here or in a child
    sys.path.insert(0, str(SRC))
    import isinglab

    if Path(isinglab.__file__).resolve().parent != SRC / "isinglab":
        print(f"perfbench: imported isinglab from {isinglab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    setup = [] if trace else measure_setup(SETUP_REPEATS)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        warm_dir = Path(work) / "warm-up"
        warm_dir.mkdir()
        # untimed: loads the modules and lazy imports every command needs
        warm_up = run_pass(workloads.WORKLOADS[args.workload](args.seed, warm_dir, tiny=True))
        commands = workloads.WORKLOADS[args.workload](args.seed, Path(work))
        runs = measure(commands, args.seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = runs["untraced"] + runs["traced"]
    attempted = warm_up["attempted"] + sum(p["attempted"] for p in passes)
    failures = [f"warm-up {f}" for f in warm_up["failures"]]
    failures += [f for p in passes for f in p["failures"]]
    results = {}
    for p in passes:
        results.update(p["results"])
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commands": [c.argv for c in commands],
              "environment": environment(),
              "results": [p["results"] for p in passes], "failures": failures}
    problems = []
    if trace:
        untraced_wall = statistics.median(p["wall_s"] for p in runs["untraced"])
        metrics, problems = traced_metrics(runs["traced"], untraced_wall)
        report["per_pass"] = [p["metrics"] for p in runs["traced"]]
        report["traced_wall_s"] = summary([p["wall_s"] for p in runs["traced"]])
        timings = {"traced_wall_s": report["traced_wall_s"]}
        units = layers.UNITS
        (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(span_records(runs["traced"])))
    else:
        times = command_times(commands, runs["untraced"])
        # The mean over the whole window, not the median or the fastest sample:
        # a shared machine's speed drifts, and the mean averages all of it.
        wall = sum(t["mean"] for t in times.values())
        report["wall_s"] = {"value": wall, "commands": times}
        report["setup_s"] = summary(setup)
        report["peak_rss_mb"] = peak_rss_mb
        timings = {**{f"wall_s[{label}]": t for label, t in times.items()},
                   "setup_s": report["setup_s"]}
        metrics = {"wall_s": wall, "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb,
                   "success_rate": (attempted - len(failures)) / attempted}
        units = dict(END_TO_END)
    report["problems"] = problems
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={len(passes)} attempted={attempted} failed={len(failures)}")
    for message in failures + problems:
        print(f"  FAIL {message}")
    print("  results " + json.dumps(results, default=str))
    print("  environment " + json.dumps(report["environment"]))
    for key, t in timings.items():
        print(f"  {key} mean {t['mean']:.4f} min {t['min']:.4f} median {t['median']:.4f} "
              f"q1 {t['q1']:.4f} q3 {t['q3']:.4f} n={t['n']}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
