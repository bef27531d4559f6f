"""The traced functions of isinglab and the per-layer metrics read from them.

The spans sit on the public entry points that the CLI workloads execute, one
layer per module: `cli.main`, the soft-spin ensemble and basin sampler, the
landscape searches, the quantum anneal, the master-equation anneals and the
exhaustive oracle.  Per-step helpers (`pump_tanh`, `temperature`,
`transverse_angle`, `soft_gradient`, ...) are called thousands of times per
pass and carry no span, so the tracer does not time itself.

`quantum.strang_step`, `master.sa_generator_apply` and
`master.ca_generator_apply` are public kernels that these workloads do not
execute: `run_qa` inlines its own split step, and at n = 8 `anneal_master`
uses a dense CA matrix and cached SA weights.  They are traced only so that
their call counts (zero at the seed) show which path runs.

Counts are exact: at fixed code and seed they repeat on every pass, so two
versions can be compared on work done without timing noise.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, Target, self_times

AMPLITUDE_BYTES = 16  # complex128


def _spins(arguments) -> int:
    return len(arguments["J"])


def _steps(t_end: float, dt: float) -> int:
    return int(round(t_end / dt))


def _cli_counts(arguments, code):
    return {"failed": int(code != 0)}


def _ensemble_counts(arguments, result):
    return {"traj_steps": arguments["runs"] * result.steps_run,
            "diverged": int(result.diverged.sum())}


def _basin_counts(arguments, result):
    return {"samples": result.samples, "unresolved": result.unresolved}


def _critical_counts(arguments, points):
    return {"starts": arguments["starts"], "points": len(points)}


def _barrier_counts(arguments, result):
    return {"found": int(result.found)}


def _qa_counts(arguments, run):
    n = _spins(arguments)
    config = arguments["config"]
    amp_steps = (1 << n) * _steps(config.t_end, config.dt)
    # Computed, not measured: each step makes n + 2 sweeps over the state
    # (two diagonal phases, one rotation per spin), each reading and writing
    # every amplitude once.
    return {"amp_steps": amp_steps,
            "bytes_computed": 2 * AMPLITUDE_BYTES * (n + 2) * amp_steps}


def _master_name(arguments) -> str:
    return f"master.anneal_master.{arguments['mode']}"


def _master_counts(arguments, run):
    n = _spins(arguments)
    steps = _steps(arguments["t_end"], arguments["dt"])
    # RK4 evaluates the generator four times per step; SA has n rates per
    # state, CA one per ordered pair of states.
    rates = n * (1 << n) if arguments["mode"] == "sa" else 1 << (2 * n)
    return {"steps": steps, "rate_evals": 4 * steps * rates,
            "negativity_events": run.negativity_events}


def _imag_counts(arguments, run):
    config = arguments["config"]
    return {"amp_steps": (1 << _spins(arguments)) * _steps(config.t_end, config.dt)}


def _oracle_counts(arguments, result):
    return {"states": 1 << _spins(arguments)}


TARGETS = [
    Target("cli", "main", "cli", _cli_counts),
    Target("softspin", "run_ensemble", "softspin.run_ensemble", _ensemble_counts),
    Target("softspin", "tune_delta", "softspin.tune_delta"),
    Target("softspin", "basin_sample", "softspin.basin_sample", _basin_counts),
    Target("landscape", "find_critical_points", "landscape.find_critical_points",
           _critical_counts),
    Target("landscape", "barrier_height", "landscape.barrier_height", _barrier_counts),
    Target("quantum", "run_qa", "quantum.run_qa", _qa_counts),
    Target("quantum", "build_diagonal", "quantum.build_diagonal"),
    Target("quantum", "strang_step", "quantum.strang_step"),
    Target("master", "anneal_master", _master_name, _master_counts),
    Target("master", "imaginary_time_evolve", "master.imaginary_time_evolve", _imag_counts),
    Target("master", "sa_generator_apply", "master.sa_generator_apply"),
    Target("master", "ca_generator_apply", "master.ca_generator_apply"),
    Target("oracle", "exhaustive_ground_state", "oracle.exhaustive_ground_state",
           _oracle_counts),
    Target("oracle", "ground_state_projector", "oracle.ground_state_projector",
           _oracle_counts),
]

# (name, unit, better) of every per-layer metric, in report order.  Exact
# counts have unit "count"; they are the same on every pass.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("cli.failed", "count", "lower"),
    ("softspin.run_ensemble.self_s", "s", "lower"),
    ("softspin.run_ensemble.traj_steps", "count", "lower"),
    ("softspin.run_ensemble.traj_steps_per_s", "1/s", "higher"),
    ("softspin.run_ensemble.diverged", "count", "lower"),
    ("softspin.tune_delta.self_s", "s", "lower"),
    ("softspin.basin_sample.self_s", "s", "lower"),
    ("softspin.basin_sample.samples_per_s", "1/s", "higher"),
    ("softspin.basin_sample.resolved_share", "ratio", "higher"),
    ("landscape.find_critical_points.self_s", "s", "lower"),
    ("landscape.find_critical_points.starts_per_s", "1/s", "higher"),
    ("landscape.find_critical_points.points", "count", "higher"),
    ("landscape.barrier_height.self_s", "s", "lower"),
    ("landscape.barrier_height.found_share", "ratio", "higher"),
    ("quantum.run_qa.self_s", "s", "lower"),
    ("quantum.run_qa.amp_steps", "count", "lower"),
    ("quantum.run_qa.amp_steps_per_s", "1/s", "higher"),
    ("quantum.run_qa.bytes_computed", "B", "lower"),
    ("quantum.build_diagonal.self_s", "s", "lower"),
    ("quantum.build_diagonal.calls", "count", "lower"),
    ("quantum.strang_step.calls", "count", "lower"),
    ("master.anneal_master.sa.self_s", "s", "lower"),
    ("master.anneal_master.sa.steps_per_s", "1/s", "higher"),
    ("master.anneal_master.sa.rate_evals", "count", "lower"),
    ("master.anneal_master.ca.self_s", "s", "lower"),
    ("master.anneal_master.ca.steps_per_s", "1/s", "higher"),
    ("master.anneal_master.ca.rate_evals", "count", "lower"),
    ("master.anneal_master.negativity_events", "count", "lower"),
    ("master.imaginary_time_evolve.self_s", "s", "lower"),
    ("master.imaginary_time_evolve.amp_steps", "count", "lower"),
    ("master.imaginary_time_evolve.amp_steps_per_s", "1/s", "higher"),
    ("master.sa_generator_apply.calls", "count", "lower"),
    ("master.ca_generator_apply.calls", "count", "lower"),
    ("oracle.exhaustive_ground_state.self_s", "s", "lower"),
    ("oracle.exhaustive_ground_state.states", "count", "lower"),
    ("oracle.exhaustive_ground_state.states_per_s", "1/s", "higher"),
    ("oracle.ground_state_projector.self_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the `trace.*` ones.

    A layer that the pass never called reads 0.
    """
    own = self_times(spans)
    agg: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        a = agg[span.name]
        a["self_s"] += own[span.id]
        a["calls"] += 1
        a["errors"] += span.error is not None
        for key, value in span.counts.items():
            a[key] += value

    ens, basin = agg["softspin.run_ensemble"], agg["softspin.basin_sample"]
    crit, barrier = agg["landscape.find_critical_points"], agg["landscape.barrier_height"]
    qa, diag = agg["quantum.run_qa"], agg["quantum.build_diagonal"]
    sa, ca = agg["master.anneal_master.sa"], agg["master.anneal_master.ca"]
    imag = agg["master.imaginary_time_evolve"]
    exh = agg["oracle.exhaustive_ground_state"]
    return {
        "cli.self_s": agg["cli"]["self_s"],
        "cli.failed": agg["cli"]["failed"] + agg["cli"]["errors"],
        "softspin.run_ensemble.self_s": ens["self_s"],
        "softspin.run_ensemble.traj_steps": ens["traj_steps"],
        "softspin.run_ensemble.traj_steps_per_s": _rate(ens["traj_steps"], ens["self_s"]),
        "softspin.run_ensemble.diverged": ens["diverged"],
        "softspin.tune_delta.self_s": agg["softspin.tune_delta"]["self_s"],
        "softspin.basin_sample.self_s": basin["self_s"],
        "softspin.basin_sample.samples_per_s": _rate(basin["samples"], basin["self_s"]),
        "softspin.basin_sample.resolved_share":
            _share(basin["samples"] - basin["unresolved"], basin["samples"]),
        "landscape.find_critical_points.self_s": crit["self_s"],
        "landscape.find_critical_points.starts_per_s": _rate(crit["starts"], crit["self_s"]),
        "landscape.find_critical_points.points": crit["points"],
        "landscape.barrier_height.self_s": barrier["self_s"],
        "landscape.barrier_height.found_share": _share(barrier["found"], barrier["calls"]),
        "quantum.run_qa.self_s": qa["self_s"],
        "quantum.run_qa.amp_steps": qa["amp_steps"],
        "quantum.run_qa.amp_steps_per_s": _rate(qa["amp_steps"], qa["self_s"]),
        "quantum.run_qa.bytes_computed": qa["bytes_computed"],
        "quantum.build_diagonal.self_s": diag["self_s"],
        "quantum.build_diagonal.calls": diag["calls"],
        "quantum.strang_step.calls": agg["quantum.strang_step"]["calls"],
        "master.anneal_master.sa.self_s": sa["self_s"],
        "master.anneal_master.sa.steps_per_s": _rate(sa["steps"], sa["self_s"]),
        "master.anneal_master.sa.rate_evals": sa["rate_evals"],
        "master.anneal_master.ca.self_s": ca["self_s"],
        "master.anneal_master.ca.steps_per_s": _rate(ca["steps"], ca["self_s"]),
        "master.anneal_master.ca.rate_evals": ca["rate_evals"],
        "master.anneal_master.negativity_events":
            sa["negativity_events"] + ca["negativity_events"],
        "master.imaginary_time_evolve.self_s": imag["self_s"],
        "master.imaginary_time_evolve.amp_steps": imag["amp_steps"],
        "master.imaginary_time_evolve.amp_steps_per_s": _rate(imag["amp_steps"], imag["self_s"]),
        "master.sa_generator_apply.calls": agg["master.sa_generator_apply"]["calls"],
        "master.ca_generator_apply.calls": agg["master.ca_generator_apply"]["calls"],
        "oracle.exhaustive_ground_state.self_s": exh["self_s"],
        "oracle.exhaustive_ground_state.states": exh["states"],
        "oracle.exhaustive_ground_state.states_per_s": _rate(exh["states"], exh["self_s"]),
        "oracle.ground_state_projector.self_s": agg["oracle.ground_state_projector"]["self_s"],
    }


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that count work, which repeat exactly at fixed code and seed."""
    return {k: v for k, v in metrics.items() if UNITS.get(k) in ("count", "B")}
