"""Command-line experiment runner: sweeps, analysis-data dumps, and verification.

Subcommands emit CSV (default) or JSON.  Every emitted file starts with
comment lines naming the protocol and all parameters, and files are
byte-identical across reruns with the same configuration and seed (timings go
to stderr, never into result files).

Exit codes: 0 success, 1 validation error, 2 runtime invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

# Only graph is imported here; each command imports the solver modules it runs,
# so that start-up, and a command like `graph`, load no more than they use.
from . import graph

if TYPE_CHECKING:
    from .quantum import QAConfig

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); validation errors are exit 1
        raise ValueError(message)


def _plain(value):
    """A numpy scalar as the Python number it holds; anything else as it is."""
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _fmt(value) -> str:
    if type(value) is float:  # the common case, ahead of the isinstance chain
        return repr(value)
    return str(_plain(value))  # str of a float is its repr


def _write_rows(path, protocol: str, params: dict, header: list[str], rows: list,
                fmt: str) -> None:
    if fmt == "json":
        payload = {
            "protocol": protocol,
            "params": {k: _plain(params[k]) for k in sorted(params)},
            "columns": header,
            "rows": [[_plain(v) for v in r] for r in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# protocol={protocol}"]
        lines.append("# " + " ".join(f"{k}={_fmt(params[k])}" for k in sorted(params)))
        lines.append(",".join(header))
        lines.extend(",".join(map(_fmt, r)) for r in rows)
        text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

DEFAULT_SWEEP_CONFIG = {
    "instance": {"n": 8, "j_grid": {"start": 0.05, "stop": 0.95, "points": 25}},
    "variants": ["ht", "cim1", "cim2", "cim3", "qa"],
    "runs": 2000,
    "seed": 1,
    "softspin": {},
    "cim3": {"prelim_runs": 200},
    "qa": {},
}


def _load_config(path: str | None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_SWEEP_CONFIG))  # deep copy
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            user = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config parse error in {path}: line {exc.lineno} col {exc.colno}: {exc.msg}")
    if not isinstance(user, dict):
        raise ValueError("config root must be a JSON object")
    for key, value in user.items():
        if key not in cfg:
            raise ValueError(f"unknown config field {key!r}")
        if isinstance(cfg[key], dict) and isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_config_shape(cfg: dict) -> None:
    """Reject a sweep config whose fields have the wrong JSON shape or type."""
    instance = cfg["instance"]
    if not isinstance(instance, dict):
        raise ValueError("instance must be an object")
    unknown = sorted(set(instance) - {"n", "j", "j_grid"})
    if unknown:
        raise ValueError(f"unknown instance fields {unknown}")
    grid = instance.get("j_grid")
    if isinstance(grid, dict):
        if set(grid) != {"start", "stop", "points"}:
            raise ValueError(f"instance.j_grid needs exactly the fields start, stop and "
                             f"points, got {sorted(grid)}")
        if not _is_int(grid["points"]):
            raise ValueError("instance.j_grid.points must be an integer")
    elif grid is not None and not isinstance(grid, list):
        raise ValueError("instance.j_grid must be a list or a {start, stop, points} object")
    for name in ("softspin", "cim3", "qa"):
        if not isinstance(cfg[name], dict):
            raise ValueError(f"{name} must be an object")
    for name, value in (("instance.n", instance.get("n")), ("runs", cfg["runs"]),
                        ("seed", cfg["seed"]), ("cim3.prelim_runs", cfg["cim3"]["prelim_runs"])):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not isinstance(cfg["variants"], list):
        raise ValueError("variants must be a list")


def _resolve_j_grid(instance: dict) -> np.ndarray:
    grid_spec = instance.get("j_grid")
    if "j" not in instance and grid_spec is None:
        raise ValueError("instance needs field 'j' or 'j_grid'")
    try:
        if "j" in instance:
            grid = np.array([float(instance["j"])])
        elif isinstance(grid_spec, dict):
            grid = np.linspace(float(grid_spec["start"]), float(grid_spec["stop"]),
                               grid_spec["points"])
        else:
            grid = np.asarray([float(v) for v in grid_spec], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid instance.j or instance.j_grid: {exc}")
    if grid.size == 0:
        raise ValueError("instance.j_grid is empty")
    if not np.all((grid > 0) & (grid < np.inf)):
        raise ValueError("all j values must be finite and positive")
    return grid


def _family_shares(spins: np.ndarray) -> tuple[float, float, float]:
    """Shares of the readouts in the S0, S1 and other two-defect families.

    An ensemble's readouts take few distinct values, so the distinct rows are
    named in one pass and each is counted as often as it occurs.
    """
    from . import softspin

    runs = len(spins)
    sp0 = sp1 = sp2 = 0
    rows, counts = np.unique(spins, axis=0, return_counts=True)
    for fam, count in zip(softspin._spin_families(rows), counts.tolist()):
        if fam == "S0":
            sp0 += count
        elif fam == "S1":
            sp1 += count
        elif fam.startswith("2-defect"):
            sp2 += count
    return sp0 / runs, sp1 / runs, sp2 / runs


def _sweep_configs(cfg: dict, j: float) -> tuple[list, QAConfig | None, dict]:
    """Every solver config of one sweep point, built before any work is done."""
    from . import quantum, softspin

    soft, cim3 = cfg["softspin"], cfg["cim3"]
    try:
        solvers = [(v, softspin.default_solver_config(j, variant=v, **soft))
                   for v in cfg["variants"] if v != "qa"]
        qa_cfg = quantum.QAConfig(**cfg["qa"]) if "qa" in cfg["variants"] else None
        n = cfg["instance"]["n"]
        if qa_cfg is not None and n <= quantum.MAX_QUBITS:
            # the half phase's bound needs the instance, so it is checked here, before any run
            quantum._check_half_phase(graph.build_mobius_ladder(n, j), qa_cfg.h, qa_cfg.dt)
        # ensembles draw from the top-level seed and take no samples, and cim3 tunes its delta
        ignored = sorted(set(soft) & {"seed", "delta"})
        if soft.get("sample_every", 0):
            ignored.append("sample_every")
        if ignored:
            raise ValueError(f"softspin fields {ignored} are not used by a sweep")
        unknown = sorted(set(cim3) - {"prelim_runs", "delta_grid"})
        if unknown:
            raise ValueError(f"unknown cim3 fields {unknown}")
        grid = cim3.get("delta_grid")
        if grid is not None:
            grid = np.asarray(grid, dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise ValueError("cim3.delta_grid must be a nonempty list")
            softspin._mixing_fraction(grid)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid solver config: {exc}")
    return solvers, qa_cfg, {"prelim_runs": cim3["prelim_runs"], "grid": grid}


def _sweep_one_j(args) -> list:
    from . import quantum, softspin
    from .steps import _step_count

    cfg, j, solvers, qa_cfg, tuning = args
    n, runs, seed = cfg["instance"]["n"], cfg["runs"], cfg["seed"]
    J = graph.build_mobius_ladder(n, j)
    ground = softspin.ground_readouts(J)
    rows = []
    for variant, config in solvers:
        t_start = time.monotonic()
        delta = ""
        if variant == "cim3":
            best, _ = softspin.tune_delta(J, config, seed=seed + 7, ground_spins=ground,
                                          **tuning)
            config = replace(config, delta=best)
            delta = best
        res = softspin.run_ensemble(J, config, runs, seed)
        stats = softspin._success_stats(res, ground)
        print(f"# stats: variant={variant} j={j!r} steps_run={res.steps_run} "
              f"locked_step={res.locked_step} diverged={stats.diverged} "
              f"wall_s={time.monotonic() - t_start:.3f}",
              file=sys.stderr)
        sp0, sp1, sp2 = _family_shares(res.spins)
        rows.append([variant, float(j), delta, runs, stats.p_gs, stats.stderr, sp0, sp1, sp2])
    if qa_cfg is not None:
        if n > quantum.MAX_QUBITS:
            print(f"# note: QA omitted for n = {n} > {quantum.MAX_QUBITS}", file=sys.stderr)
        else:
            t_start = time.monotonic()
            # the row reads p_gs at the end only, and the grid always samples the last step
            steps = _step_count(qa_cfg.t_end, qa_cfg.dt)
            run = quantum.run_qa(J, replace(qa_cfg, sample_every=max(1, steps)))
            print(f"# stats: variant=qa j={j!r} steps={run.steps} "
                  f"wall_s={time.monotonic() - t_start:.3f}", file=sys.stderr)
            rows.append(["qa", float(j), "", 1, float(run.p_gs[-1]), 0.0, "", "", ""])
    return rows


def cmd_sweep(ns) -> int:
    from . import softspin

    graph._check_count("--threads", ns.threads, 1)
    cfg = _load_config(ns.config)
    if ns.runs is not None:
        cfg["runs"] = ns.runs
    if ns.seed is not None:
        cfg["seed"] = ns.seed
    _check_config_shape(cfg)
    for name, value, least in (("runs", cfg["runs"], 1), ("seed", cfg["seed"], 0),
                               ("cim3.prelim_runs", cfg["cim3"]["prelim_runs"], 1)):
        graph._check_count(name, value, least)
    unknown = [v for v in cfg["variants"] if v not in (*softspin.VARIANTS, "qa")]
    if unknown:
        raise ValueError(f"unknown variants in config: {unknown}")
    j_grid = _resolve_j_grid(cfg["instance"])
    n = cfg["instance"]["n"]
    graph._check_even_n(n)

    t_start = time.monotonic()
    tasks = [(cfg, float(j), *_sweep_configs(cfg, float(j))) for j in j_grid]
    workers = min(ns.threads, len(tasks))  # a worker per j point at most
    rows: list = []
    try:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # only threaded sweeps pay for it

            with ProcessPoolExecutor(max_workers=workers) as pool:
                for chunk in pool.map(_sweep_one_j, tasks):
                    rows.extend(chunk)
        else:
            for task in tasks:
                rows.extend(_sweep_one_j(task))
    except KeyboardInterrupt:
        print("# interrupted: flushing partial results", file=sys.stderr)
    rows.sort(key=lambda r: (r[0], r[1]))
    params = {"n": n, "runs": cfg["runs"], "seed": cfg["seed"],
              "j_grid": "[" + ";".join(repr(float(v)) for v in j_grid) + "]",
              "variants": "+".join(cfg["variants"])}
    header = ["variant", "j", "delta", "runs", "p_gs", "p_gs_stderr", "sp0", "sp1", "sp2"]
    _write_rows(ns.out, "ground-state-probability-sweep", params, header, rows, ns.format)
    print(f"# sweep wall time: {time.monotonic() - t_start:.1f}s", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# analysis-data subcommands
# ---------------------------------------------------------------------------

def _parse_grid(text: str, name: str) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of numbers")
    if not vals:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(vals).all():
        raise ValueError(f"{name} must hold finite numbers")
    return np.asarray(vals)


def cmd_graph(ns) -> int:
    j_grid = _parse_grid(ns.j_grid, "--j-grid")
    rows = []
    for j in j_grid:
        for k, eigenvalue in enumerate(graph.mobius_spectrum(ns.n, j)):
            rows.append([float(j), k, eigenvalue])
    params = {"n": ns.n, "j_e": graph.j_e(ns.n), "j_crit": graph.j_crit(ns.n)}
    _write_rows(ns.out, "mobius-spectrum-vs-coupling", params,
                ["j", "k", "eigenvalue"], rows, ns.format)
    return 0


def cmd_oracle(ns) -> int:
    from . import oracle

    t_start = time.monotonic()
    J = graph.build_mobius_ladder(ns.n, ns.j)
    summary = oracle.exhaustive_ground_state(J)
    rows = [["ground_energy", summary.ground_energy],
            ["degeneracy", len(summary.ground_states)],
            ["ground_indices", ";".join(str(int(i)) for i in summary.ground_indices)]]
    for energy in sorted(summary.histogram):
        rows.append([f"count@{energy!r}", summary.histogram[energy]])
    _write_rows(ns.out, "exhaustive-ground-state", {"n": ns.n, "j": ns.j},
                ["quantity", "value"], rows, ns.format)
    print(f"# stats: states={1 << ns.n} blocks={summary.blocks} "
          f"wall_s={time.monotonic() - t_start:.3f}", file=sys.stderr)
    return 0


def cmd_basins(ns) -> int:
    from . import landscape

    J = graph.build_mobius_ladder(ns.n, ns.j)
    sample = landscape.basin_sample(J, ns.p, ns.c, ns.samples, ns.seed)
    # one tail per minimum, and the unresolved tail last, where label -1 finds it
    tails = [(m.family, m.energy, int(m.is_ground)) for m in sample.minima]
    tails.append(("unresolved", "", ""))
    if ns.format == "csv":  # a CSV row joins its cells, so each tail is joined once
        tails = [(",".join(map(_fmt, tail)),) for tail in tails]
    rows = [(m, xcorr, *tails[lab]) for m, xcorr, lab in
            zip(sample.m.tolist(), sample.xcorr.tolist(), sample.labels.tolist())]
    params = {"n": ns.n, "j": ns.j, "p": ns.p, "c": ns.c,
              "samples": ns.samples, "seed": ns.seed, "unresolved": sample.unresolved}
    _write_rows(ns.out, "basin-of-attraction-sample", params,
                ["magnetization", "ring_correlation", "minimum", "energy", "is_ground"],
                rows, ns.format)
    return 0


def cmd_critical(ns) -> int:
    from . import landscape

    J = graph.build_mobius_ladder(ns.n, ns.j)
    points = landscape.find_critical_points(J, ns.p, ns.c, starts=ns.starts, seed=ns.seed)
    rows = [[cp.energy, cp.distance_from_origin, cp.index, cp.family, int(cp.degenerate)]
            for cp in points]
    params = {"n": ns.n, "j": ns.j, "p": ns.p, "c": ns.c,
              "starts": ns.starts, "seed": ns.seed, "found": len(points)}
    _write_rows(ns.out, "critical-point-scatter", params,
                ["energy", "distance_from_origin", "index", "family", "degenerate"],
                rows, ns.format)
    return 0


def cmd_branches(ns) -> int:
    from . import landscape

    if ns.what == "region":
        j_grid = _parse_grid(ns.j_grid, "--j-grid")
        p_grid = _parse_grid(ns.p_grid, "--p-grid")
        rmap = landscape.region_map(j_grid, p_grid, ns.n, ns.c)
        rows = []
        names = {0: "neither", 1: "E0", 2: "E1"}
        for i, j in enumerate(rmap.j_grid):
            for k, p in enumerate(rmap.p_grid):
                rows.append([float(j), float(p), names[int(rmap.labels[i, k])]])
        for j, pc in rmap.crossings:
            rows.append([float(j), float(pc), "crossing"])
        _write_rows(ns.out, "branch-region-map", {"n": ns.n, "c": ns.c},
                    ["j", "p", "label"], rows, ns.format)
        return 0
    p_grid = _parse_grid(ns.p_grid, "--p-grid")
    rows = []
    for p in p_grid:
        result = landscape.barrier_height(
            graph.build_mobius_ladder(ns.n, ns.j), float(p), ns.c,
            starts=ns.starts, seed=ns.seed)
        rows.append([float(p), int(result.found), result.barrier, result.e0_minus_e1])
    params = {"n": ns.n, "j": ns.j, "c": ns.c, "starts": ns.starts, "seed": ns.seed}
    _write_rows(ns.out, "saddle-barrier-heights", params,
                ["p", "found", "barrier", "e0_minus_e1"], rows, ns.format)
    return 0


def cmd_trajectory(ns) -> int:
    from . import softspin

    graph._check_count("--sample-every", ns.sample_every, 1)  # else a dump writes no rows
    J = graph.build_mobius_ladder(ns.n, ns.j)
    config = softspin.default_solver_config(
        ns.j, variant=ns.variant, delta=ns.delta, seed=ns.seed,
        sample_every=ns.sample_every, dt=ns.dt, t_end=ns.t_end)
    result = softspin.run_trajectory(J, config)
    n = ns.n
    per_spin_pump = ns.variant == "cim2"
    pump_cols = [f"p_{k}" for k in range(n)] if per_spin_pump else ["p"]
    header = ["t"] + pump_cols + [f"x_{k}" for k in range(n)] + ["energy"]
    rows = []
    for t, pump, x, energy in result.samples:
        pump_vals = list(pump) if per_spin_pump else [pump]
        rows.append([t] + pump_vals + list(x) + [energy])
    params = {"n": ns.n, "j": ns.j, "variant": ns.variant, "delta": ns.delta,
              "seed": ns.seed, "dt": ns.dt, "t_end": ns.t_end,
              "diverged": int(result.diverged),
              "final_ising_energy": result.ising_energy}
    _write_rows(ns.out, "soft-spin-trajectory", params, header, rows, ns.format)
    return 0


def _field_from_flags(n: int, h0: float, h1: float) -> np.ndarray | None:
    if h0 == 0.0 and h1 == 0.0:
        return None
    from . import quantum

    return quantum.symmetry_breaking_field(n, h0, h1)


def cmd_qa_run(ns) -> int:
    from . import quantum

    J = graph.build_mobius_ladder(ns.n, ns.j)
    config = quantum.QAConfig(b=ns.b, t0=ns.t0, dt=ns.dt, t_end=ns.t_end,
                              h=_field_from_flags(ns.n, ns.h0, ns.h1),
                              sample_every=ns.sample_every)
    run = quantum.run_qa(J, config)
    header = (["t", "gamma", "p_gs_total"]
              + [f"p_gs_{int(i)}" for i in run.ground_indices]
              + [f"prob_up_{k}" for k in range(ns.n)]
              + [f"bloch_mag_{k}" for k in range(ns.n)])
    rows = []
    for i in range(len(run.times)):
        rows.append([run.times[i], run.gammas[i], run.p_gs[i]]
                    + list(run.p_gs_per_state[i]) + list(run.prob_up[i])
                    + list(run.bloch_mag[i]))
    params = {"n": ns.n, "j": ns.j, "b": ns.b, "t0": ns.t0, "dt": ns.dt,
              "t_end": ns.t_end, "h0": ns.h0, "h1": ns.h1}
    _write_rows(ns.out, "quantum-annealing-time-series", params, header, rows, ns.format)
    if ns.snapshot:
        quantum.save_state(ns.snapshot, run.state)
    print(f"# stats: steps={run.steps} "
          f"max_norm_drift={run.max_norm_drift:.3e}", file=sys.stderr)
    return 0


def cmd_master_run(ns) -> int:
    from . import master, quantum

    J = graph.build_mobius_ladder(ns.n, ns.j)
    h = _field_from_flags(ns.n, ns.h0, ns.h1)
    params = {"n": ns.n, "j": ns.j, "d": ns.d, "t0": ns.t0, "dt": ns.dt,
              "t_end": ns.t_end, "h0": ns.h0, "h1": ns.h1, "mode": ns.mode}
    if ns.mode == "imag":
        graph._check_nonnegative("d", ns.d)  # QAConfig would name b
        graph._check_positive("t0", ns.t0)
        config = quantum.QAConfig(b=ns.d, t0=ns.t0, dt=ns.dt, t_end=ns.t_end,
                                  sample_every=ns.sample_every)
        run = master.imaginary_time_evolve(J, h, config)
        rows = [[run.times[i], run.p_gs[i]] for i in range(len(run.times))]
        _write_rows(ns.out, "imaginary-time-series", params, ["t", "p_gs"], rows, ns.format)
        print(f"# stats: mode=imag steps={run.steps}", file=sys.stderr)
        return 0
    schedule = master.AnnealSchedule(d=ns.d, t0=ns.t0)
    run = master.anneal_master(J, h, schedule, mode=ns.mode, dt=ns.dt,
                               t_end=ns.t_end, sample_every=ns.sample_every)
    rows = []
    for i in range(len(run.times)):
        ref = master.boltzmann_reference(run.energies, run.temps[i], run.ground_indices)
        rows.append([run.times[i], run.temps[i], run.p_gs[i], ref])
    _write_rows(ns.out, "master-equation-time-series", params,
                ["t", "temperature", "p_gs", "equilibrium_p_gs"], rows, ns.format)
    print(f"# stats: mode={ns.mode} steps={run.steps} dt_bound={run.dt_bound:.4g} "
          f"negativity_events={run.negativity_events}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(ns) -> int:
    from . import invariants

    known = invariants.names()
    only = ns.only.split(",") if ns.only else known
    unknown = [name for name in only if name not in known]
    if unknown:
        raise ValueError(f"unknown check names {unknown}; known: {', '.join(known)}")
    failures = 0
    print(invariants.HEADER)
    for name in known:
        if name not in only:
            continue
        try:
            outcome = invariants.run(name)
        except Exception as exc:  # a crash is a failure, not an abort
            print(f"{name:28s} {'error':>12s} {'-':>12s} FAIL ({exc})")
            failures += 1
            continue
        print(outcome.line())
        failures += not outcome.passed
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A --seed value: numpy's SeedSequence takes non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process.

    A parser built per `main` call is cyclic garbage that waits for a full
    collection, so a process running many commands grew in RSS with each.
    """
    parser = _Parser(prog="isinglab",
                     description="Ising-minimization experiments on Mobius-ladder graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def seeded(p, default=0):  # only the commands that draw random numbers take a seed
        common(p)
        p.add_argument("--seed", type=_seed, default=default)

    def fixed_pump(p):  # the landscape at one pump
        p.add_argument("--n", type=int, default=8)
        p.add_argument("--j", type=float, required=True)
        p.add_argument("--p", type=float, required=True)
        p.add_argument("--c", type=float, default=1.0)
        seeded(p)

    def anneal(p, dt, sample_every):  # the schedule, field and sampling of an anneal
        p.add_argument("--n", type=int, default=8)
        p.add_argument("--j", type=float, required=True)
        p.add_argument("--t0", type=float, default=0.5)
        p.add_argument("--dt", type=float, default=dt)
        p.add_argument("--t-end", type=float, default=500.0)
        p.add_argument("--h0", type=float, default=0.0, help="field coefficient on the S0 pattern")
        p.add_argument("--h1", type=float, default=0.0, help="field coefficient on the S1 pattern")
        p.add_argument("--sample-every", type=int, default=sample_every)
        common(p)

    p = sub.add_parser("sweep", help="ground-state probability sweep over couplings")
    p.add_argument("--config", default=None, help="JSON configuration file")
    seeded(p, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("graph", help="analytic spectrum and thresholds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j-grid", required=True, help="comma-separated couplings")
    common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("oracle", help="exhaustive ground-state summary")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("basins", help="basin-of-attraction point cloud")
    fixed_pump(p)
    p.add_argument("--samples", type=int, default=20000)
    p.set_defaults(func=cmd_basins)

    p = sub.add_parser("critical", help="critical-point scatter data")
    fixed_pump(p)
    p.add_argument("--starts", type=int, default=4000)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("branches", help="branch region map or barrier curves")
    p.add_argument("--what", choices=("region", "barrier"), default="region")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--j", type=float, default=0.4, help="coupling for barrier curves")
    p.add_argument("--j-grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--p-grid", default="-1.5,-1.0,-0.5,0.0,0.5,1.0,1.5,2.0")
    p.add_argument("--starts", type=int, default=4000)
    seeded(p)
    p.set_defaults(func=cmd_branches)

    p = sub.add_parser("trajectory", help="single soft-spin trajectory dump")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--j", type=float, required=True)
    # SolverConfig checks the name against softspin.VARIANTS: naming them here
    # would import the solvers to build the parser
    p.add_argument("--variant", default="cim1", help="soft-spin solver variant")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--t-end", type=float, default=3000.0)
    p.add_argument("--sample-every", type=int, default=10)
    seeded(p)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("qa-run", help="quantum annealing time series")
    anneal(p, dt=0.1, sample_every=50)
    p.add_argument("--b", type=float, default=5.0)
    p.add_argument("--snapshot", default=None, help="path for a binary state snapshot")
    p.set_defaults(func=cmd_qa_run)

    p = sub.add_parser("master-run", help="master-equation or imaginary-time series")
    anneal(p, dt=0.01, sample_every=1000)
    p.add_argument("--mode", choices=("sa", "ca", "imag"), default="sa")
    p.add_argument("--d", type=float, default=5.0)
    p.set_defaults(func=cmd_master_run)

    p = sub.add_parser("verify", help="run the invariant battery at desk scale")
    p.add_argument("--only", default=None, help="comma-separated check names")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except (ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime invariant breach: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
