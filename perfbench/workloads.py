"""The benchmark's four workloads: isinglab CLI commands and their output checks.

Each workload is a list of `isinglab` commands, run in order through
`isinglab.cli.main(argv)` in one process: a closed loop with one client, where
each command starts when the previous one returns.  Sweeps pass
`--threads 1`, so no worker processes start.  Stochastic commands take their
seed from the benchmark's `--seed`; the others are deterministic.

Every output file is parsed and checked.  Deterministic values are compared
with references recorded at the seed commit (`reference.json`) to 1e-12, the
tolerance that restructured deterministic evolutions must meet.  Seeded
stochastic values are checked against bounds that hold for any seed.  A check
returns the physics results it read, which are recorded next to the timings
so that a speed-up which shifts a result shows.

`tiny=True` builds the same commands at sizes that run in about a second,
with structural checks only; the benchmark's own tests use it.

Why these four (seed-commit costs of one pass on a shared 2-core Xeon with
one BLAS thread; the per-workload docstrings give the detail):

- `sweep-n8`: nearly all time in the soft-spin ensemble (~15 s).
- `exact-n8`: nearly all time in master-equation RK4 over 256 states (~3 s).
- `statevec-n20`: the quantum layer on 2^20 amplitudes plus the n = 24
  oracle; the only workload where peak memory matters (~6.5 s, ~475 MB).
- `landscape-n8`: fixed-pump descent, Newton and barrier searches (~5 s).

Sizes are kept to a few seconds per command where the physics allows, so
that a timed run of 25 s holds several samples of every command: the
machines this runs on change speed over minutes, and a median over many
samples spread across the run moves less with that than one long sample.
The `sweep` command is the exception: its ensembles are vectorised over
runs, so its cost is mostly the per-step overhead of six ensemble calls
(200 runs took ~60 % of the time of 500), and it stays at the full size.

The public kernels `quantum.strang_step`, `master.sa_generator_apply` and
`master.ca_generator_apply` are not on the path these workloads execute, so
the benchmark times the entry points that the CLI calls instead of them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TOLERANCE = 1e-12


@functools.cache
def reference() -> dict:
    """Deterministic outputs recorded at the seed commit."""
    return json.loads(Path(__file__).with_name("reference.json").read_text())


class CheckFailed(Exception):
    """An output file is missing, malformed, or holds a wrong value."""


@dataclass
class Command:
    label: str
    argv: list[str]                 # arguments of isinglab.cli.main, --out included
    output: Path
    check: Callable[[Path], dict]   # raises CheckFailed; returns recorded results


def command(work: Path, label: str, argv: list[str], output: str, check) -> Command:
    """A command writing `output` in the work directory."""
    path = work / output
    return Command(label, [*argv, "--out", str(path)], path, check)


# ---------------------------------------------------------------------------
# output parsing and check helpers
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[dict, list[dict]]:
    """(protocol parameters, rows as dicts of strings) of an isinglab CSV file."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc.strerror}") from None
    if len(lines) < 3 or not lines[0].startswith("# protocol=") or not lines[1].startswith("# "):
        raise CheckFailed(f"{path.name}: missing protocol header")
    params = {}
    for item in lines[1][2:].split():
        key, sep, value = item.partition("=")
        if not sep:
            raise CheckFailed(f"{path.name}: malformed parameter {item!r}")
        params[key] = value
    header = lines[2].split(",")
    rows = []
    for line in lines[3:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckFailed(f"{path.name}: row has {len(cells)} cells, header {len(header)}")
        rows.append(dict(zip(header, cells)))
    if not rows:
        raise CheckFailed(f"{path.name}: no data rows")
    return params, rows


def number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what} = {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{what} = {value} is not finite")
    return value


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expect_probability(value: float, what: str) -> None:
    expect(0.0 <= value <= 1.0, f"{what} = {value!r} outside [0, 1]")


def expect_reference(value: float, key: str) -> None:
    ref = reference()[key]
    expect(abs(value - ref) <= TOLERANCE,
           f"{key} = {value!r}, reference {ref!r}, deviation {abs(value - ref):.3e} > {TOLERANCE}")


def final_p_gs(path: Path, column: str, what: str, reference: str | None) -> dict:
    """Check the last row's ground-state probability of a time series."""
    _, rows = read_csv(path)
    value = number(rows[-1].get(column, ""), what)
    expect_probability(value, what)
    if reference is not None:
        expect_reference(value, reference)
    return {what: value}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

SWEEP_VARIANTS = ["ht", "cim1", "cim2", "cim3", "qa"]


def sweep_n8(seed: int, work: Path, tiny: bool = False) -> list[Command]:
    """`isinglab sweep`, n = 8, j = 0.35, five variants, 500 runs.

    j = 0.35 lies in the hard region between j_e = 0.293 and j_crit = 0.5,
    where the leading eigenvector disagrees with the ground state.  About 97 %
    of the time is `softspin.run_ensemble` over five calls, including the
    950-run batch of `tune_delta` (19 grid points x `prelim_runs` 50).  The
    soft-spin ensemble does almost all the work here and almost none in the
    other workloads, so a soft-spin kernel change shows here and nowhere else.
    """
    config = {"instance": {"n": 8, "j": 0.35}, "variants": SWEEP_VARIANTS,
              "runs": 500, "cim3": {"prelim_runs": 50}}
    if tiny:
        config.update(runs=20, cim3={"prelim_runs": 4},
                      softspin={"t_end": 200.0}, qa={"t_end": 5.0})
    config_path = work / "sweep.json"
    config_path.write_text(json.dumps(config))

    def check(path: Path) -> dict:
        _, rows = read_csv(path)
        variants = [r["variant"] for r in rows]
        expect(sorted(variants) == sorted(SWEEP_VARIANTS), f"sweep rows {variants}")
        p = {r["variant"]: number(r["p_gs"], f"p_gs[{r['variant']}]") for r in rows}
        for variant, value in p.items():
            expect_probability(value, f"p_gs[{variant}]")
        results = {f"p_gs.{v}": p[v] for v in SWEEP_VARIANTS}
        results["cim3.delta"] = number(next(r["delta"] for r in rows if r["variant"] == "cim3"),
                                       "cim3 delta")
        if not tiny:
            expect(p["cim3"] >= p["cim1"],
                   f"cim3 p_gs {p['cim3']} < cim1 p_gs {p['cim1']} at j = 0.35")
            expect_reference(p["qa"], "sweep-n8.qa.p_gs")
        return results

    return [command(work, "sweep", ["sweep", "--config", str(config_path), "--seed", str(seed),
                                    "--threads", "1"], "sweep.csv", check)]


CRITERION_9_FIELD = ["--h0", "0.05", "--h1", "0.05"]


def exact_n8(seed: int, work: Path, tiny: bool = False) -> list[Command]:
    """The criterion-9 instance (n = 8, j = 0.35, field 0.05 / 0.05), four evolutions.

    `qa-run` to t = 500 and `master-run` in `sa` mode to t = 25, `ca` to
    t = 5 and `imag` (dt 0.1) to t = 500.  All are deterministic; `seed` is
    unused.  The master equation dominates: RK4 steps over 256 states, bound
    by per-step overhead (SA ~0.8 s, CA ~0.8 s, QA ~0.8 s, imag ~0.4 s at
    the seed commit).  Lumping CA by energy level or vectorizing SA shows
    only here.  QA runs 5000 short steps, the opposite regime to
    `statevec-n20`.  The SA and CA end times are shortened from t = 500
    (CA alone would take ~97 s) to about a second each, so that a run holds
    many samples; the cost per step does not depend on t.
    """
    t = {"qa": "500", "sa": "25", "ca": "5", "imag": "500"}
    if tiny:
        t = {"qa": "10", "sa": "0.5", "ca": "0.2", "imag": "10"}
    base = ["--n", "8", "--j", "0.35", *CRITERION_9_FIELD]
    ref = None if tiny else "exact-n8.{}.p_gs"
    commands = [command(work, "qa-run", ["qa-run", *base, "--t-end", t["qa"]], "qa.csv",
                        lambda path: final_p_gs(path, "p_gs_total", "p_gs.qa",
                                                ref and ref.format("qa")))]
    for mode, extra in (("sa", []), ("ca", []), ("imag", ["--dt", "0.1"])):
        commands.append(command(
            work, f"master-run-{mode}",
            ["master-run", "--mode", mode, *base, *extra, "--t-end", t[mode]], f"{mode}.csv",
            lambda path, mode=mode: final_p_gs(path, "p_gs", f"p_gs.{mode}",
                                               ref and ref.format(mode))))
    return commands


def statevec_n20(seed: int, work: Path, tiny: bool = False) -> list[Command]:
    """Few long steps over 2^20 amplitudes, then the n = 24 oracle.

    n = 20, j = 0.15 (in the hard region for n = 20 and n = 24), field
    0.05 / 0.05: `qa-run` for 10 steps with `--sample-every 10` and
    `master-run --mode imag` for 10 steps, then `oracle --n 24`, which
    enumerates all 2^24 energies twice (`exhaustive_ground_state` and
    `ground_state_projector`).  Deterministic; `seed` is unused.  At the seed
    commit `qa-run` takes ~3.6 s, imag ~1.7 s and the oracle ~1.2 s, at a
    peak RSS of ~475 MB; ten steps are enough to make the per-step work
    dominate, and short enough for several samples a run.  The only workload
    where the oracle and peak memory matter; at these sizes memory sets the
    largest instance that fits.
    """
    n, n_oracle, t_end = ("12", "12", "0.4") if tiny else ("20", "24", "1")
    base = ["--n", n, "--j", "0.15", *CRITERION_9_FIELD, "--dt", "0.1", "--t-end", t_end]
    ref = None if tiny else "statevec-n20.{}.p_gs"

    def check_oracle(path: Path) -> dict:
        _, rows = read_csv(path)
        values = {r["quantity"]: r["value"] for r in rows}
        energy = number(values.get("ground_energy", ""), "ground_energy")
        degeneracy = int(number(values.get("degeneracy", ""), "degeneracy"))
        indices = values.get("ground_indices", "")
        expect(len(indices.split(";")) == degeneracy,
               f"ground_indices {indices!r} do not match degeneracy {degeneracy}")
        if not tiny:
            expect_reference(energy, "statevec-n20.oracle.ground_energy")
            ref_degeneracy = reference()["statevec-n20.oracle.degeneracy"]
            ref_indices = reference()["statevec-n20.oracle.ground_indices"]
            expect(degeneracy == ref_degeneracy,
                   f"degeneracy {degeneracy}, reference {ref_degeneracy}")
            expect(indices == ref_indices,
                   f"ground_indices {indices!r}, reference {ref_indices!r}")
        return {"oracle.ground_energy": energy, "oracle.degeneracy": degeneracy,
                "oracle.ground_indices": indices}

    return [
        command(work, "qa-run", ["qa-run", *base, "--sample-every", "10"], "qa.csv",
                lambda path: final_p_gs(path, "p_gs_total", "p_gs.qa", ref and ref.format("qa"))),
        command(work, "master-run-imag", ["master-run", "--mode", "imag", *base], "imag.csv",
                lambda path: final_p_gs(path, "p_gs", "p_gs.imag", ref and ref.format("imag"))),
        command(work, "oracle", ["oracle", "--n", n_oracle, "--j", "0.15"], "oracle.csv",
                check_oracle),
    ]


CRITERION_6_ORDER = ["S0", "S1", "2-defect(sep=3)", "2-defect(sep=2)", "4-defect"]


def landscape_n8(seed: int, work: Path, tiny: bool = False) -> list[Command]:
    """The criterion-5/6 instance (n = 8, j = 0.4, fixed pump p = 2.0).

    `basins --samples 10000`, `critical --starts 10000` and
    `branches --what barrier --p-grid=-0.5,0.0,0.5 --starts 1000` (~5 s at
    the seed commit, mostly `basin_sample` then `find_critical_points`).
    10000 basin samples bound the excited:ground ratio to about +-0.1, well
    inside the criterion-5 window.  The
    only workload that calls `landscape`; it uses `soft_gradient` at a fixed
    pump with batched Newton and `eigvalsh` instead of the annealed Euler
    ensemble, so a change to the shared soft-spin kernel shows a different
    share here than on `sweep-n8`.  Checks are criterion 5 (excited:ground
    in [3.2, 4.8], under 0.5 % unresolved) and criterion 6 (the five minimum
    families in energy order), which hold for any seed at these sizes.
    """
    samples, starts, barrier_starts = ("300", "200", "60") if tiny else ("10000", "10000", "1000")
    p_grid = [-0.5, 0.0, 0.5]
    base = ["--j", "0.4", "--seed", str(seed)]

    def check_basins(path: Path) -> dict:
        params, rows = read_csv(path)
        expect(len(rows) == int(samples), f"basins: {len(rows)} rows for {samples} samples")
        unresolved = int(number(params.get("unresolved", ""), "unresolved"))
        ground = sum(r["is_ground"] == "1" for r in rows)
        excited = sum(r["is_ground"] == "0" for r in rows)
        expect(ground + excited + unresolved == len(rows), "basins: labels do not add up")
        ratio = excited / ground if ground else math.inf
        if not tiny:
            expect(3.2 <= ratio <= 4.8, f"basins excited:ground = {ratio:.4f} outside [3.2, 4.8]")
            expect(unresolved < 0.005 * len(rows),
                   f"basins unresolved = {unresolved} of {len(rows)}, not under 0.5 %")
        return {"basins.excited_to_ground": ratio, "basins.unresolved": unresolved}

    def check_critical(path: Path) -> dict:
        _, rows = read_csv(path)
        minima: dict[str, float] = {}
        by_index: dict[str, int] = {}
        for r in rows:
            by_index[r["index"]] = by_index.get(r["index"], 0) + 1
            if r["index"] == "0":
                energy = number(r["energy"], "critical energy")
                minima[r["family"]] = min(energy, minima.get(r["family"], math.inf))
        energies = [minima.get(f, math.inf) for f in CRITERION_6_ORDER]
        if not tiny:
            missing = [f for f in CRITERION_6_ORDER if f not in minima]
            expect(not missing, f"critical: minimum families missing {missing}")
            expect(all(a < b for a, b in zip(energies, energies[1:])),
                   f"critical: family energies {energies} not in criterion-6 order")
        return {"critical.points": len(rows),
                "critical.by_index": dict(sorted(by_index.items(), key=lambda kv: int(kv[0]))),
                "critical.minimum_energies": {f: minima[f] for f in CRITERION_6_ORDER
                                              if f in minima}}

    def check_barrier(path: Path) -> dict:
        _, rows = read_csv(path)
        expect([number(r["p"], "p") for r in rows] == p_grid, "barrier: p grid mismatch")
        barriers = {}
        for r in rows:
            if r["found"] == "1":
                barrier = number(r["barrier"], f"barrier at p = {r['p']}")
                expect(barrier > 0.0, f"barrier at p = {r['p']} is {barrier}, not positive")
                barriers[r["p"]] = barrier
        return {"barrier.heights": barriers}

    grid = ",".join(str(p) for p in p_grid)
    return [
        command(work, "basins", ["basins", *base, "--p", "2.0", "--samples", samples],
                "basins.csv", check_basins),
        command(work, "critical", ["critical", *base, "--p", "2.0", "--starts", starts],
                "critical.csv", check_critical),
        command(work, "branches", ["branches", "--what", "barrier", *base, f"--p-grid={grid}",
                                   "--starts", barrier_starts], "barrier.csv", check_barrier),
    ]


WORKLOADS = {
    "sweep-n8": sweep_n8,
    "exact-n8": exact_n8,
    "statevec-n20": statevec_n20,
    "landscape-n8": landscape_n8,
}
