"""The fixed-step clock shared by every evolution.

Every fixed-step evolution (QA, imaginary time, the master equation, the
soft-spin ensembles) walks one step iterator, `_fixed_steps`, which builds the
per-step coefficients for chunks of steps that fit in TABLE_BYTES.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .graph import _check_count, _check_nonnegative, _check_positive

TABLE_BYTES = 1 << 18  # coefficients per chunk of steps: 256 KB; SA and CA run slower below it


def _step_count(t_end: float, dt: float) -> int:
    """round(t_end / dt), the steps from t = 0 to t_end; ValueError when t_end / dt overflows."""
    steps = t_end / dt
    if not steps < np.inf:
        raise ValueError(f"the step count t_end / dt overflows: dt = {dt}, t_end = {t_end}")
    return int(round(steps))


def _time_grid(dt: float, t_end: float, sample_every: int):
    """Lazy "sampled" flags of the round(t_end / dt) steps: every sample_every-th and the last.

    Raises ValueError at the call unless finite dt > 0, finite t_end >= 0 and sample_every >= 1.
    """
    _check_positive("dt", dt)
    _check_nonnegative("t_end", t_end)
    steps = _step_count(t_end, dt)
    _check_count("sample_every", sample_every, 1)
    return ((step + 1) % sample_every == 0 or step == steps - 1 for step in range(steps))


def _chunk_times(grid, dt: float, step_bytes: int):
    """(flags, ts) per chunk of max(1, TABLE_BYTES // step_bytes) steps of a flag iterator.

    flags holds the chunk's flags as bytes, one byte (0 or 1) per step, and
    ts the chunk's start time and the times after its steps, summed as the
    scalar t += dt sums them.
    """
    chunk = max(1, TABLE_BYTES // step_bytes)
    t = 0.0
    while flags := bytes(islice(grid, chunk)):
        ts = np.full(len(flags) + 1, dt)
        ts[0] = t
        t = np.add.accumulate(ts, out=ts)[-1]
        yield flags, ts


def _fixed_steps(grid, dt: float, step_bytes: int, coefficients):
    """(t, sampled, *coefficients(ts)) for every step of a flag iterator such as `_time_grid`.

    coefficients(ts) gives the per-step tables of each chunk of `_chunk_times`;
    they take step_bytes bytes per step.  A chunk holds no Python object per
    step: each t is made as the step comes, a float read through a
    memoryview of ts, and sampled is 0 or 1 from the flags' bytes.
    """
    for flags, ts in _chunk_times(grid, dt, step_bytes):
        yield from zip(memoryview(ts)[1:], flags, *coefficients(ts))
