"""Columnar store benchmarks: SoA tick overhead vs the per-device path.

The asserted claim, at ``n ∈ {10k, 100k}`` with 1% per-tick churn: the
non-verdict portion of a steady-state tick — snapshot diff, state
apply, dirty-region marking, snapshot roll — is at least 2x faster (at
``n = 100k``) through the columnar path (:func:`diff_rows` +
:meth:`~repro.online.store.DeviceStateStore.apply_rows` +
:meth:`~repro.online.dirty.DirtyRegionTracker.mark_batch`) than through
the per-device compatibility path (:func:`diff_updates` building
:class:`QosUpdate` objects, one :meth:`apply` / :meth:`mark` per
device, list-of-bool flag vectors) that mirrors the pre-refactor object
store.  Rows also record the store's columnar bytes per device.

The ``store_rebuild`` row times what a restart pays for the store at
``n = 100k``: the constructor, :meth:`~DeviceStateStore.from_state` (a
checkpoint restore) and :meth:`~DeviceStateStore.adopt_planes` (a shard
respawn over its shm planes), each the median (and p95) of
``REBUILD_REPEATS`` runs.  All three derive the grid index and the id→row
map from the columns.

Every run appends one row to ``_SUMMARY_ROWS``; after the module,
``benchmarks/conftest.py`` writes them to the path in
``BENCH_STORE_JSON`` when that variable is set. CI uploads it as a
workflow artifact.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pytest

from repro.online import DeviceStateStore
from repro.online.dirty import DirtyRegionTracker
from repro.online.replay import diff_rows, diff_updates
from repro.online.store import attach_store_planes, shm_planes_factory

#: (n, churn, required speedup) grid.  The ISSUE gate is 2x at 100k;
#: the smaller scale only has to not regress.
SCALES = [(10_000, 0.01, 1.2), (100_000, 0.01, 2.0)]

R = 0.015
CELL = 0.06
TICKS = 4
REBUILD_N = 100_000
REBUILD_REPEATS = 7

_SUMMARY_ROWS: list = []


def _stream(n, churn, *, seed=0):
    """Pre-generate identical per-tick snapshots for both paths."""
    rng = np.random.default_rng(seed)
    base = rng.random((n, 2))
    positions = base.copy()
    snapshots = []
    k = max(1, int(round(churn * n)))
    for _ in range(TICKS):
        movers = rng.choice(n, size=k, replace=False)
        positions[movers] = np.clip(
            positions[movers] + rng.normal(0.0, 0.01, (k, 2)), 0.0, 1.0
        )
        snapshots.append(positions.copy())
    return base, snapshots


def _run_columnar(base, snapshots):
    """One steady tick = diff_rows + apply_rows + mark_batch + roll."""
    store = DeviceStateStore(base, cell=CELL)
    tracker = DirtyRegionTracker(cell=CELL, influence_radius=4 * R)
    flags = np.zeros(base.shape[0], dtype=bool)
    start = time.perf_counter()
    for snapshot in snapshots:
        rows, positions, new_flags = diff_rows(
            store.current_positions(), snapshot, store.flag_vector(), flags
        )
        applied = store.apply_rows(rows, positions, new_flags)
        tracker.mark_batch(applied, was_relevant=applied.was_flagged)
        tracker.finish_tick(store)
        store.advance_tick()
    return time.perf_counter() - start, store


def _run_per_device(base, snapshots):
    """The pre-refactor shape: per-device objects end to end.

    Flag state travels as an n-length list of bools, the diff builds one
    :class:`QosUpdate` per changed device, and the store/tracker are fed
    one device at a time through the compatibility shims.
    """
    store = DeviceStateStore(base, cell=CELL)
    tracker = DirtyRegionTracker(cell=CELL, influence_radius=4 * R)
    n = base.shape[0]
    flags = [False] * n
    previous = base.copy()
    start = time.perf_counter()
    for snapshot in snapshots:
        stored_flags = [store.is_flagged(j) for j in range(n)]
        for update in diff_updates(previous, snapshot, stored_flags, flags):
            applied = store.apply(
                update.device, update.position, update.flagged
            )
            tracker.mark(applied, was_relevant=applied.flag_changed)
        tracker.finish_tick(store)
        store.advance_tick()
        previous = snapshot
    return time.perf_counter() - start, store


@pytest.mark.parametrize("n,churn,required", SCALES)
def test_columnar_tick_beats_per_device_path(n, churn, required):
    base, snapshots = _stream(n, churn)

    def best_of(runner, repeats=2):
        best, store = float("inf"), None
        for _ in range(repeats):
            elapsed, store = runner(base, snapshots)
            best = min(best, elapsed)
        return best, store

    columnar_time, columnar_store = best_of(_run_columnar)
    per_device_time, per_device_store = best_of(_run_per_device)

    # Both paths must land the stores in the same state — the speedup is
    # not allowed to come from skipped work.
    assert np.array_equal(
        columnar_store.current_positions(), per_device_store.current_positions()
    )
    assert np.array_equal(
        columnar_store.snapshot_arrays()[0], per_device_store.snapshot_arrays()[0]
    )

    speedup = per_device_time / columnar_time
    assert speedup >= required, (
        f"columnar {columnar_time * 1e3:.1f}ms only {speedup:.1f}x over "
        f"per-device {per_device_time * 1e3:.1f}ms at n={n} (need {required}x)"
    )
    _SUMMARY_ROWS.append(
        {
            "claim": "tick_overhead",
            "n": n,
            "churn": churn,
            "ticks": TICKS,
            "columnar_seconds": columnar_time,
            "per_device_seconds": per_device_time,
            "speedup": speedup,
            "bytes_per_device": columnar_store.bytes_per_device,
        }
    )


def test_store_rebuild_row():
    """Constructor, checkpoint restore and shm respawn of a 100k store."""
    pts = np.random.default_rng(0).random((REBUILD_N, 2))
    source = DeviceStateStore(pts, cell=CELL, planes_factory=shm_planes_factory())
    state = source.state()
    paths = {
        "init": lambda: DeviceStateStore(pts, cell=CELL),
        "from_state": lambda: DeviceStateStore.from_state(state),
        "adopt_planes": lambda: DeviceStateStore.adopt_planes(
            attach_store_planes(source.planes.name, source.planes.capacity, 2),
            cell=CELL,
        ),
    }
    row = {
        "claim": "store_rebuild",
        "n": REBUILD_N,
        "repeats": REBUILD_REPEATS,
        "bytes_per_device": source.bytes_per_device,
        "cpu_count": os.cpu_count(),
    }
    try:
        for name, build in paths.items():
            samples = []
            for _ in range(REBUILD_REPEATS):
                start = time.perf_counter()
                store = build()
                samples.append(time.perf_counter() - start)
                assert store.n == REBUILD_N
                if name == "adopt_planes":
                    store.release_planes(unlink=False)
                del store
            row[f"{name}_seconds"] = statistics.median(samples)
            row[f"{name}_p95_seconds"] = float(np.percentile(samples, 95))
    finally:
        source.release_planes(unlink=True)
    _SUMMARY_ROWS.append(row)


def test_summary_rows_schema():
    """Rows carry what the CI artifact consumers expect."""
    for row in _SUMMARY_ROWS:
        assert {"claim", "n", "bytes_per_device"} <= set(row)
        assert row["bytes_per_device"] > 0
        if row["claim"] == "tick_overhead":
            assert {"churn", "speedup"} <= set(row)
            assert row["speedup"] > 1.0
        else:
            for name in ("init", "from_state", "adopt_planes"):
                assert 0 < row[f"{name}_seconds"] <= row[f"{name}_p95_seconds"]
