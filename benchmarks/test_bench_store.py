"""Columnar store benchmark: what a restart pays to rebuild the store.

The ``store_rebuild`` row times three builds of a ``n = 100k`` store:
the constructor, :meth:`~DeviceStateStore.from_state` (a checkpoint
restore) and :meth:`~DeviceStateStore.adopt_planes` (a shard respawn
over its shm planes), each the median (and p95) of
``REBUILD_REPEATS`` runs.  All three derive the cell-key column and the
id→row map from the columns.  The row also records the store's columnar
bytes per device.

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

from repro.online import DeviceStateStore
from repro.online.store import attach_store_planes, shm_planes_factory

CELL = 0.06
REBUILD_N = 100_000
REBUILD_REPEATS = 7

_SUMMARY_ROWS: list = []


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
        for name in ("init", "from_state", "adopt_planes"):
            assert 0 < row[f"{name}_seconds"] <= row[f"{name}_p95_seconds"]
