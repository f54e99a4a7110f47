"""One-device reads and writes of a :class:`DeviceStateStore`, for tests.

The store changes only in row batches.  These helpers phrase a single
device's report as a one-row :meth:`~DeviceStateStore.apply_rows` batch
and read one device back through the store's columns, so a test drives
exactly the calls the service makes.
"""

from __future__ import annotations

import numpy as np

from repro.online.store import AppliedBatch, DeviceStateStore


def apply_one(
    store: DeviceStateStore, device: int, position, flagged: bool
) -> AppliedBatch:
    """Apply one device's report as a one-row batch."""
    return store.apply_rows(
        np.array([store.row_of(device)], dtype=np.int64),
        np.asarray(position, dtype=float).reshape(1, -1),
        np.array([bool(flagged)]),
    )


def admit_one(
    store: DeviceStateStore, device: int, prev, cur, flagged: bool, code: int
) -> int:
    """Admit one device mid-trajectory as a one-row batch; its row."""
    rows = store.admit_rows(
        np.array([device], dtype=np.int64),
        np.asarray(prev, dtype=float).reshape(1, -1),
        np.asarray(cur, dtype=float).reshape(1, -1),
        np.array([bool(flagged)]),
        np.array([code], dtype=np.int8),
    )
    return int(rows[0])


def mark_one(tracker, store, device, position, flagged, *, was_relevant) -> int:
    """Apply one report and mark it on ``tracker``; the relevant count."""
    batch = apply_one(store, device, position, flagged)
    return tracker.mark_batch(batch, was_relevant=np.array([bool(was_relevant)]))


def position_of(store: DeviceStateStore, device: int) -> np.ndarray:
    """Current position of ``device`` (a copy)."""
    return store.current_positions()[store.row_of(device)].copy()


def flag_of(store: DeviceStateStore, device: int) -> bool:
    """Current flag bit of ``device``."""
    return bool(store.flag_vector()[store.row_of(device)])


def cell_of(store: DeviceStateStore, device: int) -> tuple:
    """The grid cell holding ``device``, from the store's key column."""
    return tuple(store.index.key_column()[store.row_of(device)].tolist())


def assert_keys_match_positions(store: DeviceStateStore) -> None:
    """Every occupied row's cell key is ``floor(cur / cell)``."""
    rows = np.flatnonzero(np.asarray(store.row_ids()) >= 0)
    cur = store.current_positions()
    keys = store.index.key_column()
    want = np.floor(cur[rows] / store.index.cell).astype(np.int64)
    assert np.array_equal(keys[rows], want)
