"""DeviceStateStore rolling semantics and dirty-region tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    UnknownDeviceError,
)
from repro.online import DeviceStateStore, DirtyRegionTracker


def cell_set(cells):
    """A ``(k, d)`` cell-key array as a set of tuples."""
    return {tuple(key) for key in np.asarray(cells).tolist()}


def make_store(n=20, d=2, seed=0, cell=0.06):
    pts = np.random.default_rng(seed).random((n, d))
    return DeviceStateStore(pts, cell=cell), pts


class TestStoreBasics:
    def test_initial_snapshots_equal(self):
        store, pts = make_store()
        prev, cur = store.snapshot_arrays()
        assert np.array_equal(prev, pts)
        assert np.array_equal(cur, pts)
        assert prev is not cur

    def test_rejects_empty_population(self):
        with pytest.raises(DimensionMismatchError):
            DeviceStateStore(np.zeros((0, 2)), cell=0.1)

    def test_rejects_out_of_cube_positions(self):
        with pytest.raises(ConfigurationError):
            DeviceStateStore(np.full((3, 2), 1.5), cell=0.1)

    def test_unknown_device_rejected(self):
        store, _ = make_store()
        with pytest.raises(UnknownDeviceError):
            store.apply(99, [0.5, 0.5], False)


class TestApplyAndRoll:
    def test_apply_reports_motion_and_flag_change(self):
        store, pts = make_store()
        applied = store.apply(4, np.clip(pts[4] + 0.2, 0, 1), True)
        assert applied.moved and applied.flag_changed and applied.flagged
        # Re-applying the same state changes nothing.
        applied2 = store.apply(4, store.position(4), True)
        assert not applied2.moved and not applied2.flag_changed

    def test_flags_track_last_write(self):
        store, _ = make_store()
        store.apply(2, store.position(2), True)
        store.apply(7, store.position(7), True)
        store.apply(2, store.position(2), False)
        assert store.flagged_devices() == (7,)
        assert store.is_flagged(7) and not store.is_flagged(2)

    def test_advance_tick_rolls_current_into_previous(self):
        store, pts = make_store()
        new_pos = np.clip(pts[0] + 0.1, 0, 1)
        store.apply(0, new_pos, False)
        prev, cur = store.snapshot_arrays()
        assert np.array_equal(prev[0], pts[0])
        assert np.array_equal(cur[0], new_pos)
        store.advance_tick()
        prev, cur = store.snapshot_arrays()
        assert np.array_equal(prev[0], new_pos)

    def test_index_follows_current_positions(self):
        store, _ = make_store(cell=0.05)
        store.apply(1, [0.99, 0.99], False)
        assert np.allclose(store.index.position(1), [0.99, 0.99])


class TestDirtyRegionTracker:
    def make(self, r=0.03):
        cell = 2.0 * r
        return (
            DirtyRegionTracker(cell=cell, influence_radius=4.0 * r),
            cell,
        )

    def test_ring_count_covers_influence(self):
        tracker, cell = self.make()
        # rings * cell must strictly exceed the 4r influence radius.
        assert tracker.rings * cell > 4 * 0.03

    def test_unflagged_drift_is_invisible(self):
        tracker, _ = self.make()
        store, pts = make_store(cell=0.06)
        applied = store.apply(0, np.clip(pts[0] + 0.01, 0, 1), False)
        assert tracker.mark(applied, was_relevant=False) is False
        dirty, affected = tracker.finish_tick(store)
        assert len(dirty) == 0 and affected == set()

    def test_flagged_move_dirties_both_cells(self):
        tracker, _ = self.make()
        store, _ = make_store(cell=0.06)
        applied = store.apply(0, [0.9, 0.9], True)
        assert tracker.mark(applied, was_relevant=False) is True
        dirty, affected = tracker.finish_tick(store)
        assert {applied.old_cell, applied.new_cell} <= cell_set(dirty)
        assert 0 in affected

    def test_flag_toggle_without_motion_is_relevant(self):
        tracker, _ = self.make()
        store, _ = make_store(cell=0.06)
        applied = store.apply(3, store.position(3), True)
        assert tracker.mark(applied, was_relevant=False) is True

    def test_move_carries_into_next_tick(self):
        tracker, _ = self.make()
        store, _ = make_store(cell=0.06)
        applied = store.apply(0, [0.9, 0.9], True)
        tracker.mark(applied, was_relevant=False)
        dirty_now, _ = tracker.finish_tick(store)
        # No new marks: the carry from the move must still dirty the
        # trajectory's cells one tick later (prev endpoint shifted).
        dirty_next, affected = tracker.finish_tick(store)
        assert cell_set(dirty_next) == {applied.old_cell, applied.new_cell}
        assert 0 in affected
        # ... and be fully consumed after that.
        dirty_after, _ = tracker.finish_tick(store)
        assert len(dirty_after) == 0

    def test_flag_only_change_does_not_carry(self):
        tracker, _ = self.make()
        store, _ = make_store(cell=0.06)
        applied = store.apply(3, store.position(3), True)
        tracker.mark(applied, was_relevant=False)
        tracker.finish_tick(store)
        dirty_next, _ = tracker.finish_tick(store)
        assert len(dirty_next) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            DirtyRegionTracker(cell=0.0, influence_radius=0.1)
        with pytest.raises(ConfigurationError):
            DirtyRegionTracker(cell=0.1, influence_radius=-1.0)
