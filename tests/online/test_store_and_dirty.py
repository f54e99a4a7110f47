"""DeviceStateStore rolling semantics and dirty-region tracking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.online.dirty as dirty_module
from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    UnknownDeviceError,
)
from repro.online import DeviceStateStore, DirtyRegionTracker
from repro.online.dirty import REACH_TOL, DirtyRegion


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
        assert len(dirty) == 0 and affected.size == 0

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


def box_distance(point, lo, hi):
    """Brute-force Chebyshev distance from ``point`` to its nearest box."""
    return min(
        (
            max(0.0, max(max(l - x, x - h) for x, l, h in zip(point, a, b)))
            for a, b in zip(lo.tolist(), hi.tolist())
        ),
        default=float("inf"),
    )


@st.composite
def regions(draw):
    """A region of positions and whole cells, and probe points, in d=1-3."""
    dim = draw(st.integers(1, 3))
    cell = draw(st.sampled_from([0.05, 0.1, 0.25]))
    coord = st.floats(0.0, 1.0, allow_nan=False)
    point = st.tuples(*[coord] * dim)
    positions = draw(st.lists(point, max_size=8))
    top = int(1.0 / cell)
    cells = draw(st.lists(st.tuples(*[st.integers(0, top)] * dim), max_size=4))
    probes = draw(st.lists(point, max_size=12))
    parts = []
    if positions:
        parts.append(DirtyRegion.of_points(np.array(positions), cell))
    if cells:
        parts.append(DirtyRegion.of_cells(np.array(cells), cell))
    probes = np.array(probes, dtype=np.float64).reshape(len(probes), dim)
    return DirtyRegion.union(parts), probes


class TestDirtyRegion:
    @settings(max_examples=150, deadline=None)
    @given(regions())
    def test_distance_matches_brute_force(self, case):
        region, probes = case
        got = region.distance(probes).tolist()
        want = [box_distance(p, region.lo, region.hi) for p in probes.tolist()]
        assert got == want

    @pytest.mark.parametrize("budget", [1, 12, 60])
    def test_chunked_distance_equals_one_pass(self, budget, monkeypatch):
        # 3 boxes in d=2: budgets 1, 12 and 60 give chunks of 1, 2 and
        # 10 probes, the last of them partial over 37 probes.
        rng = np.random.default_rng(budget)
        region = DirtyRegion.union(
            [
                DirtyRegion.of_points(rng.random((2, 2)), 0.1),
                DirtyRegion.of_cells(np.array([[4, 7]]), 0.1),
            ]
        )
        probes = rng.random((37, 2))
        whole = region.distance(probes)
        monkeypatch.setattr(dirty_module, "_CHUNK_ELEMENTS", budget)
        assert region.distance(probes).tolist() == whole.tolist()
        want = [box_distance(p, region.lo, region.hi) for p in probes.tolist()]
        assert whole.tolist() == want

    def test_empty_region_is_out_of_every_reach(self):
        region = DirtyRegion.empty()
        assert len(region) == 0 and region.cells.size == 0
        assert region.distance(np.zeros((3, 2))).tolist() == [np.inf] * 3
        assert region.distance(np.zeros((0, 2))).shape == (0,)

    def test_whole_cell_covers_its_faces(self):
        cell = 0.1
        region = DirtyRegion.of_cells(np.array([[3, 5]]), cell)
        faces = np.array([[0.3, 0.5], [0.4, 0.6], [0.35, 0.6], [0.3, 0.55]])
        assert region.distance(faces).tolist() == [0.0] * 4
        outside = region.distance(np.array([[0.45, 0.55], [0.35, 0.4]]))
        assert np.allclose(outside, [0.05, 0.1])
        assert cell_set(region.cells) == {(3, 5)}

    def test_union_keeps_positions_as_one_plane(self):
        a = DirtyRegion.of_points(np.array([[0.1, 0.2], [0.3, 0.4]]), 0.1)
        b = DirtyRegion.of_points(np.array([[0.5, 0.6]]), 0.1)
        points = DirtyRegion.union([a, DirtyRegion.empty(), b])
        assert len(points) == 3 and points.hi is points.lo
        assert DirtyRegion.union([DirtyRegion.empty(), a]) is a
        mixed = DirtyRegion.union([points, DirtyRegion.of_cells(np.array([[9, 9]]), 0.1)])
        assert len(mixed) == 4 and mixed.hi is not mixed.lo
        assert np.array_equal(mixed.hi[:3], points.lo)
        assert mixed.lo[3].tolist() < mixed.hi[3].tolist()

    def test_cells_are_sorted_and_unique(self):
        pts = np.array([[0.55, 0.15], [0.12, 0.91], [0.58, 0.11], [0.12, 0.93]])
        region = DirtyRegion.of_points(pts, 0.1)
        assert region.cells.tolist() == [[1, 9], [5, 1]]

    def test_state_round_trips(self):
        cell = 0.1
        points = DirtyRegion.of_points(np.array([[0.1, 0.2], [0.7, 0.9]]), cell)
        state = points.state("carry")
        assert set(state) == {"carry_keys", "carry_lo"}
        back = DirtyRegion.from_state(state, "carry", cell)
        assert back.hi is back.lo and np.array_equal(back.lo, points.lo)
        assert np.array_equal(back.keys, points.keys)
        boxes = DirtyRegion.union(
            [points, DirtyRegion.of_cells(np.array([[2, 2]]), cell)]
        )
        state = boxes.state("carry")
        assert set(state) == {"carry_keys", "carry_lo", "carry_hi"}
        back = DirtyRegion.from_state(state, "carry", cell)
        for name in ("keys", "lo", "hi"):
            assert np.array_equal(getattr(back, name), getattr(boxes, name))
        assert DirtyRegion.empty().state("carry") == {}
        assert len(DirtyRegion.from_state({}, "carry", cell)) == 0
        # A state of cell keys alone restores whole cells.
        legacy = DirtyRegion.from_state(
            {"carry": np.array([[2, 2]], dtype=np.int64)}, "carry", cell
        )
        assert cell_set(legacy.cells) == {(2, 2)}
        assert legacy.distance(np.array([[0.25, 0.25]])).tolist() == [0.0]


class TestExactFanout:
    """:meth:`DirtyRegionTracker.finish_tick` on a store, against brute
    force: the flagged rows whose ``prev`` or ``cur`` lies within
    Chebyshev ``4r + REACH_TOL`` of a dirty box."""

    R = 0.05

    def flagged_store(self, dim, seed, n=150):
        rng = np.random.default_rng(seed)
        store = DeviceStateStore(rng.random((n, dim)), cell=2 * self.R)
        for j in rng.choice(n, size=n // 2, replace=False).tolist():
            store.apply(j, store.position(j), True)
        return store, rng

    def reference(self, store, region):
        prev, cur = store.snapshot_arrays()
        reach = 4 * self.R + REACH_TOL
        return [
            row
            for row in store.flagged_rows().tolist()
            if min(
                box_distance(prev[row].tolist(), region.lo, region.hi),
                box_distance(cur[row].tolist(), region.lo, region.hi),
            )
            <= reach
        ]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_affected_rows_match_brute_force(self, dim):
        store, rng = self.flagged_store(dim, seed=dim)
        tracker = DirtyRegionTracker(
            cell=2 * self.R, influence_radius=4 * self.R
        )
        flagged = store.flagged_devices()
        # Flagged devices planted just inside and just outside the reach
        # of a dirty position, along one axis and along the diagonal.
        anchor = np.full(dim, 0.4)
        planted = {}
        for offset in (-1e-9, 0.5e-12, 1e-9, 1e-6):
            for direction in (np.eye(dim)[0], np.ones(dim)):
                j = flagged[len(planted)]
                store.apply(j, anchor + direction * (4 * self.R + offset), True)
                planted[store.row_of(j)] = offset
        store.advance_tick()
        # Flagged movers: their own endpoints are dirty, as marked.  All
        # other dirty boxes lie in [0, 0.3]^d, beyond reach of the
        # planted devices, so only the anchor decides theirs.
        low = [j for j in flagged[len(planted) :] if store.position(j)[0] < 0.3]
        for j in low[:3]:
            tracker.mark(
                store.apply(j, 0.3 * rng.random(dim), True), was_relevant=True
            )
        region = DirtyRegion.union(
            [
                tracker.close(store),
                DirtyRegion.of_points(anchor[None], 2 * self.R),
                DirtyRegion.of_points(0.3 * rng.random((4, dim)), 2 * self.R),
                DirtyRegion.of_cells(np.zeros((1, dim), dtype=np.int64), 2 * self.R),
            ]
        )
        _, affected = tracker.finish_tick(store, region)
        want = self.reference(store, region)
        assert affected.tolist() == want
        inside = {row for row, offset in planted.items() if offset < REACH_TOL}
        assert len(inside) == 4 and inside <= set(want)
        assert not (set(planted) - inside) & set(want)
        assert 0 < len(want) < len(store.flagged_rows())

    def test_near_rows_skip_the_distance_test(self, monkeypatch):
        """Rows within one ring of a dirty cell are affected outright;
        only rings 2-3 are measured, and rows beyond them never."""
        pts = np.array(
            [[0.45, 0.45], [0.55, 0.45], [0.62, 0.45], [0.79, 0.45], [0.95, 0.45]]
        )
        store = DeviceStateStore(pts, cell=2 * self.R)
        for j in range(5):
            store.apply(j, pts[j], True)
        store.advance_tick()
        tracker = DirtyRegionTracker(
            cell=2 * self.R, influence_radius=4 * self.R
        )
        probed = []
        distance = DirtyRegion.distance

        def spy(region, points):
            probed.extend(map(tuple, points.tolist()))
            return distance(region, points)

        monkeypatch.setattr(DirtyRegion, "distance", spy)
        region = DirtyRegion.of_points(np.array([[0.45, 0.45]]), 2 * self.R)
        _, affected = tracker.finish_tick(store, region)
        # Cells 4, 5, 6, 7 and 9 of a dirty point in cell 4: rows 0 and 1
        # are sure; rows 2 and 3 are measured (0.17 within 4r = 0.2, 0.34
        # beyond it); row 4 lies past the third ring.
        assert affected.tolist() == [0, 1, 2]
        assert sorted(set(probed)) == [(0.62, 0.45), (0.79, 0.45)]

    def test_state_resumes_the_same_fan_out(self):
        store, rng = self.flagged_store(2, seed=7)
        tracker = DirtyRegionTracker(
            cell=2 * self.R, influence_radius=4 * self.R
        )
        for j in store.flagged_devices()[:4]:
            tracker.mark(store.apply(j, rng.random(2), True), was_relevant=True)
        tracker.invalidate_cells(np.array([[1, 8]], dtype=np.int64))
        twin = DirtyRegionTracker(cell=2 * self.R, influence_radius=4 * self.R)
        twin.restore_state(tracker.state())
        for _ in range(3):  # this tick, the carry, then nothing
            cells, affected = tracker.finish_tick(store)
            twin_cells, twin_affected = twin.finish_tick(store)
            assert np.array_equal(cells, twin_cells)
            assert affected.tolist() == twin_affected.tolist()
            store.advance_tick()
        assert cells.size == 0 and affected.size == 0
