"""Flagged-only dirty-region fan-out over integer cell keys.

The tick tests only the rows that can be verdict targets (the flagged
devices) against the tick's dirty cells, through
:func:`~repro.core.geometry.cells_within_rings`: a linearized
``(2 rings + 1)^d`` stencil plus ``searchsorted``, with a brute-force
Chebyshev fallback where the codes would overflow int64.  Every check
here compares against a test-local brute-force reference:

* the primitives themselves (the ring test and the cell-set union), on
  random key sets in dims 1-3 with rings 0-4,
  empty probe/cell sets, keys at cell 0 and at the cube's top cell, and
  both fallback routes (forced, and a genuinely tiny cell in d=3);
* the single service and the inline-sharded service on randomized
  streams with churn and LIFO-recycled ids: on every tick the affected
  set must equal "devices within ``rings`` cells of a dirty cell"
  intersected with the verdict targets (and the two topologies must
  agree on every verdict).

Store fixes ride along: a ``join`` / ``leave`` between ticks must drop
the service's chained ``prev`` copy, a flagged join / leave must dirty
its cells even when nothing else moves (checkpoints included), and a
store restored into shared memory must write its placement into the
shm ``shard`` column.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.geometry as geometry
from repro.core.errors import ConfigurationError
from repro.core.geometry import cells_within_rings, unique_cells
from repro.online import (
    DeviceStateStore,
    MutableGridIndex,
    OnlineCharacterizationService,
    QosUpdate,
    ServiceConfig,
    ShardedService,
)
from repro.online.sharded import HaloTransitionBuildStage
from repro.online.stages import DirtyRegionStage
from repro.online.store import shm_planes_factory


def reference_near(probes, cells, rings):
    """Brute-force Chebyshev test, one pure-Python comparison per pair."""
    return [
        any(
            max(abs(a - b) for a, b in zip(probe, cell)) <= rings
            for cell in cells
        )
        for probe in probes
    ]


def as_keys(keys, dim):
    return np.asarray(keys, dtype=np.int64).reshape(len(keys), dim)


@st.composite
def key_sets(draw):
    dim = draw(st.integers(1, 3))
    top = draw(st.sampled_from([0, 1, 7, 16, 40]))
    key = st.tuples(*[st.integers(0, top)] * dim)
    probes = draw(st.lists(key, max_size=25))
    cells = draw(st.lists(key, max_size=25))
    # Cell 0 and the top cell of the cube, on either side.
    corners = [(0,) * dim, (top,) * dim]
    if draw(st.booleans()):
        probes += corners
    if draw(st.booleans()):
        cells += corners
    rings = draw(st.integers(0, 4))
    return dim, probes, cells, rings


class TestCellsWithinRings:
    @settings(max_examples=200, deadline=None)
    @given(key_sets())
    def test_matches_brute_force(self, case):
        dim, probes, cells, rings = case
        got = cells_within_rings(as_keys(probes, dim), as_keys(cells, dim), rings)
        assert got.tolist() == reference_near(probes, cells, rings)

    @settings(max_examples=60, deadline=None)
    @given(key_sets())
    def test_forced_fallback_matches_brute_force(self, case):
        dim, probes, cells, rings = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_CODE_LIMIT", 1)
            got = cells_within_rings(
                as_keys(probes, dim), as_keys(cells, dim), rings
            )
        assert got.tolist() == reference_near(probes, cells, rings)

    def test_empty_sets(self):
        some = np.array([[0, 0], [3, 4]], dtype=np.int64)
        none = np.empty((0, 2), dtype=np.int64)
        assert cells_within_rings(none, some, 2).shape == (0,)
        assert cells_within_rings(some, none, 2).tolist() == [False, False]
        # A width-less empty cell set (an idle tracker's) is just empty.
        idle = np.empty((0, 0), dtype=np.int64)
        assert cells_within_rings(some, idle, 2).tolist() == [False, False]

    def test_rejects_negative_rings(self):
        some = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(ConfigurationError):
            cells_within_rings(some, some, -1)

    def test_tiny_cell_in_3d_takes_the_fallback(self):
        rng = np.random.default_rng(11)
        cell = 1e-7
        pts = rng.random((300, 3))
        pts[0] = 0.0
        pts[1] = 1.0
        index = MutableGridIndex.from_points(pts, cell)
        keys = np.floor(pts / cell).astype(np.int64)
        dirty = np.concatenate([keys[:2], keys[5:40] + 2])
        span = np.maximum(keys.max(axis=0), dirty.max(axis=0)) - np.minimum(
            keys.min(axis=0), dirty.min(axis=0)
        )
        assert geometry._row_major_strides(span + 9) is None
        rows = np.arange(300, dtype=np.int64)
        for rings in (0, 2, 4):
            got = index.rows_near_cells(rows, dirty, rings).tolist()
            want = reference_near(keys.tolist(), dirty.tolist(), rings)
            assert got == [int(r) for r in rows[np.asarray(want)]]


class TestUniqueCells:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(
                st.tuples(*[st.integers(-3, 60)] * dim), max_size=40
            ).map(lambda keys: as_keys(keys, dim))
        ),
        st.booleans(),
    )
    def test_matches_rowwise_unique(self, keys, force_fallback):
        with pytest.MonkeyPatch.context() as mp:
            if force_fallback:
                mp.setattr(geometry, "_CODE_LIMIT", 1)
            got = unique_cells(keys)
        assert np.array_equal(got, np.unique(keys, axis=0))


def near_rows(positions, rows, cell, dirty, rings):
    """Test-local ``devices_near_cells``: rows near a dirty cell, brute force."""
    if len(dirty) == 0 or len(rows) == 0:
        return set()
    keys = np.floor(positions[rows] / cell).astype(np.int64)
    dist = np.abs(keys[:, None, :] - np.asarray(dirty)[None, :, :]).max(axis=2)
    return set(np.asarray(rows)[(dist <= rings).any(axis=1)].tolist())


def churn_stream(rng, single, sharded, ticks, n):
    """Random walk + join/leave with LIFO-recycled ids; yields per tick.

    Freed ids come back LIFO, so on the single service a recycled id
    lands on its recycled row (its transition is row-indexed).  Some
    moves pin a coordinate to the cube's faces (cells 0 and top).
    """
    pos = {j: single.store.position(j) for j in range(n)}
    free_ids = []
    for _ in range(ticks):
        for _ in range(int(rng.integers(0, 3))):
            gone = int(rng.choice(sorted(pos)))
            single.store.leave(gone)
            if sharded is not None:
                sharded.leave(gone)
            del pos[gone]
            free_ids.append(gone)
        while free_ids and rng.random() < 0.6:
            j = free_ids.pop()
            p = rng.random(2)
            f = bool(rng.random() < 0.5)
            single.store.join(j, p, f)
            if sharded is not None:
                sharded.join(j, tuple(p), f)
            pos[j] = p
        movers = rng.choice(sorted(pos), size=min(len(pos), 15), replace=False)
        for j in movers.tolist():
            step = rng.normal(0, 0.04 if rng.random() < 0.8 else 0.3, 2)
            pos[j] = np.clip(pos[j] + step, 0, 1)
            if rng.random() < 0.1:
                pos[j][int(rng.integers(2))] = float(rng.integers(2))
            update = QosUpdate(j, tuple(pos[j]), bool(rng.random() < 0.45))
            single.ingest(update)
            if sharded is not None:
                sharded.ingest(update)
        yield


def verdict_view(tick):
    return {
        device: (v.anomaly_type, v.rule, v.witness)
        for device, v in tick.verdicts.items()
    }


class TestFlaggedOnlyFanout:
    CFG = ServiceConfig(r=0.04, tau=2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_service_affected_matches_reference(self, seed, monkeypatch):
        checked = []
        original = DirtyRegionStage.run

        def run(stage, ctx, tracer):
            original(stage, ctx, tracer)
            store = stage._owner.store
            alive = np.nonzero(np.asarray(store.row_ids()) >= 0)[0]
            flagged = set(store.flagged_rows().tolist())
            want = near_rows(
                np.asarray(store.current_positions()),
                alive,
                self.CFG.cell,
                ctx.dirty_cells,
                stage._owner.tracker.rings,
            )
            assert ctx.affected == want & flagged
            checked.append(len(ctx.affected))

        monkeypatch.setattr(DirtyRegionStage, "run", run)
        rng = np.random.default_rng(seed)
        n = 60
        svc = OnlineCharacterizationService(rng.random((n, 2)), self.CFG)
        with svc:
            for _ in churn_stream(rng, svc, None, 12, n):
                svc.end_tick()
        assert len(checked) == 12 and sum(checked) > 0

    def test_sharded_affected_matches_reference(self, monkeypatch):
        checked = []
        original = HaloTransitionBuildStage.run

        def run(stage, ctx, tracer):
            original(stage, ctx, tracer)
            store = stage._owner.store
            targets = ctx.verdict_targets or ()
            rows = np.array(
                [store.row_of(int(ctx.key_of[l])) for l in targets],
                dtype=np.int64,
            )
            near = near_rows(
                np.asarray(store.current_positions()),
                rows,
                self.CFG.cell,
                ctx.dirty_cells,
                stage._owner.tracker.rings,
            )
            want = {l for l, row in zip(targets, rows.tolist()) if row in near}
            assert ctx.affected == want
            checked.append(len(want))

        monkeypatch.setattr(HaloTransitionBuildStage, "run", run)
        rng = np.random.default_rng(5)
        n = 60
        positions = rng.random((n, 2))
        single = OnlineCharacterizationService(positions.copy(), self.CFG)
        sharded = ShardedService(positions.copy(), self.CFG, topology_shards=4)
        try:
            for _ in churn_stream(rng, single, sharded, 10, n):
                want = single.end_tick()
                got = sharded.end_tick()
                assert got.flagged == want.flagged
                assert verdict_view(got) == verdict_view(want)
        finally:
            sharded.close()
            single.close()
        assert checked and sum(checked) > 0


class TestMembershipChurn:
    def test_join_and_leave_break_the_prev_chain(self):
        """A recycled row must not inherit the departed device's ``prev``.

        The transition build chains last tick's frozen ``cur`` copy as
        this tick's ``prev``; a leave + LIFO re-join between ticks
        rewrites that row in the store, so the chain must be dropped and
        the published transition must match the store's planes.
        """
        rng = np.random.default_rng(3)
        svc = OnlineCharacterizationService(
            rng.random((30, 2)), ServiceConfig(r=0.04, tau=2)
        )
        with svc:
            flags = np.zeros(30, dtype=bool)
            flags[:12] = True
            svc.feed_snapshot(np.asarray(svc.store.current_positions()), flags)
            svc.store.leave(5)
            svc.store.join(5, [0.9, 0.1], True)
            tick = svc.end_tick()
            prev, cur = svc.store.snapshot_arrays()
            assert np.array_equal(tick.transition.previous.positions, prev)
            assert np.array_equal(tick.transition.current.positions, cur)
            assert np.array_equal(prev[5], [0.9, 0.1])


def massive_group_service(make):
    """Four co-located flagged devices (massive at tau=2), two quiet ticks."""
    rng = np.random.default_rng(0)
    pts = rng.random((40, 2)) * 0.5 + 0.5
    pts[:4] = 0.2 + rng.random((4, 2)) * 0.005
    svc = make(pts)
    flags = np.zeros(40, dtype=bool)
    flags[:4] = True
    for _ in range(2):
        tick = svc.feed_snapshot(pts, flags)
    assert {v.anomaly_type.value for v in tick.verdicts.values()} == {"massive"}
    return svc


class TestMembershipInvalidation:
    """Flagged joins and leaves dirty their cells with nothing else moving."""

    CFG = ServiceConfig(r=0.03, tau=2)

    def survivors(self, tick):
        return {d: v.anomaly_type.value for d, v in tick.verdicts.items()}

    def test_single_service_leave(self):
        svc = massive_group_service(
            lambda pts: OnlineCharacterizationService(pts, self.CFG)
        )
        with svc:
            svc.store.leave(3)
            svc.store.leave(2)
            tick = svc.end_tick()
        assert self.survivors(tick) == {0: "isolated", 1: "isolated"}
        assert set(tick.recomputed) == {0, 1}

    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_sharded_leave_and_join(self, workers):
        svc = massive_group_service(
            lambda pts: ShardedService(
                pts, self.CFG, topology_shards=2, topology_workers=workers
            )
        )
        try:
            svc.leave(3)
            svc.leave(2)
            assert self.survivors(svc.end_tick()) == {
                0: "isolated",
                1: "isolated",
            }
            svc.join(2, (0.2021, 0.2013), True)
            tick = svc.end_tick()
            assert self.survivors(tick) == dict.fromkeys((0, 1, 2), "massive")
        finally:
            svc.close()

    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_flagged_leave_survives_a_shard_kill(self, workers):
        """A flagged leave still dirties its cells if the departed
        device's shard dies before the next tick.

        Devices 2 and 3 (shard 0) and 0 and 1 (shard 1) straddle the
        shard seam; 2 and 3 leave, then shard 0's child is killed.  Its
        respawn has no trace of the departed rows, so only the leave
        replies, folded in at the front door, dirty the seam."""

        def build(pts):
            pts[:4] = [(0.545, 0.2), (0.547, 0.201),
                       (0.535, 0.2), (0.533, 0.202)]
            return ShardedService(
                pts, self.CFG, topology_shards=2, topology_workers=workers
            )

        svc = massive_group_service(build)
        try:
            assert [svc.shard_of(j) for j in range(4)] == [1, 1, 0, 0]
            svc.leave(3)
            svc.leave(2)
            if workers == "process":
                svc.handles[0].terminate_child()
            assert self.survivors(svc.end_tick()) == {
                0: "isolated",
                1: "isolated",
            }
        finally:
            svc.close()

    def test_leave_survives_a_checkpoint_before_the_tick(self, tmp_path):
        svc = massive_group_service(
            lambda pts: OnlineCharacterizationService(pts, self.CFG)
        )
        with svc:
            svc.store.leave(3)
            svc.store.leave(2)
            path = svc.checkpoint(tmp_path / "ck.npz")
        with OnlineCharacterizationService.restore(path) as restored:
            tick = restored.end_tick()
        assert self.survivors(tick) == {0: "isolated", 1: "isolated"}


class TestShmPlacement:
    def test_from_state_places_into_the_shm_shard_column(self):
        pts = np.random.default_rng(4).random((40, 2))
        store = DeviceStateStore(pts, cell=0.06, shards=5)
        store.leave(7)
        store.leave(3)
        restored = DeviceStateStore.from_state(
            store.state(), planes_factory=shm_planes_factory()
        )
        try:
            # Copies only: a live view would pin the segment at release.
            ids = np.array(restored.row_ids())
            rows = np.nonzero(ids >= 0)[0]
            want = [store.shard_of(int(d)) for d in ids[rows]]
            assert len(set(want)) > 1
            assert [restored.shard_of(int(d)) for d in ids[rows]] == want
            assert restored.planes.arrays["shard"][rows].tolist() == want
            assert restored.shard_sizes() == store.shard_sizes()
        finally:
            restored.release_planes(unlink=True)
