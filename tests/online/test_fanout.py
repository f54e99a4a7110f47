"""Flagged-only dirty-region fan-out: cell rings first, exact distances last.

The tick tests only the rows that can be verdict targets (the flagged
devices) against the tick's dirty region.  The first pass measures cell
rings through :func:`~repro.core.geometry.cells_within_rings`: a
linearized ``(2 rings + 1)^d`` stencil plus ``searchsorted``, with a
brute-force Chebyshev fallback where the codes would overflow int64.
Rows in the outer rings then take an exact distance test.  Every check
here compares against a test-local brute-force reference:

* the primitives themselves (the ring test and the cell-set union), on
  random key sets in dims 1-3 with rings 0-4,
  empty probe/cell sets, keys at cell 0 and at the cube's top cell, and
  both fallback routes (forced, and a genuinely tiny cell in d=3);
* the single service and the inline-sharded service on randomized
  streams with churn and LIFO-recycled ids: on every tick the affected
  set must equal "flagged devices whose ``prev`` or ``cur`` lies within
  ``4r + 2e-12`` of a position changed by an update, a move one tick
  earlier, a flagged join or a flagged leave", recorded from the stream
  alone (and the two topologies must agree on every verdict and
  recompute set).

Store fixes ride along: a flagged join / leave must dirty its cells
even when nothing else moves (checkpoints included), and a store
restored into shared memory must land its rows in the shm planes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.geometry as geometry
from repro.core.errors import ConfigurationError
from repro.core.geometry import cells_within_rings, unique_cells
from repro.core.oracle import oracle_classify
from repro.core.transition import Snapshot, Transition
from repro.online import (
    DeviceStateStore,
    MutableGridIndex,
    OnlineCharacterizationService,
    QosUpdate,
    ServiceConfig,
    ShardedService,
)
from repro.online.sharded import HaloTransitionBuildStage
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


#: How far past ``4r`` a change can reach a verdict: two hops of the
#: ``1e-12`` tolerance of the ``2r`` motion and range tests.
REACH_TOL = 2e-12


def churn_stream(rng, single, sharded, ticks, n):
    """Random walk + join/leave with LIFO-recycled ids; yields per tick.

    Freed ids come back LIFO, so on the single service a recycled id
    lands on its recycled row (its transition is row-indexed).  Some
    moves pin a coordinate to the cube's faces (cells 0 and top).

    Each tick yields a brute-force reference built from the stream
    alone: ``(dirty, prev, cur)``, where ``dirty`` lists every position
    whose change a verdict can see — old and new positions of relevant
    updates, last tick's move endpoints, flagged join and leave
    endpoints — and ``prev`` / ``cur`` map each present device to its
    trajectory endpoints.
    """
    pos = {j: single.store.position(j) for j in range(n)}
    flag = dict.fromkeys(pos, False)
    free_ids = []
    carry = []
    for _ in range(ticks):
        dirty, carry = carry, []
        prev = dict(pos)
        for _ in range(int(rng.integers(0, 3))):
            gone = int(rng.choice(sorted(pos)))
            single.leave(gone)
            if sharded is not None:
                sharded.leave(gone)
            if flag[gone]:
                dirty.append(pos[gone])
            del pos[gone], flag[gone], prev[gone]
            free_ids.append(gone)
        while free_ids and rng.random() < 0.6:
            j = free_ids.pop()
            p = rng.random(2)
            f = bool(rng.random() < 0.5)
            single.join(j, p, f)
            if sharded is not None:
                sharded.join(j, tuple(p), f)
            if f:
                dirty.append(p)
            pos[j] = prev[j] = p
            flag[j] = f
        movers = rng.choice(sorted(pos), size=min(len(pos), 15), replace=False)
        for j in movers.tolist():
            old = pos[j]
            step = rng.normal(0, 0.04 if rng.random() < 0.8 else 0.3, 2)
            pos[j] = np.clip(pos[j] + step, 0, 1)
            if rng.random() < 0.1:
                pos[j][int(rng.integers(2))] = float(rng.integers(2))
            update = QosUpdate(j, tuple(pos[j]), bool(rng.random() < 0.45))
            single.ingest(update)
            if sharded is not None:
                sharded.ingest(update)
            moved = not np.array_equal(old, pos[j])
            if update.flagged != flag[j] or (moved and (update.flagged or flag[j])):
                dirty += [old, pos[j]]
                if moved:
                    carry += [old, pos[j]]
            flag[j] = update.flagged
        yield dirty, prev, dict(pos)


def exact_affected(devices, reference, r):
    """Brute force: the devices whose ``prev`` or ``cur`` endpoint lies
    within Chebyshev ``4r + tol`` of a dirty position."""
    dirty, prev, cur = reference
    reach = 4 * r + REACH_TOL
    return {
        j
        for j in devices
        if any(
            min(np.abs(prev[j] - q).max(), np.abs(cur[j] - q).max()) <= reach
            for q in dirty
        )
    }


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
        reference = {}
        original = HaloTransitionBuildStage.run

        def run(stage, ctx, tracer):
            original(stage, ctx, tracer)
            owned = {ctx.key_of[l]: l for l in ctx.verdict_targets}
            want = exact_affected(owned, reference["tick"], self.CFG.r)
            assert ctx.affected == {owned[j] for j in want}
            checked.append(len(want))

        monkeypatch.setattr(HaloTransitionBuildStage, "run", run)
        rng = np.random.default_rng(seed)
        n = 60
        svc = OnlineCharacterizationService(rng.random((n, 2)), self.CFG)
        with svc:
            for reference["tick"] in churn_stream(rng, svc, None, 12, n):
                svc.end_tick()
        assert len(checked) == 12 and sum(checked) > 0

    def test_sharded_affected_matches_reference(self, monkeypatch):
        checked = []
        reference = {}
        original = HaloTransitionBuildStage.run

        def run(stage, ctx, tracer):
            original(stage, ctx, tracer)
            targets = ctx.verdict_targets or ()
            owned = {int(ctx.key_of[l]): l for l in targets}
            want = exact_affected(owned, reference["tick"], self.CFG.r)
            assert ctx.affected == {owned[j] for j in want}
            checked.append(len(want))

        monkeypatch.setattr(HaloTransitionBuildStage, "run", run)
        rng = np.random.default_rng(5)
        n = 60
        positions = rng.random((n, 2))
        single = OnlineCharacterizationService(positions.copy(), self.CFG)
        sharded = ShardedService(positions.copy(), self.CFG, topology_shards=4)
        try:
            for reference["tick"] in churn_stream(rng, single, sharded, 10, n):
                want = single.end_tick()
                got = sharded.end_tick()
                assert got.flagged == want.flagged
                assert got.recomputed == want.recomputed
                assert verdict_view(got) == verdict_view(want)
        finally:
            sharded.close()
            single.close()
        assert checked and sum(checked) > 0


class TestExactReach:
    """The recompute set stops at ``4r + 2e-12``, not at a cell ring.

    ``r = 1/32`` (cell ``1/16``, exact in binary) and the layout of
    ``TestHaloBandTolerance``: device 0 sits in cell 8, the last of
    shard 0's box; devices 1 and 2 sit ``2r`` from it; device 3 sits
    ``4r + delta`` from it in cell 11, three rings over in shard 1.  All
    four flag and move as one, so ``{1, 2, 3}`` is a consistent motion
    exactly when ``delta`` is within the ``1e-12`` tolerance, and then
    device 0 is unresolved, not massive.  After a quiet tick device 3
    moves away, the only change of the tick.  At ``delta = 0.5e-12``
    device 0 is within reach: it is recomputed and turns massive, as
    the oracle says.  At ``delta = 1e-6`` it is out of reach, and its
    massive verdict is reused.
    """

    R = 1.0 / 32

    def build(self, kind, positions):
        cfg = ServiceConfig(r=self.R, tau=2)
        if kind == "single":
            return OnlineCharacterizationService(positions.copy(), cfg)
        return ShardedService(
            positions.copy(), cfg, topology_shards=2, topology_workers=kind
        )

    @pytest.mark.parametrize("delta, reused", [(0.5e-12, False), (1e-6, True)])
    @pytest.mark.parametrize("kind", ["single", "inline", "process"])
    def test_planted_device_at_the_reach(self, kind, delta, reused):
        x0 = 0.5625 - 0.5e-12
        xs = [x0, x0 + 2 * self.R, x0 + 2 * self.R, x0 + 4 * self.R + delta]
        filler = [(0.1, 0.9), (0.9, 0.9), (0.1, 0.1), (0.9, 0.1)]
        positions = np.array([(x, 0.3) for x in xs] + filler)
        assert 4 * self.R < xs[3] - xs[0] <= 4 * self.R + delta + 1e-15
        service = self.build(kind, positions)
        try:
            for j, x in enumerate(xs):
                service.ingest(QosUpdate(j, (x, 0.5), True))
            first = service.end_tick()
            service.end_tick()
            prev = positions.copy()
            prev[:4, 1] = 0.5
            cur = prev.copy()
            cur[3, 0] += 0.01
            service.ingest(QosUpdate(3, tuple(cur[3]), True))
            tick = service.end_tick()
        finally:
            service.close()
        assert first.verdicts[0].anomaly_type.name == (
            "MASSIVE" if reused else "UNRESOLVED"
        )
        assert (0 in tick.reused) is reused
        assert (0 in tick.recomputed) is not reused
        oracle = oracle_classify(
            Transition(Snapshot(prev), Snapshot(cur), range(4), self.R, 2)
        )
        for j, verdict in tick.verdicts.items():
            assert verdict.anomaly_type is oracle.type_of(j), j
        assert tick.verdicts[0].anomaly_type.name == "MASSIVE"


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
            svc.leave(3)
            svc.leave(2)
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
            svc.leave(3)
            svc.leave(2)
            path = svc.checkpoint(tmp_path / "ck.npz")
        with OnlineCharacterizationService.restore(path) as restored:
            tick = restored.end_tick()
        assert self.survivors(tick) == {0: "isolated", 1: "isolated"}


class TestShmRestore:
    def test_from_state_restores_into_shm_planes(self):
        pts = np.random.default_rng(4).random((40, 2))
        store = DeviceStateStore(pts, cell=0.06)
        store.leave(7)
        store.leave(3)
        restored = DeviceStateStore.from_state(
            store.state(), planes_factory=shm_planes_factory()
        )
        try:
            # Copies only: a live view would pin the segment at release.
            ids = np.array(restored.row_ids())
            assert ids.tolist() == np.array(store.row_ids()).tolist()
            assert restored.planes.arrays["id_of"][: ids.size].tolist() == (
                ids.tolist()
            )
            for device in ids[ids >= 0].tolist():
                assert restored.row_of(device) == store.row_of(device)
                assert np.array_equal(
                    restored.position(device), store.position(device)
                )
        finally:
            restored.release_planes(unlink=True)
