"""The O(flagged) shard tick: box-test movers, columnar migration, frame gather.

Each vectorized path of the shard tick is held to the reference it
replaced:

* the box-test movers scan (:meth:`ShardMap.leavers`) equals a full
  :meth:`ShardMap.shard_of_keys` pass, edge clipping included;
* :meth:`DeviceStateStore.leave_rows` / :meth:`~DeviceStateStore.admit_rows`
  equal the per-device ``leave`` / ``admit`` sequence, on heap and
  shared-memory planes, across plane growth;
* the ``frame`` command's one-gather alignment equals the copy-and-scatter
  it replaced, on stores with free rows;
* the ``migrate`` command is idempotent, and a worker killed between an
  admit's payload writes and its ``id_of`` publication recovers, after
  plane adoption and a resend, to the state of a clean application;
* a ``leave`` whose evict landed but whose reply was lost still leaves
  the flagged leaver's cells in the next dirty union;
* the halo transition holds only flagged participants, and the verdict
  path never allocates a store-sized plane.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, DimensionMismatchError
from repro.online import (
    OnlineCharacterizationService,
    QosUpdate,
    ServiceConfig,
    ShardedService,
)
from repro.online.procshard import _gather_frame, handle_command
from repro.online.replay import diff_rows
from repro.online.sharded import HaloTransitionBuildStage, ShardMap, _ShardWorker
from repro.online.store import (
    DeviceStateStore,
    attach_store_planes,
    shm_planes_factory,
)
from tests.online.store_ops import admit_one, assert_keys_match_positions

CELL = 0.1  # K = 11 cells per axis


# ----------------------------------------------------------------------
# Box-test movers scan
# ----------------------------------------------------------------------
GRIDS = [(3, 1), (2, 2), (4, 2), (6, 2)]  # 1-D, 2x1, 2x2, 3x2


def edge_values(m: ShardMap):
    """Every box face, one cell either side of it, and beyond the cube."""
    K = m.cells_per_axis
    values = {-3, -1, 0, K - 1, K, K + 4}
    for shard in range(m.n_shards):
        for lo, hi in m.box(shard):
            values.update({lo - 1, lo, hi, hi + 1})
    return sorted(values)


@st.composite
def scan_cases(draw):
    shards, dim = draw(st.sampled_from(GRIDS))
    m = ShardMap(shards, cell=CELL, dim=dim, halo_rings=1)
    n = draw(st.integers(0, 40))
    coord = st.one_of(
        st.sampled_from(edge_values(m)), st.integers(-4, m.cells_per_axis + 4)
    )
    keys = np.array(
        draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                      min_size=n, max_size=n)),
        dtype=np.int64,
    ).reshape(n, dim)
    alive = np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    return m, keys, alive


class TestBoxTestScan:
    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    def test_leavers_equal_full_shard_of_keys(self, case):
        m, keys, alive = case
        owner = m.shard_of_keys(keys)
        for shard in range(m.n_shards):
            idx, dest = m.leavers(keys, shard)
            got = idx[alive[idx]]
            want = np.nonzero((owner != shard) & alive)[0]
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(dest, owner[idx])

    def test_single_shard_has_no_leavers(self):
        m = ShardMap(1, cell=CELL, dim=2, halo_rings=1)
        keys = np.array([[-5, 3], [40, 40], [0, 0]], dtype=np.int64)
        idx, dest = m.leavers(keys, 0)
        assert idx.size == 0 and dest.size == 0


# ----------------------------------------------------------------------
# Batch membership vs the per-device sequence
# ----------------------------------------------------------------------
def canonical_membership(store):
    region = store.take_membership()
    return {tuple(row) for row in np.hstack([region.lo, region.hi]).tolist()}


def assert_same_store(a: DeviceStateStore, b: DeviceStateStore) -> None:
    sa, sb = a.state(), b.state()
    assert sa.keys() == sb.keys()
    for key in sa:
        if key.startswith("membership"):
            continue
        np.testing.assert_array_equal(sa[key], sb[key], err_msg=key)
    assert a.n == b.n
    assert canonical_membership(a) == canonical_membership(b)
    occupied = np.flatnonzero(np.asarray(a.row_ids()) >= 0)
    np.testing.assert_array_equal(
        a.index.key_column()[occupied], b.index.key_column()[occupied]
    )
    assert_keys_match_positions(a)


@st.composite
def membership_ops(draw):
    n = draw(st.integers(1, 5))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            ops.append(("leave", draw(st.lists(st.integers(0, 40),
                                               max_size=6, unique=True))))
        else:
            k = draw(st.integers(0, 7))
            rows = [
                (
                    [draw(unit), draw(unit)],
                    [draw(unit), draw(unit)],
                    draw(st.booleans()),
                    draw(st.sampled_from([-1, 0, 1, 2])),
                )
                for _ in range(k)
            ]
            ops.append(("admit", rows))
    return n, ops


PLANES = pytest.mark.parametrize("planes", ["heap", "shm"])


def factory_for(planes):
    return None if planes == "heap" else shm_planes_factory()


class TestBatchMembership:
    @PLANES
    @settings(max_examples=60, deadline=None)
    @given(case=membership_ops())
    def test_batch_equals_per_device_sequence(self, planes, case):
        n, ops = case
        planes_factory = factory_for(planes)
        pts = np.random.default_rng(n).random((n, 2))
        batch = DeviceStateStore(pts, cell=CELL, planes_factory=planes_factory)
        seq = DeviceStateStore(pts, cell=CELL, planes_factory=planes_factory)
        next_id = n
        try:
            for kind, arg in ops:
                if kind == "leave":
                    present = [j for j in arg if seq.row_if_present(j) is not None]
                    batch.leave_rows(
                        np.array([batch.row_of(j) for j in present], dtype=np.int64)
                    )
                    for j in present:
                        seq.leave(j)
                else:
                    ids = np.arange(next_id, next_id + len(arg), dtype=np.int64)
                    next_id += len(arg)
                    prev = np.array([p for p, _, _, _ in arg]).reshape(-1, 2)
                    cur = np.array([c for _, c, _, _ in arg]).reshape(-1, 2)
                    flags = np.array([f for _, _, f, _ in arg], dtype=bool)
                    codes = np.array([v for _, _, _, v in arg], dtype=np.int8)
                    rows = batch.admit_rows(ids, prev, cur, flags, codes)
                    want = [
                        admit_one(seq, int(j), p, c, bool(f), int(v))
                        for j, p, c, f, v in zip(ids, prev, cur, flags, codes)
                    ]
                    assert rows.tolist() == want
                assert_same_store(batch, seq)
        finally:
            for store in (batch, seq):
                store.release_planes(unlink=True)

    @PLANES
    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_admit_grows_like_the_sequence(self, planes, k):
        planes_factory = factory_for(planes)
        pts = np.random.default_rng(k).random((3, 2))
        batch = DeviceStateStore(pts, cell=CELL, planes_factory=planes_factory)
        seq = DeviceStateStore(pts, cell=CELL, planes_factory=planes_factory)
        rng = np.random.default_rng(100 + k)
        ids = np.arange(10, 10 + k, dtype=np.int64)
        prev, cur = rng.random((k, 2)), rng.random((k, 2))
        flags = rng.random(k) < 0.5
        codes = np.zeros(k, dtype=np.int8)
        try:
            batch.admit_rows(ids, prev, cur, flags, codes)
            for j, p, c, f in zip(ids, prev, cur, flags):
                admit_one(seq, int(j), p, c, bool(f), 0)
            assert batch.nbytes == seq.nbytes
            assert_same_store(batch, seq)
        finally:
            for store in (batch, seq):
                store.release_planes(unlink=True)

    def test_admit_rejects_present_or_repeated_ids(self):
        store = DeviceStateStore(np.full((2, 2), 0.5), cell=CELL)
        one = np.full((1, 2), 0.5)
        with pytest.raises(ConfigurationError, match="already stored"):
            store.admit_rows(np.array([1]), one, one, [False], [-1])
        two = np.full((2, 2), 0.5)
        with pytest.raises(ConfigurationError, match="already stored"):
            store.admit_rows(np.array([7, 7]), two, two, [False] * 2, [-1] * 2)
        assert store.n == 2


# ----------------------------------------------------------------------
# Frame gather vs copy + scatter
# ----------------------------------------------------------------------
def scatter_frame(store, board_cur, board_flags):
    """The frame alignment the gather replaced: copy, then scatter."""
    ids = np.asarray(store.row_ids())
    alive = np.nonzero(ids >= 0)[0]
    cur = store.current_positions().copy()
    flags = store.flag_vector().copy()
    cur[alive] = board_cur[ids[alive]]
    flags[alive] = board_flags[ids[alive]]
    return cur, flags


class TestFrameGather:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        gone=st.lists(st.integers(0, 11), max_size=8, unique=True),
        seed=st.integers(0, 1000),
    )
    def test_gather_equals_copy_scatter(self, n, gone, seed):
        rng = np.random.default_rng(seed)
        store = DeviceStateStore(rng.random((n, 2)), cell=CELL)
        for j in gone:
            if store.row_if_present(j) is not None:
                store.leave(j)
        store.apply_rows(
            np.nonzero(np.asarray(store.row_ids()) >= 0)[0][:1],
            np.full((min(1, store.n), 2), 0.25),
            np.ones(min(1, store.n), dtype=bool),
        )
        rows = n + 3
        board_cur = rng.random((rows, 2))
        board_flags = rng.random(rows) < 0.5
        ids = np.asarray(store.row_ids())
        got = _gather_frame(ids, board_cur, board_flags)
        want = scatter_frame(store, board_cur, board_flags)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        diffs = [
            diff_rows(
                store.current_positions(), cur, store.flag_vector(), flags
            )
            for cur, flags in (got, want)
        ]
        for a, b in zip(*diffs):
            np.testing.assert_array_equal(a, b)

    def test_short_board_raises(self):
        ids = np.array([0, -1, 4], dtype=np.int64)
        with pytest.raises(DimensionMismatchError):
            _gather_frame(ids, np.zeros((3, 2)), np.zeros(3, dtype=bool))


# ----------------------------------------------------------------------
# The migrate command: idempotence and the admit kill window
# ----------------------------------------------------------------------
def migrate_payload():
    """Evict devices 1 and 3 (ascending rows), admit 10 and 11."""
    return {
        "out": np.array([1, 3], dtype=np.int64),
        "in": {
            "ids": np.array([10, 11], dtype=np.int64),
            "prev": np.array([[0.11, 0.12], [0.81, 0.82]]),
            "cur": np.array([[0.21, 0.22], [0.71, 0.72]]),
            "flags": np.array([True, False]),
            "codes": np.array([1, -1], dtype=np.int8),
        },
    }


def seed_store(planes_factory=None) -> DeviceStateStore:
    pts = np.random.default_rng(7).random((6, 2))
    store = DeviceStateStore(pts, cell=CELL, planes_factory=planes_factory)
    store.apply_rows(np.array([1, 4]), pts[[1, 4]], np.array([True, True]))
    return store


def run_migrate(store) -> None:
    handle_command(
        SimpleNamespace(store=store),
        "migrate",
        store.tick_serial + 1,
        migrate_payload(),
        shard_map=None,
        halo_reader=None,
        board_reader=None,
    )


class TestMigrateCommand:
    def test_running_twice_equals_running_once(self):
        once, twice = seed_store(), seed_store()
        run_migrate(once)
        run_migrate(twice)
        run_migrate(twice)
        assert_same_store(once, twice)

    def test_kill_between_admit_payload_and_id_of_recovers(self):
        clean = seed_store()
        run_migrate(clean)

        factory = shm_planes_factory()
        doomed = seed_store(factory)
        adopted = None
        try:
            # The leave half landed; the admit half wrote every payload
            # column of its rows (LIFO off the free-list) but was killed
            # before publishing ``id_of``.
            doomed.leave_rows(np.array([1, 3]))
            admit = migrate_payload()["in"]
            rows = np.array([3, 1])
            arrs = doomed.planes.arrays
            arrs["prev"][rows] = admit["prev"]
            arrs["cur"][rows] = admit["cur"]
            arrs["flags"][rows] = admit["flags"]
            arrs["verdict"][rows] = admit["codes"]
            arrs["alive"][rows] = True
            del arrs  # views pin the mapping
            name, capacity = doomed.planes.name, doomed.planes.capacity
            doomed.release_planes(unlink=False)

            adopted = DeviceStateStore.adopt_planes(
                attach_store_planes(name, capacity, 2),
                cell=CELL,
                planes_factory=factory,
            )
            for device in (10, 11):
                assert adopted.row_if_present(device) is None
            run_migrate(adopted)
            # Membership endpoints are worker memory, lost with the kill;
            # the respawn's whole-plane invalidation stands in for them.
            for store in (clean, adopted):
                store.take_membership()
            assert_same_store(adopted, clean)
        finally:
            if adopted is not None:
                adopted.release_planes(unlink=True)


class TestLeaveCommand:
    def test_lost_leave_reply_keeps_the_leavers_cells_dirty(self, monkeypatch):
        # A flagged trio straddles the seam between shard 0 (x < 0.6)
        # and shard 1: one motion of 3 > tau.  Two quiet ticks later the
        # shard-0 member leaves; its shard evicts the row, and the reply
        # is lost, so the child is respawned and ``leave`` resent.  The
        # shard-1 pair's verdicts hinge on the leaver alone, and only
        # its (prev, cur) cells in the dirty union recompute them.
        cfg = ServiceConfig(r=0.05, tau=2, dispatch_deadline=1.0)
        rng = np.random.default_rng(11)
        pts = np.concatenate(
            [
                [[0.58, 0.48], [0.61, 0.48], [0.62, 0.48]],
                rng.uniform([0.05, 0.05], [0.25, 0.95], (12, 2)),
                rng.uniform([0.85, 0.05], [0.95, 0.95], (12, 2)),
            ]
        )
        single = OnlineCharacterizationService(pts, cfg)
        sharded = ShardedService(
            pts, cfg, topology_shards=2, topology_workers="process"
        )
        handle = sharded.handles[0]
        send = handle.send
        dropped = []

        def drop_first_leave_reply(msg, *, canonical=None):
            op, tick, payload = msg
            if op == "leave" and not dropped:
                dropped.append(msg)
                return send(
                    (op, tick, {**payload, "_drop_reply": True}), canonical=msg
                )
            return send(msg, canonical=canonical)

        monkeypatch.setattr(handle, "send", drop_first_leave_reply)
        try:
            assert [sharded.shard_of(j) for j in range(3)] == [0, 1, 1]
            for service in (single, sharded):
                service.ingest_many(
                    QosUpdate(j, (pts[j, 0], 0.5), True) for j in range(3)
                )
            ticks = []
            for _ in range(3):
                ticks.append((single.end_tick(), sharded.end_tick()))
            single.leave(0)
            sharded.leave(0)
            ticks.append((single.end_tick(), sharded.end_tick()))
            assert dropped and handle.respawns == 1
            leaver_cell = np.floor(np.array([0.58, 0.5]) / cfg.cell)
            assert (sharded._prev_dirty.cells == leaver_cell).all(axis=1).any()
            for want, got in ticks:
                assert verdict_view(got) == verdict_view(want)
            assert {v.anomaly_type for v in ticks[2][0].verdicts.values()} != {
                v.anomaly_type for v in ticks[3][0].verdicts.values()
            }
        finally:
            sharded.close()
            single.close()


def verdict_view(tick):
    return {
        j: (v.anomaly_type, v.rule, v.witness)
        for j, v in tick.verdicts.items()
    }


# ----------------------------------------------------------------------
# O(flagged) guard on a 100k-device fleet
# ----------------------------------------------------------------------
class TestFlaggedOnlyTransition:
    def test_transition_holds_only_flagged_participants(self, monkeypatch):
        n, cfg = 100_000, ServiceConfig(r=0.002, tau=3)
        rng = np.random.default_rng(3)
        pts = rng.random((n, 2))
        seen = []
        build = HaloTransitionBuildStage.run

        def checked_build(stage, ctx, tracer):
            build(stage, ctx, tracer)
            store = stage._owner.store
            owned = int(store.flagged_rows().size)
            halo = int(stage._halo_ids.size)
            if owned:
                pad = max(0, cfg.tau + 1 - owned - halo)
                assert ctx.transition.n == owned + halo + pad
                assert len(ctx.verdict_targets) == owned
            seen.append((owned, halo))

        peaks = []
        run_tick = _ShardWorker.run_tick

        def traced_run_tick(worker, ctx):
            tracemalloc.start()
            try:
                out = run_tick(worker, ctx)
                peaks.append(
                    (tracemalloc.get_traced_memory()[1], worker.store)
                )
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(HaloTransitionBuildStage, "run", checked_build)
        monkeypatch.setattr(_ShardWorker, "run_tick", traced_run_tick)
        svc = ShardedService(pts, cfg, topology_shards=2)
        try:
            # Flagged pairs straddling the seam (cell x = 126, at 0.504)
            # put devices in both halos without forming a dense family.
            flagged = rng.choice(n, size=50, replace=False)
            pts[flagged[:20], 0] = 0.504 + rng.uniform(-0.006, 0.006, 20)
            pts[flagged[:20], 1] = np.repeat(np.linspace(0.05, 0.95, 10), 2)
            flags = np.zeros(n, dtype=bool)
            flags[flagged] = True
            for _ in range(2):
                pts[flagged] = np.clip(
                    pts[flagged] + rng.normal(0, 0.0005, (50, 2)), 0, 1
                )
                svc.feed_snapshot(pts, flags)
        finally:
            svc.close()
        assert sum(owned for owned, _ in seen) == 100
        assert any(halo for _, halo in seen)
        for peak, store in peaks:
            rows = np.asarray(store.row_ids()).shape[0]
            assert peak < rows * store.dim * 8, (peak, rows)
