"""Columnar store contracts: free-list, zero-copy views, allocation-free ticks.

The structure-of-arrays PR's acceptance tests live here:

* a hypothesis property test drives random join/leave/move sequences
  against a dict-based mirror: the id↔row map stays a bijection, absent
  ids read −1 / ``None``, rows are reused LIFO, and a reused row never
  resurrects the departed device's position, flag or verdict;
* the id→row map is sorted integer columns (``IdColumnMap``): it
  matches a dict through tombstones and merges, ``from_state`` and
  ``adopt_planes`` rebuild it equal to the live one, a huge id costs
  nothing, and building or restoring a 100k store peaks at its columns
  plus a small slack (a per-device ``dict`` alone would add ~11.6 MB);
* the read-only view contract of ``snapshot_arrays`` /
  ``current_positions`` (``copy=True`` is the only way to get a mutable
  array);
* a ``tracemalloc`` test pins down the tentpole target: a steady-state
  tick at fixed population (measure → diff → dirty, no verdicts)
  allocates a bounded handful of numpy temporaries — never a per-device
  Python object plane;
* the vectorized snapshot path and the per-update compatibility shim
  produce identical verdicts on the same randomized stream, each tick
  also matching a fresh batch characterization (the golden contract the
  pre-refactor object store was held to).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterize import Characterizer
from repro.core.errors import ConfigurationError, UnknownDeviceError
from repro.core.transition import Transition
from repro.online import (
    DeviceStateStore,
    OnlineCharacterizationService,
    QosUpdate,
    ServiceConfig,
)
from repro.online import idmap
from repro.online.idmap import IdColumnMap
from repro.online.store import attach_store_planes, shm_planes_factory


@pytest.fixture(scope="class")
def small_recent_run():
    """A small run of 4 ids, so hypothesis reaches its merge."""
    saved, idmap.RECENT_MAX = idmap.RECENT_MAX, 4
    yield
    idmap.RECENT_MAX = saved


def make_store(n=6, d=2, seed=0, cell=0.06):
    pts = np.random.default_rng(seed).random((n, d))
    return DeviceStateStore(pts, cell=cell)


# ----------------------------------------------------------------------
# Read-only view contract
# ----------------------------------------------------------------------
class TestViewContract:
    def test_snapshot_arrays_default_views_are_read_only(self):
        store = make_store()
        prev, cur = store.snapshot_arrays()
        assert not prev.flags.writeable and not cur.flags.writeable
        with pytest.raises(ValueError):
            cur[0] = 0.5

    def test_snapshot_views_track_store_mutations(self):
        store = make_store()
        _, cur = store.snapshot_arrays()
        store.apply(0, [0.25, 0.75], False)
        assert np.allclose(cur[0], [0.25, 0.75])

    def test_copy_opt_in_is_private_and_writable(self):
        store = make_store()
        prev, cur = store.snapshot_arrays(copy=True)
        assert prev.flags.writeable and cur.flags.writeable
        cur[0] = 0.5  # must not leak into the store
        assert not np.allclose(store.position(0), [0.5, 0.5])

    def test_current_positions_view_and_copy(self):
        store = make_store()
        view = store.current_positions()
        assert not view.flags.writeable
        private = store.current_positions(copy=True)
        assert private.flags.writeable
        store.apply(1, [0.1, 0.1], False)
        assert np.allclose(view[1], [0.1, 0.1])
        assert not np.allclose(private[1], [0.1, 0.1])

    def test_flag_and_verdict_columns_are_read_only(self):
        store = make_store()
        with pytest.raises(ValueError):
            store.flag_vector()[0] = True
        with pytest.raises(ValueError):
            store.verdict_codes()[0] = 3

    def test_bytes_per_device_reports_columnar_footprint(self):
        store = make_store(n=100, d=2)
        # Two float64 position planes dominate: 2 * d * 8 = 32 bytes,
        # plus the flag/alive/verdict/id/shard columns (~19 bytes).
        assert 32 <= store.bytes_per_device <= 128
        assert store.nbytes >= 100 * 32


# ----------------------------------------------------------------------
# id <-> row free-list (hypothesis)
# ----------------------------------------------------------------------
def _ops():
    position = st.tuples(
        st.floats(0.0, 1.0, allow_nan=False, width=32),
        st.floats(0.0, 1.0, allow_nan=False, width=32),
    )
    device = st.integers(0, 11)
    flag = st.booleans()
    return st.lists(
        st.one_of(
            st.tuples(st.just("join"), device, position, flag),
            st.tuples(st.just("leave"), device),
            st.tuples(st.just("move"), device, position, flag),
        ),
        max_size=60,
    )


class TestFreeListProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops())
    def test_random_membership_churn_keeps_store_consistent(self, ops):
        store = make_store(n=3)
        # Mirror: device id -> (position tuple, flag).  Rows 0..2 hold
        # the seed devices 0..2.
        mirror = {
            j: (tuple(store.position(j)), False) for j in range(3)
        }
        freed: list = []  # LIFO mirror of the store's free-list
        grown_rows = 3
        for op in ops:
            kind, device = op[0], op[1]
            if kind == "join":
                pos, flag = op[2], op[3]
                if device in mirror:
                    with pytest.raises(ConfigurationError):
                        store.join(device, pos, flag)
                    continue
                row = store.join(device, pos, flag)
                if freed:
                    # Row reuse is LIFO: the most recently vacated row
                    # is handed out first.
                    assert row == freed.pop()
                else:
                    assert row == grown_rows
                    grown_rows += 1
                mirror[device] = (tuple(np.asarray(pos, dtype=float)), flag)
            elif kind == "leave":
                if device not in mirror:
                    with pytest.raises(UnknownDeviceError):
                        store.leave(device)
                    continue
                freed.append(store.leave(device))
                del mirror[device]
            else:  # move
                pos, flag = op[2], op[3]
                if device not in mirror:
                    with pytest.raises(UnknownDeviceError):
                        store.apply(device, pos, flag)
                    continue
                store.apply(device, pos, flag)
                mirror[device] = (tuple(np.asarray(pos, dtype=float)), flag)
            self._check(store, mirror)

    def _check(self, store, mirror):
        # id <-> row bijection
        assert store.n == len(mirror)
        rows = {store.row_of(j) for j in mirror}
        assert len(rows) == len(mirror)
        for j in mirror:
            assert store.id_of(store.row_of(j)) == j
        # Absent ids, the int64-max sentinel's own among them, read −1
        # in a batch and None one at a time.
        probe = [*range(12), -1, 12, 10**12, np.iinfo(np.int64).max]
        want = [store.row_of(j) if j in mirror else -1 for j in probe]
        assert store.rows_of(probe).tolist() == want
        assert store.rows_of(np.asarray(probe[::-1])).tolist() == want[::-1]
        for j in probe:
            if j not in mirror:
                assert store.row_if_present(j) is None
                with pytest.raises(UnknownDeviceError):
                    store.row_of(j)
        # Position / flag consistency (row reuse never resurrects the
        # departed occupant's state).
        for j, (pos, flag) in mirror.items():
            assert np.allclose(store.position(j), pos)
            assert store.is_flagged(j) == flag
            assert np.allclose(store.index.position(store.row_of(j)), pos)
        assert store.flagged_devices() == tuple(
            sorted(j for j, (_, flag) in mirror.items() if flag)
        )
        assert len(store.index) == len(mirror)

    def test_rejoined_row_starts_clean(self):
        store = make_store(n=3)
        store.apply(1, [0.9, 0.9], True)
        row = store.leave(1)
        # The scrub happens at leave time, before the row enters the
        # free-list — not lazily at reuse.
        prev, cur = store.snapshot_arrays()
        assert np.allclose(cur[row], 0.0) and np.allclose(prev[row], 0.0)
        new_row = store.join(7, [0.2, 0.3], False)
        assert new_row == row
        assert not store.is_flagged(7)
        assert np.allclose(store.position(7), [0.2, 0.3])
        prev, _ = store.snapshot_arrays()
        # Both snapshot endpoints start at the join position.
        assert np.allclose(prev[row], [0.2, 0.3])

    def test_growth_rebinds_index_zero_copy(self):
        store = make_store(n=3)
        for j in range(3, 40):
            store.join(j, [0.5, 0.5], False)
        # After growth the index must still adopt the store's plane:
        # a store write shows up in the index without an explicit move.
        store.apply(5, [0.91, 0.17], False)
        assert np.allclose(store.index.position(store.row_of(5)), [0.91, 0.17])
        assert len(store.index) == 40


# ----------------------------------------------------------------------
# The id→row map: sorted id and row columns, derived from ``id_of``
# ----------------------------------------------------------------------
def _churned(store):
    """Joins out of id order, a huge id and a few leaves."""
    for device in (40, 10**12, 7_000, 33):
        store.join(device, [0.3, 0.6], device == 33)
    for device in (2, 10**12, 5):
        store.leave(device)
    store.join(9_999, [0.1, 0.2], True)
    store.join(10**12 + 1, [0.7, 0.7], False)
    return store


class TestIdColumnMapRuns:
    """Tombstones, the small run and both merges against a dict mirror."""

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(st.booleans(), st.lists(st.integers(0, 40), max_size=6)),
            max_size=40,
        ),
        by_slot=st.booleans(),
    )
    def test_batches_match_a_dict(self, batches, by_slot, small_recent_run):
        """``by_slot`` hands :meth:`IdColumnMap.locate`'s slots to
        ``insert`` and ``delete``, as the shard ``migrate`` command does."""
        mirror = {j: j + 100 for j in range(0, 20, 2)}
        ids = np.array(sorted(mirror), dtype=np.int64)
        m = IdColumnMap(ids, ids + 100)
        for add, batch in batches:
            batch = np.unique(np.asarray(batch, dtype=np.int64))
            if add:
                batch = np.array([j for j in batch if j not in mirror], dtype=np.int64)
                m.insert(batch, batch * 3, m.locate(batch)[1] if by_slot else None)
                mirror.update((int(j), int(j) * 3) for j in batch)
            else:
                batch = np.array([j for j in batch if j in mirror], dtype=np.int64)
                m.delete(batch, m.locate(batch)[1] if by_slot else None)
                for j in batch:
                    del mirror[int(j)]
            probe = np.arange(-1, 42)
            assert m.lookup(probe).tolist() == [mirror.get(int(j), -1) for j in probe]
            assert m.locate(probe)[0].tolist() == m.lookup(probe).tolist()
            assert [m.get(int(j)) for j in probe] == [mirror.get(int(j)) for j in probe]
            got_ids, got_values = m.items()
            assert got_ids.tolist() == sorted(mirror)
            assert got_values.tolist() == [mirror[j] for j in sorted(mirror)]
            assert len(m) == len(mirror)
        m.assign(np.array(sorted(mirror), dtype=np.int64), np.zeros(len(mirror)))
        assert (m.lookup(np.array(sorted(mirror))) == 0).all()


def _assert_same_map(got, want):
    for a, b in zip(got._rows.items(), want._rows.items()):
        assert np.array_equal(a, b)
    assert got.n == want.n


class TestIdColumns:
    def test_from_state_rebuilds_the_live_map(self):
        store = _churned(make_store(n=12))
        _assert_same_map(DeviceStateStore.from_state(store.state()), store)

    def test_adopt_planes_rebuilds_the_live_map(self):
        store = _churned(make_store(n=12))
        shm = DeviceStateStore(
            make_store(n=12).current_positions(),
            cell=0.06,
            planes_factory=shm_planes_factory(),
        )
        adopted = None
        try:
            _churned(shm)
            _assert_same_map(shm, store)
            planes = shm.planes
            adopted = DeviceStateStore.adopt_planes(
                attach_store_planes(planes.name, planes.capacity, 2), cell=0.06
            )
            _assert_same_map(adopted, store)
        finally:
            if adopted is not None:
                adopted.release_planes(unlink=False)
            shm.release_planes(unlink=True)

    def test_huge_id_join_allocates_no_id_indexed_column(self):
        store = make_store(n=1_000)
        big = 10**12
        tracemalloc.start()
        try:
            row = store.join(big, [0.9, 0.9], True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # An id-indexed column would need terabytes.
        assert peak < 1 << 20
        assert store.row_of(big) == row and store.id_of(row) == big
        assert store.rows_of([big, big - 1, big + 1]).tolist() == [row, -1, -1]
        assert store.leave(big) == row
        assert store.row_if_present(big) is None
        assert store.join(big, [0.1, 0.1]) == row
        with pytest.raises(ConfigurationError, match="already stored"):
            store.join(big, [0.2, 0.2])
        assert store.n == 1_001

    @pytest.mark.parametrize("path", ["init", "from_state", "adopt_planes"])
    def test_100k_build_peaks_at_its_columns(self, path):
        n = 100_000
        pts = np.random.default_rng(4).random((n, 2))
        source = DeviceStateStore(
            pts,
            cell=0.06,
            planes_factory=shm_planes_factory() if path == "adopt_planes" else None,
        )
        state = source.state()
        build = {
            "init": lambda: DeviceStateStore(pts, cell=0.06),
            "from_state": lambda: DeviceStateStore.from_state(state),
            "adopt_planes": lambda: DeviceStateStore.adopt_planes(
                attach_store_planes(source.planes.name, n, 2), cell=0.06
            ),
        }[path]
        tracemalloc.start()
        try:
            store = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        try:
            # Its columns: the store's own, the index's cell keys and the
            # id map's two int64 columns.  The slack is about one
            # fleet-sized float temporary of the cell-key computation.
            columns = store.nbytes + store.index.key_column().nbytes + 16 * (n + 1)
            assert peak <= columns + (2 << 20), (peak, columns)
            assert store.n == n
            assert store.rows_of([0, n - 1, n]).tolist() == [0, n - 1, -1]
        finally:
            if path == "adopt_planes":
                store.release_planes(unlink=False)
                source.release_planes(unlink=True)


# ----------------------------------------------------------------------
# Steady-state tick allocation (the tentpole target)
# ----------------------------------------------------------------------
class TestTickAllocation:
    def test_steady_tick_allocates_no_per_device_plane(self):
        n, d = 16_384, 2
        rng = np.random.default_rng(0)
        base = rng.random((n, d))
        service = OnlineCharacterizationService(
            base, ServiceConfig(r=0.03, tau=3)
        )
        flags = np.zeros(n, dtype=bool)
        cur = base.copy()

        def churn():
            movers = rng.choice(n, size=n // 100, replace=False)
            cur[movers] = np.clip(
                cur[movers] + rng.normal(0.0, 0.01, (movers.size, d)), 0, 1
            )

        for _ in range(3):  # warm caches, allocators, code paths
            churn()
            service.feed_snapshot(cur, flags)
        churn()
        tracemalloc.start()
        try:
            service.feed_snapshot(cur, flags)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The measure -> diff -> dirty path is allowed a handful of
        # n-sized numpy temporaries (the (n, d) inequality mask and a
        # few n-length boolean vectors: ~100 KiB here) but no per-device
        # Python objects: even the cheapest per-device plane — one
        # n-length pointer list — costs 8n = 128 KiB before counting the
        # objects it points to, and blows this budget.
        assert peak < 160 * 1024, f"steady tick peak {peak} bytes"

    def test_empty_diff_tick_applies_nothing(self):
        n = 256
        rng = np.random.default_rng(1)
        base = rng.random((n, 2))
        service = OnlineCharacterizationService(
            base, ServiceConfig(r=0.03, tau=3)
        )
        out = service.feed_snapshot(base, np.zeros(n, dtype=bool))
        assert out.applied == 0 and out.verdicts == {}


# ----------------------------------------------------------------------
# Vectorized path == per-update shim path == batch golden trace
# ----------------------------------------------------------------------
class TestPathIdentity:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_snapshot_and_event_paths_agree_with_batch(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 120, 2
        base = rng.random((n, d))
        cfg = ServiceConfig(r=0.05, tau=2)
        vec = OnlineCharacterizationService(base.copy(), cfg)
        shim = OnlineCharacterizationService(base.copy(), cfg)
        positions = base.copy()
        flags = np.zeros(n, dtype=bool)
        prev_positions = positions.copy()
        for _ in range(8):
            movers = rng.choice(n, size=8, replace=False)
            for j in movers:
                j = int(j)
                sigma = 0.1 if rng.random() < 0.4 else 0.01
                positions[j] = np.clip(
                    positions[j] + rng.normal(0, sigma, d), 0, 1
                )
                flags[j] = rng.random() < 0.5
                shim.ingest(QosUpdate(j, tuple(positions[j]), bool(flags[j])))
            tick_vec = vec.feed_snapshot(positions, flags)
            tick_shim = shim.end_tick()
            assert tick_vec.verdicts.keys() == tick_shim.verdicts.keys()
            for j, a in tick_vec.verdicts.items():
                b = tick_shim.verdicts[j]
                assert (a.anomaly_type, a.rule, a.witness) == (
                    b.anomaly_type,
                    b.rule,
                    b.witness,
                ), j
            if tick_vec.verdicts:
                reference = Transition.from_arrays(
                    prev_positions,
                    positions.copy(),
                    sorted(int(x) for x in np.nonzero(flags)[0]),
                    cfg.r,
                    cfg.tau,
                )
                batch = Characterizer(reference).characterize_all()
                assert batch.keys() == tick_vec.verdicts.keys()
                for j, got in tick_vec.verdicts.items():
                    want = batch[j]
                    assert got.anomaly_type == want.anomaly_type, j
                    assert got.rule == want.rule, j
                    assert got.witness == want.witness, j
            prev_positions = positions.copy()

    def test_verdict_codes_mirror_tick_verdicts(self):
        rng = np.random.default_rng(5)
        n = 60
        base = rng.random((n, 2))
        service = OnlineCharacterizationService(
            base.copy(), ServiceConfig(r=0.05, tau=2)
        )
        positions = base.copy()
        flags = np.zeros(n, dtype=bool)
        movers = [3, 9, 21]
        for j in movers:
            positions[j] = np.clip(positions[j] + 0.15, 0, 1)
            flags[j] = True
        out = service.feed_snapshot(positions, flags)
        codes = service.store.verdict_codes()
        flagged_rows = np.nonzero(codes >= 0)[0]
        assert sorted(int(r) for r in flagged_rows) == sorted(out.verdicts)
        # A later all-clear tick wipes the column.
        flags[:] = False
        service.feed_snapshot(positions, flags)
        assert (service.store.verdict_codes() < 0).all()
