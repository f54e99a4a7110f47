"""Columnar store contracts: free-list, zero-copy views, allocation-free ticks.

The structure-of-arrays PR's acceptance tests live here:

* a hypothesis property test drives random join/leave/move sequences
  against a dict-based mirror: the id↔row map stays a bijection, rows
  are reused LIFO, and a reused row never resurrects the departed
  device's position, flag or verdict;
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
