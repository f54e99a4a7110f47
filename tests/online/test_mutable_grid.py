"""MutableGridIndex: the cell-key column over an adopted positions plane.

The store-level invariant — every occupied row's key is
``floor(cur / cell)`` through joins, leaves, moves, growth and rebuilds —
is checked in ``test_store_columnar.py``; this file covers the index's
own contract: zero-copy adoption, re-keying, growth and the ring fan-out.

The mutation, query-equivalence and neighbourhood cases drive a
:class:`~repro.online.store.DeviceStateStore` through the batch calls
the service makes (``join`` / ``apply_rows`` / ``leave``) and read its
key column.  The load-bearing property is the contract with
:class:`~repro.core.geometry.GridIndex`: after *any* interleaving of
joins, moves and leaves, a ring fan-out over the occupied rows' keys,
filtered by exact distance, answers exactly what a freshly built batch
index over the same points answers — no device within reach is lost to
a stale or missing key.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    UnknownDeviceError,
)
from repro.core.geometry import CONSISTENCY_ATOL, GridIndex
from repro.online import DeviceStateStore, MutableGridIndex

from tests.online.store_ops import apply_one, assert_keys_match_positions, cell_of


def occupied_rows(store: DeviceStateStore) -> np.ndarray:
    """Rows that hold a device (free rows keep stale keys)."""
    return np.flatnonzero(np.asarray(store.row_ids()) >= 0)


def ids_in_cell(store: DeviceStateStore, key) -> frozenset:
    """Ids of the devices whose cell key is ``key``."""
    rows = occupied_rows(store)
    hit = np.all(store.index.key_column()[rows] == np.asarray(key), axis=1)
    return frozenset(np.asarray(store.row_ids())[rows[hit]].tolist())


def ids_near_cells(store: DeviceStateStore, keys, rings: int) -> set:
    """Ids of the devices within ``rings`` cells of any of ``keys``."""
    rows = occupied_rows(store)
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, store.dim)
    dist = store.index.ring_distances(rows, keys, rings)
    return set(np.asarray(store.row_ids())[rows[dist <= rings]].tolist())


def query_ids(store: DeviceStateStore, center, rho: float) -> list:
    """Sorted ids within uniform distance ``rho`` of ``center``.

    The candidates are the rows within ``floor(rho / cell) + 1`` rings of
    the center's cell — the band the dirty-region tracker fans out over —
    filtered by GridIndex's own ``|p - c| <= rho + atol`` rule.
    """
    center = np.asarray(center, dtype=float)
    cell = store.index.cell
    rings = int(np.floor(rho / cell + 1e-9)) + 1
    home = np.floor(center / cell).astype(np.int64)
    rows = occupied_rows(store)
    near = rows[store.index.ring_distances(rows, home[None, :], rings) <= rings]
    cur = store.current_positions()[near]
    hit = np.all(np.abs(cur - center) <= rho + CONSISTENCY_ATOL, axis=1)
    return sorted(np.asarray(store.row_ids())[near[hit]].tolist())


def fresh_query_ids(ids, pts, cell: float, center, rho: float) -> list:
    """The same query answered by a GridIndex freshly built over ``pts``
    (row ``j`` holding device ``ids[j]``)."""
    found = GridIndex(pts, cell).query(center, rho)
    return sorted(int(ids[j]) for j in found)


class TestConstruction:
    def test_rejects_bad_cell(self):
        with pytest.raises(ConfigurationError):
            MutableGridIndex(0.0, 2)

    def test_rejects_bad_dim(self):
        with pytest.raises(ConfigurationError):
            MutableGridIndex(0.1, 0)

    def test_from_array_keys_every_row(self):
        pts = np.random.default_rng(0).random((30, 2))
        index = MutableGridIndex.from_array(pts, 0.06)
        assert index.key_column().tolist() == np.floor(pts / 0.06).astype(int).tolist()
        assert index.keys_of_rows(np.array([7])).tolist() == [
            np.floor(pts[7] / 0.06).astype(int).tolist()
        ]

    def test_from_array_rejects_1d(self):
        with pytest.raises(DimensionMismatchError):
            MutableGridIndex.from_array(np.zeros(5), 0.1)


class TestKeyColumn:
    def test_move_rows_rekeys_only_the_listed_rows(self):
        pts = np.array([[0.05, 0.05], [0.15, 0.05], [0.45, 0.45]])
        index = MutableGridIndex.from_array(pts, 0.1)
        pts[0] = [0.95, 0.95]
        pts[1] = [0.55, 0.55]
        # The plane is adopted zero-copy: keys catch up only on move_rows.
        assert index.keys_of_rows(np.array([0])).tolist() == [[0, 0]]
        index.move_rows(np.array([0]))
        assert index.key_column().tolist() == [[9, 9], [1, 0], [4, 4]]

    def test_key_column_is_read_only(self):
        index = MutableGridIndex.from_array(np.full((2, 2), 0.5), 0.1)
        with pytest.raises(ValueError):
            index.key_column()[0] = 1

    def test_rebind_grows_the_column_and_keeps_keys(self):
        pts = np.array([[0.05, 0.05], [0.15, 0.05]])
        index = MutableGridIndex.from_array(pts, 0.1)
        grown = np.zeros((4, 2))
        grown[:2] = pts
        grown[3] = [0.75, 0.35]
        index.rebind(grown)
        index.move_rows(np.array([3]))
        assert index.key_column().tolist() == [[0, 0], [1, 0], [0, 0], [7, 3]]
        with pytest.raises(ConfigurationError):
            index.rebind(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatchError):
            index.rebind(np.zeros((8, 3)))


class TestRingDistances:
    def test_distance_to_nearest_dirty_cell_caps_past_rings(self):
        pts = np.array([[0.05, 0.05], [0.15, 0.05], [0.45, 0.45], [0.95, 0.95]])
        index = MutableGridIndex.from_array(pts, 0.1)
        rows = np.arange(4)
        home = np.array([[0, 0]])
        assert index.ring_distances(rows, home, 10).tolist() == [0, 1, 4, 9]
        assert index.ring_distances(rows, home, 2).tolist() == [0, 1, 3, 3]

    def test_no_dirty_cells_is_out_of_every_ring(self):
        index = MutableGridIndex.from_array(np.random.default_rng(0).random((10, 2)), 0.1)
        assert (index.ring_distances(np.arange(10), np.empty((0, 2)), 2) == 3).all()


class TestMutation:
    def test_insert_remove_roundtrip(self):
        store = DeviceStateStore(np.full((1, 2), 0.9), cell=0.1, ids=[0])
        store.join(3, [0.55, 0.25])
        key = cell_of(store, 3)
        assert key == (5, 2)
        assert ids_in_cell(store, key) == frozenset({3})
        store.leave(3)
        assert store.row_if_present(3) is None
        assert ids_in_cell(store, key) == frozenset()
        assert store.n == 1

    def test_double_insert_rejected(self):
        store = DeviceStateStore(np.full((1, 2), 0.9), cell=0.1, ids=[0])
        store.join(1, [0.5, 0.5])
        with pytest.raises(ConfigurationError):
            store.join(1, [0.2, 0.2])

    def test_remove_unknown_rejected(self):
        store = DeviceStateStore(np.full((1, 2), 0.9), cell=0.1, ids=[0])
        with pytest.raises(UnknownDeviceError):
            store.leave(9)

    def test_move_unknown_rejected(self):
        store = DeviceStateStore(np.full((1, 2), 0.9), cell=0.1, ids=[0])
        with pytest.raises(UnknownDeviceError):
            apply_one(store, 9, [0.1, 0.1], False)

    def test_move_within_cell_keeps_key(self):
        store = DeviceStateStore(np.array([[0.51, 0.51]]), cell=0.1)
        old = cell_of(store, 0)
        apply_one(store, 0, [0.52, 0.52], False)
        assert cell_of(store, 0) == old == (5, 5)

    def test_move_across_cells_updates_buckets(self):
        store = DeviceStateStore(np.array([[0.05, 0.05]]), cell=0.1)
        old = cell_of(store, 0)
        apply_one(store, 0, [0.95, 0.95], False)
        new = cell_of(store, 0)
        assert old != new
        assert ids_in_cell(store, old) == frozenset()
        assert ids_in_cell(store, new) == frozenset({0})

    def test_wrong_dim_rejected(self):
        store = DeviceStateStore(np.full((1, 2), 0.9), cell=0.1, ids=[0])
        with pytest.raises(DimensionMismatchError):
            store.join(1, [0.1, 0.2, 0.3])


class TestQueryEquivalence:
    """A ring fan-out over the store's key column, filtered by exact
    distance, must match a freshly built GridIndex exactly."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_static_population_matches(self, dim, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((120, dim))
        cell = 0.06
        store = DeviceStateStore(pts, cell=cell)
        ids = np.arange(120)
        for rho in (0.0, 0.03, 0.06, 0.13):
            for center in rng.random((25, dim)):
                assert query_ids(store, center, rho) == fresh_query_ids(
                    ids, pts, cell, center, rho
                )

    @pytest.mark.parametrize("seed", list(range(6)))
    def test_random_interleaving_matches_fresh_rebuild(self, seed):
        """Join/move/leave in random order; compare against rebuilds.

        Leaves free rows that later joins reuse, so the fan-out must
        mask the stale keys of free rows and re-key reused ones.
        """
        rng = np.random.default_rng(100 + seed)
        cell = 0.08
        first = rng.random(2)
        store = DeviceStateStore(first[None, :], cell=cell, ids=[0])
        positions = {0: first}
        next_id = 1
        for op in range(200):
            roll = rng.random()
            if roll < 0.45 or not positions:
                pos = rng.random(2)
                store.join(next_id, pos)
                positions[next_id] = pos
                next_id += 1
            elif roll < 0.80:
                device = int(rng.choice(sorted(positions)))
                # Mix of local drifts and long jumps.
                if rng.random() < 0.5:
                    pos = np.clip(
                        positions[device] + rng.normal(0, 0.02, 2), 0, 1
                    )
                else:
                    pos = rng.random(2)
                apply_one(store, device, pos, False)
                positions[device] = pos
            else:
                device = int(rng.choice(sorted(positions)))
                store.leave(device)
                del positions[device]
            if op % 25 == 24 and positions:
                assert_keys_match_positions(store)
                ids = sorted(positions)
                pts = np.stack([positions[j] for j in ids])
                centers = rng.random((10, 2))
                for rho in (0.04, 0.09):
                    probe = pts[int(rng.integers(len(pts)))]
                    for center in (*centers, probe):
                        assert query_ids(store, center, rho) == fresh_query_ids(
                            ids, pts, cell, center, rho
                        )

    def test_boundary_tolerance_matches(self):
        # Points engineered exactly rho apart must classify identically
        # in both (same 1e-12 tolerance): the ring band reaches them.
        pts = np.array([[0.2, 0.2], [0.26, 0.2], [0.2601, 0.2]])
        cell = 0.06
        store = DeviceStateStore(pts, cell=cell)
        assert (
            query_ids(store, pts[0], 0.06)
            == fresh_query_ids(range(3), pts, cell, pts[0], 0.06)
            == [0, 1]
        )


class TestNeighborhoodFanout:
    def test_ring_fanout_covers_ring(self):
        pts = np.array([[0.05, 0.05], [0.15, 0.05], [0.45, 0.45], [0.95, 0.95]])
        store = DeviceStateStore(pts, cell=0.1)
        home = cell_of(store, 0)
        assert ids_near_cells(store, [home], 0) == {0}
        assert ids_near_cells(store, [home], 1) == {0, 1}
        assert ids_near_cells(store, [home], 10) == {0, 1, 2, 3}

    def test_ring_fanout_rejects_negative_rings(self):
        index = MutableGridIndex.from_array(np.full((1, 2), 0.5), 0.1)
        with pytest.raises(ConfigurationError):
            index.ring_distances(np.array([0]), np.array([[0, 0]]), -1)

    def test_empty_keys_yield_empty_set(self):
        pts = np.random.default_rng(0).random((10, 2))
        store = DeviceStateStore(pts, cell=0.1)
        assert ids_near_cells(store, np.empty((0, 2)), 2) == set()
