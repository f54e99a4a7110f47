"""Incrementally maintained uniform-grid spatial index, array-backed.

:class:`~repro.core.geometry.GridIndex` is batch-built: one pass over an
immutable point array.  That is the right shape for the experiment
drivers, which see each snapshot exactly once — and the wrong shape for
an online service, where a tick that moves ``k`` devices out of ``n``
would pay an O(n) rebuild for O(k) change.  :class:`MutableGridIndex`
keeps the same cell decomposition (side ``cell``, keys
``floor(p / cell)``) as *columns*: device positions live in one
``(capacity, d)`` array, integer cell keys in one ``(capacity, d)``
array and liveness in one boolean vector — there is no per-cell
container and no per-device Python object, so ``insert`` / ``remove`` /
``move`` / :meth:`~MutableGridIndex.move_rows` are array writes.  The
position plane can be *adopted zero-copy* from a
:class:`~repro.online.store.DeviceStateStore` via :meth:`from_array`, in
which case the store writes positions and the index only maintains the
key column (:meth:`move_rows` is the vectorized tick path).

Cell keys are the index's only spatial representation.  The tick's
dirty-region fan-out starts with :meth:`~MutableGridIndex.ring_distances`:
the keys of a few probe rows (the flagged devices) are measured against
the dirty cells with :func:`~repro.core.geometry.cells_ring_distance`,
whose cost depends on the probe and dirty-cell counts, not on the
population (:meth:`~MutableGridIndex.rows_near_cells` is the same test
as a row filter).
Range queries (:meth:`query`, :meth:`query_batch`, off the tick path)
build a fresh :class:`GridIndex` over the live rows — one grid
implementation, which answers a single query by a direct scan and a
large batch by sorted cell codes.

Equivalence is part of the contract, not an accident: after *any*
interleaving of mutations, :meth:`query` and :meth:`query_batch` must
return exactly what a freshly built :class:`GridIndex` over the same
points returns (the randomized tests in ``tests/online`` enforce it).
Device identifiers take the place of row indices.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    UnknownDeviceError,
)
from repro.core.geometry import GridIndex, cells_ring_distance, split_flat

__all__ = ["MutableGridIndex"]

CellKey = Tuple[int, ...]


class MutableGridIndex:
    """Uniform-grid index over points in ``[0, 1]^d`` with O(1) updates.

    Parameters
    ----------
    cell:
        Side of the grid cells (``max(2r, 1e-6)`` matches the batch
        indexes a :class:`~repro.core.transition.Transition` builds).
    dim:
        Dimensionality of the indexed points.
    """

    def __init__(self, cell: float, dim: int) -> None:
        if cell <= 0:
            raise ConfigurationError(f"cell side must be positive, got {cell!r}")
        if dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {dim!r}")
        self._cell = float(cell)
        self._dim = int(dim)
        # Columnar state: one positions plane, one key plane, one alive
        # mask — rows are device ids.  ``_external`` marks an adopted
        # positions plane (the store writes it; the index must not).
        self._pts = np.empty((0, self._dim), dtype=float)
        self._keys = np.empty((0, self._dim), dtype=np.int64)
        self._alive = np.empty(0, dtype=bool)
        self._count = 0
        self._external = False

    @classmethod
    def from_points(cls, points: np.ndarray, cell: float) -> "MutableGridIndex":
        """Bulk-load devices ``0..n-1`` from an ``(n, d)`` array.

        One bulk array copy plus a vectorized key computation — the
        per-insert numpy scalar work would dominate at fleet scale.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise DimensionMismatchError("points must be an (n, d) array")
        index = cls(cell, pts.shape[1])
        index._adopt(pts.copy(), external=False)
        return index

    @classmethod
    def from_array(
        cls,
        points: np.ndarray,
        cell: float,
        *,
        alive: Optional[np.ndarray] = None,
    ) -> "MutableGridIndex":
        """Adopt an ``(n, d)`` positions plane *zero-copy*.

        The caller (a :class:`~repro.online.store.DeviceStateStore`)
        owns position writes; the index reads them in place and only
        maintains the key column.  After the owner rewrites rows it must
        call :meth:`move_rows` with those rows so the keys catch up.
        Growing the owner's plane requires :meth:`rebind`.  ``alive``
        (default: every row) marks which rows hold a device.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise DimensionMismatchError("points must be an (n, d) array")
        index = cls(cell, pts.shape[1])
        index._adopt(pts, external=True, alive=alive)
        return index

    def _adopt(
        self,
        pts: np.ndarray,
        *,
        external: bool,
        alive: Optional[np.ndarray] = None,
    ) -> None:
        n = pts.shape[0]
        self._pts = pts
        self._external = external
        self._keys = np.floor(pts / self._cell).astype(np.int64)
        if alive is None:
            self._alive = np.ones(n, dtype=bool)
        else:
            self._alive = np.array(alive, dtype=bool)
            if self._alive.shape != (n,):
                raise DimensionMismatchError(
                    f"alive mask shape {self._alive.shape} incompatible "
                    f"with {n} rows"
                )
        self._count = int(np.count_nonzero(self._alive))

    def rebind(self, points: np.ndarray) -> None:
        """Swap the adopted positions plane for a grown replacement.

        Rows already indexed must be byte-identical in the new plane
        (the store grows by copying); only valid in adopted mode.
        """
        if not self._external:
            raise ConfigurationError("rebind is only valid for adopted planes")
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self._dim:
            raise DimensionMismatchError("points must be an (n, d) array")
        if pts.shape[0] < self._pts.shape[0]:
            raise ConfigurationError("rebind cannot shrink the plane")
        self._pts = pts
        self._grow_rows(pts.shape[0])

    def _grow_rows(self, capacity: int) -> None:
        """Extend the key/alive columns to ``capacity`` rows."""
        have = self._keys.shape[0]
        if capacity <= have:
            return
        keys = np.zeros((capacity, self._dim), dtype=np.int64)
        keys[:have] = self._keys
        alive = np.zeros(capacity, dtype=bool)
        alive[:have] = self._alive
        self._keys = keys
        self._alive = alive
        if not self._external:
            pts = np.zeros((capacity, self._dim), dtype=float)
            pts[: self._pts.shape[0]] = self._pts
            self._pts = pts

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cell(self) -> float:
        """Side of the grid cells."""
        return self._cell

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self._dim

    def __len__(self) -> int:
        return self._count

    def __contains__(self, device: int) -> bool:
        return 0 <= device < self._alive.shape[0] and bool(self._alive[device])

    def _live_rows(self) -> np.ndarray:
        return np.nonzero(self._alive)[0]

    def devices(self) -> Tuple[int, ...]:
        """All indexed device ids, sorted."""
        return tuple(self._live_rows().tolist())

    def position(self, device: int) -> np.ndarray:
        """Current position of ``device`` (a copy)."""
        if device not in self:
            raise UnknownDeviceError(f"device {device} is not indexed")
        return self._pts[device].copy()

    def key_of(self, device: int) -> CellKey:
        """The grid cell currently holding ``device``."""
        if device not in self:
            raise UnknownDeviceError(f"device {device} is not indexed")
        return tuple(self._keys[device].tolist())

    def keys_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Current ``(k, d)`` cell keys of ``rows`` (a gathered copy)."""
        return self._keys[rows].copy()

    def key_column(self) -> np.ndarray:
        """Read-only view of the whole ``(capacity, d)`` cell-key column.

        Rows that hold no device carry stale keys; callers mask them by
        their own occupancy column.  Valid until the next mutation.
        """
        view = self._keys.view()
        view.flags.writeable = False
        return view

    def devices_in_cell(self, key: CellKey) -> FrozenSet[int]:
        """Devices currently stored in one cell."""
        key_arr = np.asarray(key, dtype=np.int64)
        hit = self._alive & np.all(self._keys == key_arr, axis=1)
        return frozenset(np.nonzero(hit)[0].tolist())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _validate(self, position: Sequence[float]) -> np.ndarray:
        pos = np.asarray(position, dtype=float)
        if pos.shape != (self._dim,):
            raise DimensionMismatchError(
                f"position shape {pos.shape} incompatible with dim {self._dim}"
            )
        return pos

    def insert(self, device: int, position: Sequence[float]) -> CellKey:
        """Add a device; returns the cell it landed in."""
        if device in self:
            raise ConfigurationError(
                f"device {device} is already indexed; use move()"
            )
        pos = self._validate(position)
        keys = self.insert_rows(np.array([device]), pos[None, :])
        return tuple(keys[0].tolist())

    def insert_rows(
        self, rows: np.ndarray, positions: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vectorized :meth:`insert` of distinct, unindexed ``rows``.

        In adopted mode the owner has already written the positions and
        ``positions`` is ignored; otherwise it is the ``(k, d)`` state to
        store.  Returns the ``(k, d)`` cell keys the rows landed in.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not rows.size:
            return np.empty((0, self._dim), dtype=np.int64)
        if int(rows.min()) < 0:
            raise ConfigurationError(
                f"device id must be >= 0, got {int(rows.min())!r}"
            )
        top = int(rows.max())
        if top >= self._alive.shape[0]:
            if self._external:
                raise ConfigurationError(
                    f"row {top} is beyond the adopted plane; rebind first"
                )
            self._grow_rows(max(top + 1, 2 * self._alive.shape[0], 4))
        if self._alive[rows].any() or np.unique(rows).size != rows.size:
            raise ConfigurationError(
                "rows are already indexed (or repeated); use move_rows()"
            )
        if not self._external:
            self._pts[rows] = np.asarray(positions, dtype=float)
        keys = np.floor(self._pts[rows] / self._cell).astype(np.int64)
        self._keys[rows] = keys
        self._alive[rows] = True
        self._count += int(rows.size)
        return keys

    def remove(self, device: int) -> CellKey:
        """Drop a device; returns the cell it vacated."""
        if device not in self:
            raise UnknownDeviceError(f"device {device} is not indexed")
        self.remove_rows(np.array([device]))
        return tuple(self._keys[device].tolist())

    def remove_rows(self, rows: np.ndarray) -> None:
        """Vectorized :meth:`remove` of distinct, indexed ``rows``."""
        rows = np.asarray(rows, dtype=np.int64)
        if not rows.size:
            return
        if (
            int(rows.min()) < 0
            or int(rows.max()) >= self._alive.shape[0]
            or not self._alive[rows].all()
            or np.unique(rows).size != rows.size
        ):
            raise UnknownDeviceError("rows are not indexed (or repeated)")
        self._alive[rows] = False
        self._count -= int(rows.size)

    def move(self, device: int, position: Sequence[float]) -> Tuple[CellKey, CellKey]:
        """Relocate a device; returns ``(old_cell, new_cell)``.

        In adopted mode the owner has already written the position;
        ``position`` must match the plane's row (the store guarantees it
        by writing first).
        """
        if device not in self:
            raise UnknownDeviceError(f"device {device} is not indexed")
        pos = self._validate(position)
        if not self._external:
            self._pts[device] = pos
        old_key = tuple(self._keys[device].tolist())
        self._keys[device] = np.floor(pos / self._cell)
        return old_key, tuple(self._keys[device].tolist())

    def move_rows(self, rows: np.ndarray) -> None:
        """Vectorized :meth:`move` for rows whose positions were rewritten.

        Reads the (already updated) positions plane for ``rows`` and
        recomputes their keys in one pass.
        """
        rows = np.asarray(rows, dtype=np.int64)
        self._keys[rows] = np.floor(self._pts[rows] / self._cell)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _grid(self) -> Tuple[GridIndex, np.ndarray]:
        """A batch index over the live rows, plus the row of each point."""
        rows = self._live_rows()
        return GridIndex(self._pts[rows], self._cell), rows

    def query(self, center: Sequence[float], rho: float) -> List[int]:
        """Device ids within uniform distance ``rho`` of ``center``, sorted.

        Identical semantics (including the ``1e-12`` tolerance) to
        :meth:`~repro.core.geometry.GridIndex.query`.
        """
        ctr = self._validate(center)
        grid, rows = self._grid()
        return rows[grid.query_batch_flat(ctr[None, :], rho)[1]].tolist()

    def query_batch(self, centers: np.ndarray, rho: float) -> List[List[int]]:
        """Answer many range queries (one sorted id list per center)."""
        ctrs = np.asarray(centers, dtype=float)
        if ctrs.ndim != 2 or ctrs.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"centers shape {ctrs.shape} incompatible with dim {self._dim}"
            )
        grid, rows = self._grid()
        query_of, hits = grid.query_batch_flat(ctrs, rho)
        return split_flat(query_of, rows[hits].tolist(), ctrs.shape[0], list)

    def _cells_array(self, keys) -> np.ndarray:
        if isinstance(keys, np.ndarray):
            arr = keys.astype(np.int64, copy=False)
        else:
            arr = np.asarray(list(keys), dtype=np.int64)
        return arr.reshape(-1, self._dim)

    def rows_near_cells(
        self, rows: np.ndarray, keys, rings: int
    ) -> np.ndarray:
        """The subset of ``rows`` within ``rings`` cells of any listed cell.

        This is the dirty-region fan-out of the online tick: ``rows`` are
        the devices that can be verdict targets (the flagged rows),
        ``keys`` the tick's dirty cells as a ``(k, d)`` integer array.
        Cost is ``O(|rows| (2 rings + 1)^d log |keys|)`` — independent of
        the population size.  Returned rows keep their input order.
        """
        rows = np.asarray(rows, dtype=np.int64)
        return rows[self.ring_distances(rows, keys, rings) <= rings]

    def ring_distances(self, rows: np.ndarray, keys, rings: int) -> np.ndarray:
        """Cell-ring distance from each of ``rows`` to its nearest listed
        cell, capped at ``rings + 1``
        (:func:`~repro.core.geometry.cells_ring_distance`): one fan-out
        that answers every band up to ``rings``."""
        rows = np.asarray(rows, dtype=np.int64)
        return cells_ring_distance(
            self._keys[rows], self._cells_array(keys), rings
        )

    def devices_near_cells(
        self, keys: Iterable[CellKey], rings: int
    ) -> Set[int]:
        """Devices within ``rings`` cells (Chebyshev) of any listed cell.

        :meth:`rows_near_cells` over every indexed device — a full-fleet
        probe, kept for analysis and tests; the tick probes only the
        rows that can be verdict targets.
        """
        if rings < 0:
            raise ConfigurationError(f"rings must be >= 0, got {rings!r}")
        return set(
            self.rows_near_cells(self._live_rows(), keys, rings).tolist()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableGridIndex(devices={len(self)}, cell={self._cell})"
        )
