"""Cell-key column over the online store's current positions.

:class:`~repro.core.geometry.GridIndex` is batch-built: one pass over an
immutable point array.  That is the right shape for the experiment
drivers, which see each snapshot exactly once — and the wrong shape for
an online service, where a tick that moves ``k`` devices out of ``n``
would pay an O(n) rebuild for O(k) change.  :class:`MutableGridIndex`
keeps the same cell decomposition (side ``cell``, keys
``floor(p / cell)``) as one ``(capacity, d)`` integer column over the
``cur`` plane of a :class:`~repro.online.store.DeviceStateStore`,
adopted *zero-copy* (:meth:`~MutableGridIndex.from_array`).  The store
writes positions and occupancy; the index only re-keys the rows the
store rewrote or admitted (:meth:`~MutableGridIndex.move_rows`, the
vectorized tick path).  Rows that hold no device keep stale keys, which
the store masks by its own ``id_of`` column.

Cell keys are the index's only spatial representation.  The tick's
dirty-region fan-out starts with :meth:`~MutableGridIndex.ring_distances`:
the keys of a few probe rows (the flagged devices) are measured against
the dirty cells with :func:`~repro.core.geometry.cells_ring_distance`,
whose cost depends on the probe and dirty-cell counts, not on the
population.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigurationError, DimensionMismatchError
from repro.core.geometry import cells_ring_distance

__all__ = ["MutableGridIndex"]


class MutableGridIndex:
    """Cell keys of an adopted ``(capacity, d)`` positions plane.

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
        self._pts = np.empty((0, self._dim), dtype=float)
        self._keys = np.empty((0, self._dim), dtype=np.int64)

    @classmethod
    def from_array(cls, points: np.ndarray, cell: float) -> "MutableGridIndex":
        """Adopt an ``(n, d)`` positions plane *zero-copy* and key every row.

        The caller (a :class:`~repro.online.store.DeviceStateStore`)
        owns position writes; the index reads them in place and only
        maintains the key column.  After the owner rewrites or admits
        rows it must call :meth:`move_rows` with those rows so the keys
        catch up.  Growing the owner's plane requires :meth:`rebind`.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise DimensionMismatchError("points must be an (n, d) array")
        index = cls(cell, pts.shape[1])
        index._pts = pts
        index._keys = np.floor(pts / index._cell).astype(np.int64)
        return index

    def rebind(self, points: np.ndarray) -> None:
        """Swap the adopted positions plane for a grown replacement.

        Rows already keyed must be byte-identical in the new plane (the
        store grows by copying); the key column grows to match.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self._dim:
            raise DimensionMismatchError("points must be an (n, d) array")
        have = self._keys.shape[0]
        if pts.shape[0] < have:
            raise ConfigurationError("rebind cannot shrink the plane")
        keys = np.zeros((pts.shape[0], self._dim), dtype=np.int64)
        keys[:have] = self._keys
        self._pts = pts
        self._keys = keys

    @property
    def cell(self) -> float:
        """Side of the grid cells."""
        return self._cell

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self._dim

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

    def move_rows(self, rows: np.ndarray) -> None:
        """Re-key ``rows`` after the owner rewrote or admitted them.

        Reads the (already updated) positions plane for ``rows`` and
        recomputes their keys in one pass.
        """
        rows = np.asarray(rows, dtype=np.int64)
        self._keys[rows] = np.floor(self._pts[rows] / self._cell)

    def ring_distances(self, rows: np.ndarray, keys: np.ndarray, rings: int) -> np.ndarray:
        """Cell-ring distance from each of ``rows`` to its nearest listed
        cell, capped at ``rings + 1``
        (:func:`~repro.core.geometry.cells_ring_distance`): one fan-out
        that answers every band up to ``rings``.  ``keys`` are the dirty
        cells as a ``(k, d)`` integer array."""
        rows = np.asarray(rows, dtype=np.int64)
        return cells_ring_distance(self._keys[rows], keys, rings)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MutableGridIndex(rows={self._keys.shape[0]}, cell={self._cell})"
