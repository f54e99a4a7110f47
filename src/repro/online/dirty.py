"""Dirty-region bookkeeping: which verdicts can a tick's updates change?

The paper's locality result (Section V) says a device's verdict is a
function of the trajectories and flag bits of flagged devices within
``4r`` of it, at both interval endpoints.  Turned around, that is an
*invalidation* rule: verdict ``k``'s inputs for device ``j`` differ from
verdict ``k-1``'s only if some device ``i`` inside ``j``'s ``4r``
influence region changed its transition tuple
``(p_{k-1}(i), p_k(i), a_k(i))`` — i.e. ``i`` moved during this interval,
moved during the *previous* one (its ``prev`` endpoint shifted under it),
or toggled its flag.  Moves of devices that are unflagged on both sides
of the toggle are invisible to every verdict and tracked for free.

:class:`DirtyRegionTracker` accumulates those changes as a
:class:`DirtyRegion` — axis-aligned boxes, each tagged with the grid
cell that holds it, where a changed *position* is a box of zero width:

* a relevant update marks the device's trajectory endpoints: its
  ``prev`` position (the store rolled snapshots at the last tick
  boundary) and its new one;
* a *position* move additionally carries its two positions into the
  next tick's region, because ``prev_{k+1} = cur_k`` shifts the
  device's trajectory again one tick later;
* a flagged join or leave marks its trajectory endpoints (the store
  records them, :meth:`~repro.online.store.DeviceStateStore.take_membership`);
* two sources stay cell-granular and mark whole cells: recovery
  (:meth:`DirtyRegionTracker.invalidate_cells`) and the move carry of a
  checkpoint written before positions were recorded.

At tick end (:meth:`DirtyRegionTracker.finish_tick`) a flagged row is
*affected* when its ``prev`` or ``cur`` endpoint lies within Chebyshev
``4r + tol`` of a dirty box — the exact recompute set.  ``tol`` is two
hops of :data:`~repro.core.geometry.CONSISTENCY_ATOL`: a verdict reads
its neighbours' motion families, each hop a ``2r + atol`` test.  The
fan-out is cell-first: rows within ``sure_rings`` cells of a dirty cell
(``(d + 1) * cell <= 4r``) are affected without a distance test, rows
beyond ``rings`` cells are provably out of reach, and only the band in
between is measured, in bounded chunks.  Only the flagged rows are
tested (unflagged devices are never verdict targets), so the fan-out
costs ``O(flagged)``, not ``O(devices near the dirty cells)``.

Both topologies share the fan-out: the single service closes and fans
out its own region in one call; a shard closes its region for the front
door (:meth:`DirtyRegionTracker.close`), which unions every shard's, and
then fans the *global* union out over its own flagged rows — a change
near a shard boundary must invalidate verdicts on both sides.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.geometry import CONSISTENCY_ATOL, unique_cells

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.online.store import AppliedBatch, AppliedUpdate, DeviceStateStore

__all__ = ["DirtyRegion", "DirtyRegionTracker"]

#: How far past ``4r`` a verdict can read: two hops (a neighbour's
#: motion family) of the ``2r + atol`` consistency and range tests.
REACH_TOL = 2.0 * CONSISTENCY_ATOL

#: Element budget of one chunk of the box-distance test, so a wide band
#: of probe rows never materializes a dense rows-by-boxes matrix.
_CHUNK_ELEMENTS = 1 << 16

#: Outward slack of a whole-cell box, far above ``floor``'s rounding at
#: a cell boundary and far below any cell side.
_CELL_GUARD = 1e-9

_NO_KEYS = np.empty((0, 0), dtype=np.int64)
_NO_POINTS = np.empty((0, 0), dtype=np.float64)


class DirtyRegion:
    """Dirty axis-aligned boxes, each inside one grid cell.

    ``keys`` is ``(m, d)`` int64 — the cell holding each box — and
    ``lo`` / ``hi`` are ``(m, d)`` float64 corners.  A changed position
    is a box with ``lo == hi``; a region of positions only holds one
    array as both corners, so it pickles and checkpoints one plane.  A
    whole dirty cell spans its cell.  Regions are plain arrays, so a
    shard ships its region to the front door as is.
    """

    __slots__ = ("keys", "lo", "hi", "_cells")

    def __init__(self, keys: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        self.keys = keys
        self.lo = lo
        self.hi = hi
        self._cells: Optional[np.ndarray] = None

    @classmethod
    def empty(cls) -> "DirtyRegion":
        return cls(_NO_KEYS, _NO_POINTS, _NO_POINTS)

    @classmethod
    def of_points(cls, points: np.ndarray, cell: float) -> "DirtyRegion":
        """Zero-width boxes at ``points``, in the cells that hold them."""
        points = np.asarray(points, dtype=np.float64)
        return cls(np.floor(points / cell).astype(np.int64), points, points)

    @classmethod
    def of_cells(cls, keys: np.ndarray, cell: float) -> "DirtyRegion":
        """Whole cells ``keys`` as boxes, widened by a rounding guard."""
        keys = np.asarray(keys, dtype=np.int64)
        if not keys.size:
            return cls.empty()
        guard = _CELL_GUARD * cell
        return cls(keys, keys * cell - guard, (keys + 1) * cell + guard)

    @classmethod
    def union(cls, parts: Sequence["DirtyRegion"]) -> "DirtyRegion":
        """All boxes of ``parts`` (empty parts of any width are skipped)."""
        live = [part for part in parts if len(part)]
        if not live:
            return cls.empty()
        if len(live) == 1:
            return live[0]
        lo = np.concatenate([part.lo for part in live])
        points = all(part.hi is part.lo for part in live)
        hi = lo if points else np.concatenate([part.hi for part in live])
        return cls(np.concatenate([part.keys for part in live]), lo, hi)

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    @property
    def cells(self) -> np.ndarray:
        """The dirty cells: sorted, de-duplicated ``(k, d)`` int64 keys."""
        if self._cells is None:
            self._cells = unique_cells(self.keys) if len(self) else _NO_KEYS
        return self._cells

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Chebyshev distance from each of ``points`` to its nearest box."""
        out = np.full(points.shape[0], np.inf)
        m = len(self)
        if not m:
            return out
        chunk = max(1, _CHUNK_ELEMENTS // (m * self.lo.shape[1]))
        for start in range(0, points.shape[0], chunk):
            block = points[start : start + chunk, None, :]
            gap = np.maximum(self.lo[None] - block, block - self.hi[None])
            out[start : start + chunk] = gap.max(axis=2).min(axis=1)
        return np.maximum(out, 0.0)

    def state(self, name: str) -> Dict[str, np.ndarray]:
        """The region as ``{name}_keys`` / ``{name}_lo`` / ``{name}_hi``
        arrays: none for an empty region, no ``hi`` for positions only."""
        if not len(self):
            return {}
        state = {f"{name}_keys": self.keys, f"{name}_lo": self.lo}
        if self.hi is not self.lo:
            state[f"{name}_hi"] = self.hi
        return state

    @classmethod
    def from_state(
        cls, state: Dict[str, np.ndarray], name: str, cell: float
    ) -> "DirtyRegion":
        """Inverse of :meth:`state`.  A state without the boxes — written
        when only cells were recorded — holds ``name`` as cell keys."""
        if f"{name}_keys" not in state:
            return cls.of_cells(state.get(name, _NO_KEYS), cell)
        lo = np.asarray(state[f"{name}_lo"], dtype=np.float64)
        hi = state.get(f"{name}_hi")
        return cls(
            np.asarray(state[f"{name}_keys"], dtype=np.int64),
            lo,
            lo if hi is None else np.asarray(hi, dtype=np.float64),
        )


class DirtyRegionTracker:
    """Map a tick's updates to the verdicts they can invalidate.

    Parameters
    ----------
    cell:
        Grid-cell side (must match the store's index).
    influence_radius:
        How far a change can reach: ``4r``, the paper's knowledge radius.
        The fan-out adds :data:`REACH_TOL` for the tests' tolerance.
    """

    def __init__(self, *, cell: float, influence_radius: float) -> None:
        if cell <= 0:
            raise ConfigurationError(f"cell side must be positive, got {cell!r}")
        if influence_radius < 0:
            raise ConfigurationError(
                f"influence_radius must be >= 0, got {influence_radius!r}"
            )
        self._cell = float(cell)
        self._reach = float(influence_radius) + REACH_TOL
        # Two cells at Chebyshev key-distance D hold points more than
        # (D - 1) * cell apart, so rings = floor(reach / cell) + 1 puts
        # everything outside the ring band strictly beyond the reach;
        # cells D <= sure_rings apart hold points less than
        # (D + 1) * cell <= 4r apart.
        self._rings = int(math.floor(self._reach / self._cell + 1e-9)) + 1
        self._sure_rings = int(math.floor(influence_radius / self._cell)) - 1
        self._pending: List[DirtyRegion] = []
        self._carry = DirtyRegion.empty()
        self._carry_next: List[DirtyRegion] = []

    @property
    def rings(self) -> int:
        """Cell-ring radius of the influence band."""
        return self._rings

    def mark(self, applied: "AppliedUpdate", *, was_relevant: bool) -> bool:
        """Record one applied update; returns whether it dirtied anything.

        ``was_relevant`` is true when the device was flagged *before* the
        update — a move of a device that is unflagged before and after
        cannot change any verdict and is skipped entirely.
        """
        relevant = applied.flag_changed or (
            applied.moved and (applied.flagged or was_relevant)
        )
        if not relevant:
            return False
        region = DirtyRegion.of_points(
            np.array([applied.prev_position, applied.new_position]), self._cell
        )
        self._pending.append(region)
        if applied.moved:
            # prev_{k+1} = cur_k: this trajectory shifts again next tick.
            self._carry_next.append(region)
        return True

    def mark_batch(
        self, batch: "AppliedBatch", *, was_relevant: np.ndarray
    ) -> int:
        """Vectorized :meth:`mark` over one applied row batch.

        Computes the relevance mask in one pass and gathers the
        ``prev``/new positions of the relevant rows only — the irrelevant
        bulk of a steady-state tick allocates nothing per device.
        Returns the number of relevant updates.
        """
        relevant = batch.flag_changed | (
            batch.moved & (batch.flagged | np.asarray(was_relevant, dtype=bool))
        )
        count = int(np.count_nonzero(relevant))
        if not count:
            return 0
        self._pending.append(self._endpoints(batch, relevant))
        moved = relevant & batch.moved
        if moved.any():
            # prev_{k+1} = cur_k: these trajectories shift again next tick.
            self._carry_next.append(self._endpoints(batch, moved))
        return count

    def _endpoints(self, batch: "AppliedBatch", mask: np.ndarray) -> DirtyRegion:
        return DirtyRegion.of_points(
            np.concatenate(
                [batch.prev_plane[batch.rows[mask]], batch.new_positions[mask]]
            ),
            self._cell,
        )

    def invalidate_cells(self, keys: np.ndarray) -> None:
        """Force ``keys`` dirty this tick *and* carry them into the next.

        Recovery hook: after a shard process is respawned from its
        shared-memory planes, the in-flight verdict caches are gone and
        any partially applied updates are unattributable, so the parent
        conservatively dirties every alive cell.  Adding the cells to
        the move carry as well covers trajectories whose ``prev``
        endpoint shifted in the lost tick.
        """
        region = DirtyRegion.of_cells(keys, self._cell)
        self._pending.append(region)
        self._carry_next.append(region)

    def close(self, store: "DeviceStateStore") -> DirtyRegion:
        """Close the tick's bookkeeping and return its dirty region.

        The region holds the marks, last tick's move carry, and the
        endpoints of ``store``'s flagged joins / leaves since the last
        tick.  Resets per-tick state; the carry of this tick's moves
        seeds the next tick's region.
        """
        region = DirtyRegion.union(
            [*self._pending, self._carry, store.take_membership()]
        )
        self._pending = []
        self._carry = DirtyRegion.union(self._carry_next)
        self._carry_next = []
        return region

    def finish_tick(
        self, store: "DeviceStateStore", region: Optional[DirtyRegion] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fan a dirty region out: return ``(dirty_cells, affected_rows)``.

        ``region`` defaults to this tracker's own, closed by the call
        (:meth:`close`); a shard passes the front door's global union.
        ``affected_rows`` are the *flagged* rows of ``store`` (ascending)
        whose ``prev`` or ``cur`` endpoint lies within ``4r + tol`` of a
        dirty box — the flagged devices are the only verdict targets, so
        the fan-out never visits the unflagged bulk.
        """
        if region is None:
            region = self.close(store)
        cells = region.cells
        rows = store.flagged_rows()
        dist = store.index.ring_distances(rows, cells, self._rings)
        affected = dist <= self._sure_rings
        band = np.nonzero(~affected & (dist <= self._rings))[0]
        if band.size:
            probe = rows[band]
            prev, cur = store.snapshot_arrays()
            gap = np.minimum(region.distance(prev[probe]), region.distance(cur[probe]))
            affected[band] = gap <= self._reach
        return cells, rows[affected]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, np.ndarray]:
        """The pending marks and both carries as region arrays."""
        return {
            **DirtyRegion.union(self._pending).state("pending"),
            **self._carry.state("carry"),
            **DirtyRegion.union(self._carry_next).state("carry_next"),
        }

    def restore_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore from :meth:`state` output; a state that holds only
        cell keys (``pending`` / ``carry`` / ``carry_next``) restores them
        as whole-cell boxes."""
        cell = self._cell
        self._pending = [DirtyRegion.from_state(state, "pending", cell)]
        self._carry = DirtyRegion.from_state(state, "carry", cell)
        self._carry_next = [DirtyRegion.from_state(state, "carry_next", cell)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DirtyRegionTracker(rings={self._rings}, "
            f"pending={sum(map(len, self._pending))}, carry={len(self._carry)})"
        )
