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

:class:`DirtyRegionTracker` accumulates those changes as integer grid-cell
keys — ``(k, d)`` int64 arrays, never per-cell Python tuples:

* a relevant update marks the device's old and new current cells
  (``old`` doubles as the device's ``prev`` endpoint — the store rolled
  snapshots at the last tick boundary);
* a *position* move additionally carries its two cells into the next
  tick's dirty set, because ``prev_{k+1} = cur_k`` shifts the device's
  trajectory again one tick later;
* at tick end, every flagged device within ``rings`` cells (Chebyshev)
  of a dirty cell is reported as *affected* — a conservative superset of
  the devices whose verdicts can have changed, with ``rings`` sized so
  that anything farther is provably more than ``4r`` away.  Only the
  flagged rows are tested (unflagged devices are never verdict targets),
  so the fan-out costs ``O(flagged)``, not ``O(devices near the dirty
  cells)``.

The complement of the affected set is sound for more than verdict-cache
reuse: a device's *motion family* (``M(j)`` / ``Wbar_k(j)``) is a
function of the trajectories and flag bits of flagged devices within
``2r`` of it — a strict subset of the ``4r`` inputs of its verdict — so
any unaffected device's family from the previous transition is still
exact, and the online service carries those families across ticks via
:meth:`~repro.core.neighborhood.MotionCache.carry_from`, invalidating
the tighter ``family_rings`` band that the same fan-out records
(:attr:`DirtyRegionTracker.family_dirty`).  The one-tick move carry is
what makes this valid for trajectories, not just positions: a device
that moved in tick ``k`` re-dirties its cells in tick ``k+1`` (its
``prev`` endpoint shifts under it), so no family survives a change to
*either* endpoint of a nearby trajectory.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.geometry import unique_cells
from repro.online.store import AppliedBatch, AppliedUpdate, DeviceStateStore

__all__ = ["DirtyRegionTracker", "union_cells"]

#: The empty cell set (its width is unknown until a cell is seen).
_NO_CELLS = np.empty((0, 0), dtype=np.int64)


def union_cells(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Sorted, de-duplicated union of ``(k, d)`` integer cell-key arrays.

    Empty parts (of any width) are ignored; the union of nothing is a
    ``(0, 0)`` array.
    """
    live = [part for part in parts if len(part)]
    if not live:
        return _NO_CELLS
    return unique_cells(np.concatenate(live))


class DirtyRegionTracker:
    """Map a tick's updated cells to the verdicts they can invalidate.

    Parameters
    ----------
    cell:
        Grid-cell side (must match the store's index).
    influence_radius:
        How far a change can reach: ``4r``, the paper's knowledge radius.
    family_radius:
        How far a change can reach into *motion families*: ``2r``, the
        neighbourhood radius of Algorithm 2 (defaults to half the
        influence radius).  Devices beyond this tighter band keep their
        families across the tick even when their verdicts must be
        recomputed — the set the service's cross-tick motion carry is
        allowed to reuse.
    """

    def __init__(
        self,
        *,
        cell: float,
        influence_radius: float,
        family_radius: Optional[float] = None,
    ) -> None:
        if cell <= 0:
            raise ConfigurationError(f"cell side must be positive, got {cell!r}")
        if influence_radius < 0:
            raise ConfigurationError(
                f"influence_radius must be >= 0, got {influence_radius!r}"
            )
        if family_radius is None:
            family_radius = influence_radius / 2.0
        if not 0 <= family_radius <= influence_radius:
            raise ConfigurationError(
                "family_radius must lie in [0, influence_radius], got "
                f"{family_radius!r}"
            )
        self._cell = float(cell)
        # Two cells at Chebyshev key-distance D hold points at least
        # (D - 1) * cell apart, so rings = floor(4r / cell) + 1 guarantees
        # rings * cell > 4r: anything outside the ring band is strictly
        # beyond the influence radius even at cell-boundary extremes.
        self._rings = int(math.floor(influence_radius / self._cell + 1e-9)) + 1
        self._family_rings = int(
            math.floor(family_radius / self._cell + 1e-9)
        ) + 1
        self._pending: List[np.ndarray] = []
        self._carry: np.ndarray = _NO_CELLS
        self._carry_next: List[np.ndarray] = []
        #: Flagged rows within ``family_rings`` of the dirty cells of the
        #: last :meth:`finish_tick` (a subset of its affected rows).
        self.family_dirty: Set[int] = set()

    @property
    def rings(self) -> int:
        """Cell-ring radius of the influence band."""
        return self._rings

    @property
    def family_rings(self) -> int:
        """Cell-ring radius of the (tighter) motion-family band."""
        return self._family_rings

    @property
    def pending_cells(self) -> np.ndarray:
        """Cells dirtied so far this tick (including last tick's carry)."""
        return union_cells([*self._pending, self._carry])

    def mark(self, applied: AppliedUpdate, *, was_relevant: bool) -> bool:
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
        cells = np.array([applied.old_cell, applied.new_cell], dtype=np.int64)
        self._pending.append(cells)
        if applied.moved:
            # prev_{k+1} = cur_k: this trajectory shifts again next tick.
            self._carry_next.append(cells)
        return True

    def mark_batch(
        self, batch: AppliedBatch, *, was_relevant: np.ndarray
    ) -> int:
        """Vectorized :meth:`mark` over one applied row batch.

        Computes the relevance mask in one pass and keeps the old/new
        keys of the relevant rows as arrays — the irrelevant bulk of a
        steady-state tick allocates nothing per device.  Returns the
        number of relevant updates.
        """
        relevant = batch.flag_changed | (
            batch.moved & (batch.flagged | np.asarray(was_relevant, dtype=bool))
        )
        count = int(np.count_nonzero(relevant))
        if not count:
            return 0
        self._pending.append(batch.old_keys[relevant])
        self._pending.append(batch.new_keys[relevant])
        moved = relevant & batch.moved
        if moved.any():
            # prev_{k+1} = cur_k: these trajectories shift again next tick.
            self._carry_next.append(batch.old_keys[moved])
            self._carry_next.append(batch.new_keys[moved])
        return count

    def invalidate_cells(self, keys: np.ndarray) -> None:
        """Force ``keys`` dirty this tick *and* carry them into the next.

        Recovery hook: after a shard process is respawned from its
        shared-memory planes, the in-flight verdict caches are gone and
        any partially applied updates are unattributable, so the parent
        conservatively dirties every alive cell.  Adding the cells to
        the move carry as well covers trajectories whose ``prev``
        endpoint shifted in the lost tick.
        """
        cells = np.asarray(keys, dtype=np.int64)
        self._pending.append(cells)
        self._carry_next.append(cells)

    def finish_cells(self, store: DeviceStateStore) -> np.ndarray:
        """Close the tick's *cell* bookkeeping: return the dirty cells.

        The result is a sorted ``(k, d)`` int64 array of unique cell
        keys: the marked cells, last tick's move carry, and the cells of
        ``store``'s flagged joins / leaves since the last tick
        (:meth:`~repro.online.store.DeviceStateStore.take_membership_cells`).
        Resets per-tick state; the carry of this tick's moves seeds the
        next tick's dirty set.  The sharded topology uses this half of
        :meth:`finish_tick` on its own: each shard closes its cells, the
        front door unions them, and every shard then tests its flagged
        rows against the *global* union — a change near a shard boundary
        must invalidate verdicts on both sides.
        """
        dirty = union_cells(
            [*self._pending, self._carry, *store.take_membership_cells()]
        )
        self._pending = []
        self._carry = union_cells(self._carry_next)
        self._carry_next = []
        return dirty

    def finish_tick(
        self, store: DeviceStateStore
    ) -> Tuple[np.ndarray, Set[int]]:
        """Close the tick: return ``(dirty_cells, affected_rows)``.

        ``affected_rows`` is every *flagged* row of ``store`` within
        ``rings`` cells of a dirty cell — the flagged devices are the
        only possible verdict targets, so the fan-out never visits the
        unflagged bulk.  The same fan-out (one ring distance per flagged
        row) records :attr:`family_dirty`: the flagged rows whose motion
        *families* are invalidated, the tighter ``family_rings`` band.
        """
        dirty = self.finish_cells(store)
        rows = store.flagged_rows()
        dist = store.index.ring_distances(rows, dirty, self._rings)
        self.family_dirty = set(rows[dist <= self._family_rings].tolist())
        return dirty, set(rows[dist <= self._rings].tolist())

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, np.ndarray]:
        """The three cell sets as ``(k, d)`` integer arrays (sorted)."""
        return {
            "pending": union_cells(self._pending),
            "carry": self._carry,
            "carry_next": union_cells(self._carry_next),
        }

    def restore_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore the cell sets from :meth:`state` output."""
        self._pending = [union_cells([state["pending"]])]
        self._carry = union_cells([state["carry"]])
        self._carry_next = [union_cells([state["carry_next"]])]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DirtyRegionTracker(rings={self._rings}, "
            f"pending={len(self.pending_cells)}, carry={len(self._carry)})"
        )
