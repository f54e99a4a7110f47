"""Device id → small integer, as sorted integer columns.

:class:`IdColumnMap` is the one id map of the online package: the
store's id→row map and the sharded front door's id→shard map.  It holds
the ids ascending in one ``int64`` column and each id's value in an
aligned one, both closed by an ``int64``-max sentinel whose value is −1.
The sentinel keeps every ``searchsorted`` position in range, so a lookup
is one vectorized search, one gather and one compare — and an absent id
(the sentinel's own included) reads −1.

Compared with a ``dict`` entry per device (~116 bytes and a Python
object each), the map costs 16 bytes per id and builds in one pass: the
sort is skipped when the ids arrive ascending, as a fresh fleet's
``0..n-1`` (and every restore of an unchurned store) does.

Membership changes come in batches and cost ``O(k)``, not ``O(n)``:

* a deleted id keeps its slot with value −1 (a tombstone, read as
  absent), and inserting it again revives the slot — devices crossing a
  shard seam back and forth;
* an id new to the map goes into a second, small sorted run, which is
  merged into the main run (``O(n)``) once it holds ``RECENT_MAX`` ids;
* the runs are merged and the tombstones dropped once tombstones
  outnumber the live ids.

An id lives in at most one run, so a lookup searches both and takes the
hit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.errors import ConfigurationError

__all__ = ["IdColumnMap"]

_SENTINEL = np.iinfo(np.int64).max

#: Ids the small run holds before it is merged into the main one: at the
#: sharded benchmark's ~50 new ids per shard a tick, one ``O(n)`` merge
#: every ~80 ticks.
RECENT_MAX = 4096


def _run(ids, values) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted ``(ids, values)`` columns closed by the sentinel."""
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.size
    run_ids = np.empty(n + 1, dtype=np.int64)
    run_values = np.empty(n + 1, dtype=np.int64)
    if n > 1 and not (ids[1:] > ids[:-1]).all():
        order = np.argsort(ids, kind="stable")
        np.take(ids, order, out=run_ids[:n])
        np.take(np.asarray(values, dtype=np.int64), order, out=run_values[:n])
        if (run_ids[1:n] == run_ids[: n - 1]).any():
            raise ConfigurationError("device ids must be unique")
    else:
        run_ids[:n] = ids
        run_values[:n] = values
    run_ids[n] = _SENTINEL
    run_values[n] = -1
    return run_ids, run_values


class IdColumnMap:
    """Ids with aligned values, −1 for an absent id.

    Ids must be distinct, non-negative and below ``int64``-max; values
    are non-negative ``int64``.  Batch methods expect what they say —
    :meth:`insert` absent ids, :meth:`delete` and :meth:`assign` present
    ones — and the caller checks that with :meth:`lookup` first.
    """

    __slots__ = ("_runs", "_live")

    def __init__(self, ids, values) -> None:
        self._runs: List[Tuple[np.ndarray, np.ndarray]] = [_run(ids, values), _run((), ())]
        self._live = self._runs[0][0].size - 1

    def __len__(self) -> int:
        return self._live

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """The present ids, ascending, and their values."""
        ids = np.concatenate([run_ids[:-1] for run_ids, _ in self._runs])
        values = np.concatenate([run_values[:-1] for _, run_values in self._runs])
        order = np.argsort(ids, kind="stable")
        ids, values = ids[order], values[order]
        present = values >= 0
        return ids[present], values[present]

    def lookup(self, ids) -> np.ndarray:
        """The value of each of ``ids`` (−1 where an id is absent)."""
        ids = np.asarray(ids, dtype=np.int64)
        (main_ids, main_values), (new_ids, new_values) = self._runs
        at = main_ids.searchsorted(ids)
        out = np.where(main_ids[at] == ids, main_values[at], -1)
        if new_ids.size > 1:
            at = new_ids.searchsorted(ids)
            out = np.where(new_ids[at] == ids, new_values[at], out)
        return out

    def locate(self, ids) -> Tuple[np.ndarray, np.ndarray]:
        """Each of ``ids``' value (−1 where absent) and slot.

        A slot numbers an id's entry across both runs (−1 where the id
        has none); an absent id's slot is its tombstone, if it has one.
        Slots stay valid until the next :meth:`insert` or :meth:`delete`,
        which accept them in place of a second search.
        """
        ids = np.asarray(ids, dtype=np.int64)
        (main_ids, main_values), (new_ids, new_values) = self._runs
        at = main_ids.searchsorted(ids)
        hit = main_ids[at] == ids
        values = np.where(hit, main_values[at], -1)
        slots = np.where(hit, at, -1)
        if new_ids.size > 1:
            at = new_ids.searchsorted(ids)
            hit = new_ids[at] == ids
            values = np.where(hit, new_values[at], values)
            slots = np.where(hit, at + main_ids.size, slots)
        return values, slots

    def get(self, device: int) -> Optional[int]:
        """The value of one id, or ``None`` when it is absent."""
        for run_ids, run_values in self._runs:
            at = run_ids.searchsorted(device)
            if run_ids[at] == device:
                value = int(run_values[at])
                return value if value >= 0 else None
        return None

    def _write(self, slots: np.ndarray, values) -> None:
        """Write ``values`` (an array aligned with ``slots``, or one
        scalar) to the entries at ``slots``, all of them valid."""
        main_values = self._runs[0][1]
        split = main_values.size
        in_main = slots < split
        for run_values, take, offset in (
            (main_values, in_main, 0),
            (self._runs[1][1], ~in_main, split),
        ):
            run_values[slots[take] - offset] = (
                values if np.isscalar(values) else values[take]
            )

    def insert(self, ids, values, slots=None) -> None:
        """Add absent ``ids`` with their ``values``; ``slots`` are their
        :meth:`locate` slots, when the caller already has them."""
        ids = np.asarray(ids, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if slots is None:
            slots = self.locate(ids)[1]
        found = slots >= 0
        self._write(slots[found], values[found])
        if not found.all():
            new_ids, new_values = self._runs[1]
            fresh = np.flatnonzero(~found)
            fresh = fresh[np.argsort(ids[fresh], kind="stable")]
            at = new_ids.searchsorted(ids[fresh])
            self._runs[1] = (
                np.insert(new_ids, at, ids[fresh]),
                np.insert(new_values, at, values[fresh]),
            )
        self._live += ids.size
        if self._runs[1][0].size > RECENT_MAX:
            self._merge()

    def delete(self, ids, slots=None) -> None:
        """Drop present ``ids`` (their slots become tombstones); ``slots``
        are their :meth:`locate` slots, when the caller already has them."""
        ids = np.asarray(ids, dtype=np.int64)
        self._write(self.locate(ids)[1] if slots is None else slots, -1)
        self._live -= ids.size
        entries = sum(run_ids.size - 1 for run_ids, _ in self._runs)
        if entries - self._live > self._live:
            self._merge()

    def assign(self, ids, values) -> None:
        """Overwrite the values of present ``ids`` in place."""
        self._write(self.locate(ids)[1], np.asarray(values, dtype=np.int64))

    def _merge(self) -> None:
        """One main run of the present ids; the small run empties."""
        self.__init__(*self.items())
