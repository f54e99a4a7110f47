"""Columnar (structure-of-arrays) device state for the online service.

:class:`DeviceStateStore` is the service's system-state mirror: the last
two QoS snapshots (the ``S_{k-1}`` / ``S_k`` pair a
:class:`~repro.core.transition.Transition` needs), the flag bit
``a_k(j)`` and the last verdict code — for every device, as *columns*:
two ``(capacity, d)`` position planes and a handful of ``(capacity,)``
vectors.  There is no per-device Python object anywhere in the store,
the id map included; a device is a row index.

Rows map to identifiers through the ``id_of`` column (−1 marks a free
row), and identifiers to rows through an
:class:`~repro.online.idmap.IdColumnMap`: the present ids sorted, their
rows aligned, both ``int64`` columns (16 bytes a device).  A lookup is
one vectorized ``searchsorted`` over a whole id batch — the event path,
the shard commands and :meth:`record_verdicts` look up every id of a
batch in one call.  The map is derived from ``id_of``, so a checkpoint
never carries it: the constructor, :meth:`from_state` and
:meth:`adopt_planes` build it in one pass, skipping the sort when the
ids are already ascending (a fresh fleet's ``0..n-1``, or any store
whose rows were never recycled out of id order).  :meth:`admit_rows` and
:meth:`leave_rows` insert and delete one batch at a time.

Freed rows go on a LIFO free-list: :meth:`join` reuses the most recently
vacated row (best cache locality) and :meth:`leave` scrubs the row
before freeing it so reuse can never resurrect stale positions or flags.

The hot path itself is :meth:`apply_rows`: one gather/compare/scatter
over the tick's changed rows, one vectorized cell re-key in the adopted
:class:`~repro.online.grid.MutableGridIndex` (which shares the current
position plane zero-copy), and an :class:`AppliedBatch` of row vectors
for the dirty-region tracker.  The per-device :meth:`apply` survives as
a compatibility shim over a one-row batch.

:meth:`snapshot_arrays` and :meth:`current_positions` return *read-only
views* by default (``copy=True`` opts into a private copy); anything
that must outlive the tick — e.g. a published ``Transition`` — copies
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    UnknownDeviceError,
)
from repro.core.geometry import validate_unit_cube
from repro.core.types import AnomalyType, Characterization
from repro.ipc import ShmPlanes
from repro.online.dirty import DirtyRegion
from repro.online.grid import CellKey, MutableGridIndex
from repro.online.idmap import IdColumnMap

__all__ = [
    "AppliedBatch",
    "AppliedUpdate",
    "DeviceStateStore",
    "attach_store_planes",
    "read_store_columns",
    "shm_planes_factory",
    "store_plane_fields",
]

#: Verdict-code column value meaning "no verdict recorded".
NO_VERDICT = np.int8(-1)

#: Stable int8 encoding of verdict types for the verdict-code column.
VERDICT_CODE = {kind: np.int8(i) for i, kind in enumerate(AnomalyType)}

# ----------------------------------------------------------------------
# Shared-memory plane layout.
#
# The process topology keeps each shard's partition in one shm segment
# so the partition outlives the worker process that mutates it: a killed
# worker's successor re-attaches by name and resumes from the exact row
# data its predecessor last scattered.  Header slots: [0] used high-water
# mark, [1] tick serial, [2] capacity, [3] dim — the two mutable scalars
# are written through on every change, the two fixed ones let an
# attacher recompute the layout from the segment alone.
# ----------------------------------------------------------------------
_HDR_USED, _HDR_SERIAL, _HDR_CAPACITY, _HDR_DIM = 0, 1, 2, 3


def store_plane_fields(dim: int):
    """The store's column layout as :class:`~repro.ipc.ShmPlanes` fields."""
    return (
        ("prev", np.float64, (dim,)),
        ("cur", np.float64, (dim,)),
        ("flags", np.bool_, ()),
        ("alive", np.bool_, ()),
        ("verdict", np.int8, ()),
        ("id_of", np.int64, ()),
    )


#: The store's columns, in plane order; each is the attribute ``_<name>``.
_COLUMNS = tuple(name for name, _, _ in store_plane_fields(0))


def shm_planes_factory(created: Optional[List[ShmPlanes]] = None):
    """A ``planes_factory`` allocating store columns in shared memory.

    Fork-context creators leave resource tracking alone (the shared
    tracker pairs create/attach registrations with the eventual unlink).
    ``created``, when given, collects every plane set the factory makes,
    so a builder that fails midway can unlink what it allocated.
    """

    def factory(capacity: int, dim: int) -> ShmPlanes:
        planes = ShmPlanes.create(capacity, store_plane_fields(dim))
        planes.header[_HDR_CAPACITY] = capacity
        planes.header[_HDR_DIM] = dim
        if created is not None:
            created.append(planes)
        return planes

    return factory


def attach_store_planes(name: str, capacity: int, dim: int) -> ShmPlanes:
    """Attach an existing store plane segment by name."""
    return ShmPlanes.attach(name, capacity, store_plane_fields(dim))


def read_store_columns(seg, capacity: int, dim: int) -> Dict[str, np.ndarray]:
    """Copy the used rows of every column out of a store plane segment.

    ``seg`` is an attached segment (e.g. from a
    :class:`~repro.ipc.SegmentReader`); the copies are the columns of
    :meth:`DeviceStateStore.state` and outlive the mapping.
    """
    planes = ShmPlanes(seg, capacity, store_plane_fields(dim), owner=False)
    used = int(planes.header[_HDR_USED])
    return {name: col[:used].copy() for name, col in planes.arrays.items()}


@dataclass(frozen=True)
class AppliedUpdate:
    """What one :meth:`DeviceStateStore.apply` actually changed.

    The dirty-region tracker consumes exactly these facts: whether the
    device moved, whether its flag bit toggled, and its trajectory's
    endpoints — ``prev_position`` (``S_{k-1}``) and the new position.
    """

    device: int
    moved: bool
    flag_changed: bool
    flagged: bool
    old_cell: CellKey
    new_cell: CellKey
    prev_position: Tuple[float, ...]
    new_position: Tuple[float, ...]


@dataclass(frozen=True)
class AppliedBatch:
    """Row-vector description of one :meth:`DeviceStateStore.apply_rows`.

    All arrays are aligned: entry ``i`` describes ``rows[i]`` (device id
    ``ids[i]``).  ``new_positions`` are the ``(k, d)`` positions written;
    ``prev_plane`` is a read-only view of the store's ``S_{k-1}`` plane,
    indexed by row — each trajectory's other endpoint, however many
    updates the tick applies.  The tracker gathers both only for the
    relevant rows, so the batch itself copies no position.
    """

    rows: np.ndarray
    ids: np.ndarray
    moved: np.ndarray
    flag_changed: np.ndarray
    flagged: np.ndarray
    was_flagged: np.ndarray
    prev_plane: np.ndarray
    new_positions: np.ndarray

    def __len__(self) -> int:
        return int(self.rows.shape[0])


class DeviceStateStore:
    """Last two snapshots + flag state for ``n`` devices.

    Parameters
    ----------
    initial_positions:
        ``(n, d)`` QoS state at service start; both snapshots begin equal
        (every trajectory starts stationary).  Devices get ids (= rows)
        ``0..n-1``.
    cell:
        Grid-cell side for the spatial index (``max(2r, 1e-6)`` to
        match the transition indexes).
    ids:
        Optional explicit device ids for the initial rows (defaults to
        ``0..n-1``).  A sharded topology builds each partition store
        with the global ids of its residents, so verdicts and
        checkpoints stay in one id space.
    """

    def __init__(
        self,
        initial_positions: np.ndarray,
        *,
        cell: float,
        ids: Optional[np.ndarray] = None,
        planes_factory=None,
    ) -> None:
        pts = validate_unit_cube(np.asarray(initial_positions, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise DimensionMismatchError(
                "initial_positions must be a non-empty (n, d) array"
            )
        n = pts.shape[0]
        self._cell = float(cell)
        self._planes_factory = planes_factory
        self._planes: Optional[ShmPlanes] = None
        self.retired_planes: List[ShmPlanes] = []
        self._materialize(n, pts.shape[1])
        self._prev[:] = pts
        self._cur[:] = pts
        self._alive[:] = True
        # The index adopts the current-position plane zero-copy: the
        # store writes positions, the index keeps cell membership.
        self._index = MutableGridIndex.from_array(self._cur, cell)
        self._used = n  # high-water mark of ever-allocated rows
        self._free: List[int] = []  # LIFO row free-list
        rows = np.arange(n, dtype=np.int64)
        if ids is None:
            self._id_of[:] = rows  # row -> id (-1 free)
            self._rows = IdColumnMap(rows, rows)
        else:
            id_arr = np.asarray(ids, dtype=np.int64)
            if id_arr.shape != (n,):
                raise DimensionMismatchError(
                    f"ids shape {id_arr.shape} incompatible with {n} rows"
                )
            if id_arr.min(initial=0) < 0:
                raise ConfigurationError("device ids must be >= 0")
            self._id_of[:] = id_arr
            self._rows = IdColumnMap(id_arr, rows)
        self._tick_serial = 0
        self._membership: List[DirtyRegion] = []
        self._coded_rows = np.empty(0, dtype=np.int64)
        self._sync_header()

    def _materialize(self, capacity: int, dim: int) -> None:
        """Point the columns at fresh zeroed backing of ``capacity`` rows.

        Heap arrays by default.  With a ``planes_factory`` installed the
        columns become views into one shared-memory segment (the process
        topology's crash-survivable partition); a previous segment, if
        any, is parked on ``retired_planes`` — its creator must keep it
        alive until the supervisor has learned the new segment's name,
        because a crash in between is recovered by re-attaching the
        *old* name.
        """
        if self._planes_factory is None:
            self._prev = np.zeros((capacity, dim), dtype=np.float64)
            self._cur = np.zeros((capacity, dim), dtype=np.float64)
            self._flags = np.zeros(capacity, dtype=bool)
            self._alive = np.zeros(capacity, dtype=bool)
            self._verdict = np.full(capacity, NO_VERDICT, dtype=np.int8)
            self._id_of = np.full(capacity, -1, dtype=np.int64)
            return
        planes = self._planes_factory(capacity, dim)
        if self._planes is not None:
            self.retired_planes.append(self._planes)
        self._planes = planes
        self._bind_planes(planes)
        self._verdict[:] = NO_VERDICT
        self._id_of[:] = -1

    def _bind_planes(self, planes: ShmPlanes) -> None:
        for name in _COLUMNS:
            setattr(self, f"_{name}", planes.arrays[name])

    def _columns(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, f"_{name}") for name in _COLUMNS}

    def _sync_header(self) -> None:
        """Write-through the mutable scalars into the shm plane header."""
        if self._planes is not None:
            self._planes.header[_HDR_USED] = self._used
            self._planes.header[_HDR_SERIAL] = self._tick_serial

    @property
    def planes(self) -> Optional[ShmPlanes]:
        """The shm plane set backing the columns (``None`` on the heap)."""
        return self._planes

    def drop_retired_planes(self) -> None:
        """Unlink plane segments retired by growth (creator-side)."""
        for planes in self.retired_planes:
            planes.unlink()
        self.retired_planes = []

    def release_planes(self, *, unlink: bool) -> None:
        """Drop every shm view and close (optionally unlink) the planes.

        The worker-exit path: numpy views pin the mapping, so the
        columns and the adopted grid index must be dropped *before* the
        segment closes.  The store is unusable afterwards.
        """
        if self._planes is None:
            return
        planes, self._planes = self._planes, None
        for name in _COLUMNS:
            setattr(self, f"_{name}", None)
        self._index = None
        self._rows = IdColumnMap((), ())
        self.drop_retired_planes()
        if unlink:
            planes.unlink()
        else:
            planes.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of live devices."""
        return len(self._rows)

    @property
    def dim(self) -> int:
        """Number of services per device."""
        return self._cur.shape[1]

    @property
    def index(self) -> MutableGridIndex:
        """The incrementally maintained index over *current* positions."""
        return self._index

    @property
    def tick_serial(self) -> int:
        """Monotone counter bumped by each :meth:`advance_tick`.

        The shard command protocol compares it with a command's tick to
        roll a deferred snapshot exactly once
        (:func:`repro.online.procshard.handle_command`).
        """
        return self._tick_serial

    @property
    def nbytes(self) -> int:
        """Total bytes held in the store's columns (capacity, not n)."""
        return sum(col.nbytes for col in self._columns().values())

    @property
    def bytes_per_device(self) -> float:
        """Columnar bytes per live device."""
        return self.nbytes / max(1, self.n)

    def row_of(self, device: int) -> int:
        """The row currently backing ``device``."""
        row = self._rows.get(device)
        if row is None:
            raise UnknownDeviceError(f"device {device} is not in the store")
        return row

    def row_if_present(self, device: int) -> Optional[int]:
        """The row backing ``device``, or ``None`` when unknown."""
        return self._rows.get(device)

    def rows_of(self, ids) -> np.ndarray:
        """The rows backing ``ids`` (−1 where a device is unknown)."""
        return self._rows.lookup(ids)

    def locate(self, ids) -> Tuple[np.ndarray, np.ndarray]:
        """``ids``' rows (−1 where unknown) and their id-map slots, which
        :meth:`leave_rows` and :meth:`admit_rows` take in place of a
        second lookup (:meth:`~repro.online.idmap.IdColumnMap.locate`)."""
        return self._rows.locate(ids)

    def id_of(self, row: int) -> int:
        """The device id stored in ``row``."""
        if not 0 <= row < self._used or self._id_of[row] < 0:
            raise UnknownDeviceError(f"row {row} is not occupied")
        return int(self._id_of[row])

    def is_flagged(self, device: int) -> bool:
        """Current flag bit ``a_k(j)``."""
        return bool(self._flags[self.row_of(device)])

    def flagged_devices(self) -> Tuple[int, ...]:
        """All currently flagged devices, sorted by id."""
        rows = np.nonzero(self._flags[: self._used])[0]
        return tuple(sorted(int(self._id_of[row]) for row in rows))

    def flagged_rows(self) -> np.ndarray:
        """Rows of all currently flagged devices (ascending row order)."""
        return np.nonzero(self._flags[: self._used])[0]

    def flag_vector(self) -> np.ndarray:
        """Read-only view of the flag column over allocated rows."""
        view = self._flags[: self._used]
        view.flags.writeable = False
        return view

    def row_ids(self) -> np.ndarray:
        """Read-only view of the row→id column (−1 marks a free row).

        The sharded topology's partition view: a shard store built with
        explicit global ``ids`` exposes, per row, which global device it
        backs — the id map every local transition and checkpoint is
        keyed through.
        """
        view = self._id_of[: self._used]
        view.flags.writeable = False
        return view

    def verdict_codes(self) -> np.ndarray:
        """Read-only view of the verdict-code column (−1 = none)."""
        view = self._verdict[: self._used]
        view.flags.writeable = False
        return view

    def record_verdicts(self, verdicts: Mapping[int, Characterization]) -> None:
        """Mirror one tick's verdict map into the verdict-code column.

        Clears the rows this method coded last time, then codes the rows
        of ``verdicts``' devices, so the column holds exactly the latest
        tick's verdicts.  A restored or adopted store takes every coded
        row of its column as the rows coded last time.
        """
        self._verdict[self._coded_rows] = NO_VERDICT
        count = len(verdicts)
        rows = self._rows.lookup(np.fromiter(verdicts, dtype=np.int64, count=count))
        if (rows < 0).any():
            raise UnknownDeviceError("a verdict names a device not in the store")
        self._verdict[rows] = np.fromiter(
            (VERDICT_CODE[v.anomaly_type] for v in verdicts.values()),
            dtype=np.int8,
            count=count,
        )
        self._coded_rows = rows

    def snapshot_arrays(
        self, *, copy: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(S_{k-1}, S_k)`` over allocated rows.

        Read-only views by default — zero-copy, valid until the next
        mutation.  Pass ``copy=True`` for private copies safe to freeze
        into a long-lived :class:`~repro.core.transition.Transition`.
        """
        if copy:
            return self._prev[: self._used].copy(), self._cur[: self._used].copy()
        prev = self._prev[: self._used]
        cur = self._cur[: self._used]
        prev.flags.writeable = False
        cur.flags.writeable = False
        return prev, cur

    def current_positions(self, *, copy: bool = False) -> np.ndarray:
        """Current ``(n, d)`` positions over allocated rows.

        The service diffs incoming snapshots against this instead of the
        caller's remembered ``previous`` array, so mid-tick ingests can
        never desynchronize the store from the fed stream.  A read-only
        view by default (the diff runs every tick); ``copy=True`` opts
        into a private copy.
        """
        if copy:
            return self._cur[: self._used].copy()
        view = self._cur[: self._used]
        view.flags.writeable = False
        return view

    def position(self, device: int) -> np.ndarray:
        """Current position of ``device`` (a copy)."""
        return self._cur[self.row_of(device)].copy()

    # ------------------------------------------------------------------
    # Membership (join / leave with row reuse)
    # ------------------------------------------------------------------
    def join(
        self, device: int, position: Sequence[float], flagged: bool = False
    ) -> int:
        """Admit a device, reusing a freed row if one exists.

        Both snapshots start at ``position`` (a new trajectory is
        stationary).  Returns the backing row.
        """
        pos = np.asarray(position, dtype=float)
        return self.admit(device, pos, pos, flagged)

    def admit(
        self,
        device: int,
        prev: Sequence[float],
        cur: Sequence[float],
        flagged: bool = False,
        verdict_code: int = int(NO_VERDICT),
    ) -> int:
        """Admit a device mid-trajectory, with distinct snapshot endpoints.

        A one-row :meth:`admit_rows`.  A device crossing a shard boundary
        must arrive with its *previous* position intact — :meth:`join`
        would restart its trajectory as stationary (``prev = cur``),
        silently erasing the very move that made it cross.  Returns the
        backing row.
        """
        prev_pos = np.asarray(prev, dtype=float)
        cur_pos = np.asarray(cur, dtype=float)
        for name, pos in (("position", cur_pos), ("prev", prev_pos)):
            if pos.shape != (self.dim,):
                raise DimensionMismatchError(
                    f"{name} shape {pos.shape} incompatible with dim {self.dim}"
                )
        rows = self.admit_rows(
            np.array([device], dtype=np.int64),
            prev_pos[None, :],
            cur_pos[None, :],
            np.array([bool(flagged)]),
            np.array([verdict_code], dtype=np.int8),
        )
        return int(rows[0])

    def admit_rows(
        self,
        ids: np.ndarray,
        prev: np.ndarray,
        cur: np.ndarray,
        flags: np.ndarray,
        codes: np.ndarray,
        slots: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Admit ``k`` absent devices in one vectorized pass.

        Rows come off the free-list LIFO, then from the high-water mark
        (growing the planes as a sequence of :meth:`admit` calls would).
        The payload columns are written *before* ``id_of``: occupancy is
        what :meth:`adopt_planes` trusts, so a worker killed mid-admit
        leaves each device either whole or absent — never present with a
        half-written trajectory — and an admit-if-absent resend completes
        the batch.  ``slots`` are the ids' :meth:`locate` slots from a
        caller that has just found them absent.  Returns the backing
        rows, aligned with ``ids``.
        """
        ids = np.asarray(ids, dtype=np.int64)
        k = ids.shape[0]
        prev = validate_unit_cube(np.asarray(prev, dtype=float))
        cur = validate_unit_cube(np.asarray(cur, dtype=float))
        flags = np.asarray(flags, dtype=bool)
        codes = np.asarray(codes, dtype=np.int8)
        dim = self.dim
        if (
            ids.shape != (k,)
            or prev.shape != (k, dim)
            or cur.shape != (k, dim)
            or flags.shape != (k,)
            or codes.shape != (k,)
        ):
            raise DimensionMismatchError(
                f"admit batch shapes {prev.shape}/{cur.shape}/{flags.shape}/"
                f"{codes.shape} incompatible with {k} rows of dim {dim}"
            )
        if not k:
            return np.empty(0, dtype=np.int64)
        if int(ids.min()) < 0:
            raise ConfigurationError(
                f"device id must be >= 0, got {int(ids.min())!r}"
            )
        stored = False
        if slots is None:
            found, slots = self._rows.locate(ids)
            stored = bool((found >= 0).any())
        if stored or np.unique(ids).size != k:
            raise ConfigurationError(
                "devices are already stored (or repeated in the batch)"
            )
        reused = min(k, len(self._free))
        fresh = k - reused
        capacity = self._cur.shape[0]
        while capacity < self._used + fresh:
            capacity = max(4, 2 * capacity)
        if capacity != self._cur.shape[0]:
            self._grow(capacity)
        rows = np.empty(k, dtype=np.int64)
        split = len(self._free) - reused
        rows[:reused] = self._free[split:][::-1]
        rows[reused:] = np.arange(self._used, self._used + fresh)
        del self._free[split:]
        self._prev[rows] = prev
        self._cur[rows] = cur
        self._flags[rows] = flags
        self._verdict[rows] = codes
        self._alive[rows] = True
        self._id_of[rows] = ids
        self._used += fresh
        self._rows.insert(ids, rows, slots)
        self._index.insert_rows(rows)
        if flags.any():
            # A stationary trajectory's prev endpoint is its cur one.
            moved = flags & np.any(prev != cur, axis=1)
            self._membership.append(
                DirtyRegion.of_points(
                    np.concatenate([cur[flags], prev[moved]]), self._cell
                )
            )
        self._sync_header()
        return rows

    def leave(self, device: int) -> int:
        """Evict a device, scrubbing and freeing its row (a one-row
        :meth:`leave_rows`).  Returns the freed row."""
        row = self.row_of(device)
        self.leave_rows(np.array([row], dtype=np.int64))
        return row

    def leave_rows(
        self, rows: np.ndarray, slots: Optional[np.ndarray] = None
    ) -> None:
        """Evict the devices of distinct, occupied ``rows`` in one pass.

        ``id_of`` is cleared *first*, so a worker killed mid-leave
        leaves each device absent (:meth:`adopt_planes` scrubs the
        rest).  Each row is zeroed (positions, flag, verdict) *before*
        it enters the free-list — in ``rows`` order, as a sequence of
        :meth:`leave` calls would push them — so a later admit can never
        observe a departed device's state.  ``slots`` are the devices'
        :meth:`locate` slots, when the caller has them.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not rows.size:
            return
        if (
            int(rows.min()) < 0
            or int(rows.max()) >= self._used
            or (self._id_of[rows] < 0).any()
            or np.unique(rows).size != rows.size
        ):
            raise UnknownDeviceError("rows are not occupied (or repeated)")
        ids = self._id_of[rows]
        flagged = rows[self._flags[rows]]
        if flagged.size:
            self._membership.append(
                DirtyRegion.of_points(
                    np.concatenate([self._prev[flagged], self._cur[flagged]]),
                    self._cell,
                )
            )
        self._id_of[rows] = -1
        self._index.remove_rows(rows)
        self._prev[rows] = 0.0
        self._cur[rows] = 0.0
        self._flags[rows] = False
        self._verdict[rows] = NO_VERDICT
        self._alive[rows] = False
        self._rows.delete(ids, slots)
        self._free.extend(rows.tolist())

    def take_membership(self) -> DirtyRegion:
        """Trajectory endpoints of flagged joins / leaves since the last
        call (cleared).

        A flagged device that joins or leaves changes the transition of
        every verdict near its trajectory endpoints without any update
        being applied, so the dirty-region tracker folds these points
        into the tick's dirty region (unflagged churn is invisible to
        every verdict and is not recorded).
        """
        region = DirtyRegion.union(self._membership)
        self._membership = []
        return region

    def _grow(self, capacity: int) -> None:
        """Reallocate all columns to ``capacity`` rows and rebind the index."""
        olds = self._columns()
        self._materialize(capacity, self.dim)
        for name, new in self._columns().items():
            new[: olds[name].shape[0]] = olds[name]
        self._index.rebind(self._cur)
        self._sync_header()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_rows(
        self, rows: np.ndarray, positions: np.ndarray, flags: np.ndarray
    ) -> AppliedBatch:
        """Apply one tick's reports for ``rows`` in a single vectorized pass.

        ``rows`` must be unique, occupied row indices; ``positions`` is
        the matching ``(k, d)`` new state and ``flags`` the matching flag
        bits.  Gathers old state, scatters new state, re-keys movers in
        and re-keys movers in the index.  No per-device Python objects
        are created on this path.
        """
        rows = np.asarray(rows, dtype=np.int64)
        k = rows.shape[0]
        positions = np.asarray(positions, dtype=float)
        flags = np.asarray(flags, dtype=bool)
        if positions.shape != (k, self.dim) or flags.shape != (k,):
            raise DimensionMismatchError(
                f"batch shapes {positions.shape}/{flags.shape} incompatible "
                f"with {k} rows of dim {self.dim}"
            )
        if k and (
            rows.min() < 0
            or rows.max() >= self._used
            or not self._alive[rows].all()
        ):
            bad = rows[(rows < 0) | (rows >= self._used)]
            if bad.size == 0:
                bad = rows[~self._alive[rows]]
            raise UnknownDeviceError(f"row {int(bad[0])} is not occupied")
        validate_unit_cube(positions)

        moved = np.any(positions != self._cur[rows], axis=1)
        was_flagged = self._flags[rows].copy()
        flag_changed = flags != was_flagged
        if moved.any():
            moved_rows = rows[moved]
            self._cur[moved_rows] = positions[moved]
            self._index.move_rows(moved_rows)
        self._flags[rows] = flags
        prev_plane = self._prev[: self._used]
        prev_plane.flags.writeable = False
        return AppliedBatch(
            rows=rows,
            ids=self._id_of[rows],
            moved=moved,
            flag_changed=flag_changed,
            flagged=flags,
            was_flagged=was_flagged,
            prev_plane=prev_plane,
            new_positions=positions,
        )

    def apply(
        self, device: int, position: Sequence[float], flagged: bool
    ) -> AppliedUpdate:
        """Apply one QoS report and describe what changed.

        Compatibility shim over a one-row :meth:`apply_rows` batch.
        """
        row = self.row_of(device)
        pos = validate_unit_cube(np.asarray(position, dtype=float))
        if pos.shape != (self.dim,):
            raise DimensionMismatchError(
                f"position shape {pos.shape} incompatible with dim {self.dim}"
            )
        rows = np.array([row], dtype=np.int64)
        old_cell = tuple(self._index.keys_of_rows(rows)[0].tolist())
        batch = self.apply_rows(rows, pos.reshape(1, -1), np.array([bool(flagged)]))
        return AppliedUpdate(
            device=device,
            moved=bool(batch.moved[0]),
            flag_changed=bool(batch.flag_changed[0]),
            flagged=bool(flagged),
            old_cell=old_cell,
            new_cell=tuple(self._index.keys_of_rows(rows)[0].tolist()),
            prev_position=tuple(self._prev[row].tolist()),
            new_position=tuple(pos.tolist()),
        )

    def advance_tick(self) -> None:
        """Roll ``S_k`` into ``S_{k-1}`` (one vectorized copy)."""
        np.copyto(self._prev[: self._used], self._cur[: self._used])
        self._tick_serial += 1
        self._sync_header()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state(self, *, columns: bool = True) -> Dict[str, np.ndarray]:
        """The store's full state as plain arrays (trimmed to used rows).

        Everything derived — the grid index and the id→row map — is
        rebuilt by :meth:`from_state`, so only the
        columns, the free-list, the scalars and the not yet taken
        membership endpoints (:meth:`take_membership`) travel.
        ``columns=False`` leaves out the six columns, which a reader of
        the shm planes copies itself (:func:`read_store_columns`).
        """
        state = {
            name: col[: self._used].copy()
            for name, col in (self._columns().items() if columns else ())
        }
        return {
            **state,
            "free": np.asarray(self._free, dtype=np.int64),
            "cell": np.float64(self._cell),
            **DirtyRegion.union(self._membership).state("membership"),
            "tick_serial": np.int64(self._tick_serial),
        }

    @classmethod
    def from_state(
        cls, state: Dict[str, np.ndarray], *, planes_factory=None
    ) -> "DeviceStateStore":
        """Rebuild a store from :meth:`state` output, bit-identically.

        ``planes_factory`` restores the columns into shared memory (the
        process topology's restore path) instead of heap arrays.
        """
        store = cls.__new__(cls)
        store._cell = float(state["cell"])
        store._planes_factory = planes_factory
        store._planes = None
        store.retired_planes = []
        cur = np.asarray(state["cur"], dtype=float)
        store._materialize(cur.shape[0], cur.shape[1])
        for name, col in store._columns().items():
            col[:] = state[name]
        store._free = [int(r) for r in np.asarray(state["free"]).tolist()]
        store._used = store._cur.shape[0]
        store._tick_serial = int(state["tick_serial"])
        store._membership = [
            DirtyRegion.from_state(state, "membership", store._cell)
        ]
        store._sync_header()
        store._rebuild_derived()
        return store

    def _rebuild_derived(self) -> None:
        """Rebuild the id→row map, coded rows and grid index from the columns.

        The index adopts the full-capacity plane with only the occupied
        rows (``id_of >= 0``) alive, so scrubbed free rows never haunt
        cell ``(0, ..., 0)``.
        """
        # Rows past the high-water mark hold id −1 (a fresh or a
        # scrubbed plane), so ``id_of >= 0`` is the full-capacity mask.
        alive = self._id_of >= 0
        occupied = np.flatnonzero(alive)
        self._rows = IdColumnMap(self._id_of[occupied], occupied)
        del occupied  # before the index's transient (n, d) key plane
        self._coded_rows = np.flatnonzero(self._verdict[: self._used] != NO_VERDICT)
        self._index = MutableGridIndex.from_array(
            self._cur, self._cell, alive=alive
        )

    @classmethod
    def adopt_planes(
        cls,
        planes: ShmPlanes,
        *,
        cell: float,
        planes_factory=None,
    ) -> "DeviceStateStore":
        """Rebind a store onto existing shm planes without copying rows.

        The respawn path of the process topology: a freshly forked shard
        worker adopts the partition its killed predecessor left in
        shared memory.  Row data, the used high-water mark, and the tick
        serial come straight from the segment; everything derived — the
        id→row map, the free-list, the grid index — is rebuilt.  The free-list's LIFO *order* does not survive (only
        its membership); the sharded topology never observes it because
        participants rank by global id, and callers that do need the
        exact recycling order restore from a checkpoint instead.
        """
        store = cls.__new__(cls)
        store._cell = float(cell)
        store._planes_factory = planes_factory
        store._planes = planes
        store.retired_planes = []
        store._bind_planes(planes)
        store._used = int(planes.header[_HDR_USED])
        store._tick_serial = int(planes.header[_HDR_SERIAL])
        store._membership = []
        # ``id_of`` is the occupancy truth: a row a killed predecessor
        # was admitting or evicting is free, and is scrubbed here so it
        # diffs clean and never leaks into a later admit.
        stale = store._id_of < 0
        stale[store._used :] = True
        if stale.any():
            store._prev[stale] = 0.0
            store._cur[stale] = 0.0
            store._flags[stale] = False
            store._verdict[stale] = NO_VERDICT
            store._alive[stale] = False
            store._id_of[stale] = -1
        store._free = np.nonzero(stale[: store._used])[0].tolist()
        # The index adopts the *full-capacity* plane — not just the
        # used-rows view — because a later ``join`` may claim row
        # ``_used`` without triggering a plane grow (capacity > used),
        # and an external index refuses inserts beyond its bound extent.
        # Rows that never held a device are not alive, exactly like
        # freed rows; a genuine grow rebinds as usual.
        store._rebuild_derived()
        return store

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeviceStateStore(n={self.n}, d={self.dim}, "
            f"flagged={int(self._flags[: self._used].sum())})"
        )
