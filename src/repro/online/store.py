"""Columnar (structure-of-arrays) device state for the online service.

:class:`DeviceStateStore` is the service's system-state mirror: the last
two QoS snapshots (the ``S_{k-1}`` / ``S_k`` pair a
:class:`~repro.core.transition.Transition` needs), the flag bit
``a_k(j)`` and the last verdict code — for every device, as *columns*: two ``(capacity, d)`` position planes and a handful
of ``(capacity,)`` vectors.  There is no per-device Python object
anywhere in the store; a device is a row index.

Identifiers map to rows through an id↔row table with a LIFO free-list:
:meth:`join` reuses the most recently vacated row (best cache locality)
and :meth:`leave` scrubs the row before freeing it so reuse can never
resurrect stale positions or flags.  When the population is the initial
``0..n-1`` range (the common service case) ids and rows coincide and the
map costs nothing on the hot path.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    UnknownDeviceError,
)
from repro.core.geometry import validate_unit_cube
from repro.ipc import ShmPlanes
from repro.online.grid import CellKey, MutableGridIndex

__all__ = [
    "AppliedBatch",
    "AppliedUpdate",
    "DeviceStateStore",
    "attach_store_planes",
    "shm_planes_factory",
    "store_plane_fields",
]

#: Verdict-code column value meaning "no verdict recorded".
NO_VERDICT = np.int8(-1)

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


def shm_planes_factory(*, unregister: bool = False):
    """A ``planes_factory`` allocating store columns in shared memory.

    Fork-context creators leave resource tracking alone (the shared
    tracker pairs create/attach registrations with the eventual unlink);
    ``unregister=True`` exists for spawn-context processes whose private
    tracker would unlink the segment at their exit.
    """

    def factory(capacity: int, dim: int) -> ShmPlanes:
        planes = ShmPlanes.create(
            capacity, store_plane_fields(dim), unregister=unregister
        )
        planes.header[_HDR_CAPACITY] = capacity
        planes.header[_HDR_DIM] = dim
        return planes

    return factory


def attach_store_planes(name: str, capacity: int, dim: int) -> ShmPlanes:
    """Attach an existing store plane segment by name."""
    return ShmPlanes.attach(name, capacity, store_plane_fields(dim))


@dataclass(frozen=True)
class AppliedUpdate:
    """What one :meth:`DeviceStateStore.apply` actually changed.

    The dirty-region tracker consumes exactly these facts: whether the
    device moved (and between which cells) and whether its flag bit
    toggled.
    """

    device: int
    moved: bool
    flag_changed: bool
    flagged: bool
    old_cell: CellKey
    new_cell: CellKey


@dataclass(frozen=True)
class AppliedBatch:
    """Row-vector description of one :meth:`DeviceStateStore.apply_rows`.

    All arrays are aligned: entry ``i`` describes ``rows[i]`` (device id
    ``ids[i]``).  ``old_keys`` / ``new_keys`` are ``(k, d)`` integer cell
    keys; the tracker only materializes tuples for the relevant subset.
    """

    rows: np.ndarray
    ids: np.ndarray
    moved: np.ndarray
    flag_changed: np.ndarray
    flagged: np.ndarray
    was_flagged: np.ndarray
    cell_changed: np.ndarray
    old_keys: np.ndarray
    new_keys: np.ndarray

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
        if ids is None:
            self._id_of[:] = np.arange(n, dtype=np.int64)  # row -> id (-1 free)
            self._row_of: Dict[int, int] = {j: j for j in range(n)}
        else:
            id_arr = np.asarray(ids, dtype=np.int64)
            if id_arr.shape != (n,):
                raise DimensionMismatchError(
                    f"ids shape {id_arr.shape} incompatible with {n} rows"
                )
            if id_arr.min(initial=0) < 0:
                raise ConfigurationError("device ids must be >= 0")
            self._id_of[:] = id_arr
            self._row_of = {
                int(device): row for row, device in enumerate(id_arr.tolist())
            }
            if len(self._row_of) != n:
                raise ConfigurationError("device ids must be unique")
        self._tick_serial = 0
        self._membership_serial = 0
        self._membership_cells: List[np.ndarray] = []
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
        arrs = planes.arrays
        self._prev = arrs["prev"]
        self._cur = arrs["cur"]
        self._flags = arrs["flags"]
        self._alive = arrs["alive"]
        self._verdict = arrs["verdict"]
        self._id_of = arrs["id_of"]

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
        self._prev = self._cur = None
        self._flags = self._alive = self._verdict = None
        self._id_of = None
        self._index = None
        self._row_of = {}
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
        return len(self._row_of)

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

        Consumers that chain ``prev = last tick's cur`` (the service's
        zero-extra-copy transition build) use this to detect a missed or
        doubled roll and fall back to a fresh copy.
        """
        return self._tick_serial

    @property
    def membership_serial(self) -> int:
        """Counter bumped by every :meth:`join` / :meth:`leave`.

        A consumer holding a copy of last tick's positions (the
        service's chained ``prev`` plane) compares it to detect rows
        that were vacated or recycled since the copy was taken.
        """
        return self._membership_serial

    @property
    def nbytes(self) -> int:
        """Total bytes held in the store's columns (capacity, not n)."""
        return int(
            self._prev.nbytes
            + self._cur.nbytes
            + self._flags.nbytes
            + self._alive.nbytes
            + self._verdict.nbytes
            + self._id_of.nbytes
        )

    @property
    def bytes_per_device(self) -> float:
        """Columnar bytes per live device."""
        return self.nbytes / max(1, self.n)

    def row_of(self, device: int) -> int:
        """The row currently backing ``device``."""
        row = self._row_of.get(device)
        if row is None:
            raise UnknownDeviceError(f"device {device} is not in the store")
        return row

    def row_if_present(self, device: int) -> Optional[int]:
        """The row backing ``device``, or ``None`` when unknown."""
        return self._row_of.get(device)

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

    def row_state(
        self, row: int
    ) -> Tuple[int, np.ndarray, np.ndarray, bool, int]:
        """One row's full migratable state.

        ``(device, prev, cur, flagged, verdict_code)`` — exactly what
        :meth:`admit` on another store needs to take the device over
        without restarting its trajectory.  Positions are copies.
        """
        device = self.id_of(row)
        return (
            device,
            self._prev[row].copy(),
            self._cur[row].copy(),
            bool(self._flags[row]),
            int(self._verdict[row]),
        )

    def verdict_codes(self) -> np.ndarray:
        """Read-only view of the verdict-code column (−1 = none)."""
        view = self._verdict[: self._used]
        view.flags.writeable = False
        return view

    def set_verdict_codes(self, rows: np.ndarray, codes: np.ndarray) -> None:
        """Record verdict codes for ``rows`` (int8; −1 clears)."""
        self._verdict[np.asarray(rows, dtype=np.int64)] = np.asarray(
            codes, dtype=np.int8
        )

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
        if device in self._row_of:
            raise ConfigurationError(f"device {device} is already stored")
        if device < 0:
            raise ConfigurationError(f"device id must be >= 0, got {device!r}")
        pos = validate_unit_cube(np.asarray(position, dtype=float))
        if pos.shape != (self.dim,):
            raise DimensionMismatchError(
                f"position shape {pos.shape} incompatible with dim {self.dim}"
            )
        if self._free:
            row = self._free.pop()
        else:
            if self._used == self._cur.shape[0]:
                self._grow(max(4, 2 * self._cur.shape[0]))
            row = self._used
            self._used += 1
        self._prev[row] = pos
        self._cur[row] = pos
        self._flags[row] = bool(flagged)
        self._verdict[row] = NO_VERDICT
        self._alive[row] = True
        self._id_of[row] = device
        self._row_of[device] = row
        self._membership_serial += 1
        self._index.insert(row, pos)
        if flagged:
            self._membership_cells.append(self._cells_of(pos))
        self._sync_header()
        return row

    def admit(
        self,
        device: int,
        prev: Sequence[float],
        cur: Sequence[float],
        flagged: bool = False,
        verdict_code: int = int(NO_VERDICT),
    ) -> int:
        """Admit a device mid-trajectory, with distinct snapshot endpoints.

        The migration path of a sharded topology: a device crossing a
        shard boundary must arrive with its *previous* position intact —
        :meth:`join` would restart its trajectory as stationary
        (``prev = cur``), silently erasing the very move that made it
        cross.  Returns the backing row.
        """
        row = self.join(device, cur, flagged)
        prev_pos = validate_unit_cube(np.asarray(prev, dtype=float))
        if prev_pos.shape != (self.dim,):
            raise DimensionMismatchError(
                f"prev shape {prev_pos.shape} incompatible with dim {self.dim}"
            )
        self._prev[row] = prev_pos
        self._verdict[row] = np.int8(verdict_code)
        if flagged:
            self._membership_cells.append(self._cells_of(prev_pos))
        return row

    def leave(self, device: int) -> int:
        """Evict a device, scrubbing and freeing its row.

        The row is zeroed (positions, flag, verdict) *before* it enters
        the free-list, so a later :meth:`join` can never observe the
        departed device's state.  Returns the freed row.
        """
        row = self.row_of(device)
        if self._flags[row]:
            self._membership_cells.append(
                self._cells_of(np.stack([self._prev[row], self._cur[row]]))
            )
        self._index.remove(row)
        self._prev[row] = 0.0
        self._cur[row] = 0.0
        self._flags[row] = False
        self._verdict[row] = NO_VERDICT
        self._alive[row] = False
        self._id_of[row] = -1
        del self._row_of[device]
        self._membership_serial += 1
        self._free.append(row)
        return row

    def _cells_of(self, positions: np.ndarray) -> np.ndarray:
        """``(k, d)`` cell keys of ``(k, d)`` (or one ``(d,)``) positions."""
        return np.floor(np.atleast_2d(positions) / self._cell).astype(np.int64)

    def take_membership_cells(self) -> List[np.ndarray]:
        """Cells of flagged joins / leaves since the last call (cleared).

        A flagged device that joins or leaves changes the transition of
        every verdict near its trajectory endpoints without any update
        being applied, so the dirty-region tracker folds these cells
        into the tick's dirty set (unflagged churn is invisible to every
        verdict and is not recorded).
        """
        cells, self._membership_cells = self._membership_cells, []
        return cells

    def _grow(self, capacity: int) -> None:
        """Reallocate all columns to ``capacity`` rows and rebind the index."""
        old = self._cur.shape[0]
        d = self.dim
        olds = (
            self._prev,
            self._cur,
            self._flags,
            self._alive,
            self._verdict,
            self._id_of,
        )
        self._materialize(capacity, d)
        news = (
            self._prev,
            self._cur,
            self._flags,
            self._alive,
            self._verdict,
            self._id_of,
        )
        for new, prev in zip(news, olds):
            new[:old] = prev
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
        old_keys = self._index.keys_of_rows(rows)
        new_keys = old_keys
        cell_changed = np.zeros(k, dtype=bool)
        if moved.any():
            moved_rows = rows[moved]
            self._cur[moved_rows] = positions[moved]
            _, moved_new, moved_changed = self._index.move_rows(moved_rows)
            new_keys = old_keys.copy()
            new_keys[moved] = moved_new
            cell_changed[moved] = moved_changed
        self._flags[rows] = flags
        return AppliedBatch(
            rows=rows,
            ids=self._id_of[rows],
            moved=moved,
            flag_changed=flag_changed,
            flagged=flags,
            was_flagged=was_flagged,
            cell_changed=cell_changed,
            old_keys=old_keys,
            new_keys=new_keys,
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
        batch = self.apply_rows(
            np.array([row], dtype=np.int64),
            pos.reshape(1, -1),
            np.array([bool(flagged)]),
        )
        return AppliedUpdate(
            device=device,
            moved=bool(batch.moved[0]),
            flag_changed=bool(batch.flag_changed[0]),
            flagged=bool(flagged),
            old_cell=tuple(batch.old_keys[0].tolist()),
            new_cell=tuple(batch.new_keys[0].tolist()),
        )

    def advance_tick(self) -> None:
        """Roll ``S_k`` into ``S_{k-1}`` (one vectorized copy)."""
        np.copyto(self._prev[: self._used], self._cur[: self._used])
        self._tick_serial += 1
        self._sync_header()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, np.ndarray]:
        """The store's full state as plain arrays (trimmed to used rows).

        Everything derived — the grid index and the id→row map — is
        rebuilt by :meth:`from_state`, so only the
        columns, the free-list, the scalars and the not yet taken
        membership cells (:meth:`take_membership_cells`) travel.
        """
        return {
            "prev": self._prev[: self._used].copy(),
            "cur": self._cur[: self._used].copy(),
            "flags": self._flags[: self._used].copy(),
            "alive": self._alive[: self._used].copy(),
            "verdict": self._verdict[: self._used].copy(),
            "id_of": self._id_of[: self._used].copy(),
            "free": np.asarray(self._free, dtype=np.int64),
            "cell": np.float64(self._cell),
            "membership": (
                np.concatenate(self._membership_cells)
                if self._membership_cells
                else np.empty((0, self.dim), dtype=np.int64)
            ),
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
        store._prev[:] = np.asarray(state["prev"], dtype=float)
        store._cur[:] = cur
        store._flags[:] = np.asarray(state["flags"], dtype=bool)
        store._alive[:] = np.asarray(state["alive"], dtype=bool)
        store._verdict[:] = np.asarray(state["verdict"], dtype=np.int8)
        store._id_of[:] = np.asarray(state["id_of"], dtype=np.int64)
        store._free = [int(r) for r in np.asarray(state["free"]).tolist()]
        store._used = store._cur.shape[0]
        store._tick_serial = int(state["tick_serial"])
        store._membership_serial = 0
        membership = np.asarray(
            state.get("membership", np.empty((0, cur.shape[1]))), dtype=np.int64
        )
        store._membership_cells = [membership] if len(membership) else []
        store._sync_header()
        store._rebuild_derived()
        return store

    def _rebuild_derived(self) -> None:
        """Rebuild the id→row map and grid index from the columns.

        The index adopts the full-capacity plane with only the occupied
        rows (``id_of >= 0``) alive, so scrubbed free rows never haunt
        cell ``(0, ..., 0)``.
        """
        occupied = np.nonzero(self._id_of[: self._used] >= 0)[0]
        self._row_of = dict(
            zip(self._id_of[occupied].tolist(), occupied.tolist())
        )
        alive = np.zeros(self._cur.shape[0], dtype=bool)
        alive[occupied] = True
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
        store._membership_serial = 0
        store._membership_cells = []
        store._free = np.nonzero(store._id_of[: store._used] < 0)[0].tolist()
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
