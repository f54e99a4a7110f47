"""Inter-process primitives of the process-sharded topology.

The shared-memory layer and the worker supervision helpers the process
topology's shard children (:mod:`repro.online.procshard`) and their
front door (:mod:`repro.online.sharded`) stand on, kept as public,
engine-independent primitives.  Halo bands are small (a boundary strip
of flagged rows) and travel in the command pipes, so shared memory
carries only what is large: store partitions and the frame board.

* :class:`WorkerHandle` plus :func:`shutdown_worker` — one long-lived
  worker process, its duplex pipe, and the sentinel→join→close teardown
  protocol;
* :class:`ShmPlanes` — one shared-memory segment laid out as named
  columnar arrays with a small int64 header, the backing the
  :class:`~repro.online.store.DeviceStateStore` uses to keep a shard
  partition alive across worker kills;
* :class:`SegmentReader` — a cached attach-by-name reader with
  stale-segment eviction and a zombie list for closes blocked by live
  views.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "SegmentReader",
    "ShardDeadError",
    "ShardRoundtripError",
    "ShardTimeoutError",
    "ShmPlanes",
    "WorkerHandle",
    "reap_worker",
    "shutdown_worker",
    "signal_worker_shutdown",
    "unlink_by_name",
]


class ShardRoundtripError(RuntimeError):
    """A supervised shard-process roundtrip failed (dead or hung child)."""


class ShardDeadError(ShardRoundtripError):
    """The shard worker process died mid-roundtrip (EOF on its pipe)."""


class ShardTimeoutError(ShardRoundtripError):
    """The shard worker missed its dispatch deadline (hung or stalled)."""


def unlink_by_name(name: str) -> bool:
    """Best-effort attach-and-unlink of a segment only known by name.

    The parent-side cleanup path for a store plane segment created inside
    a worker process: after a clean worker shutdown
    the segment is already gone and this is a no-op; after a kill it is
    the only remaining owner.  Returns whether a segment was removed.
    """
    try:
        seg = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    try:
        seg.close()
        seg.unlink()
    except (OSError, FileNotFoundError):  # pragma: no cover - races
        return False
    return True


@dataclass
class WorkerHandle:
    """One persistent worker process and its duplex pipe."""

    process: multiprocessing.process.BaseProcess
    conn: object


def signal_worker_shutdown(worker: WorkerHandle) -> None:
    """Send the shutdown sentinel (half of :func:`shutdown_worker`)."""
    try:
        worker.conn.send(None)
    except (OSError, ValueError, BrokenPipeError):
        pass


def reap_worker(worker: WorkerHandle) -> None:
    """Join (terminating if stuck) and drop the pipe."""
    worker.process.join(timeout=2.0)
    if worker.process.is_alive():  # pragma: no cover - stuck worker
        worker.process.terminate()
        worker.process.join(timeout=2.0)
    try:
        worker.conn.close()
    except OSError:  # pragma: no cover - already closed
        pass


def shutdown_worker(worker: WorkerHandle) -> None:
    """The one worker-shutdown protocol: sentinel, join, close pipe."""
    signal_worker_shutdown(worker)
    reap_worker(worker)


# Column layout element: (name, dtype, per-row shape) — () for scalars.
_Field = Tuple[str, np.dtype, Tuple[int, ...]]


def _field_nbytes(capacity: int, dtype: np.dtype, shape: Tuple[int, ...]) -> int:
    per_row = int(np.dtype(dtype).itemsize)
    for s in shape:
        per_row *= int(s)
    return capacity * per_row


class ShmPlanes:
    """One shared-memory segment laid out as named columnar arrays.

    The layout is ``header`` (a small int64 vector for mutable scalars
    like the used-row count and tick serial) followed by each field's
    ``(capacity, *shape)`` block, every block aligned to 8 bytes.  Both
    sides — creator and attacher — derive identical offsets from the
    same ``(capacity, fields)`` description, so the only things that
    must travel out of band are the segment name and the capacity.

    Creator and attachers in a fork world share one resource tracker
    whose per-name registration is a set, so create/attach/unlink pair
    up without manual tracking.
    """

    HEADER_SLOTS = 8

    def __init__(
        self,
        seg: shared_memory.SharedMemory,
        capacity: int,
        fields: Sequence[_Field],
        *,
        owner: bool,
    ) -> None:
        self._seg = seg
        self.capacity = int(capacity)
        self._fields = tuple(fields)
        self._owner = owner
        self.header = np.frombuffer(
            seg.buf, dtype=np.int64, count=self.HEADER_SLOTS
        )
        self.arrays: Dict[str, np.ndarray] = {}
        offset = self.HEADER_SLOTS * 8
        for name, dtype, shape in self._fields:
            nbytes = _field_nbytes(self.capacity, dtype, shape)
            count = nbytes // np.dtype(dtype).itemsize
            arr = np.frombuffer(
                seg.buf, dtype=dtype, count=count, offset=offset
            )
            self.arrays[name] = arr.reshape((self.capacity, *shape))
            offset += (nbytes + 7) & ~7

    @classmethod
    def required_bytes(cls, capacity: int, fields: Sequence[_Field]) -> int:
        total = cls.HEADER_SLOTS * 8
        for _, dtype, shape in fields:
            total += (_field_nbytes(capacity, dtype, shape) + 7) & ~7
        return total

    @classmethod
    def create(
        cls,
        capacity: int,
        fields: Sequence[_Field],
    ) -> "ShmPlanes":
        seg = shared_memory.SharedMemory(
            create=True, size=cls.required_bytes(capacity, fields)
        )
        planes = cls(seg, capacity, fields, owner=True)
        planes.header[:] = 0
        return planes

    @classmethod
    def attach(
        cls,
        name: str,
        capacity: int,
        fields: Sequence[_Field],
    ) -> "ShmPlanes":
        seg = shared_memory.SharedMemory(name=name)
        return cls(seg, capacity, fields, owner=False)

    @property
    def name(self) -> str:
        """The segment name (ship with ``capacity`` to re-attach)."""
        return self._seg.name

    def close(self) -> None:
        """Drop this attachment (views must be released first)."""
        self.header = None
        self.arrays = {}
        try:
            self._seg.close()
        except (OSError, BufferError):  # pragma: no cover - views alive
            pass

    def unlink(self) -> None:
        """Close and remove the segment (idempotent, best-effort)."""
        self.close()
        try:
            self._seg.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - gone
            pass


class SegmentReader:
    """Cached attach-by-name over foreign shared-memory segments.

    Cross-process readers (a shard child gathering its rows off the
    front door's frame board, the front door copying a process shard's
    store planes into a checkpoint) attach segments lazily and keep them
    mapped across calls; producers regrow under *new* names, so the
    caller passes the currently-live name set and everything else is
    evicted.  A close still blocked by
    an exported buffer parks the segment on a zombie list for a later
    retry.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._zombies: List[shared_memory.SharedMemory] = []

    def evict_except(self, keep: Sequence[str]) -> None:
        """Drop every cached segment not in ``keep``; retry zombies."""
        keep_set = set(keep)
        for name in [n for n in self._segments if n not in keep_set]:
            seg = self._segments.pop(name)
            try:
                seg.close()
            except BufferError:  # pragma: no cover - view alive
                self._zombies.append(seg)
            except OSError:  # pragma: no cover - already gone
                pass
        if self._zombies:
            remaining = []
            for seg in self._zombies:
                try:
                    seg.close()
                except BufferError:  # pragma: no cover
                    remaining.append(seg)
                except OSError:  # pragma: no cover
                    pass
            self._zombies = remaining

    def segment(self, name: str) -> shared_memory.SharedMemory:
        """Segment ``name``, attached on demand and cached."""
        if name not in self._segments:
            self._segments[name] = shared_memory.SharedMemory(name=name)
        return self._segments[name]

    def array(
        self,
        name: str,
        dtype: np.dtype,
        count: int,
        *,
        offset: int = 0,
    ) -> np.ndarray:
        """A read-only view into segment ``name`` (attached on demand)."""
        arr = np.frombuffer(
            self.segment(name).buf, dtype=dtype, count=count, offset=offset
        )
        arr.flags.writeable = False
        return arr

    def close(self) -> None:
        for seg in self._segments.values():
            try:
                seg.close()
            except (OSError, BufferError):  # pragma: no cover
                pass
        self._segments = {}
        self._zombies = []
