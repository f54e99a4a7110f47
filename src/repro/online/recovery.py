"""Checkpoint–restore for the online characterization services.

A checkpoint is one ``.npz`` file holding everything a fresh process
needs to resume a killed service *verdict-identically* mid-stream.  The
same format serves the single
:class:`~repro.online.service.OnlineCharacterizationService` and the
spatially sharded :class:`~repro.online.sharded.ShardedService`:

* a JSON metadata record: the format version, the tick number, the
  topology (kind and shard count), service stats, the rejected-input
  tally and the :class:`~repro.online.service.ServiceConfig`;
* the front door's state, pickled into ``uint8`` blobs: the pending
  ingest queue and ``aux`` (the detector bank — its window state decides
  every future flag — the last detection and caller extras).  ``aux``
  is one pickle, so an array referenced twice is written once.  Bank
  parameters travel at their given shape (0-d for a homogeneous fleet).
  The last :class:`~repro.detection.banks.BankDetection` travels as its
  positions, ``abnormal`` and ``flags`` plus, for the threshold banks,
  the recipe its forecasts, residuals and scores derive from — never
  the derived planes.  The step-threshold bank's baseline *is* the
  detection's positions, so a frame-fed checkpoint writes the fleet's
  positions twice in all (the store's ``cur`` and this shared plane)
  plus the previous baseline.  Checkpoints written with full ``(n, d)``
  parameters and an eager detection still load;
* one *part* per store partition, its keys prefixed ``part{k}_``: the
  columnar :class:`~repro.online.store.DeviceStateStore` planes (both
  snapshots, flags, verdict codes, the id↔row table and free list)
  trimmed to used rows, the
  :class:`~repro.online.dirty.DirtyRegionTracker` cell sets (without
  them the first post-restore tick would miss the one-tick move carry
  and reuse verdicts it must recompute) and the verdict map.  The single
  service writes exactly one part; a sharded service one per shard.

The archive is stored, not deflated: the float planes compress by only
~6% and zlib would dominate the write (and the load).  The zip CRC-32 of
every member is what catches a flipped or truncated byte on load.
Archives written deflated (``np.savez_compressed``) still load.

Writes are crash-safe: the archive is written to a ``.tmp`` sibling,
fsynced, published with an atomic ``os.replace``, and the directory is
fsynced so the rename itself survives a power loss.  A reader can never
observe a torn checkpoint, and a writer killed mid-write leaves the
previous checkpoint intact (its stale ``.tmp`` is swept by the next
:func:`prune_checkpoints`).  :class:`CheckpointWriter` packages the
cadence as a service sink (every ``N`` ticks, keep the last ``K``).

What deliberately does *not* travel: the cross-tick perf caches (the
previous transition, the motion-cache carry, the chained ``cur`` copy).
They only accelerate the next tick, so the first post-restore tick pays
one fresh index build and family recompute — verdicts are unaffected,
which is exactly the contract ``tests/online/test_recovery.py`` pins.
"""

from __future__ import annotations

import json
import os
import pickle
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.errors import CheckpointError, ConfigurationError
from repro.online.service import (
    OnlineCharacterizationService,
    OnlineTick,
    QosUpdate,
    ServiceConfig,
)
from repro.online.store import DeviceStateStore

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointPart",
    "CheckpointWriter",
    "checkpoint_path",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "prune_checkpoints",
    "restore_service",
    "restore_sharded_service",
    "save_checkpoint",
]

#: Format version written into (and required from) every checkpoint.
CHECKPOINT_VERSION = 2

#: ServiceConfig fields that older version-2 checkpoints carry but the
#: service no longer has (the engine's execution knobs and the grid-index
#: adoption switch); dropped on load.
_RETIRED_CONFIG_KEYS = ("backend", "workers", "max_worker_tasks", "reuse_indexes")

#: ServiceStats counters that older version-2 checkpoints carry but the
#: service no longer keeps; dropped on load.
_RETIRED_STATS_KEYS = ("index_reuses",)

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})\.npz$")

_PathLike = Union[str, os.PathLike]


def _pack(obj: object) -> np.ndarray:
    """Pickle ``obj`` into a uint8 array storable inside an npz."""
    return np.frombuffer(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
    )


def _unpack(arr: np.ndarray) -> object:
    return pickle.loads(memoryview(np.ascontiguousarray(arr, dtype=np.uint8)))


@dataclass
class CheckpointPart:
    """One store partition: the single service's store or one shard's."""

    store_state: Dict[str, np.ndarray]
    tracker_state: Dict[str, np.ndarray]
    verdicts: Dict[int, object]


@dataclass
class Checkpoint:
    """One loaded checkpoint, ready for :func:`restore_service` (topology
    ``"single"``) or :func:`restore_sharded_service` (``"sharded"``)."""

    version: int
    tick: int
    topology: str
    applied_since_tick: int
    stats: Dict[str, int]
    rejected: Dict[str, int]
    config: ServiceConfig
    queue: List[QosUpdate]
    bank: object
    last_detection: object
    extra: Dict[str, object]
    parts: List[CheckpointPart]


def save_checkpoint(
    service,
    path: _PathLike,
    *,
    extra: Optional[Dict[str, object]] = None,
) -> Path:
    """Write one atomic checkpoint of ``service`` to ``path``.

    ``service`` is an :class:`OnlineCharacterizationService` or a
    :class:`~repro.online.sharded.ShardedService` — each names its own
    topology and hands over its store partitions; call it between ticks
    (e.g. from a sink).  ``extra`` is an arbitrary (picklable) dict
    carried alongside the service state — e.g. the CLI replay driver
    stores its external detector bank there.  Returns the published path.
    """
    path = Path(path)
    parts = service._partition_states()
    meta = {
        "version": CHECKPOINT_VERSION,
        "tick": service.current_tick,
        "topology": service._CHECKPOINT_TOPOLOGY,
        "shards": len(parts),
        "applied_since_tick": service._applied_since_tick,
        "stats": service.stats.as_dict(),
        "rejected": dict(service.rejected),
        "config": asdict(service.config),
    }
    arrays: Dict[str, np.ndarray] = {
        "meta_json": np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
        "queue_blob": _pack(list(service._queue)),
        "aux_blob": _pack(
            {
                "bank": service.bank,
                "last_detection": service.last_detection,
                "extra": dict(extra or {}),
            }
        ),
    }
    for k, (store_state, tracker_state, verdicts) in enumerate(parts):
        arrays[f"part{k}_verdicts_blob"] = _pack(verdicts)
        for key, value in store_state.items():
            arrays[f"part{k}_store_{key}"] = value
        for key, value in tracker_state.items():
            arrays[f"part{k}_tracker_{key}"] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    # The data is durable; fsync the directory so the rename is too.
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def _prefixed(arrays: Dict[str, np.ndarray], prefix: str) -> Dict[str, np.ndarray]:
    return {
        key[len(prefix) :]: value
        for key, value in arrays.items()
        if key.startswith(prefix)
    }


def load_checkpoint(path: _PathLike) -> Checkpoint:
    """Read and validate one checkpoint; raises :class:`CheckpointError`."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable: {exc}"
        ) from exc
    if "meta_json" not in arrays:
        raise CheckpointError(f"checkpoint {path} carries no metadata")
    try:
        meta = json.loads(arrays["meta_json"].tobytes().decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} has corrupt metadata: {exc}"
        ) from exc
    version = int(meta.get("version", -1))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} is format version {version}; this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    parts: List[CheckpointPart] = []
    for k in range(int(meta["shards"])):
        prefix = f"part{k}_"
        if f"{prefix}verdicts_blob" not in arrays:
            raise CheckpointError(
                f"checkpoint {path} lacks part {k} of {meta['shards']}"
            )
        parts.append(
            CheckpointPart(
                store_state=_prefixed(arrays, f"{prefix}store_"),
                tracker_state=_prefixed(arrays, f"{prefix}tracker_"),
                verdicts=_unpack(arrays[f"{prefix}verdicts_blob"]),
            )
        )
    aux = _unpack(arrays["aux_blob"])
    return Checkpoint(
        version=version,
        tick=int(meta["tick"]),
        topology=str(meta["topology"]),
        applied_since_tick=int(meta["applied_since_tick"]),
        stats={
            k: int(v)
            for k, v in meta["stats"].items()
            if k not in _RETIRED_STATS_KEYS
        },
        rejected={k: int(v) for k, v in meta.get("rejected", {}).items()},
        config=ServiceConfig(
            **{
                k: v
                for k, v in meta["config"].items()
                if k not in _RETIRED_CONFIG_KEYS
            }
        ),
        queue=list(_unpack(arrays["queue_blob"])),
        bank=aux.get("bank"),
        last_detection=aux.get("last_detection"),
        extra=dict(aux.get("extra", {})),
        parts=parts,
    )


def _load_topology(
    source: Union[Checkpoint, _PathLike], topology: str, restorer: str
) -> Checkpoint:
    ckpt = source if isinstance(source, Checkpoint) else load_checkpoint(source)
    if ckpt.topology != topology:
        raise CheckpointError(
            f"checkpoint is from a {ckpt.topology} service with "
            f"{len(ckpt.parts)} part(s); {restorer} restores {topology} "
            "checkpoints"
        )
    return ckpt


def restore_service(
    source: Union[Checkpoint, _PathLike],
    *,
    config: Optional[ServiceConfig] = None,
    engine=None,
    sinks: Iterable[Callable[[OnlineTick], None]] = (),
    tracer=None,
) -> OnlineCharacterizationService:
    """Rebuild a single service from its checkpoint, verdict-identically.

    ``config`` overrides the checkpointed :class:`ServiceConfig` (e.g.
    to resume with different service knobs).
    The restored service recomputes exactly what the uninterrupted one
    would have: store, tracker, verdict cache, queue and bank state are
    all reinstated; only the cross-tick perf caches start cold, so the
    first resumed tick trades some reuse for correctness.  A sharded
    checkpoint raises :class:`CheckpointError`.
    """
    ckpt = _load_topology(source, "single", "restore_service")
    (part,) = ckpt.parts
    service = OnlineCharacterizationService._from_store(
        DeviceStateStore.from_state(part.store_state),
        config or ckpt.config,
        engine=engine,
        sinks=sinks,
        tracer=tracer,
    )
    service._tracker.restore_state(part.tracker_state)
    service._verdicts = dict(part.verdicts)
    service._restore_front_door(ckpt)
    # Perf caches start cold on purpose: they reference arrays and
    # transitions of the dead process and only ever accelerate, never
    # decide, the next tick.
    service._transition_stage.reset()
    service._verdict_stage.reset()
    return service


def restore_sharded_service(
    source: Union[Checkpoint, _PathLike],
    *,
    config: Optional[ServiceConfig] = None,
    sinks: Iterable[Callable[[OnlineTick], None]] = (),
    tracer=None,
    topology_workers: str = "inline",
):
    """Rebuild a :class:`ShardedService` from its checkpoint.

    Mirrors :func:`restore_service` per shard: stores, trackers and
    verdict caches are reinstated exactly; cross-tick perf caches start
    cold; the device→shard owner map is rebuilt from the parts'
    id columns (authoritative — placement is part of the stores' state,
    not recomputed from positions).  Each shard is built straight from
    its part — a process child inherits the part through the fork — and
    the children build concurrently.  ``topology_workers`` picks where
    the restored shards run; a checkpoint taken under either topology
    restores under either.  A single-service checkpoint raises
    :class:`CheckpointError`.
    """
    from repro.online.sharded import ShardedService

    ckpt = _load_topology(source, "sharded", "restore_sharded_service")
    service = ShardedService._from_parts(
        ckpt.parts,
        config or ckpt.config,
        topology_workers=topology_workers,
        sinks=sinks,
        tracer=tracer,
    )
    service._restore_front_door(ckpt)
    return service


def checkpoint_path(directory: _PathLike, tick: int) -> Path:
    """The canonical checkpoint filename for ``tick``."""
    return Path(directory) / f"checkpoint-{tick:08d}.npz"


def list_checkpoints(directory: _PathLike) -> List[Path]:
    """Canonical-named checkpoints in ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found: List[tuple] = []
    for entry in directory.iterdir():
        match = _CHECKPOINT_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def latest_checkpoint(directory: _PathLike) -> Optional[Path]:
    """The newest canonical checkpoint in ``directory``, if any."""
    found = list_checkpoints(directory)
    return found[-1] if found else None


def prune_checkpoints(directory: _PathLike, keep: int) -> int:
    """Delete all but the newest ``keep`` checkpoints; returns removals.

    Also removes every ``*.npz.tmp`` sibling: pruning runs right after a
    completed write by the directory's only writer, so a temp file found
    here is the leftover of a writer killed mid-write.  Only checkpoints
    count toward the returned number.
    """
    if keep < 1:
        raise ConfigurationError(f"keep must be >= 1, got {keep!r}")
    stale = list_checkpoints(directory)[:-keep]
    for path in [*stale, *Path(directory).glob("*.npz.tmp")]:
        try:
            path.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent prune
            pass
    return len(stale)


class CheckpointWriter:
    """Service sink: checkpoint every ``every`` ticks, keep the last few.

    Attach with ``service.add_sink(CheckpointWriter(service, dir))`` or
    pass it via the service's ``sinks``; ``service`` is either a single
    or a sharded service.  Each write is atomic (see
    :func:`save_checkpoint`) and followed by retention pruning, so the
    directory always holds the ``keep`` newest complete checkpoints.
    """

    def __init__(
        self,
        service,
        directory: _PathLike,
        *,
        every: int = 1,
        keep: int = 3,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every!r}")
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep!r}")
        self._service = service
        self._directory = Path(directory)
        self._every = int(every)
        self._keep = int(keep)
        self._extra = extra
        self.written: List[Path] = []

    def __call__(self, tick: OnlineTick) -> None:
        if tick.tick % self._every:
            return
        path = self._service.checkpoint(
            checkpoint_path(self._directory, tick.tick), extra=self._extra
        )
        self.written.append(path)
        prune_checkpoints(self._directory, self._keep)
