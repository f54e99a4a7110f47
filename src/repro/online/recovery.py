"""Checkpoint–restore for the online characterization service.

A checkpoint is one ``.npz`` file holding everything a fresh process
needs to resume a killed service *verdict-identically* mid-stream:

* the columnar :class:`~repro.online.store.DeviceStateStore` planes
  (both snapshots, flags, verdict codes, the id↔row table and free
  list) as plain arrays, trimmed to used rows;
* the :class:`~repro.online.dirty.DirtyRegionTracker` cell sets —
  without them the first post-restore tick would miss the one-tick move
  carry and reuse verdicts it must recompute;
* the verdict map, the pending ingest queue, the detector bank (its
  window state decides every future flag), service stats and the
  rejected-input tally, all pickled into ``uint8`` blobs inside the
  same archive;
* a JSON metadata record carrying the format version, the tick number
  and the :class:`~repro.online.service.ServiceConfig`.

Writes are crash-safe: the archive is written to a ``.tmp`` sibling,
fsynced, then published with an atomic ``os.replace`` — a reader can
never observe a torn checkpoint, and a writer killed mid-write leaves
the previous checkpoint intact.  :class:`CheckpointWriter` packages the
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
from repro.online.store import NO_VERDICT, DeviceStateStore

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointWriter",
    "ShardedCheckpoint",
    "ShardedCheckpointWriter",
    "checkpoint_path",
    "latest_checkpoint",
    "latest_sharded_checkpoint",
    "list_checkpoints",
    "list_sharded_checkpoints",
    "load_checkpoint",
    "load_sharded_checkpoint",
    "prune_checkpoints",
    "prune_sharded_checkpoints",
    "restore_service",
    "restore_sharded_service",
    "save_checkpoint",
    "save_sharded_checkpoint",
    "sharded_manifest_path",
]

#: Format version written into (and required from) every checkpoint.
CHECKPOINT_VERSION = 1

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})\.npz$")

_PathLike = Union[str, os.PathLike]


def _pack(obj: object) -> np.ndarray:
    """Pickle ``obj`` into a uint8 array storable inside an npz."""
    return np.frombuffer(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
    )


def _unpack(arr: np.ndarray) -> object:
    return pickle.loads(np.asarray(arr, dtype=np.uint8).tobytes())


@dataclass
class Checkpoint:
    """One loaded checkpoint, ready for :func:`restore_service`."""

    version: int
    tick: int
    applied_since_tick: int
    stats: Dict[str, int]
    rejected: Dict[str, int]
    config: ServiceConfig
    store_state: Dict[str, np.ndarray]
    tracker_state: Dict[str, np.ndarray]
    verdicts: Dict[int, object]
    queue: List[QosUpdate]
    bank: object
    last_detection: object
    extra: Dict[str, object]


def save_checkpoint(
    service: OnlineCharacterizationService,
    path: _PathLike,
    *,
    extra: Optional[Dict[str, object]] = None,
) -> Path:
    """Write one atomic checkpoint of ``service`` to ``path``.

    ``extra`` is an arbitrary (picklable) dict carried alongside the
    service state — e.g. the CLI replay driver stores its external
    detector bank there.  Returns the published path.
    """
    path = Path(path)
    meta = {
        "version": CHECKPOINT_VERSION,
        "tick": service.current_tick,
        "applied_since_tick": service._applied_since_tick,
        "stats": service.stats.as_dict(),
        "rejected": dict(service.rejected),
        "config": asdict(service.config),
        "has_bank": service.bank is not None,
    }
    arrays: Dict[str, np.ndarray] = {
        "meta_json": np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
        "verdicts_blob": _pack(service._verdicts),
        "queue_blob": _pack(list(service._queue)),
        "aux_blob": _pack(
            {
                "bank": service.bank,
                "last_detection": service.last_detection,
                "extra": dict(extra or {}),
            }
        ),
    }
    for key, value in service.store.state().items():
        arrays[f"store_{key}"] = value
    for key, value in service._tracker.state().items():
        arrays[f"tracker_{key}"] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez_compressed(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_checkpoint(path: _PathLike) -> Checkpoint:
    """Read and validate one checkpoint; raises :class:`CheckpointError`."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
    except CheckpointError:
        raise
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
    store_state = {
        key[len("store_") :]: value
        for key, value in arrays.items()
        if key.startswith("store_")
    }
    tracker_state = {
        key[len("tracker_") :]: value
        for key, value in arrays.items()
        if key.startswith("tracker_")
    }
    aux = _unpack(arrays["aux_blob"])
    return Checkpoint(
        version=version,
        tick=int(meta["tick"]),
        applied_since_tick=int(meta["applied_since_tick"]),
        stats={k: int(v) for k, v in meta["stats"].items()},
        rejected={k: int(v) for k, v in meta.get("rejected", {}).items()},
        config=ServiceConfig(**meta["config"]),
        store_state=store_state,
        tracker_state=tracker_state,
        verdicts=_unpack(arrays["verdicts_blob"]),
        queue=list(_unpack(arrays["queue_blob"])),
        bank=aux.get("bank"),
        last_detection=aux.get("last_detection"),
        extra=dict(aux.get("extra", {})),
    )


def restore_service(
    source: Union[Checkpoint, _PathLike],
    *,
    config: Optional[ServiceConfig] = None,
    engine=None,
    sinks: Iterable[Callable[[OnlineTick], None]] = (),
    tracer=None,
) -> OnlineCharacterizationService:
    """Rebuild a service from a checkpoint, verdict-identically.

    ``config`` overrides the checkpointed :class:`ServiceConfig` (e.g.
    to resume on a different backend — verdicts are backend-invariant).
    The restored service recomputes exactly what the uninterrupted one
    would have: store, tracker, verdict cache, queue and bank state are
    all reinstated; only the cross-tick perf caches start cold, so the
    first resumed tick trades some reuse for correctness.
    """
    ckpt = (
        source
        if isinstance(source, Checkpoint)
        else load_checkpoint(source)
    )
    cfg = config or ckpt.config
    service = OnlineCharacterizationService._from_store(
        DeviceStateStore.from_state(ckpt.store_state),
        cfg,
        engine=engine,
        sinks=sinks,
        tracer=tracer,
    )
    store = service.store
    service._tracker.restore_state(ckpt.tracker_state)
    service._bank = ckpt.bank
    service._last_detection = ckpt.last_detection
    service._verdicts = dict(ckpt.verdicts)
    service._queue.extend(ckpt.queue)
    service._applied_since_tick = int(ckpt.applied_since_tick)
    service._tick = int(ckpt.tick)
    for name, value in ckpt.stats.items():
        setattr(service.stats, name, value)
    service.rejected = dict(ckpt.rejected)
    rows = np.nonzero(store.verdict_codes() != NO_VERDICT)[0]
    service._verdict_rows = rows if rows.size else None
    # Perf caches start cold on purpose: they reference arrays and
    # transitions of the dead process and only ever accelerate, never
    # decide, the next tick.
    service._transition_stage.reset()
    service._verdict_stage.reset()
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
    """Delete all but the newest ``keep`` checkpoints; returns removals."""
    if keep < 1:
        raise ConfigurationError(f"keep must be >= 1, got {keep!r}")
    stale = list_checkpoints(directory)[:-keep]
    for path in stale:
        try:
            path.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent prune
            pass
    return len(stale)


class CheckpointWriter:
    """Service sink: checkpoint every ``every`` ticks, keep the last few.

    Attach with ``service.add_sink(CheckpointWriter(service, dir))`` or
    pass it via the service's ``sinks``.  Each write is atomic (see
    :func:`save_checkpoint`) and followed by retention pruning, so the
    directory always holds the ``keep`` newest complete checkpoints.
    """

    def __init__(
        self,
        service: OnlineCharacterizationService,
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
        path = checkpoint_path(self._directory, tick.tick)
        save_checkpoint(self._service, path, extra=self._extra)
        self.written.append(path)
        prune_checkpoints(self._directory, self._keep)


# ----------------------------------------------------------------------
# Sharded topology: per-shard checkpoint sets as one consistent cut
# ----------------------------------------------------------------------
#
# A :class:`~repro.online.sharded.ShardedService` checkpoint is a *set*
# of files under one directory:
#
#   shard-NN/part-XXXXXXXX.npz   one per spatial shard (store planes,
#                                tracker cell sets, verdict cache)
#   front-XXXXXXXX.npz           the front door (queue, bank, stats,
#                                config, topology)
#   manifest-XXXXXXXX.json       written last, atomically
#
# The manifest is the commit record: every part is fsynced and
# published before the manifest exists, so a reader that finds a
# manifest finds a complete, mutually-consistent cut — all parts carry
# the same tick, written between the same two tick boundaries.  A
# writer killed mid-set leaves at most orphan part files and no
# manifest; the previous cut stays the latest readable one.

_MANIFEST_RE = re.compile(r"^manifest-(\d{8})\.json$")


@dataclass
class _ShardPart:
    """One spatial shard's slice of a sharded checkpoint."""

    shard: int
    store_state: Dict[str, np.ndarray]
    tracker_state: Dict[str, np.ndarray]
    verdicts: Dict[int, object]


@dataclass
class ShardedCheckpoint:
    """One loaded consistent cut, ready for :func:`restore_sharded_service`."""

    version: int
    tick: int
    topology_shards: int
    applied_since_tick: int
    stats: Dict[str, int]
    rejected: Dict[str, int]
    config: ServiceConfig
    queue: List[QosUpdate]
    bank: object
    last_detection: object
    extra: Dict[str, object]
    shards: List[_ShardPart]


def sharded_manifest_path(directory: _PathLike, tick: int) -> Path:
    """The canonical manifest filename for ``tick``."""
    return Path(directory) / f"manifest-{tick:08d}.json"


def _write_npz(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez_compressed(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def save_sharded_checkpoint(
    service,
    directory: _PathLike,
    *,
    extra: Optional[Dict[str, object]] = None,
) -> Path:
    """Write one consistent-cut sharded checkpoint; returns the manifest.

    Call between ticks (e.g. from a sink) — the cut's consistency
    argument is that no shard advances while the set is being written.
    """
    directory = Path(directory)
    tick = service.current_tick
    shard_files: List[str] = []
    for shard, (store_state, tracker_state, verdicts) in enumerate(
        service.shard_states()
    ):
        meta = {
            "version": CHECKPOINT_VERSION,
            "tick": tick,
            "shard": shard,
        }
        arrays: Dict[str, np.ndarray] = {
            "meta_json": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ),
            "verdicts_blob": _pack(dict(verdicts)),
        }
        for key, value in store_state.items():
            arrays[f"store_{key}"] = value
        for key, value in tracker_state.items():
            arrays[f"tracker_{key}"] = value
        rel = f"shard-{shard:02d}/part-{tick:08d}.npz"
        _write_npz(directory / rel, arrays)
        shard_files.append(rel)
    front_meta = {
        "version": CHECKPOINT_VERSION,
        "tick": tick,
        "topology_shards": service.n_shards,
        "applied_since_tick": service._applied_since_tick,
        "stats": service.stats.as_dict(),
        "rejected": dict(service.rejected),
        "config": asdict(service.config),
        "has_bank": service.bank is not None,
    }
    front_rel = f"front-{tick:08d}.npz"
    _write_npz(
        directory / front_rel,
        {
            "meta_json": np.frombuffer(
                json.dumps(front_meta).encode("utf-8"), dtype=np.uint8
            ),
            "queue_blob": _pack(list(service._queue)),
            "aux_blob": _pack(
                {
                    "bank": service.bank,
                    "last_detection": service.last_detection,
                    "extra": dict(extra or {}),
                }
            ),
        },
    )
    manifest = {
        "version": CHECKPOINT_VERSION,
        "tick": tick,
        "topology_shards": service.n_shards,
        "front": front_rel,
        "shards": shard_files,
    }
    manifest_path = sharded_manifest_path(directory, tick)
    tmp = manifest_path.with_name(manifest_path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, manifest_path)
    return manifest_path


def _load_part_arrays(path: Path) -> Dict[str, np.ndarray]:
    if not path.exists():
        raise CheckpointError(
            f"sharded checkpoint part {path} is missing; the manifest "
            "references an incomplete cut"
        )
    try:
        with np.load(path, allow_pickle=False) as data:
            return {key: data[key] for key in data.files}
    except Exception as exc:
        raise CheckpointError(f"checkpoint part {path} is unreadable: {exc}") from exc


def _part_meta(path: Path, arrays: Dict[str, np.ndarray]) -> Dict[str, object]:
    if "meta_json" not in arrays:
        raise CheckpointError(f"checkpoint part {path} carries no metadata")
    try:
        return json.loads(arrays["meta_json"].tobytes().decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint part {path} has corrupt metadata: {exc}"
        ) from exc


def load_sharded_checkpoint(manifest_path: _PathLike) -> ShardedCheckpoint:
    """Read and validate one consistent cut from its manifest."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise CheckpointError(f"manifest {manifest_path} does not exist")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CheckpointError(
            f"manifest {manifest_path} is corrupt: {exc}"
        ) from exc
    version = int(manifest.get("version", -1))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"manifest {manifest_path} is format version {version}; this "
            f"build reads version {CHECKPOINT_VERSION}"
        )
    tick = int(manifest["tick"])
    directory = manifest_path.parent
    front_arrays = _load_part_arrays(directory / manifest["front"])
    front_meta = _part_meta(directory / manifest["front"], front_arrays)
    if int(front_meta["tick"]) != tick:
        raise CheckpointError(
            f"front part of {manifest_path} is from tick "
            f"{front_meta['tick']}, manifest says {tick}"
        )
    aux = _unpack(front_arrays["aux_blob"])
    shards: List[_ShardPart] = []
    for rel in manifest["shards"]:
        part_path = directory / rel
        arrays = _load_part_arrays(part_path)
        meta = _part_meta(part_path, arrays)
        if int(meta["tick"]) != tick:
            raise CheckpointError(
                f"shard part {part_path} is from tick {meta['tick']}, "
                f"manifest says {tick} — not a consistent cut"
            )
        shards.append(
            _ShardPart(
                shard=int(meta["shard"]),
                store_state={
                    key[len("store_") :]: value
                    for key, value in arrays.items()
                    if key.startswith("store_")
                },
                tracker_state={
                    key[len("tracker_") :]: value
                    for key, value in arrays.items()
                    if key.startswith("tracker_")
                },
                verdicts=_unpack(arrays["verdicts_blob"]),
            )
        )
    expected = int(manifest["topology_shards"])
    if len(shards) != expected:
        raise CheckpointError(
            f"manifest {manifest_path} lists {len(shards)} shard parts "
            f"for a {expected}-shard topology"
        )
    return ShardedCheckpoint(
        version=version,
        tick=tick,
        topology_shards=expected,
        applied_since_tick=int(front_meta["applied_since_tick"]),
        stats={k: int(v) for k, v in front_meta["stats"].items()},
        rejected={
            k: int(v) for k, v in front_meta.get("rejected", {}).items()
        },
        config=ServiceConfig(**front_meta["config"]),
        queue=list(_unpack(front_arrays["queue_blob"])),
        bank=aux.get("bank"),
        last_detection=aux.get("last_detection"),
        extra=dict(aux.get("extra", {})),
        shards=sorted(shards, key=lambda part: part.shard),
    )


def restore_sharded_service(
    source: Union[ShardedCheckpoint, _PathLike],
    *,
    config: Optional[ServiceConfig] = None,
    sinks: Iterable[Callable[[OnlineTick], None]] = (),
    tracer=None,
    topology_workers: str = "inline",
):
    """Rebuild a :class:`ShardedService` from a consistent cut.

    Mirrors :func:`restore_service` per shard: stores, trackers and
    verdict caches are reinstated exactly; cross-tick perf caches start
    cold; the device→shard owner map is rebuilt from the parts'
    id columns (authoritative — placement is part of the stores' state,
    not recomputed from positions).  ``topology_workers`` picks where
    the restored shards run; a cut taken under either topology restores
    under either.
    """
    from repro.online.sharded import ShardedService

    ckpt = (
        source
        if isinstance(source, ShardedCheckpoint)
        else load_sharded_checkpoint(source)
    )
    cfg = config or ckpt.config
    dim = int(np.asarray(ckpt.shards[0].store_state["cur"]).shape[1])
    service = ShardedService(
        np.zeros((1, dim)),
        cfg,
        topology_shards=ckpt.topology_shards,
        sinks=sinks,
        tracer=tracer,
        topology_workers=topology_workers,
    )
    try:
        service.load_shard_states(ckpt.shards)
    except ConfigurationError as exc:
        service.close()
        raise CheckpointError(str(exc)) from exc
    service._bank = ckpt.bank
    service._last_detection = ckpt.last_detection
    service._queue.extend(ckpt.queue)
    service._applied_since_tick = int(ckpt.applied_since_tick)
    service._tick = int(ckpt.tick)
    for name, value in ckpt.stats.items():
        setattr(service.stats, name, value)
    service.rejected = dict(ckpt.rejected)
    return service


def list_sharded_checkpoints(directory: _PathLike) -> List[Path]:
    """Manifest files in ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found: List[tuple] = []
    for entry in directory.iterdir():
        match = _MANIFEST_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def latest_sharded_checkpoint(directory: _PathLike) -> Optional[Path]:
    """The newest manifest in ``directory``, if any."""
    found = list_sharded_checkpoints(directory)
    return found[-1] if found else None


def prune_sharded_checkpoints(directory: _PathLike, keep: int) -> int:
    """Delete all but the newest ``keep`` cuts (manifest *and* parts)."""
    if keep < 1:
        raise ConfigurationError(f"keep must be >= 1, got {keep!r}")
    directory = Path(directory)
    stale = list_sharded_checkpoints(directory)[:-keep]
    for manifest_path in stale:
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            parts = [manifest.get("front", ""), *manifest.get("shards", [])]
        except (ValueError, OSError):  # pragma: no cover - corrupt stale cut
            parts = []
        # Manifest first: once it is gone the cut is invisible to
        # readers and the part deletions cannot strand a live manifest.
        try:
            manifest_path.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent prune
            pass
        for rel in parts:
            if not rel:
                continue
            try:
                (directory / rel).unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent prune
                pass
    return len(stale)


class ShardedCheckpointWriter:
    """Sharded-service sink: one consistent cut every ``every`` ticks."""

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
        path = save_sharded_checkpoint(
            self._service, self._directory, extra=self._extra
        )
        self.written.append(path)
        prune_sharded_checkpoints(self._directory, self._keep)
