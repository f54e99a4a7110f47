"""Online characterization service: events in, fresh verdicts out.

The batch drivers (:mod:`repro.simulation`, :mod:`repro.experiments`)
rebuild every spatial index and recompute every verdict each interval.
This package keeps a live population warm instead:

* :class:`~repro.online.store.DeviceStateStore` — last two QoS snapshots
  and flag state per device, as columns, changed only in row batches;
* :class:`~repro.online.grid.MutableGridIndex` — the store's cell-key
  column (the cells of :class:`~repro.core.geometry.GridIndex`), re-keyed
  per batch for the dirty-region fan-out;
* :class:`~repro.online.dirty.DirtyRegionTracker` — maps a tick's
  changed positions to the flagged devices within ``4r`` of them, whose
  verdicts could have changed (the paper's locality result read as an
  invalidation rule);
* :mod:`repro.online.service` — the front door: bounded ingest queue,
  batching and backpressure knobs
  (:class:`~repro.online.service.ServiceConfig`), validation, pluggable
  sinks;
* :mod:`repro.online.sharded` — the one tick path: spatial shards with
  per-tick halo exchange behind one
  :class:`~repro.online.sharded.ShardedService` front door, and the
  single :class:`~repro.online.sharded.OnlineCharacterizationService`,
  its one-shard in-process case; per-tick verdict maps equal full batch
  recharacterization;
* :mod:`repro.online.replay` — drivers feeding recorded traces or
  synthetic load through the service;
* :mod:`repro.online.stages` — the tick pipeline decomposed into
  composable stage objects over a shared :class:`TickContext`;

The tick pipeline is instrumented end to end through :mod:`repro.obs`:
every service owns a stage-span tracer (``service.tracer``), each
:class:`~repro.online.service.OnlineTick` carries a ``stage_seconds``
breakdown, and the registry accumulates per-stage latency histograms.

See DESIGN.md, sections "Online subsystem" and "Observability".
"""

from repro.online.dirty import DirtyRegionTracker
from repro.online.grid import MutableGridIndex
from repro.online.recovery import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointWriter,
    checkpoint_path,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    restore_service,
    restore_sharded_service,
    save_checkpoint,
)
from repro.online.replay import (
    LoadGenerator,
    LoadProfile,
    OnlineReplayResult,
    drive_load,
    drive_load_measurements,
    replay_trace_online,
)
from repro.online.service import (
    BACKPRESSURE_POLICIES,
    VALIDATION_MODES,
    MetricsSink,
    OnlineTick,
    QosUpdate,
    ReportSink,
    ServiceConfig,
    ServiceStats,
)
from repro.online.sharded import (
    HaloTransitionBuildStage,
    OnlineCharacterizationService,
    ShardMap,
    ShardedService,
)
from repro.online.stages import (
    IndexUpdateStage,
    TickContext,
    VerdictStage,
)
from repro.online.store import DeviceStateStore

# ``perfbench/run.py`` imports this name; the benchmark's own files are
# only edited by benchmark changes, so the alias stays until one drops it.
load_sharded_checkpoint = load_checkpoint

__all__ = [
    "BACKPRESSURE_POLICIES",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointWriter",
    "DeviceStateStore",
    "DirtyRegionTracker",
    "HaloTransitionBuildStage",
    "IndexUpdateStage",
    "LoadGenerator",
    "LoadProfile",
    "MetricsSink",
    "MutableGridIndex",
    "OnlineCharacterizationService",
    "OnlineReplayResult",
    "OnlineTick",
    "QosUpdate",
    "ReportSink",
    "ServiceConfig",
    "ServiceStats",
    "ShardMap",
    "ShardedService",
    "TickContext",
    "VALIDATION_MODES",
    "VerdictStage",
    "checkpoint_path",
    "drive_load",
    "drive_load_measurements",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "prune_checkpoints",
    "replay_trace_online",
    "restore_service",
    "restore_sharded_service",
    "save_checkpoint",
]
