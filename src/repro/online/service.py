"""The online characterization service: events in, fresh verdicts out.

Where the batch drivers rebuild the world every interval, the service
keeps it warm:

* per-device QoS reports arrive as :class:`QosUpdate` events through a
  *bounded* ingest queue (``queue_capacity``) with a configurable
  backpressure policy — ``"block"`` applies queued work inline to make
  room (the single-process analogue of blocking the producer),
  ``"drop-oldest"`` sheds load, ``"error"`` raises
  :class:`~repro.core.errors.QueueFullError`;
* :meth:`OnlineCharacterizationService.end_tick` drains the queue in
  batches of ``max_batch``, applies them to the columnar
  :class:`~repro.online.store.DeviceStateStore` as vectorized row
  batches (order-preserving segments, so a device reporting twice keeps
  last-write-wins semantics), and lets the
  :class:`~repro.online.dirty.DirtyRegionTracker` accumulate the touched
  grid cells;
* only the *affected* flagged devices — those within the dirty cells'
  ``4r`` influence band, plus any flagged device without a cached
  verdict — are recomputed through the shared
  :class:`~repro.engine.CharacterizationEngine`; everyone else's verdict
  is served from cache, which the locality argument guarantees is still
  exact;
* finished ticks are pushed to pluggable *sinks* (reports, metrics —
  any callable).

Verdict identity with batch recharacterization is the contract: on any
update stream, the verdict map after ``end_tick`` equals what a fresh
engine pass over all flagged devices of the same transition would
produce (type, rule and witness; cost counters are artifacts of *when* a
verdict was computed).  ``tests/online`` enforces this on seeded and
randomized runs.

The queue, validation, detector bank, stats, sinks and checkpoints live
on ``_FrontDoor``, which the sharded topology
(:class:`~repro.online.sharded.ShardedService`) inherits as well; only
where input lands and how a tick is computed differ between the two.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    QueueFullError,
)
from repro.core.transition import Transition
from repro.core.types import AnomalyType, Characterization, DecisionRule
from repro.detection.banks import BankDetection, DetectorBank, DetectorLike
from repro.engine import CharacterizationEngine
from repro.obs.metrics import Registry, get_registry
from repro.obs.trace import TickClock, Tracer
from repro.online.dirty import DirtyRegionTracker
from repro.online.stages import (
    DetectStage,
    DirtyRegionStage,
    IndexUpdateStage,
    IngestDrainStage,
    SinkStage,
    TickContext,
    TickPipeline,
    TransitionBuildStage,
    VerdictStage,
)
from repro.online.store import DeviceStateStore
from repro.robust.chaos import get_injector

__all__ = [
    "BACKPRESSURE_POLICIES",
    "VALIDATION_MODES",
    "MetricsSink",
    "OnlineCharacterizationService",
    "OnlineTick",
    "QosUpdate",
    "ReportSink",
    "ServiceConfig",
    "ServiceStats",
]

#: ``repro_verdict_family_motions`` bucket bounds (maximal motions per
#: recomputed verdict's family).
FAMILY_MOTION_BUCKETS = (1, 2, 4, 8, 16, 64)

#: Accepted ``ServiceConfig.backpressure`` values.
BACKPRESSURE_POLICIES = ("block", "drop-oldest", "error")

#: Accepted ``ServiceConfig.validation`` values.
VALIDATION_MODES = ("strict", "sanitize")


class RowFaults(NamedTuple):
    """Per-row fault masks of one ``(k, d)`` batch of positions.

    A row with both a NaN and an inf coordinate counts under both
    reasons; ``out_of_range`` marks finite rows only.
    """

    nan: np.ndarray
    inf: np.ndarray
    out_of_range: np.ndarray

    @property
    def bad(self) -> np.ndarray:
        """Rows with any fault."""
        return self.nan | self.inf | self.out_of_range

    def tally(self, reject: Callable[[str, int], None]) -> np.ndarray:
        """Count each reason through ``reject``; return :attr:`bad`."""
        reject("nan", int(self.nan.sum()))
        reject("inf", int(self.inf.sum()))
        reject("out-of-range", int(self.out_of_range.sum()))
        return self.bad


def row_faults(arr: np.ndarray) -> Optional[RowFaults]:
    """Classify the rows of a ``(k, d)`` float batch; ``None`` if all clean.

    A clean batch — every tick's steady state — is recognized by a
    min/max test: NaN fails every comparison, so neither a NaN nor an
    inf can pass ``min >= 0 and max <= 1``.  Otherwise the masks are
    folded one column at a time, which on an ``(n, d)`` frame with
    small ``d`` is several times cheaper than an ``axis=1`` reduction.
    """
    if arr.size == 0 or (arr.min() >= 0.0 and arr.max() <= 1.0):
        return None
    nan = np.zeros(arr.shape[0], dtype=bool)
    inf = np.zeros_like(nan)
    outside = np.zeros_like(nan)
    for k in range(arr.shape[1]):
        col = arr[:, k]
        nan |= np.isnan(col)
        inf |= np.isinf(col)
        outside |= (col < 0.0) | (col > 1.0)
    return RowFaults(nan, inf, outside & ~(nan | inf))


def screen_frame(
    arr: np.ndarray,
    shape: Tuple[int, int],
    mode: str,
    reject: Callable[[str, int], None],
    stored: Callable[[], np.ndarray],
) -> np.ndarray:
    """Apply validation ``mode`` to one full frame of ``shape``.

    A frame of another shape always raises: it cannot be partially
    applied.  Otherwise every bad row's reasons are counted through
    ``reject``; ``"strict"`` then raises, ``"sanitize"`` returns a copy
    whose bad rows are replaced by the matching rows of ``stored()`` —
    those devices simply do not report this tick.  A clean frame is
    returned as is.
    """
    if arr.shape != shape:
        reject("dimension-mismatch", 1)
        raise DimensionMismatchError(
            f"frame shape {arr.shape} incompatible with {shape}"
        )
    faults = row_faults(arr)
    if faults is None:
        return arr
    bad = faults.tally(reject)
    if mode == "strict":
        raise ConfigurationError(
            f"frame has {int(bad.sum())} malformed rows "
            "(NaN/inf/out-of-range) and validation is strict"
        )
    repaired = arr.copy()
    repaired[bad] = stored()[bad]
    return repaired


@dataclass(frozen=True)
class QosUpdate:
    """One device report: position in the QoS cube plus the flag bit."""

    device: int
    position: Tuple[float, ...]
    flagged: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "position", tuple(float(x) for x in self.position)
        )
        object.__setattr__(self, "device", int(self.device))
        object.__setattr__(self, "flagged", bool(self.flagged))


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of an :class:`OnlineCharacterizationService` or a
    :class:`~repro.online.sharded.ShardedService`.

    Both services read every field except where noted; the spatial
    topology of a sharded service is a constructor argument, not a
    field.

    Attributes
    ----------
    r, tau:
        Characterization parameters of every transition the service
        builds.
    queue_capacity:
        Bound on the ingest queue.
    max_batch:
        Updates applied per drain pass inside :meth:`end_tick` (``None``
        drains everything in one pass); a knob for jitter control when a
        tick carries very large bursts.
    backpressure:
        ``"block"`` (apply queued updates inline to make room),
        ``"drop-oldest"`` (shed the oldest queued event), or ``"error"``
        (raise :class:`QueueFullError`).
    incremental:
        When true (default) only affected verdicts are recomputed each
        tick; when false every flagged device is recomputed — the
        always-correct baseline the benchmarks compare against.
    reuse_motions:
        Carry motion families of devices outside the dirty cell-rings
        from the previous tick's cache into the next tick's
        (:meth:`~repro.core.neighborhood.MotionCache.carry_from`), so
        recomputed verdicts near a dirty region do not re-enumerate the
        families of their unaffected neighbours.  Sound for the same
        reason verdict reuse is: a family depends only on trajectories
        within ``2r`` of its owner, a subset of the ``4r`` influence
        band the tracker invalidates.  Effective in incremental mode on
        the single service (shard pipelines gate the carry off).
    dispatch_deadline:
        Per-roundtrip deadline (seconds) for shard-process commands; a
        child that has not replied by then is declared hung, killed and
        respawned, and the command retried.  ``None`` (default) waits
        forever.  Only the process topology consults it.
    dispatch_retries:
        How many times a failed shard-process roundtrip (dead or hung
        worker) is retried against a respawned process before the front
        door falls back to running that shard inline.  Only the
        process topology consults it.
    validation:
        How :meth:`feed_snapshot` and :meth:`feed_measurements` treat
        malformed frames.  ``"strict"`` (default) counts the rejection
        reasons on ``repro_service_rejected_total{reason}`` and raises
        before the store or the detector bank consumes anything — the
        frame is refused atomically.  ``"sanitize"`` substitutes each bad *row* (NaN,
        inf, out-of-range) with the device's current stored position —
        the device simply does not report this tick — and proceeds;
        only a frame whose shape does not match the fleet still raises
        (it cannot be partially applied).  Queued :class:`QosUpdate`
        events are always filtered per event, in either mode.
    """

    r: float = 0.03
    tau: int = 3
    queue_capacity: int = 65_536
    max_batch: Optional[int] = None
    backpressure: str = "block"
    incremental: bool = True
    reuse_motions: bool = True
    dispatch_deadline: Optional[float] = None
    dispatch_retries: int = 2
    validation: str = "strict"

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity!r}"
            )
        if self.max_batch is not None and self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1 when given, got {self.max_batch!r}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.validation not in VALIDATION_MODES:
            raise ConfigurationError(
                f"validation must be one of {VALIDATION_MODES}, "
                f"got {self.validation!r}"
            )
        if self.dispatch_deadline is not None and self.dispatch_deadline <= 0:
            raise ConfigurationError(
                "dispatch_deadline must be > 0 when given, got "
                f"{self.dispatch_deadline!r}"
            )
        if self.dispatch_retries < 0:
            raise ConfigurationError(
                f"dispatch_retries must be >= 0, got {self.dispatch_retries!r}"
            )

    @property
    def cell(self) -> float:
        """Grid-cell side shared by store, tracker and transitions."""
        return max(2.0 * self.r, 1e-6)


#: ServiceStats field -> registry counter help string.
_SERVICE_STAT_HELP = {
    "ticks": "Service ticks completed",
    "updates_applied": "QoS updates applied to the device store",
    "updates_dropped": "Updates shed by drop-oldest backpressure",
    "inline_drains": "Inline drains forced by block backpressure",
    "verdicts_recomputed": "Verdicts recomputed through the engine",
    "verdicts_reused": "Verdicts served from the per-device cache",
    "families_recomputed": "Motion families recomputed",
    "families_reused": "Motion families carried across ticks",
}


class ServiceStats:
    """Run-level counters of one service instance.

    API-compatible with its former dataclass shape — readable/writable
    int attributes plus :meth:`as_dict` — but the counters now *live* on
    the metric registry: every positive increment is mirrored onto a
    ``repro_service_<field>_total`` counter of ``registry`` (a service
    passes its tracer's, beside its gauges), so the export plane sees
    one aggregate series per field across the services sharing it
    while each instance keeps its own exact values here.  (Registry
    counters are monotone; a stat rewound by hand — never done by the
    service — adjusts only the local view.)
    """

    _FIELDS = tuple(_SERVICE_STAT_HELP)

    def __init__(self, registry: Optional[Registry] = None) -> None:
        reg = registry or get_registry()
        self.__dict__["_values"] = dict.fromkeys(self._FIELDS, 0)
        self.__dict__["_counters"] = {
            name: reg.counter(f"repro_service_{name}_total", help_text)
            for name, help_text in _SERVICE_STAT_HELP.items()
        }

    def __getattr__(self, name: str) -> int:
        values = self.__dict__.get("_values")
        if values is not None and name in values:
            return values[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value: int) -> None:
        values = self.__dict__["_values"]
        if name not in values:
            raise AttributeError(f"unknown service stat {name!r}")
        delta = value - values[name]
        values[name] = value
        if delta > 0:
            self.__dict__["_counters"][name].inc(delta)

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for logging and result serialization."""
        return dict(self.__dict__["_values"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(
            f"{name}={value}"
            for name, value in self.__dict__["_values"].items()
        )
        return f"ServiceStats({body})"


@dataclass
class OnlineTick:
    """Everything observable about one service tick.

    ``stage_seconds`` is the tick's wall-clock breakdown by pipeline
    stage (``ingest-drain``, ``detect``, ``index-update``,
    ``dirty-region``, ``transition-build``, ``verdict``, ``sinks``) as
    drained from the service's :class:`~repro.obs.trace.Tracer`; empty
    when the tracer is disabled.

    ``halo_bytes`` is the total payload shipped through halo rings this
    tick (sharded topologies only; always 0 on the single service).
    """

    tick: int
    applied: int
    flagged: Tuple[int, ...]
    recomputed: Tuple[int, ...]
    reused: Tuple[int, ...]
    dirty_cells: int
    verdicts: Dict[int, Characterization] = field(default_factory=dict)
    transition: Optional[Transition] = None
    families_recomputed: int = 0
    families_reused: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    halo_bytes: int = 0


class MetricsSink:
    """Aggregating sink: counts ticks, verdict types and recompute load.

    ``verdict_counts`` counts verdict *transitions*: a device is counted
    when it first appears with a verdict type, or when its type changes
    (including re-flagging after a quiet spell).  A device that stays
    flagged massive for 100 quiet ticks is one massive event, not 100 —
    ``tick.verdicts`` holds every flagged device each tick, cached ones
    included, so naive per-tick counting inflates by verdict lifetime.
    The per-tick view is still available as ``verdict_tick_counts``
    (device-ticks spent in each verdict type).

    ``decision_counts`` counts the verdicts *recomputed* each tick by
    the :class:`~repro.core.types.DecisionRule` that produced them (the
    rule mix: Theorem 5 / 6 / 7, Corollary 8, Algorithm 3 fallback);
    reused verdicts are not re-counted.

    Like :class:`ServiceStats`, every increment is mirrored onto the
    metric registry — ``repro_verdict_transitions_total{kind=...}``,
    ``repro_verdict_device_ticks_total{kind=...}`` and
    ``repro_verdict_decisions_total{rule=...}``, each incremented once
    per label per tick — so verdict rates by type and rule are
    scrapeable without touching the sink object.  The
    ``repro_verdict_family_motions`` histogram records the family size
    (``cost.maximal_motions``) of each recomputed verdict, observed once
    per distinct size per tick; its ``le="1"`` bucket is mostly lone
    devices, which leave the verdict path at its cheapest exit.
    """

    def __init__(self, registry: Optional[Registry] = None) -> None:
        reg = registry or get_registry()
        self.ticks = 0
        self.applied = 0
        self.recomputed = 0
        self.reused = 0
        self.families_recomputed = 0
        self.families_reused = 0
        self.verdict_counts: Dict[str, int] = {
            kind.value: 0 for kind in AnomalyType
        }
        self.verdict_tick_counts: Dict[str, int] = {
            kind.value: 0 for kind in AnomalyType
        }
        self.decision_counts: Dict[str, int] = {
            rule.value: 0 for rule in DecisionRule
        }
        self._current_kinds: Dict[int, str] = {}
        self._family_motions = reg.histogram(
            "repro_verdict_family_motions",
            "Maximal motions in the family of each recomputed verdict",
            buckets=FAMILY_MOTION_BUCKETS,
        )
        self._decisions_counter = reg.counter(
            "repro_verdict_decisions_total",
            "Recomputed verdicts by the decision rule that produced them",
            labelnames=("rule",),
        )
        self._transitions_counter = reg.counter(
            "repro_verdict_transitions_total",
            "Verdict events: a device entering a verdict type",
            labelnames=("kind",),
        )
        self._device_ticks_counter = reg.counter(
            "repro_verdict_device_ticks_total",
            "Device-ticks spent in each verdict type",
            labelnames=("kind",),
        )

    def __call__(self, tick: OnlineTick) -> None:
        self.ticks += 1
        self.applied += tick.applied
        self.recomputed += len(tick.recomputed)
        self.reused += len(tick.reused)
        self.families_recomputed += tick.families_recomputed
        self.families_reused += tick.families_reused
        # One increment per label per tick, not one per device: the
        # registry's label lookup costs more than the tally.
        verdicts = tick.verdicts
        recomputed = [verdicts[device] for device in tick.recomputed]
        rules = Counter([verdict.rule for verdict in recomputed])
        for rule, count in rules.items():
            self.decision_counts[rule.value] += count
            self._decisions_counter.labels(rule=rule.value).inc(count)
        sizes = Counter([verdict.cost.maximal_motions for verdict in recomputed])
        for size, count in sizes.items():
            self._family_motions.observe(size, count)
        kinds = {
            device: verdict.anomaly_type.value
            for device, verdict in verdicts.items()
        }
        for kind, count in Counter(kinds.values()).items():
            self.verdict_tick_counts[kind] += count
            self._device_ticks_counter.labels(kind=kind).inc(count)
        current = self._current_kinds
        entered = Counter(
            [kind for device, kind in kinds.items() if current.get(device) != kind]
        )
        for kind, count in entered.items():
            self.verdict_counts[kind] += count
            self._transitions_counter.labels(kind=kind).inc(count)
        # Devices absent from this tick's verdicts are no longer flagged;
        # forgetting them means a later re-flag counts as a new event.
        self._current_kinds = kinds

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for logging and result serialization."""
        return {
            "ticks": self.ticks,
            "applied": self.applied,
            "recomputed": self.recomputed,
            "reused": self.reused,
            "families_recomputed": self.families_recomputed,
            "families_reused": self.families_reused,
            "verdict_counts": dict(self.verdict_counts),
            "verdict_tick_counts": dict(self.verdict_tick_counts),
            "decision_counts": dict(self.decision_counts),
        }


class ReportSink:
    """Sink collecting ``(tick, device, anomaly_type)`` report rows.

    ``kinds`` filters which verdict types are worth a report — the ISP /
    OTT policies of :mod:`repro.network.monitor` expressed as a sink.

    ``rows`` is *bounded*: an always-on service emits reports forever,
    so the sink keeps at most ``max_rows`` of them, dropping the oldest
    first (``None`` opts back into unbounded growth for short offline
    replays).  Evictions are counted in :attr:`dropped` and mirrored to
    the registry counter ``repro_report_rows_dropped_total``.
    """

    def __init__(
        self,
        kinds: Iterable[AnomalyType] = tuple(AnomalyType),
        *,
        max_rows: Optional[int] = 100_000,
        registry: Optional[Registry] = None,
    ) -> None:
        if max_rows is not None and max_rows < 1:
            raise ConfigurationError(
                f"max_rows must be >= 1 when given, got {max_rows!r}"
            )
        self._kinds = frozenset(kinds)
        self.max_rows = max_rows
        self.rows: Deque[Tuple[int, int, AnomalyType]] = deque(maxlen=max_rows)
        self.dropped = 0
        self._dropped_counter = (registry or get_registry()).counter(
            "repro_report_rows_dropped_total",
            "Report rows evicted from bounded ReportSinks (drop-oldest)",
        )

    def __call__(self, tick: OnlineTick) -> None:
        rows = self.rows
        full_at = rows.maxlen
        for device in sorted(tick.verdicts):
            verdict = tick.verdicts[device]
            if verdict.anomaly_type in self._kinds:
                if full_at is not None and len(rows) == full_at:
                    # deque(maxlen=...) evicts the oldest row itself;
                    # this only accounts for the loss.
                    self.dropped += 1
                    self._dropped_counter.inc()
                rows.append((tick.tick, device, verdict.anomaly_type))


class _FrontDoor:
    """The front door both services share.

    Owns everything between a caller and a tick's computation: the
    bounded ingest queue and its backpressure policy, per-event and
    per-frame validation with the ``repro_service_rejected_total``
    tally, the in-service detector bank, the service gauges, run
    stats, sinks, checkpoints, and the close of a tick (stats,
    gauges, sinks and the stage-seconds fold).

    A subclass decides where validated input lands and how a tick is
    computed:

    * :meth:`_apply_segment` — one duplicate-free run of queued events;
    * :meth:`_apply_frame` — one validated full frame plus flags;
    * :meth:`_stored_frame` — the stored positions a ``"sanitize"``
      repair substitutes for bad rows;
    * :meth:`_run_tick` — the tick body, returning the
      :class:`OnlineTick` the sinks will see;
    * :meth:`_partition_states` — the checkpoint's per-partition parts,
      tagged by ``_CHECKPOINT_TOPOLOGY``;
    * ``n``, ``dim``, :meth:`close` and ``restore``.
    """

    #: The ``topology`` a checkpoint of this service records.
    _CHECKPOINT_TOPOLOGY = ""

    def _open_front_door(
        self,
        config: ServiceConfig,
        *,
        sinks: Iterable[Callable[[OnlineTick], None]],
        tracer: Optional[Tracer],
    ) -> None:
        self._config = config
        self._tracer = tracer if tracer is not None else Tracer()
        self._tick_clock = TickClock(self._tracer)
        registry = self._tracer.registry
        self._gauge_queue_depth = registry.gauge(
            "repro_service_queue_depth",
            "Ingest-queue backlog observed at each tick close",
        )
        self._gauge_devices = registry.gauge(
            "repro_service_devices", "Devices tracked by the store"
        )
        self._gauge_flagged = registry.gauge(
            "repro_service_flagged_devices",
            "Devices flagged at the latest tick",
        )
        self._detect_stage = DetectStage()
        self._queue: Deque[QosUpdate] = deque()
        # Updates applied since the last end_tick — includes inline
        # drains forced by "block" backpressure, so per-tick accounting
        # never undercounts.
        self._applied_since_tick = 0
        self._sinks: List[Callable[[OnlineTick], None]] = list(sinks)
        self._ingest_stage = IngestDrainStage(
            lambda: self._apply_batch(
                self._config.max_batch or len(self._queue)
            ),
            lambda: len(self._queue),
        )
        self._sink_stage = SinkStage(self._sinks)
        self._tick = 0
        self._closed = False
        self.stats = ServiceStats(registry)
        #: Rejected-input tally by reason (mirrored to the registry
        #: counter ``repro_service_rejected_total{reason}``).
        self.rejected: Dict[str, int] = {}
        self._rejected_counter = registry.counter(
            "repro_service_rejected_total",
            "Malformed inputs rejected by the service, by reason",
            labelnames=("reason",),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> ServiceConfig:
        """The service configuration."""
        return self._config

    @property
    def current_tick(self) -> int:
        """Number of completed ticks."""
        return self._tick

    @property
    def queued(self) -> int:
        """Events currently waiting in the ingest queue."""
        return len(self._queue)

    @property
    def tracer(self) -> Tracer:
        """The stage-span tracer timing this service's ticks."""
        return self._tracer

    @property
    def bank(self) -> Optional[DetectorBank]:
        """The in-service detector bank (None without a ``detector``)."""
        return self._detect_stage.bank

    @property
    def last_detection(self) -> Optional[BankDetection]:
        """The bank's most recent batch detection, if any."""
        return self._detect_stage.last

    def add_sink(self, sink: Callable[[OnlineTick], None]) -> None:
        """Attach a sink called with every finished :class:`OnlineTick`."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:  # pragma: no cover - every subclass overrides
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def checkpoint(self, path, *, extra: Optional[Dict[str, object]] = None):
        """Write an atomic checkpoint of this service to ``path``.

        See :mod:`repro.online.recovery` for the format; returns the
        published path.
        """
        from repro.online.recovery import save_checkpoint

        return save_checkpoint(self, path, extra=extra)

    def _restore_front_door(self, ckpt) -> None:
        """Reinstate what a checkpoint keeps outside the store partitions."""
        self._detect_stage.bank = ckpt.bank
        self._detect_stage.last = ckpt.last_detection
        self._queue.extend(ckpt.queue)
        self._applied_since_tick = int(ckpt.applied_since_tick)
        self._tick = int(ckpt.tick)
        for name, value in ckpt.stats.items():
            setattr(self.stats, name, value)
        self.rejected = dict(ckpt.rejected)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, update: QosUpdate) -> bool:
        """Enqueue one event; returns False iff it displaced older work.

        At capacity, the configured backpressure policy decides: apply
        queued updates inline (``block``), drop the oldest queued event
        (``drop-oldest``), or refuse (``error``).
        """
        cfg = self._config
        accepted = True
        if len(self._queue) >= cfg.queue_capacity:
            if cfg.backpressure == "error":
                raise QueueFullError(
                    f"ingest queue is at capacity ({cfg.queue_capacity})"
                )
            if cfg.backpressure == "drop-oldest":
                self._queue.popleft()
                self.stats.updates_dropped += 1
                accepted = False
            else:  # block: make room by doing the consumer's work now
                with self._tracer.span("ingest-drain"):
                    self._apply_batch(cfg.max_batch or len(self._queue))
                self.stats.inline_drains += 1
        self._queue.append(update)
        return accepted

    def ingest_many(self, updates: Iterable[QosUpdate]) -> int:
        """Enqueue a batch; returns how many were accepted cleanly."""
        return sum(1 for update in updates if self.ingest(update))

    def _apply_batch(self, limit: int) -> int:
        """Pop up to ``limit`` events and apply them as row batches.

        Row batches need unique devices, so the batch is split into
        order-preserving segments at each repeated device: within and
        across segments arrival order is preserved, so last-write-wins
        semantics hold and every intermediate state still marks the
        dirty tracker (a device hopping A→B→C dirties all three cells,
        exactly as the per-update path did).
        """
        batch: List[QosUpdate] = []
        while self._queue and len(batch) < limit:
            batch.append(self._queue.popleft())
        if not batch:
            return 0
        start = 0
        seen = set()
        applied = 0
        for i, update in enumerate(batch):
            if update.device in seen:
                applied += self._apply_segment(batch[start:i])
                start = i
                seen = set()
            seen.add(update.device)
        applied += self._apply_segment(batch[start:])
        # Rejected events are tallied separately — only events that
        # actually landed in the store count as applied.
        self.stats.updates_applied += applied
        self._applied_since_tick += applied
        return len(batch)

    def _reject(self, reason: str, count: int = 1) -> None:
        """Count ``count`` rejected inputs under ``reason``."""
        if count <= 0:
            return
        self.rejected[reason] = self.rejected.get(reason, 0) + count
        self._rejected_counter.labels(reason=reason).inc(count)

    def _screen_segment(
        self, segment: List[QosUpdate], known: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Drop and count the malformed events of one segment.

        Malformed events are dropped *per event*, counted on
        ``repro_service_rejected_total{reason}``: an unknown device id
        (``known``, aligned with ``segment``, is false), a position of
        the wrong dimension, a non-finite coordinate or one outside the
        unit cube must not crash the tick (or desync the store) for
        every well-formed report in the same batch.  Returns the kept
        events' indices into ``segment`` and their ``(k, d)`` positions
        (``None`` when nothing is kept).
        """
        dim = self.dim
        kept: List[int] = []
        for i, (update, ok) in enumerate(zip(segment, known.tolist())):
            if not ok:
                self._reject("unknown-device")
            elif len(update.position) != dim:
                self._reject("dimension-mismatch")
            else:
                kept.append(i)
        idx = np.asarray(kept, dtype=np.int64)
        if not kept:
            return idx, None
        positions = np.array([segment[i].position for i in kept], dtype=float)
        faults = row_faults(positions)
        if faults is not None:
            good = np.nonzero(~faults.tally(self._reject))[0]
            if good.size == 0:
                return good, None
            positions, idx = positions[good], idx[good]
        return idx, positions

    def _apply_segment(self, segment: List[QosUpdate]) -> int:
        """Apply one duplicate-free event run; returns how many landed."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def feed_measurements(self, values: np.ndarray) -> OnlineTick:
        """One tick from raw QoS vectors: the service detects, then flags.

        Requires a ``detector`` at construction.  The bank observes the
        ``(n, d)`` snapshot (one vectorized update for the whole fleet),
        its flag vector joins the positions in :meth:`feed_snapshot`,
        and the resulting flag *diffs* drive the usual dirty-region
        invalidation — callers ship measurements, not verdicts.

        A frame has one row per row the bank holds (the fleet the
        service was built over, indexed by device id); the row of a
        device that has left is ignored.
        """
        bank = self._detect_stage.require_bank()
        self._tick_clock.start(restart=True)
        arr = np.asarray(values, dtype=float)
        injector = get_injector()
        if injector.active:
            arr = injector.corrupt_frame(self._tick + 1, arr)
        arr = self._validate_frame(arr, bank.devices)
        detection = self._detect_stage.observe(arr, self._tracer)
        return self._feed_frame(arr, detection.flags)

    def _validate_frame(self, arr: np.ndarray, rows: int) -> np.ndarray:
        """Apply the configured validation mode to one full frame.

        Runs *before* the detector bank or the store sees anything, so a
        rejected frame can never leave the bank one observation ahead
        of the store.  ``"strict"`` counts every bad row's reason and
        raises; ``"sanitize"`` substitutes each bad row with the
        device's current stored position — that device simply does not
        report this tick — and returns the repaired frame.  A frame
        whose shape is not ``(rows, dim)`` always raises.
        """
        return screen_frame(
            arr,
            (rows, self.dim),
            self._config.validation,
            self._reject,
            lambda: self._stored_frame(rows),
        )

    def _stored_frame(self, rows: int) -> np.ndarray:
        """The stored positions of a ``rows``-row frame, row-aligned."""
        raise NotImplementedError

    def _feed_frame(self, current: np.ndarray, flags) -> OnlineTick:
        """Apply one validated frame + flag vector and close the tick."""
        # Apply any events queued mid-tick first, so the frame's diff
        # sees the true store state (and emits corrections back to
        # `current` where a mid-tick ingest diverged from the frame).
        self._ingest_stage.run(self._tracer)
        applied_rows = self._apply_frame(current, flags)
        if applied_rows:
            self.stats.updates_applied += applied_rows
            self._applied_since_tick += applied_rows
        return self.end_tick()

    def _apply_frame(self, current: np.ndarray, flags) -> int:
        """Apply one validated frame; returns how many rows changed."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Tick processing
    # ------------------------------------------------------------------
    def end_tick(self) -> OnlineTick:
        """Close the current interval: drain, invalidate, recharacterize.

        Returns the finished :class:`OnlineTick` after pushing it to
        every sink.  The verdict map covers exactly the flagged devices
        and is equal (type / rule / witness) to a full batch pass over
        the same transition.
        """
        tracer = self._tracer
        self._tick_clock.start()
        self._gauge_queue_depth.set(len(self._queue))
        self._ingest_stage.run(tracer)
        applied = self._applied_since_tick
        self._applied_since_tick = 0
        self._tick += 1
        result = self._run_tick(applied, tracer)
        stats = self.stats
        stats.ticks += 1
        stats.verdicts_recomputed += len(result.recomputed)
        stats.verdicts_reused += len(result.reused)
        stats.families_recomputed += result.families_recomputed
        stats.families_reused += result.families_reused
        self._gauge_devices.set(self.n)
        self._gauge_flagged.set(len(result.flagged))
        self._sink_stage.run(result, tracer)
        # The sinks span closed after the tick body drained the stages;
        # fold it (and any spans a sink itself opened) into this tick's
        # breakdown so the next tick starts from a clean accumulator.
        for stage, seconds in tracer.drain_stages().items():
            result.stage_seconds[stage] = (
                result.stage_seconds.get(stage, 0.0) + seconds
            )
        self._tick_clock.stop()
        return result

    def _run_tick(self, applied: int, tracer: Tracer) -> OnlineTick:
        """Compute tick ``current_tick`` over the applied input."""
        raise NotImplementedError

    def _partition_states(self) -> List[Tuple[Dict, Dict, Dict]]:
        """Per-partition ``(store_state, tracker_state, verdict_cache)``."""
        raise NotImplementedError


class OnlineCharacterizationService(_FrontDoor):
    """Event-driven characterization with incremental verdict refresh.

    Parameters
    ----------
    initial_positions:
        ``(n, d)`` QoS state at service start.
    config:
        Service knobs; defaults to :class:`ServiceConfig` defaults.
    engine:
        Optional shared :class:`CharacterizationEngine` (e.g. the one a
        :class:`~repro.network.monitor.NetworkMonitor` already owns);
        defaults to a fresh engine with the default configuration.
    sinks:
        Initial sink callables; more can be added with :meth:`add_sink`.
    detector:
        Optional in-service detection: a
        :class:`~repro.detection.banks.DetectorSpec` (or prebuilt
        :class:`~repro.detection.banks.DetectorBank`) enabling
        :meth:`feed_measurements` — callers ship raw ``(n, d)`` QoS
        snapshots and the service runs the bank itself, its flag diffs
        feeding the same dirty-region invalidation path as precomputed
        flags.  The bank consumes the initial snapshot at construction
        (warm-up step 0), mirroring the trace replayers.
    detection:
        Plane the bank is built on when ``detector`` is a spec
        (``"bank"`` — vectorized, default — or ``"scalar"``).
    tracer:
        Stage-span :class:`~repro.obs.trace.Tracer` timing the tick
        pipeline; defaults to an enabled tracer on the process-global
        registry.  Pass ``Tracer(enabled=False)`` for the zero-overhead
        null path (every tick's ``stage_seconds`` is then empty).
    """

    _CHECKPOINT_TOPOLOGY = "single"

    def __init__(
        self,
        initial_positions: np.ndarray,
        config: Optional[ServiceConfig] = None,
        *,
        engine: Optional[CharacterizationEngine] = None,
        sinks: Iterable[Callable[[OnlineTick], None]] = (),
        detector: Optional[DetectorLike] = None,
        detection: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        cfg = config or ServiceConfig()
        self._setup(
            DeviceStateStore(initial_positions, cell=cfg.cell),
            cfg,
            engine=engine,
            sinks=sinks,
            tracer=tracer,
        )
        self._detect_stage.attach(
            detector, detection, np.asarray(initial_positions, dtype=float)
        )

    @classmethod
    def _from_store(
        cls,
        store: DeviceStateStore,
        config: ServiceConfig,
        *,
        engine: Optional[CharacterizationEngine] = None,
        sinks: Iterable[Callable[[OnlineTick], None]] = (),
        tracer: Optional[Tracer] = None,
    ) -> "OnlineCharacterizationService":
        """A detector-less service over an already built store.

        The checkpoint restore path: the store comes back from its saved
        columns once, instead of a throwaway store being built from
        initial positions and swapped out.
        """
        service = cls.__new__(cls)
        service._setup(store, config, engine=engine, sinks=sinks, tracer=tracer)
        return service

    def _setup(
        self,
        store: DeviceStateStore,
        config: ServiceConfig,
        *,
        engine: Optional[CharacterizationEngine],
        sinks: Iterable[Callable[[OnlineTick], None]],
        tracer: Optional[Tracer],
    ) -> None:
        self._open_front_door(config, sinks=sinks, tracer=tracer)
        cfg = self._config
        self._store = store
        self._tracker = DirtyRegionTracker(
            cell=cfg.cell,
            influence_radius=4.0 * cfg.r,
            family_radius=2.0 * cfg.r,
        )
        self._owns_engine = engine is None
        self._engine = engine or CharacterizationEngine()
        # The tick pipeline: every span name the tracer emits is a real
        # stage object (see repro.online.stages).  The stages own the
        # cross-tick state the inline code used to keep on the service —
        # the transition chain lives on the transition-build stage, the
        # verdict cache and motion-cache carry on the verdict stage —
        # and read the store/tracker/engine through the service, so a
        # checkpoint restore that swaps the store is seen everywhere.
        self._index_stage = IndexUpdateStage(self)
        self._dirty_stage = DirtyRegionStage(self)
        self._transition_stage = TransitionBuildStage(self, cfg.r, cfg.tau)
        self._verdict_stage = VerdictStage(
            self,
            incremental=cfg.incremental,
            reuse_motions=cfg.reuse_motions,
            transition_source=self._transition_stage,
        )
        self._pipeline = TickPipeline(
            [self._dirty_stage, self._transition_stage, self._verdict_stage]
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def store(self) -> DeviceStateStore:
        """The columnar device-state store."""
        return self._store

    @property
    def n(self) -> int:
        """Number of live devices (drivers use this instead of ``store.n``
        so the sharded front door can satisfy the same contract)."""
        return self._store.n

    @property
    def dim(self) -> int:
        """Number of services per device."""
        return self._store.dim

    @property
    def tracker(self) -> DirtyRegionTracker:
        """The dirty-region tracker accumulating this tick's cells."""
        return self._tracker

    @property
    def engine(self) -> CharacterizationEngine:
        """The characterization engine recomputations route through."""
        return self._engine

    @property
    def pipeline(self) -> TickPipeline:
        """The ordered core stages one ``end_tick`` runs."""
        return self._pipeline

    # ------------------------------------------------------------------
    # The verdict cache, re-exposed under its historical attribute name
    # (recovery and the tests reach for it).
    # ------------------------------------------------------------------
    @property
    def _verdicts(self) -> Dict[int, Characterization]:
        return self._verdict_stage.cache

    @_verdicts.setter
    def _verdicts(self, value: Dict[int, Characterization]) -> None:
        self._verdict_stage.cache = value

    @property
    def verdicts(self) -> Dict[int, Characterization]:
        """The current verdict map (flagged devices only; a copy)."""
        return dict(self._verdicts)

    def flagged_devices(self) -> Tuple[int, ...]:
        """Currently flagged devices, sorted."""
        return self._store.flagged_devices()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the engine, if the service owns it.

        A shared engine (passed at construction) belongs to its owner —
        e.g. a :class:`~repro.network.monitor.NetworkMonitor` — which is
        responsible for closing it.  Idempotent: a double close is a
        clean no-op.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_engine:
            self._engine.close()

    @classmethod
    def restore(
        cls,
        source,
        *,
        config=None,
        engine: Optional[CharacterizationEngine] = None,
        sinks: Iterable[Callable[["OnlineTick"], None]] = (),
        tracer: Optional[Tracer] = None,
    ) -> "OnlineCharacterizationService":
        """Rebuild a service from a checkpoint path (or loaded object).

        The restored service continues the stream verdict-identically;
        see :func:`repro.online.recovery.restore_service`.
        """
        from repro.online.recovery import restore_service

        return restore_service(
            source, config=config, engine=engine, sinks=sinks, tracer=tracer
        )

    def _partition_states(self) -> List[Tuple[Dict, Dict, Dict]]:
        return [(self._store.state(), self._tracker.state(), self._verdicts)]

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------
    def _apply_segment(self, segment: List[QosUpdate]) -> int:
        """Apply one duplicate-free event run as a single row batch."""
        store = self._store
        rows = store.rows_of([update.device for update in segment])
        keep, positions = self._screen_segment(segment, rows >= 0)
        if positions is None:
            return 0
        flags = np.fromiter(
            (update.flagged for update in segment), dtype=bool, count=len(segment)
        )
        applied = store.apply_rows(rows[keep], positions, flags[keep])
        self._tracker.mark_batch(applied, was_relevant=applied.was_flagged)
        return int(keep.size)

    def feed_snapshot(
        self, current: np.ndarray, flags: Iterable[bool]
    ) -> OnlineTick:
        """Adapt one snapshot + flag vector into events and a tick.

        The bridge the snapshot-shaped drivers (network monitor, sampled
        stream, trace replay) share: devices whose position or flag bit
        differs from the service's *own* current state emit a
        :class:`QosUpdate`, then the tick is closed.  The diff runs
        against the store — not a caller-remembered previous snapshot,
        which can disagree after mid-tick ingests — so the service
        always converges to ``current``.  ``flags`` is the full current
        flag vector (index = device id).

        The self-produced diff batch is applied *directly* as one
        vectorized row batch, not routed through the bounded ingest
        queue: the snapshot is already materialized, and an "error"
        backpressure policy firing mid-batch would leave the tick
        half-applied — and a detector bank one observation ahead of the
        store (:meth:`feed_measurements` relies on this atomicity).
        This is the columnar hot path: the diff runs against the
        store's read-only views, the changed rows go straight to
        :meth:`DeviceStateStore.apply_rows`, and no per-device Python
        objects are created at any point (the steady-state allocation
        test pins this down).

        ``current`` must cover the store's allocated rows.  It passes the
        configured ``validation`` mode before the store is touched, as a
        :meth:`feed_measurements` frame does (:meth:`_validate_frame`).
        """
        self._tick_clock.start(restart=True)
        arr = self._validate_frame(
            np.asarray(current, dtype=float),
            self._store.current_positions().shape[0],
        )
        return self._feed_frame(arr, flags)

    def _stored_frame(self, rows: int) -> np.ndarray:
        return self._store.current_positions()

    def _apply_frame(self, current: np.ndarray, flags) -> int:
        vacant = self._store.free_rows()
        if vacant.size:
            # A vacant row's entry is ignored: it takes the store's
            # scrubbed zeros and a clear flag, so it diffs clean.
            current = current.copy()
            current[vacant] = 0.0
            flags = np.array(
                flags if isinstance(flags, np.ndarray) else list(flags), dtype=bool
            )
            flags[vacant] = False
        return self._index_stage.apply_diff(current, flags, self._tracer)

    # ------------------------------------------------------------------
    # Tick processing
    # ------------------------------------------------------------------
    def _run_tick(self, applied: int, tracer: Tracer) -> OnlineTick:
        ctx = TickContext(tick=self._tick, applied=applied)
        self._pipeline.run(ctx, tracer)
        self._store.record_verdicts(ctx.verdicts)
        self._transition_stage.advance(ctx)
        return OnlineTick(
            tick=self._tick,
            applied=applied,
            flagged=ctx.flagged,
            recomputed=tuple(ctx.recompute),
            reused=tuple(ctx.reused),
            dirty_cells=len(ctx.dirty_cells),
            verdicts=ctx.verdicts,
            transition=ctx.transition,
            families_recomputed=ctx.families_recomputed,
            families_reused=ctx.families_reused,
            stage_seconds=tracer.drain_stages(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlineCharacterizationService(n={self._store.n}, "
            f"ticks={self._tick}, queued={len(self._queue)}, "
            f"flagged={len(self._verdicts)})"
        )
