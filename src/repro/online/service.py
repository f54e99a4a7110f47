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
* when the flagged set is unchanged from the previous tick, the previous
  transition's current-side grid index is adopted as the new
  transition's ``prev`` index (the :class:`Transition` reuse path), so
  quiet ticks skip half the index work too;
* finished ticks are pushed to pluggable *sinks* (reports, metrics —
  any callable).

Verdict identity with batch recharacterization is the contract: on any
update stream, the verdict map after ``end_tick`` equals what a fresh
engine pass over all flagged devices of the same transition would
produce (type, rule and witness; cost counters are artifacts of *when* a
verdict was computed).  ``tests/online`` enforces this on seeded and
randomized runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    QueueFullError,
)
from repro.core.transition import Transition
from repro.core.types import AnomalyType, Characterization
from repro.detection.banks import BankDetection, DetectorBank, DetectorLike, as_bank
from repro.engine import CharacterizationEngine, EngineConfig
from repro.engine.config import BACKENDS
from repro.obs.metrics import Registry, get_registry
from repro.obs.trace import Tracer
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

#: Accepted ``ServiceConfig.backpressure`` values.
BACKPRESSURE_POLICIES = ("block", "drop-oldest", "error")

#: Accepted ``ServiceConfig.validation`` values.
VALIDATION_MODES = ("strict", "sanitize")

#: Stable int8 encoding of verdict types for the store's verdict column.
_VERDICT_CODE = {kind: np.int8(i) for i, kind in enumerate(AnomalyType)}


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
    """Knobs of an :class:`OnlineCharacterizationService`.

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
    reuse_indexes:
        Adopt the previous transition's current-side grid index when the
        flagged set is unchanged.
    reuse_motions:
        Carry motion families of devices outside the dirty cell-rings
        from the previous tick's cache into the next tick's
        (:meth:`~repro.core.neighborhood.MotionCache.carry_from`), so
        recomputed verdicts near a dirty region do not re-enumerate the
        families of their unaffected neighbours.  Sound for the same
        reason verdict reuse is: a family depends only on trajectories
        within ``2r`` of its owner, a subset of the ``4r`` influence
        band the tracker invalidates.  Effective in incremental mode
        under the ``serial`` backend (shared-cache carry) and the
        persistent ``process`` pool (workers receive the clean set each
        tick and carry their private caches).  The decision is per
        *run*, not per backend name — any tick that degrades to the
        serial path (fewer devices than ``min_process_devices``) still
        reuses through the shared cache.
    backend, workers, max_worker_tasks:
        Engine execution knobs (ignored when a shared engine is passed
        to the service directly); ``max_worker_tasks`` bounds a
        persistent-pool worker's lifetime before it is respawned.
    dispatch_deadline:
        Per-roundtrip deadline (seconds) for pool dispatches; hung
        workers are killed and their task retried.  ``None`` (default)
        waits forever.  Ignored when a shared engine is passed in.
    dispatch_retries:
        How many times a failed shard-process roundtrip (dead or hung
        worker) is retried against a respawned process before the front
        door falls back to running that shard inline.  Only the
        process topology consults it.
    validation:
        How :meth:`feed_measurements` treats malformed frames.
        ``"strict"`` (default) counts the rejection reasons on
        ``repro_service_rejected_total{reason}`` and raises before the
        detector bank consumes anything — the frame is refused
        atomically.  ``"sanitize"`` substitutes each bad *row* (NaN,
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
    reuse_indexes: bool = True
    reuse_motions: bool = True
    backend: str = "serial"
    workers: Optional[int] = None
    max_worker_tasks: Optional[int] = None
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
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
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
    "index_reuses": "Grid indexes adopted from the previous transition",
    "families_recomputed": "Motion families recomputed",
    "families_reused": "Motion families carried across ticks",
}


class ServiceStats:
    """Run-level counters of one service instance.

    API-compatible with its former dataclass shape — readable/writable
    int attributes plus :meth:`as_dict` — but the counters now *live* on
    the metric registry: every positive increment is mirrored onto a
    ``repro_service_<field>_total`` counter, so the export plane sees
    one aggregate series per field across every service in the process
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

    Like :class:`ServiceStats`, every increment is mirrored onto the
    metric registry — ``repro_verdict_transitions_total{kind=...}`` and
    ``repro_verdict_device_ticks_total{kind=...}`` — so verdict rates
    by type are scrapeable without touching the sink object.
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
        self._current_kinds: Dict[int, str] = {}
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
        kinds = {
            device: verdict.anomaly_type.value
            for device, verdict in tick.verdicts.items()
        }
        for device, kind in kinds.items():
            self.verdict_tick_counts[kind] += 1
            self._device_ticks_counter.labels(kind=kind).inc()
            if self._current_kinds.get(device) != kind:
                self.verdict_counts[kind] += 1
                self._transitions_counter.labels(kind=kind).inc()
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


class OnlineCharacterizationService:
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
        defaults to one built from the config's backend knobs.
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
        if detector is not None:
            self._bank = as_bank(
                detector, self._store.n, self._store.dim, plane=detection
            )
            # Warm-up step 0: the initial snapshot is the bank's first
            # observation, exactly like the trace replayers' step 0.
            self._last_detection = self._bank.observe_batch(
                np.asarray(initial_positions, dtype=float)
            )
        elif detection is not None:
            raise ConfigurationError(
                "detection plane given without a detector spec or bank"
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
        self._config = config
        self._tracer = tracer if tracer is not None else Tracer()
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
        cfg = self._config
        self._store = store
        self._tracker = DirtyRegionTracker(
            cell=cfg.cell,
            influence_radius=4.0 * cfg.r,
            family_radius=2.0 * cfg.r,
        )
        self._owns_engine = engine is None
        self._engine = engine or CharacterizationEngine(
            EngineConfig(
                backend=cfg.backend,
                workers=cfg.workers,
                max_worker_tasks=cfg.max_worker_tasks,
                dispatch_deadline=cfg.dispatch_deadline,
            )
        )
        self._bank: Optional[DetectorBank] = None
        self._last_detection: Optional[BankDetection] = None
        self._queue: Deque[QosUpdate] = deque()
        # Updates applied since the last end_tick — includes inline
        # drains forced by "block" backpressure, so per-tick accounting
        # never undercounts.
        self._applied_since_tick = 0
        # Rows whose verdict-code column entries are currently set.
        self._verdict_rows: Optional[np.ndarray] = None
        self._sinks: List[Callable[[OnlineTick], None]] = list(sinks)
        # The tick pipeline: every span name the tracer emits is a real
        # stage object (see repro.online.stages).  The stages own the
        # cross-tick state the inline code used to keep on the service —
        # the transition chain lives on the transition-build stage, the
        # verdict cache and motion-cache carry on the verdict stage —
        # and read the store/tracker/engine through the service, so a
        # checkpoint restore that swaps the store is seen everywhere.
        self._ingest_stage = IngestDrainStage(
            lambda: self._apply_batch(
                self._config.max_batch or len(self._queue)
            ),
            lambda: len(self._queue),
        )
        self._detect_stage = DetectStage(lambda: self._bank)
        self._index_stage = IndexUpdateStage(self)
        self._dirty_stage = DirtyRegionStage(self)
        self._transition_stage = TransitionBuildStage(
            self, cfg.r, cfg.tau, reuse_indexes=cfg.reuse_indexes
        )
        self._verdict_stage = VerdictStage(
            self,
            incremental=cfg.incremental,
            reuse_motions=cfg.reuse_motions,
            transition_source=self._transition_stage,
        )
        self._sink_stage = SinkStage(self._sinks)
        self._pipeline = TickPipeline(
            [self._dirty_stage, self._transition_stage, self._verdict_stage]
        )
        self._tick = 0
        self._closed = False
        self.stats = ServiceStats()
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
    def current_tick(self) -> int:
        """Number of completed ticks."""
        return self._tick

    @property
    def bank(self) -> Optional[DetectorBank]:
        """The in-service detector bank (None without a ``detector``)."""
        return self._bank

    @property
    def last_detection(self) -> Optional[BankDetection]:
        """The bank's most recent batch detection, if any."""
        return self._last_detection

    @property
    def queued(self) -> int:
        """Events currently waiting in the ingest queue."""
        return len(self._queue)

    @property
    def tracer(self) -> Tracer:
        """The stage-span tracer timing this service's tick pipeline."""
        return self._tracer

    @property
    def verdicts(self) -> Dict[int, Characterization]:
        """The current verdict map (flagged devices only; a copy)."""
        return dict(self._verdicts)

    def flagged_devices(self) -> Tuple[int, ...]:
        """Currently flagged devices, sorted."""
        return self._store.flagged_devices()

    def add_sink(self, sink: Callable[[OnlineTick], None]) -> None:
        """Attach a sink called with every finished :class:`OnlineTick`."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the engine's worker pool, if the service owns it.

        A shared engine (passed at construction) belongs to its owner —
        e.g. a :class:`~repro.network.monitor.NetworkMonitor` — which is
        responsible for closing it.  Idempotent: a double close (or a
        close racing the pool's atexit sweep) is a clean no-op.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_engine:
            self._engine.close()

    def __enter__(self) -> "OnlineCharacterizationService":
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
        """Pop up to ``limit`` events, apply them as vectorized row batches.

        :meth:`DeviceStateStore.apply_rows` needs unique rows, so the
        batch is split into order-preserving segments at each repeated
        device: within and across segments arrival order is preserved,
        so last-write-wins semantics hold and every intermediate state
        still marks the dirty tracker (a device hopping A→B→C dirties
        all three cells, exactly as the per-update path did).
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

    def _apply_segment(self, segment: List[QosUpdate]) -> int:
        """Apply one duplicate-free event run as a single row batch.

        Malformed events are dropped *per event*, counted on
        ``repro_service_rejected_total{reason}``: an unknown device id,
        a position of the wrong dimension, a non-finite coordinate or
        one outside the unit cube must not crash the tick (or desync
        the store) for every well-formed report in the same batch.
        Returns how many events actually landed in the store.
        """
        store = self._store
        dim = store.dim
        rows: List[int] = []
        kept: List[QosUpdate] = []
        for update in segment:
            row = store.row_if_present(update.device)
            if row is None:
                self._reject("unknown-device")
                continue
            if len(update.position) != dim:
                self._reject("dimension-mismatch")
                continue
            rows.append(row)
            kept.append(update)
        if not kept:
            return 0
        positions = np.array([update.position for update in kept], dtype=float)
        nan_bad = np.isnan(positions).any(axis=1)
        inf_bad = np.isinf(positions).any(axis=1)
        finite = ~(nan_bad | inf_bad)
        range_bad = finite & (
            (positions < 0.0).any(axis=1) | (positions > 1.0).any(axis=1)
        )
        self._reject("nan", int(nan_bad.sum()))
        self._reject("inf", int(inf_bad.sum()))
        self._reject("out-of-range", int(range_bad.sum()))
        good = finite & ~range_bad
        if not good.all():
            idx = np.nonzero(good)[0]
            if idx.size == 0:
                return 0
            positions = positions[idx]
            rows = [rows[i] for i in idx.tolist()]
            kept = [kept[i] for i in idx.tolist()]
        count = len(kept)
        rows_arr = np.asarray(rows, dtype=np.int64)
        flags = np.fromiter(
            (update.flagged for update in kept), dtype=bool, count=count
        )
        applied = store.apply_rows(rows_arr, positions, flags)
        self._tracker.mark_batch(applied, was_relevant=applied.was_flagged)
        return count

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
        """
        # Apply any events queued mid-tick first, so the diff below sees
        # the true store state (and emits corrections back to `current`
        # where a mid-tick ingest diverged from the fed snapshot).
        self._ingest_stage.run(self._tracer)
        applied_rows = self._index_stage.apply_diff(
            current, flags, self._tracer
        )
        if applied_rows:
            self.stats.updates_applied += applied_rows
            self._applied_since_tick += applied_rows
        return self.end_tick()

    def feed_measurements(self, values: np.ndarray) -> OnlineTick:
        """One tick from raw QoS vectors: the service detects, then flags.

        Requires a ``detector`` at construction.  The bank observes the
        ``(n, d)`` snapshot (one vectorized update for the whole fleet),
        its flag vector joins the positions in :meth:`feed_snapshot`,
        and the resulting flag *diffs* drive the usual dirty-region
        invalidation — callers ship measurements, not verdicts.
        """
        self._detect_stage.require_bank()
        arr = np.asarray(values, dtype=float)
        injector = get_injector()
        if injector.active:
            arr = injector.corrupt_frame(self._tick + 1, arr)
        arr = self._validate_frame(arr)
        detection = self._detect_stage.observe(arr, self._tracer)
        self._last_detection = detection
        return self.feed_snapshot(arr, detection.flags)

    def _validate_frame(self, arr: np.ndarray) -> np.ndarray:
        """Apply the configured validation mode to one raw QoS frame.

        Runs *before* the detector bank observes anything, so a
        rejected frame can never leave the bank one observation ahead
        of the store.  ``"strict"`` counts every bad row's reason and
        raises; ``"sanitize"`` substitutes each bad row with the
        device's current stored position — that device simply does not
        report this tick — and returns the repaired frame.  A frame
        whose shape does not match the fleet always raises: it cannot
        be partially applied.
        """
        n, dim = self._store.n, self._store.dim
        if arr.ndim != 2 or arr.shape != (n, dim):
            self._reject("dimension-mismatch")
            raise DimensionMismatchError(
                f"measurement frame shape {arr.shape} incompatible with "
                f"({n}, {dim})"
            )
        nan_bad = np.isnan(arr).any(axis=1)
        inf_bad = np.isinf(arr).any(axis=1)
        finite = ~(nan_bad | inf_bad)
        range_bad = finite & ((arr < 0.0).any(axis=1) | (arr > 1.0).any(axis=1))
        bad = ~finite | range_bad
        if not bad.any():
            return arr
        self._reject("nan", int(nan_bad.sum()))
        self._reject("inf", int(inf_bad.sum()))
        self._reject("out-of-range", int(range_bad.sum()))
        if self._config.validation == "strict":
            raise ConfigurationError(
                f"measurement frame has {int(bad.sum())} malformed rows "
                "(NaN/inf/out-of-range) and validation is strict"
            )
        repaired = arr.copy()
        repaired[bad] = self._store.current_positions()[bad]
        return repaired

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
        self._gauge_queue_depth.set(len(self._queue))
        self._ingest_stage.run(tracer)
        applied = self._applied_since_tick
        self._applied_since_tick = 0
        self._tick += 1
        ctx = TickContext(tick=self._tick, applied=applied)
        self._pipeline.run(ctx, tracer)
        if ctx.index_reused:
            self.stats.index_reuses += 1
        self._record_verdict_codes(ctx.flagged, ctx.verdicts)
        self._transition_stage.advance(ctx)
        self.stats.ticks += 1
        self.stats.verdicts_recomputed += len(ctx.recompute)
        self.stats.verdicts_reused += len(ctx.reused)
        self.stats.families_recomputed += ctx.families_recomputed
        self.stats.families_reused += ctx.families_reused
        self._gauge_devices.set(self._store.n)
        self._gauge_flagged.set(len(ctx.flagged))
        result = OnlineTick(
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
        self._sink_stage.run(result, tracer)
        # The sinks span closed after the drain above; fold it (and any
        # spans a sink itself opened) into this tick's breakdown so the
        # next tick starts from a clean accumulator.
        for stage, seconds in tracer.drain_stages().items():
            result.stage_seconds[stage] = (
                result.stage_seconds.get(stage, 0.0) + seconds
            )
        return result

    def _record_verdict_codes(
        self,
        flagged: Tuple[int, ...],
        verdicts: Dict[int, Characterization],
    ) -> None:
        """Mirror this tick's verdicts into the store's int8 code column."""
        store = self._store
        if self._verdict_rows is not None and self._verdict_rows.size:
            store.set_verdict_codes(
                self._verdict_rows,
                np.full(self._verdict_rows.shape[0], -1, dtype=np.int8),
            )
        if flagged:
            rows = np.fromiter(
                (store.row_of(j) for j in flagged),
                dtype=np.int64,
                count=len(flagged),
            )
            codes = np.fromiter(
                (_VERDICT_CODE[verdicts[j].anomaly_type] for j in flagged),
                dtype=np.int8,
                count=len(flagged),
            )
            store.set_verdict_codes(rows, codes)
            self._verdict_rows = rows
        else:
            self._verdict_rows = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlineCharacterizationService(n={self._store.n}, "
            f"ticks={self._tick}, queued={len(self._queue)}, "
            f"flagged={len(self._verdicts)})"
        )
