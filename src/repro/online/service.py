"""The online characterization service's front door: events in, fresh
verdicts out.

Where the batch drivers rebuild the world every interval, the service
keeps it warm:

* per-device QoS reports arrive as :class:`QosUpdate` events through a
  *bounded* ingest queue (``queue_capacity``) with a configurable
  backpressure policy — ``"block"`` applies queued work inline to make
  room (the single-process analogue of blocking the producer),
  ``"drop-oldest"`` sheds load, ``"error"`` raises
  :class:`~repro.core.errors.QueueFullError`;
* ``end_tick`` drains the queue in batches of ``max_batch`` and applies
  them, as vectorized row batches (order-preserving segments, so a
  device reporting twice keeps last-write-wins semantics), to the
  columnar :class:`~repro.online.store.DeviceStateStore` of each
  device's shard, whose :class:`~repro.online.dirty.DirtyRegionTracker`
  accumulates the touched grid cells;
* only the *affected* flagged devices — those within the dirty cells'
  ``4r`` influence band, plus any flagged device without a cached
  verdict — are recomputed through a
  :class:`~repro.engine.CharacterizationEngine`; everyone else's verdict
  is served from cache, which the locality argument guarantees is still
  exact;
* finished ticks are pushed to pluggable *sinks* (reports, metrics —
  any callable).

This module holds what every caller sees — :class:`ServiceConfig`,
:class:`QosUpdate`, :class:`OnlineTick`, the sinks and ``_FrontDoor``
(the queue, validation, detector bank, stats, sinks and checkpoints).
The tick itself has one path,
:class:`~repro.online.sharded.ShardedService`; the single service,
:class:`~repro.online.sharded.OnlineCharacterizationService`, is its
one-shard, in-process case.

Verdict identity with batch recharacterization is the contract: on any
update stream, the verdict map after ``end_tick`` equals what a fresh
engine pass over all flagged devices of the same transition would
produce (type, rule and witness; cost counters are artifacts of *when* a
verdict was computed).  ``tests/online`` enforces this on seeded and
randomized runs.
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
from repro.detection.banks import BankDetection, DetectorBank
from repro.obs.metrics import Registry, get_registry
from repro.obs.trace import TickClock, Tracer
from repro.robust.chaos import get_injector

__all__ = [
    "BACKPRESSURE_POLICIES",
    "VALIDATION_MODES",
    "MetricsSink",
    "OnlineTick",
    "QosUpdate",
    "ReportSink",
    "ServiceConfig",
    "ServiceStats",
]

#: ``repro_verdict_family_motions`` bucket bounds (maximal motions per
#: recomputed verdict's family).
FAMILY_MOTION_BUCKETS = (1, 2, 4, 8, 16, 64)

#: ``repro_verdict_tested_collections`` bucket bounds (collections the
#: Theorem 7 search tested for one recomputed verdict).
TESTED_COLLECTION_BUCKETS = (1, 2, 4, 8, 16, 64, 256, 1024, 4096)

#: The rules the Theorem 7 search decides.
_SEARCH_RULES = (DecisionRule.THEOREM_7, DecisionRule.COROLLARY_8)

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
}


class ServiceStats:
    """Run-level counters of one service instance.

    Readable/writable int attributes plus :meth:`as_dict`.  Every
    positive increment is mirrored onto a ``repro_service_<field>_total``
    counter of ``registry`` (a service passes its tracer's, beside its
    gauges), so the export plane sees one aggregate series per field
    across the services sharing it while each instance keeps its own
    exact values here.  (Registry
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
    stage as drained from the service's and its shards'
    :class:`~repro.obs.trace.Tracer` — front door: ``ingest-drain``,
    ``detect``, ``frame-roundtrip``, ``shard-migrate``,
    ``halo-exchange``, ``dirty-union``, ``shard-send``,
    ``verdict-merge``, ``sinks``; shards (summed over shards):
    ``index-update``, ``dirty-region``, ``transition-build``,
    ``verdict``.  Empty when the tracer is disabled.

    ``transition`` is always ``None``: each shard builds its own
    flagged-only transition inside the tick, and none outlives it.  The
    field stays for readers that test it (perfbench's reference check
    falls back to the frames).

    ``halo_bytes`` is the total payload shipped through halo rings this
    tick (0 with one shard).
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
    # Always 0: motion families no longer outlive their tick.
    # ``perfbench/run.py`` reads this field; the benchmark's own files are
    # only edited by benchmark changes, so it stays until one drops it.
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
    devices, which leave the verdict path at its cheapest exit.  The
    ``repro_verdict_tested_collections`` histogram records the
    collections the Theorem 7 search tested (``cost.tested_collections``)
    for each recomputed verdict it decided (rule ``theorem-7`` or
    ``corollary-8``), observed once per distinct count per tick: the
    search's cost, which grows steeply with motion size.  A search that
    blew its budget under ``budget_fallback`` decides nothing and is not
    observed: budget fallbacks already show as
    ``repro_verdict_decisions_total{rule="algorithm-3"}`` (beside the
    verdicts of the cheap mode, ``full_nsc=False``, which never search),
    so :class:`~repro.core.types.CostCounters` carries no fallback field.
    """

    def __init__(self, registry: Optional[Registry] = None) -> None:
        reg = registry or get_registry()
        self.ticks = 0
        self.applied = 0
        self.recomputed = 0
        self.reused = 0
        self.families_recomputed = 0
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
        self._tested_collections = reg.histogram(
            "repro_verdict_tested_collections",
            "Collections the Theorem 7 search tested for each recomputed verdict it decided",
            buckets=TESTED_COLLECTION_BUCKETS,
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
        tested = Counter(
            [
                verdict.cost.tested_collections
                for verdict in recomputed
                if verdict.rule in _SEARCH_RULES
            ]
        )
        for value, count in tested.items():
            self._tested_collections.observe(value, count)
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
    """The front door of :class:`~repro.online.sharded.ShardedService`.

    Owns everything between a caller and a tick's computation: the
    bounded ingest queue and its backpressure policy, per-event and
    per-frame validation with the ``repro_service_rejected_total``
    tally, the in-service detector bank, the service gauges, run
    stats, sinks, checkpoints, and the close of a tick (stats,
    gauges, sinks and the stage-seconds fold).  The sharded service
    routes what it accepts to its shards (``_apply_segment``,
    ``_apply_frame``) and computes the tick (``_run_tick``).
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
        self._bank: Optional[DetectorBank] = None
        self._last_detection: Optional[BankDetection] = None
        self._queue: Deque[QosUpdate] = deque()
        # Updates applied since the last end_tick — includes inline
        # drains forced by "block" backpressure, so per-tick accounting
        # never undercounts.
        self._applied_since_tick = 0
        self._sinks: List[Callable[[OnlineTick], None]] = list(sinks)
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
        return self._bank

    @property
    def last_detection(self) -> Optional[BankDetection]:
        """The bank's most recent batch detection, if any."""
        return self._last_detection

    def add_sink(self, sink: Callable[[OnlineTick], None]) -> None:
        """Attach a sink called with every finished :class:`OnlineTick`."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
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
        self._bank = ckpt.bank
        self._last_detection = ckpt.last_detection
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

    def _drain_queue(self) -> None:
        """``ingest-drain``: apply the whole queue, ``max_batch`` at a time."""
        if not self._queue:
            return
        with self._tracer.span("ingest-drain"):
            while self._queue:
                self._apply_batch(self._config.max_batch or len(self._queue))

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
        bank = self._bank
        if bank is None:
            raise ConfigurationError(
                "feed_measurements needs a detector; construct the service "
                "with detector=DetectorSpec(...)"
            )
        self._tick_clock.start(restart=True)
        arr = np.asarray(values, dtype=float)
        injector = get_injector()
        if injector.active:
            arr = injector.corrupt_frame(self._tick + 1, arr)
        arr = self._validate_frame(arr, bank.devices)
        with self._tracer.span("detect"):
            self._last_detection = bank.observe_batch(arr)
        return self._feed_frame(arr, self._last_detection.flags)

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
            lambda: self._gather_current(rows),
        )

    def _feed_frame(self, current: np.ndarray, flags) -> OnlineTick:
        """Apply one validated frame + flag vector and close the tick."""
        # Apply any events queued mid-tick first, so the frame's diff
        # sees the true store state (and emits corrections back to
        # `current` where a mid-tick ingest diverged from the frame).
        self._drain_queue()
        applied_rows = self._apply_frame(current, flags)
        if applied_rows:
            self.stats.updates_applied += applied_rows
            self._applied_since_tick += applied_rows
        return self.end_tick()

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
        self._drain_queue()
        applied = self._applied_since_tick
        self._applied_since_tick = 0
        self._tick += 1
        result = self._run_tick(applied, tracer)
        stats = self.stats
        stats.ticks += 1
        stats.verdicts_recomputed += len(result.recomputed)
        stats.verdicts_reused += len(result.reused)
        stats.families_recomputed += result.families_recomputed
        self._gauge_devices.set(self.n)
        self._gauge_flagged.set(len(result.flagged))
        with tracer.span("sinks"):
            for sink in self._sinks:
                sink(result)
        # The sinks span closed after the tick body drained the stages;
        # fold it (and any spans a sink itself opened) into this tick's
        # breakdown so the next tick starts from a clean accumulator.
        for stage, seconds in tracer.drain_stages().items():
            result.stage_seconds[stage] = (
                result.stage_seconds.get(stage, 0.0) + seconds
            )
        self._tick_clock.stop()
        return result

