"""End-to-end monitoring pipeline over the ISP substrate.

Ties every layer of the reproduction together, per tick:

1. :class:`~repro.network.faults.FaultInjector` updates equipment health;
2. each gateway *measures* the end-to-end QoS of its services (path
   health x nominal quality, plus measurement noise);
3. each gateway's :class:`~repro.detection.composite.DeviceMonitor` flags
   abnormal variations (``a_k(j)``);
4. the last two QoS snapshots plus the flagged set form a
   :class:`~repro.core.transition.Transition`, characterized locally;
5. a *reporting policy* turns verdicts into operator notifications:
   ISP mode reports isolated anomalies only (gateways self-diagnose their
   own faults; massive events would flood the call center), OTT mode
   reports massive anomalies only (the over-the-top operator wants
   network-level events).

This is exactly the deployment story of the paper's introduction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import dataclasses

from repro.core.errors import ConfigurationError
from repro.core.transition import Snapshot, Transition
from repro.core.types import AnomalyType, Characterization
from repro.engine import CharacterizationEngine
from repro.detection.banks import (
    BankDetection,
    DetectorBank,
    DetectorSpec,
    resolve_bank,
)
from repro.detection.base import Detector
from repro.network.faults import FaultInjector
from repro.network.services import ServiceCatalog, default_catalog
from repro.network.topology import IspTopology
from repro.obs.trace import get_tracer
from repro.online.service import ServiceConfig
from repro.online.sharded import OnlineCharacterizationService

__all__ = ["ReportingPolicy", "Report", "TickResult", "NetworkMonitor"]


class ReportingPolicy(enum.Enum):
    """Who gets notified about what."""

    ISP = "isp"    # report isolated anomalies (local equipment faults)
    OTT = "ott"    # report massive anomalies (network-level events)
    ALL = "all"    # report everything (debugging / call-center baseline)

    def should_report(self, anomaly_type: AnomalyType) -> bool:
        """Whether a verdict of this type is worth an operator report."""
        if self is ReportingPolicy.ALL:
            return True
        if self is ReportingPolicy.ISP:
            return anomaly_type is AnomalyType.ISOLATED
        return anomaly_type is AnomalyType.MASSIVE


@dataclass(frozen=True)
class Report:
    """One operator notification emitted by a gateway."""

    tick: int
    device_id: int
    gateway: str
    anomaly_type: AnomalyType
    position: tuple


@dataclass
class TickResult:
    """Everything observable about one monitoring tick."""

    tick: int
    qos: np.ndarray                       # (n, d) measured QoS
    flagged: List[int]                    # devices with a_k(j) = true
    # None on the first tick, and on every incremental tick: the online
    # service's transitions are its shards' own, flagged-only ones.
    transition: Optional[Transition]
    verdicts: Dict[int, Characterization] = field(default_factory=dict)
    reports: List[Report] = field(default_factory=list)
    # The bank's full per-service verdicts (scores, forecasts, residuals
    # — four fleet-sized arrays).  Attached only under
    # ``NetworkMonitor(keep_detections=True)``: callers commonly retain
    # every TickResult, and pinning 4x (n, d) arrays per tick would
    # reintroduce the per-tick memory growth this layer avoids.  The
    # latest one is always available as ``monitor.last_detection``.
    detection: Optional[BankDetection] = None


class NetworkMonitor:
    """Drives the measure → detect → characterize → report loop.

    Parameters
    ----------
    topology:
        The access network.
    catalog:
        Services to monitor; defaults to a two-service catalog.
    detector_spec:
        Detector configuration for the whole fleet; defaults to the
        step-threshold spec with ``max_step = 4 r`` (a relocation in the
        QoS space is macroscopic by construction).  The tick loop runs
        it as one array-backed
        :class:`~repro.detection.banks.DetectorBank` — ``n x d``
        detector states updated in a few vectorized operations.
    detection:
        Detection plane (``"bank"`` — vectorized, default — or
        ``"scalar"``, the per-device reference loop; flags are
        identical by the banks' equivalence contract).
    keep_detections:
        Attach each tick's full :class:`BankDetection` to its
        :class:`TickResult` (off by default — see
        :attr:`TickResult.detection`).
    detector_factory:
        Legacy escape hatch: a zero-argument scalar-detector factory.
        Opaque factories cannot be vectorized, so this forces the
        scalar plane; prefer ``detector_spec``.
    policy:
        Reporting policy (ISP / OTT / ALL).
    r, tau:
        Characterization parameters.
    noise_sigma:
        Gaussian measurement noise on every QoS sample.
    seed:
        RNG seed for measurement noise.
    engine:
        Optional shared :class:`~repro.engine.CharacterizationEngine`.
        Defaults to an engine owned by the monitor; the tick loop
        characterizes through it, so one batch neighbourhood pass and one
        motion cache serve each interval.  The monitor
        closes an engine it built itself (:meth:`close`, or use the
        monitor as a context manager); a caller-provided engine stays
        the caller's to close.
    incremental:
        When true, the tick loop routes through an
        :class:`~repro.online.sharded.OnlineCharacterizationService`
        instead of recharacterizing every flagged gateway: per-tick QoS
        diffs become events, only verdicts whose ``4r`` neighbourhoods
        changed are recomputed.  Verdicts are identical either way.
    service_config:
        Knobs for the incremental service (``r``/``tau`` are overridden
        with the monitor's own).
    """

    def __init__(
        self,
        topology: IspTopology,
        catalog: Optional[ServiceCatalog] = None,
        *,
        detector_spec: Optional[DetectorSpec] = None,
        detection: Optional[str] = None,
        keep_detections: bool = False,
        detector_factory: Optional[Callable[[], Detector]] = None,
        policy: ReportingPolicy = ReportingPolicy.ISP,
        r: float = 0.03,
        tau: int = 3,
        noise_sigma: float = 0.002,
        seed: int = 0,
        engine: Optional[CharacterizationEngine] = None,
        incremental: bool = False,
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        if noise_sigma < 0:
            raise ConfigurationError(f"noise_sigma must be >= 0, got {noise_sigma!r}")
        self._topology = topology
        self._catalog = catalog or default_catalog(topology)
        self._injector = FaultInjector(topology)
        self._bank: DetectorBank = resolve_bank(
            topology.n_gateways,
            self._catalog.dim,
            detector_factory=detector_factory,
            detector=detector_spec,
            detection=detection,
            r=r,
        )
        self._keep_detections = keep_detections
        self._last_detection: Optional[BankDetection] = None
        self._policy = policy
        self._r = r
        self._tau = tau
        self._noise = noise_sigma
        self._rng = np.random.default_rng(seed)
        self._tick = 0
        self._previous_qos: Optional[np.ndarray] = None
        self._owns_engine = engine is None
        self._engine = engine or CharacterizationEngine()
        self._incremental = incremental
        self._service_config = dataclasses.replace(
            service_config or ServiceConfig(), r=r, tau=tau
        )
        self._service: Optional[OnlineCharacterizationService] = None

    @property
    def injector(self) -> FaultInjector:
        """The fault scheduler (inject faults through this)."""
        return self._injector

    @property
    def catalog(self) -> ServiceCatalog:
        """The monitored services."""
        return self._catalog

    @property
    def policy(self) -> ReportingPolicy:
        """Current reporting policy."""
        return self._policy

    @property
    def current_tick(self) -> int:
        """Number of completed ticks."""
        return self._tick

    @property
    def engine(self) -> CharacterizationEngine:
        """The characterization engine the tick loop routes through."""
        return self._engine

    @property
    def bank(self) -> DetectorBank:
        """The detector bank flagging ``a_k(j)`` fleet-wide each tick."""
        return self._bank

    @property
    def last_detection(self) -> Optional[BankDetection]:
        """The bank's most recent batch detection (None before tick 1)."""
        return self._last_detection

    @property
    def service(self) -> Optional[OnlineCharacterizationService]:
        """The online service (incremental mode only; None before tick 1)."""
        return self._service

    def close(self) -> None:
        """Close the engine, if the monitor owns it.

        The incremental service shares the monitor's engine, so closing
        the monitor covers it too.  Idempotent.
        """
        if self._owns_engine:
            self._engine.close()

    def __enter__(self) -> "NetworkMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _measure_all(self) -> np.ndarray:
        """Measure the QoS of every service at every gateway.

        One vectorized pass: :meth:`~repro.network.services.ServiceCatalog.qos_matrix`
        reduces cached route tables against the current health vector,
        then measurement noise is added fleet-wide.
        """
        qos = self._catalog.qos_matrix(self._topology)
        if self._noise:
            qos += self._rng.normal(0.0, self._noise, qos.shape)
        return np.clip(qos, 0.0, 1.0)

    def tick(self) -> TickResult:
        """Run one monitoring interval."""
        tracer = get_tracer()
        self._tick += 1
        self._injector.tick()
        with tracer.span("measure"):
            qos = self._measure_all()
        with tracer.span("detect"):
            detection = self._bank.observe_batch(qos)
        self._last_detection = detection
        flagged = detection.flagged_devices()
        result = TickResult(
            tick=self._tick,
            qos=qos,
            flagged=flagged,
            transition=None,
            detection=detection if self._keep_detections else None,
        )
        previous = self._previous_qos
        self._previous_qos = qos
        if self._incremental:
            # Characterize through the online service instead of batch.
            if previous is None:
                # The first tick seeds the service; there is no interval yet.
                self._service = OnlineCharacterizationService(
                    qos, self._service_config, engine=self._engine
                )
                return result
            # The bank's flag vector goes to the service as-is — the
            # columnar snapshot path diffs arrays, no per-gateway list.
            out = self._service.feed_snapshot(qos, detection.flags)
            result.verdicts = dict(out.verdicts)
        else:
            if previous is None or not flagged:
                return result
            with tracer.span("transition-build"):
                transition = Transition(
                    Snapshot(previous),
                    Snapshot(qos),
                    flagged,
                    self._r,
                    self._tau,
                )
            result.transition = transition
            with tracer.span("verdict"):
                result.verdicts = self._engine.characterize(transition)
        for device_id, verdict in result.verdicts.items():
            if self._policy.should_report(verdict.anomaly_type):
                result.reports.append(
                    Report(
                        tick=self._tick,
                        device_id=device_id,
                        gateway=self._topology.gateway_name(device_id),
                        anomaly_type=verdict.anomaly_type,
                        position=tuple(float(x) for x in qos[device_id]),
                    )
                )
        return result

    def run(self, ticks: int) -> List[TickResult]:
        """Run several intervals and collect the results."""
        return [self.tick() for _ in range(ticks)]
