"""Replayable event pipeline: traces and synthetic load into the service.

Two drivers close the loop between recorded data and the online service:

* :func:`replay_trace_online` runs a detector bank over a QoS trace
  (recorded via :mod:`repro.io.traces` or generated by
  :mod:`repro.io.synthetic`), diffs consecutive snapshots into row
  batches (:func:`diff_rows`) — a device reports only when its position
  or flag bit changed — and feeds the service one tick per trace step.
  It is the streaming twin of :func:`repro.io.synthetic.replay_trace`,
  with identical flagged sets and verdicts.
* :class:`LoadGenerator` synthesizes open-ended update streams (random
  drift, anomalous jumps, optional coordinated bursts) for scenario and
  scale runs — millions of updates without materializing a trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.detection.banks import DetectorSpec, resolve_bank
from repro.detection.base import Detector
from repro.io.traces import TraceStep
from repro.online.service import OnlineTick, QosUpdate, ServiceConfig
from repro.online.sharded import OnlineCharacterizationService

__all__ = [
    "LoadGenerator",
    "LoadProfile",
    "OnlineReplayResult",
    "diff_rows",
    "drive_load",
    "drive_load_measurements",
    "replay_trace_online",
]


def diff_rows(
    previous: np.ndarray,
    current: np.ndarray,
    previous_flags: Sequence[bool],
    current_flags: Sequence[bool],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diff two consecutive snapshots into row vectors, zero objects.

    Returns ``(rows, positions, flags)``: the row indices whose position
    or flag bit changed, their new ``(k, d)`` positions and their new
    flag bits — exactly the arguments
    :meth:`~repro.online.store.DeviceStateStore.apply_rows` consumes.
    This is the columnar hot path of the snapshot-shaped drivers; no
    per-device Python objects are materialized.
    """
    prev = np.asarray(previous, dtype=float)
    cur = np.asarray(current, dtype=float)
    if prev.shape != cur.shape:
        raise ConfigurationError(
            f"snapshot shapes differ: {prev.shape} vs {cur.shape}"
        )
    prev_flags_arr = (
        previous_flags
        if isinstance(previous_flags, np.ndarray)
        else np.asarray(list(previous_flags))
    ).astype(bool, copy=False)
    cur_flags_arr = (
        current_flags
        if isinstance(current_flags, np.ndarray)
        else np.asarray(list(current_flags))
    ).astype(bool, copy=False)
    if prev_flags_arr.shape != (cur.shape[0],) or cur_flags_arr.shape != (
        cur.shape[0],
    ):
        raise ConfigurationError(
            f"flag vectors must have length {cur.shape[0]}, got "
            f"{prev_flags_arr.shape} and {cur_flags_arr.shape}"
        )
    # One column fold per coordinate: on an (n, d) frame with small d this
    # is several times cheaper than np.any(prev != cur, axis=1).
    differs = prev_flags_arr != cur_flags_arr
    for k in range(cur.shape[1]):
        differs |= prev[:, k] != cur[:, k]
    changed = np.nonzero(differs)[0]
    return changed, cur[changed], cur_flags_arr[changed]


class _Stopwatch:
    """Fallback run timer for services whose tracer is disabled.

    The drivers time whole runs through the service's tracer (one
    ``"replay"`` span, same clock as the per-stage spans); a disabled
    tracer never reads a clock, so the run total would degrade to zero
    — this keeps ``elapsed_seconds`` (and the CLI's throughput line)
    truthful on the null path.
    """

    __slots__ = ("seconds", "_start")

    def __enter__(self) -> "_Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def _run_span(service: OnlineCharacterizationService):
    """The whole-run timing context for a driver over ``service``."""
    tracer = service.tracer
    return tracer.span("replay") if tracer.enabled else _Stopwatch()


@dataclass
class OnlineReplayResult:
    """Outcome of replaying a trace through the online service."""

    ticks: List[OnlineTick] = field(default_factory=list)
    service: Optional[OnlineCharacterizationService] = None
    elapsed_seconds: float = 0.0

    @property
    def stage_seconds(self) -> dict:
        """Per-stage seconds summed over every tick of the run."""
        totals: dict = {}
        for tick in self.ticks:
            for stage, seconds in tick.stage_seconds.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    @property
    def total_updates(self) -> int:
        """Events applied across the whole replay."""
        return sum(tick.applied for tick in self.ticks)

    @property
    def total_recomputed(self) -> int:
        """Verdicts recomputed across the whole replay."""
        return sum(len(tick.recomputed) for tick in self.ticks)

    @property
    def total_reused(self) -> int:
        """Cached verdicts served across the whole replay."""
        return sum(len(tick.reused) for tick in self.ticks)


def replay_trace_online(
    trace: Sequence[TraceStep],
    detector_factory: Optional[Callable[[], Detector]] = None,
    config: Optional[ServiceConfig] = None,
    *,
    detector: Optional[DetectorSpec] = None,
    detection: Optional[str] = None,
    min_abnormal_services: int = 1,
    service: Optional[OnlineCharacterizationService] = None,
    bank=None,
    skip_steps: int = 0,
) -> OnlineReplayResult:
    """Replay a recorded trace through the online service.

    The first step seeds the service state (no verdicts — there is no
    interval yet, matching :func:`repro.io.synthetic.replay_trace`); every
    later step becomes one service tick fed with position/flag diffs.
    Detection runs through an array-backed
    :class:`~repro.detection.banks.DetectorBank` — ``detector`` /
    ``detection`` select family and plane exactly as in
    :func:`repro.io.synthetic.replay_trace`, with identical flags.

    ``bank`` bypasses :func:`~repro.detection.banks.resolve_bank` with a
    prebuilt (e.g. checkpoint-restored) bank, and ``skip_steps`` resumes
    mid-trace: the warm-up and the first ``skip_steps`` post-warm-up
    steps are skipped — their observations are assumed already inside
    the given bank and service, exactly what a checkpoint restores.
    """
    if not trace:
        raise ConfigurationError("cannot replay an empty trace")
    if skip_steps < 0 or skip_steps > len(trace) - 1:
        raise ConfigurationError(
            f"skip_steps must lie in [0, {len(trace) - 1}], "
            f"got {skip_steps!r}"
        )
    n, d = trace[0].qos.shape
    if service is None:
        service = OnlineCharacterizationService(trace[0].qos, config)
    elif config is not None:
        raise ConfigurationError(
            "pass either a prebuilt service or a config, not both"
        )
    if bank is None:
        bank = resolve_bank(
            n,
            d,
            detector_factory=detector_factory,
            detector=detector,
            detection=detection,
            # The default step detector must track the radius the service
            # actually characterizes with, prebuilt or not.
            r=service.config.r,
            min_abnormal_services=min_abnormal_services,
        )
        warm = True
    else:
        # A prebuilt bank has already seen everything up to the resume
        # point, including the warm-up step.
        warm = skip_steps == 0
    result = OnlineReplayResult(service=service)
    tracer = service.tracer
    with _run_span(service) as run:
        # Step 0 warms the detectors; its flags never form a transition.
        if warm:
            with tracer.span("detect"):
                bank.observe_batch(trace[0].qos)
        for step in trace[1 + skip_steps :]:
            qos = step.qos
            with tracer.span("detect"):
                flags = bank.observe_batch(qos).flags
            result.ticks.append(service.feed_snapshot(qos, flags))
    result.elapsed_seconds = run.seconds
    # The run span closed after the last tick drained; discard it so the
    # caller's next tick starts from a clean accumulator.
    tracer.drain_stages()
    return result


@dataclass(frozen=True)
class LoadProfile:
    """Shape of a synthetic update stream.

    Per tick, ``churn * devices`` devices report: most take a small
    Gaussian drift step (healthy, unflagged), a ``flag_rate`` fraction
    take a large anomalous jump and raise their flag (a previously
    flagged device that reports healthy lowers it).  Every
    ``burst_every`` ticks, ``burst_size`` devices jump *together* —
    a coordinated (massive-style) event exercising the dense-motion
    machinery.
    """

    devices: int = 10_000
    services: int = 2
    churn: float = 0.01
    flag_rate: float = 0.1
    step_sigma: float = 0.01
    jump_sigma: float = 0.15
    burst_every: int = 0
    burst_size: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.devices < 1 or self.services < 1:
            raise ConfigurationError("need devices >= 1 and services >= 1")
        if not 0.0 < self.churn <= 1.0:
            raise ConfigurationError(f"churn must lie in (0, 1], got {self.churn!r}")
        if not 0.0 <= self.flag_rate <= 1.0:
            raise ConfigurationError(
                f"flag_rate must lie in [0, 1], got {self.flag_rate!r}"
            )
        if self.step_sigma < 0 or self.jump_sigma < 0:
            raise ConfigurationError("sigmas must be >= 0")
        if self.burst_every < 0 or self.burst_size < 1:
            raise ConfigurationError(
                "need burst_every >= 0 and burst_size >= 1"
            )


class LoadGenerator:
    """Deterministic synthetic event source for scenario and scale runs."""

    def __init__(self, profile: Optional[LoadProfile] = None) -> None:
        self._profile = profile or LoadProfile()
        p = self._profile
        self._rng = np.random.default_rng(p.seed)
        self._positions = self._rng.random((p.devices, p.services))
        self._tick = 0

    @property
    def profile(self) -> LoadProfile:
        """The stream parameters."""
        return self._profile

    def initial_positions(self) -> np.ndarray:
        """The ``(n, d)`` state a service should be seeded with."""
        return self._positions.copy()

    def fast_forward(self, ticks: int) -> None:
        """Advance the stream ``ticks`` batches without delivering them.

        A resumed service (restored from a checkpoint taken at tick
        ``k``) needs the generator in exactly the state it had after
        producing tick ``k`` — the generator is deterministic, so
        replaying and discarding the first ``k`` batches reproduces
        both the RNG stream and the folded positions bit-identically.
        """
        if ticks < 0:
            raise ConfigurationError(
                f"ticks must be >= 0, got {ticks!r}"
            )
        for _ in range(ticks):
            self.tick_updates()

    def tick_updates(self) -> List[QosUpdate]:
        """Generate the next tick's event batch."""
        p = self._profile
        self._tick += 1
        k = max(1, int(round(p.churn * p.devices)))
        movers = self._rng.choice(p.devices, size=k, replace=False)
        anomalous = self._rng.random(k) < p.flag_rate
        updates: List[QosUpdate] = []
        for device, is_anomalous in zip(movers, anomalous):
            device = int(device)
            sigma = p.jump_sigma if is_anomalous else p.step_sigma
            pos = np.clip(
                self._positions[device]
                + self._rng.normal(0.0, sigma, p.services),
                0.0,
                1.0,
            )
            self._positions[device] = pos
            updates.append(
                QosUpdate(
                    device=device,
                    position=tuple(pos),
                    flagged=bool(is_anomalous),
                )
            )
        if p.burst_every and self._tick % p.burst_every == 0:
            size = min(p.burst_size, p.devices)
            cluster = self._rng.choice(p.devices, size=size, replace=False)
            offset = self._rng.normal(0.0, p.jump_sigma, p.services)
            for device in cluster:
                device = int(device)
                pos = np.clip(self._positions[device] + offset, 0.0, 1.0)
                self._positions[device] = pos
                updates.append(
                    QosUpdate(device=device, position=tuple(pos), flagged=True)
                )
        return updates


def drive_load(
    service: OnlineCharacterizationService,
    generator: LoadGenerator,
    ticks: int,
) -> OnlineReplayResult:
    """Pump ``ticks`` generator batches through a service and time it."""
    if ticks < 1:
        raise ConfigurationError(f"ticks must be >= 1, got {ticks!r}")
    result = OnlineReplayResult(service=service)
    tracer = service.tracer
    with _run_span(service) as run:
        for _ in range(ticks):
            with tracer.span("ingest"):
                service.ingest_many(generator.tick_updates())
            result.ticks.append(service.end_tick())
    result.elapsed_seconds = run.seconds
    tracer.drain_stages()
    return result


def drive_load_measurements(
    service: OnlineCharacterizationService,
    generator: LoadGenerator,
    ticks: int,
) -> OnlineReplayResult:
    """Pump raw measurement snapshots through an in-service bank.

    The detector-owning twin of :func:`drive_load`: generator updates
    are folded into a full ``(n, d)`` snapshot per tick and shipped via
    :meth:`~repro.online.sharded.OnlineCharacterizationService.feed_measurements`
    — the *service's* bank decides the flags, the generator's flag bits
    are deliberately ignored.  The service must have been constructed
    with a ``detector`` and seeded with ``generator.initial_positions()``.
    """
    if ticks < 1:
        raise ConfigurationError(f"ticks must be >= 1, got {ticks!r}")
    if service.bank is None:
        raise ConfigurationError(
            "drive_load_measurements needs a service built with a detector"
        )
    positions = generator.initial_positions()
    if positions.shape != (service.n, service.dim):
        raise ConfigurationError(
            f"generator fleet {positions.shape} does not match the service "
            f"({service.n}, {service.dim})"
        )
    result = OnlineReplayResult(service=service)
    tracer = service.tracer
    with _run_span(service) as run:
        for _ in range(ticks):
            with tracer.span("ingest"):
                for update in generator.tick_updates():
                    positions[update.device] = update.position
            # Ship a per-tick copy: BankDetection.positions (and the
            # band bank's lazily derived planes) may alias the fed
            # array, so reusing one mutable buffer would retroactively
            # rewrite retained detections to the final tick's state.
            result.ticks.append(service.feed_measurements(positions.copy()))
    result.elapsed_seconds = run.seconds
    tracer.drain_stages()
    return result
