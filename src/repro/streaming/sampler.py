"""Locally tuned sampling frequency (Section VII-C).

"In our approach, the frequency at which QoS information is sampled is
locally tuned, and only depends on the local occurrence of QoS
degradations. ... devices can afford to increase the frequency at which
they sample their neighbourhood, decreasing accordingly the number of
concomitant errors and thus the number of unresolved configurations."

:class:`AdaptiveSampler` implements the per-device policy: a device's
sampling period shrinks multiplicatively whenever it (or a neighbour it
hears from) observes an anomaly, and relaxes additively during quiet
spells — the classic MIMD/AIAD shape, chosen because anomaly bursts are
what produce concomitant errors.  No global synchronization is involved:
each device runs its own instance on purely local signals.

The system-level consequence the paper claims — more snapshots per unit
time ⇒ fewer errors per interval ⇒ fewer unresolved configurations — is
measured by :mod:`repro.experiments.ablation_sampling`, which splits a
fixed error budget across ``k`` sub-intervals and watches ``|U_k|/|A_k|``
fall with ``k``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.transition import Snapshot, Transition
from repro.core.types import Characterization
from repro.detection.banks import BankDetection, DetectorBank, DetectorSpec, as_bank
from repro.engine import CharacterizationEngine
from repro.online.service import ServiceConfig
from repro.online.sharded import OnlineCharacterizationService

__all__ = [
    "SamplerConfig",
    "AdaptiveSampler",
    "StreamTick",
    "SampledCharacterizationStream",
]


@dataclass(frozen=True)
class SamplerConfig:
    """Policy knobs for :class:`AdaptiveSampler`.

    Attributes
    ----------
    base_period:
        Steady-state sampling period (arbitrary time units).
    min_period:
        Fastest allowed sampling (burst mode floor).
    speedup_factor:
        Multiplicative decrease applied to the period on each anomaly
        (values < 1 accelerate sampling).
    relax_step:
        Additive increase applied per quiet sample until ``base_period``
        is reached again.
    """

    base_period: float = 8.0
    min_period: float = 1.0
    speedup_factor: float = 0.5
    relax_step: float = 1.0

    def __post_init__(self) -> None:
        if self.min_period <= 0:
            raise ConfigurationError(
                f"min_period must be positive, got {self.min_period!r}"
            )
        if self.base_period < self.min_period:
            raise ConfigurationError(
                "base_period must be >= min_period; got "
                f"{self.base_period!r} < {self.min_period!r}"
            )
        if not 0.0 < self.speedup_factor < 1.0:
            raise ConfigurationError(
                f"speedup_factor must lie in (0, 1), got {self.speedup_factor!r}"
            )
        if self.relax_step <= 0:
            raise ConfigurationError(
                f"relax_step must be positive, got {self.relax_step!r}"
            )


class AdaptiveSampler:
    """Per-device MIMD/AIAD sampling-period controller."""

    def __init__(self, config: Optional[SamplerConfig] = None) -> None:
        self._config = config or SamplerConfig()
        self._period = self._config.base_period
        self._history: List[float] = []

    @property
    def period(self) -> float:
        """Current sampling period."""
        return self._period

    @property
    def config(self) -> SamplerConfig:
        """The policy parameters."""
        return self._config

    @property
    def in_burst_mode(self) -> bool:
        """True when sampling faster than the steady state."""
        return self._period < self._config.base_period

    @property
    def history(self) -> List[float]:
        """Period after each observation (for plots and tests)."""
        return list(self._history)

    def observe(self, anomaly: bool) -> float:
        """Feed one local observation; return the new sampling period.

        ``anomaly`` is true when the device's own detector fired or a
        neighbour within ``4r`` advertised an abnormal trajectory — the
        only signals the paper allows a device to use.
        """
        cfg = self._config
        if anomaly:
            self._period = max(cfg.min_period, self._period * cfg.speedup_factor)
        else:
            self._period = min(cfg.base_period, self._period + cfg.relax_step)
        self._history.append(self._period)
        return self._period

    def snapshots_per_base_period(self) -> float:
        """How many snapshots fit in one steady-state period right now.

        This is the "sampling multiplier" the ablation sweeps: a device in
        burst mode at period ``p`` takes ``base_period / p`` snapshots
        where a steady-state device takes one.
        """
        return self._config.base_period / self._period

    def reset(self) -> None:
        """Return to the steady state and clear history."""
        self._period = self._config.base_period
        self._history.clear()


@dataclass
class StreamTick:
    """Everything observable about one tick of the sampled stream."""

    tick: int
    flagged: Tuple[int, ...]
    due: Tuple[int, ...]       # flagged devices characterized this tick
    verdicts: Dict[int, Characterization] = field(default_factory=dict)
    periods: Tuple[float, ...] = ()


class SampledCharacterizationStream:
    """Locally sampled characterization over a stream of snapshots.

    The streaming counterpart of the batch drivers: each device runs its
    own :class:`AdaptiveSampler` (burst mode under anomalies, steady state
    otherwise), and every tick only the flagged devices whose sampler is
    *due* are characterized — through one shared
    :class:`~repro.engine.CharacterizationEngine` (one batch
    neighbourhood pass per tick, run-level stats;
    each tick forms a fresh transition, so motion families are computed
    per tick for the due subset only).  This realizes the Section VII-C
    policy end-to-end: anomalies speed a device up, so exactly the
    devices in trouble get the freshest verdicts, at a fraction of the
    cost of characterizing everyone every tick.

    Parameters
    ----------
    n:
        Number of monitored devices.
    r, tau:
        Characterization parameters.
    engine:
        Optional shared engine; defaults to a serial one owned by the
        stream.
    sampler_config:
        Policy knobs for the per-device samplers.
    incremental:
        When true, verdicts come from an
        :class:`~repro.online.sharded.OnlineCharacterizationService` fed
        with per-tick diffs: the service keeps *every* flagged device's
        verdict fresh (recomputing only where ``4r`` neighbourhoods
        changed), and the due-filter selects which verdicts this tick
        *emits*.  Emitted verdicts are identical to the batch path.
    service_config:
        Knobs for the incremental service (``r``/``tau`` are overridden
        with the stream's own).
    detector:
        Optional :class:`~repro.detection.banks.DetectorSpec` (or
        prebuilt bank) enabling :meth:`observe_measurements`: the stream
        runs the array-backed bank over raw QoS snapshots itself instead
        of being handed precomputed flags.
    detection:
        Plane the bank is built on (``"bank"`` default, ``"scalar"``
        reference).
    """

    def __init__(
        self,
        n: int,
        *,
        r: float,
        tau: int,
        engine: Optional[CharacterizationEngine] = None,
        sampler_config: Optional[SamplerConfig] = None,
        incremental: bool = False,
        service_config: Optional[ServiceConfig] = None,
        detector: Optional[Union[DetectorSpec, DetectorBank]] = None,
        detection: Optional[str] = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n!r}")
        self._n = n
        self._r = r
        self._tau = tau
        self._detector = detector
        self._detection_plane = detection
        if detector is None and detection is not None:
            raise ConfigurationError(
                "detection plane given without a detector spec or bank"
            )
        # Built lazily on the first observe_measurements call — the QoS
        # dimension d is not known until a snapshot arrives.
        self._bank: Optional[DetectorBank] = None
        self._last_detection: Optional[BankDetection] = None
        self._owns_engine = engine is None
        self._engine = engine or CharacterizationEngine()
        self._samplers = [AdaptiveSampler(sampler_config) for _ in range(n)]
        # Per-device countdown to the next sample, in ticks.
        self._countdown = [s.period for s in self._samplers]
        self._previous: Optional[np.ndarray] = None
        self._tick = 0
        self._incremental = incremental
        self._service_config = dataclasses.replace(
            service_config or ServiceConfig(), r=r, tau=tau
        )
        self._service: Optional[OnlineCharacterizationService] = None

    @property
    def engine(self) -> CharacterizationEngine:
        """The characterization engine shared across ticks."""
        return self._engine

    def close(self) -> None:
        """Close the engine, if the stream owns it."""
        if self._owns_engine:
            self._engine.close()

    def __enter__(self) -> "SampledCharacterizationStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def samplers(self) -> List[AdaptiveSampler]:
        """The per-device sampling controllers (read-only view)."""
        return list(self._samplers)

    @property
    def current_tick(self) -> int:
        """Number of completed ticks."""
        return self._tick

    @property
    def service(self) -> Optional[OnlineCharacterizationService]:
        """The online service (incremental mode only; None before tick 1)."""
        return self._service

    @property
    def bank(self) -> Optional[DetectorBank]:
        """The stream's detector bank (None until the first
        :meth:`observe_measurements` call, or without a ``detector``)."""
        return self._bank

    @property
    def last_detection(self) -> Optional[BankDetection]:
        """The bank's most recent batch detection, if any."""
        return self._last_detection

    def observe_measurements(self, positions: np.ndarray) -> StreamTick:
        """Feed raw QoS measurements; the stream detects, then samples.

        Runs the configured detector bank over the ``(n, d)`` snapshot
        (one vectorized update fleet-wide) and delegates to
        :meth:`observe` with the resulting flagged set — the
        measurement-driven twin of the precomputed-flags path.
        """
        if self._detector is None:
            raise ConfigurationError(
                "observe_measurements needs a detector; construct the "
                "stream with detector=DetectorSpec(...)"
            )
        pts = np.asarray(positions, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != self._n:
            raise ConfigurationError(
                f"positions must be ({self._n}, d), got shape {pts.shape}"
            )
        if self._bank is None:
            self._bank = as_bank(
                self._detector,
                self._n,
                pts.shape[1],
                plane=self._detection_plane,
            )
        detection = self._bank.observe_batch(pts)
        self._last_detection = detection
        return self.observe(pts, detection.flagged_devices())

    def observe(
        self, positions: np.ndarray, flagged: Sequence[int]
    ) -> StreamTick:
        """Feed one snapshot of the fleet and characterize due devices.

        ``positions`` is the ``(n, d)`` QoS state at this tick; ``flagged``
        the devices whose detector fired.  Flagged devices drive their
        samplers into burst mode (and are pulled forward so a freshly
        anomalous device never waits out a stale steady-state period);
        quiet devices relax.  Only *due* flagged devices are characterized,
        against the previous snapshot.
        """
        pts = np.asarray(positions, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != self._n:
            raise ConfigurationError(
                f"positions must be ({self._n}, d), got shape {pts.shape}"
            )
        self._tick += 1
        flagged_sorted = tuple(sorted({int(j) for j in flagged}))
        flagged_set = set(flagged_sorted)
        due: List[int] = []
        for j, sampler in enumerate(self._samplers):
            period = sampler.observe(j in flagged_set)
            countdown = self._countdown[j] - 1.0
            if j in flagged_set:
                countdown = min(countdown, period - 1.0)
            if countdown <= 0.0:
                if j in flagged_set:
                    due.append(j)
                countdown = period
            self._countdown[j] = countdown
        previous = self._previous
        self._previous = pts.copy()
        verdicts: Dict[int, Characterization] = {}
        if self._incremental:
            verdicts = self._observe_incremental(previous, pts, flagged_sorted, due)
        elif previous is not None and due:
            transition = Transition(
                Snapshot(previous), Snapshot(pts), flagged_sorted,
                self._r, self._tau,
            )
            verdicts = self._engine.characterize(transition, devices=due)
        return StreamTick(
            tick=self._tick,
            flagged=flagged_sorted,
            due=tuple(due),
            verdicts=verdicts,
            periods=tuple(s.period for s in self._samplers),
        )

    def _observe_incremental(
        self,
        previous: Optional[np.ndarray],
        pts: np.ndarray,
        flagged_sorted: Tuple[int, ...],
        due: List[int],
    ) -> Dict[int, Characterization]:
        """Feed the tick to the online service; emit verdicts of due devices."""
        if previous is None:
            self._service = OnlineCharacterizationService(
                pts, self._service_config, engine=self._engine
            )
            return {}
        assert self._service is not None
        flagged_set = set(flagged_sorted)
        out = self._service.feed_snapshot(
            pts, [device in flagged_set for device in range(self._n)]
        )
        return {device: out.verdicts[device] for device in due}
