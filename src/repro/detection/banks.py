"""Array-backed detector banks: the vectorized detection plane.

The scalar :class:`~repro.detection.base.Detector` classes run one
``update()`` per device per service per tick — ``n x d`` Python calls
that dominate tick cost once the characterization half of the pipeline
is batched (engine, bitset kernel, online service).  This module is the
columnar twin: a :class:`DetectorBank` holds the state of *all* ``n x d``
per-service detectors as NumPy arrays of shape ``(n, d)`` and updates
every device in a handful of vectorized operations per tick.

Equivalence contract
--------------------
Each ``<Family>Bank`` is *bit-exact* equivalent to running ``n x d``
independent scalar detectors of the same family:

* same arithmetic, in the same order, on IEEE doubles — flags, scores,
  forecasts and residuals match scalar runs exactly (not approximately);
* scalar ``forecast is None`` / ``residual is None`` (warm-up) maps to
  ``NaN`` in the bank's arrays;
* samples outside ``[0, 1]`` (including ``NaN``) raise
  :class:`~repro.core.errors.ConfigurationError` before any state is
  touched, mirroring the scalar template method.

``tests/detection/test_banks.py`` enforces the contract with randomized
and hypothesis property tests per family, including warm-up boundaries
and heterogeneous per-device parameters (every bank parameter may be a
scalar or an array broadcastable to ``(n, d)``).

Only state is fleet-sized
-------------------------
A bank keeps each parameter at the shape it was given (a scalar stays
0-d) and lets NumPy broadcast it; broadcasting applies the same IEEE
operation per element, so this is bit-identical to a full ``(n, d)``
copy.  The threshold banks compute only ``abnormal`` per tick: their
forecasts, residuals and scores are derived on first read (see
:class:`BankDetection`).  The per-tick cost and a checkpoint's bytes
then follow the recurrences' real state, not the fleet times every
constant.

Selection registry
------------------
The detection plane is selectable: ``PLANES`` names the implementations ("bank" — the
vectorized default — and "scalar", the reference loop wrapped in
:class:`ScalarDetectorBank`), and a :class:`DetectorSpec` builds either
from one config.  Consumers (network monitor, trace replay, the online
service, the sampled stream, the CLI) accept a spec plus a plane name
instead of a bare detector factory, so the per-device scalar classes
remain the readable reference implementation and the one-off series
path (:func:`~repro.detection.base.detect_series`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.errors import ConfigurationError, DimensionMismatchError
from repro.detection.base import Detector
from repro.detection.cusum import CusumDetector
from repro.detection.ewma import EwmaDetector
from repro.detection.holt_winters import HoltWintersDetector
from repro.detection.kalman import KalmanDetector
from repro.detection.shewhart import ShewhartDetector
from repro.detection.threshold import BandThresholdDetector, StepThresholdDetector

__all__ = [
    "BankDetection",
    "BandThresholdBank",
    "CusumBank",
    "DEFAULT_PLANE",
    "DetectorBank",
    "DetectorSpec",
    "EwmaBank",
    "FAMILIES",
    "HoltWintersBank",
    "KalmanBank",
    "PLANES",
    "ScalarDetectorBank",
    "ShewhartBank",
    "StepThresholdBank",
    "as_bank",
    "default_detector_spec",
    "resolve_bank",
    "resolve_family",
    "resolve_plane",
]

#: Selectable detection-plane implementations.  ``"bank"`` is the fast
#: vectorized default; ``"scalar"`` runs the per-device reference
#: detectors behind the same batch API (equivalence / benchmark baseline).
PLANES: Tuple[str, ...] = ("bank", "scalar")
DEFAULT_PLANE = "bank"

#: Detector families every plane implements.
FAMILIES: Tuple[str, ...] = (
    "step",
    "band",
    "ewma",
    "shewhart",
    "cusum",
    "holt-winters",
    "kalman",
)


def resolve_plane(plane: Optional[str]) -> str:
    """Validate a plane name, defaulting ``None`` to :data:`DEFAULT_PLANE`."""
    if plane is None:
        return DEFAULT_PLANE
    if plane not in PLANES:
        raise ConfigurationError(
            f"detection plane must be one of {PLANES}, got {plane!r}"
        )
    return plane


def resolve_family(family: Optional[str]) -> str:
    """Validate a detector family name, defaulting ``None`` to ``"step"``."""
    if family is None:
        return "step"
    if family not in FAMILIES:
        raise ConfigurationError(
            f"detector family must be one of {FAMILIES}, got {family!r}"
        )
    return family


# ----------------------------------------------------------------------
# Batch detection result
# ----------------------------------------------------------------------
#: ``(forecasts, residuals, scores)``, each ``(n, d)`` float.
Planes = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _idle_planes(shape: Tuple[int, int]) -> Planes:
    """Warm-up planes: no forecast, no residual, zero score."""
    return np.full(shape, np.nan), np.full(shape, np.nan), np.zeros(shape)


class BankDetection:
    """Outcome of feeding one ``(n, d)`` QoS snapshot to a bank.

    Attributes
    ----------
    positions:
        The observed snapshot, ``(n, d)`` float.  A bank that retains
        the snapshot hands out that very copy (the step-threshold bank
        keeps it as its next baseline), so a checkpoint pickles the
        plane once; the other banks alias the validated input (no
        defensive copy — a tick's snapshot is fresh by construction).
    abnormal:
        Per-service verdicts, ``(n, d)`` bool.
    flags:
        Device-level ``a_k(j)``, ``(n,)`` bool — true when at least
        ``min_abnormal_services`` services raised (Definition 5).
    scores:
        Per-service abnormality scores, ``(n, d)`` float (0 during
        warm-up, matching the scalar default).
    forecasts:
        One-step-ahead forecasts, ``(n, d)`` float; ``NaN`` where the
        scalar detector would return ``forecast=None`` (warm-up).
    residuals:
        ``observed - forecast``, ``(n, d)`` float; ``NaN`` during warm-up.

    ``planes`` is the ``(forecasts, residuals, scores)`` tuple or a
    picklable zero-argument callable returning it.  The threshold banks
    pass a callable (a :func:`functools.partial` of a module-level
    function over arrays the detection already references and nobody
    mutates), so the three planes are computed on first read with the
    bank's own expressions — bit-identical to eager ones — and a pickled
    detection carries the recipe, never the derived planes.  Attributes
    are read-only by contract.
    """

    __slots__ = ("positions", "abnormal", "flags", "_derive", "_planes")

    def __init__(
        self,
        positions: np.ndarray,
        abnormal: np.ndarray,
        flags: np.ndarray,
        planes: Union[Planes, Callable[[], Planes]],
    ) -> None:
        self.positions = positions
        self.abnormal = abnormal
        self.flags = flags
        if callable(planes):
            self._derive: Optional[Callable[[], Planes]] = planes
            self._planes: Optional[Planes] = None
        else:
            self._derive = None
            self._planes = tuple(planes)

    def _derived(self) -> Planes:
        if self._planes is None:
            self._planes = self._derive()
        return self._planes

    @property
    def forecasts(self) -> np.ndarray:
        return self._derived()[0]

    @property
    def residuals(self) -> np.ndarray:
        return self._derived()[1]

    @property
    def scores(self) -> np.ndarray:
        return self._derived()[2]

    def __reduce__(self):
        planes = self._planes if self._derive is None else self._derive
        return (BankDetection, (self.positions, self.abnormal, self.flags, planes))

    def __setstate__(self, state: Dict[str, np.ndarray]) -> None:
        # Pickles written while this was a frozen dataclass restore a
        # bare instance from its six-field dict, planes eager.
        self.__init__(
            state["positions"],
            state["abnormal"],
            state["flags"],
            (state["forecasts"], state["residuals"], state["scores"]),
        )

    def flagged_devices(self) -> List[int]:
        """Sorted device ids whose flag is raised."""
        return [int(j) for j in np.nonzero(self.flags)[0]]

    @property
    def max_scores(self) -> np.ndarray:
        """Largest per-service score of every device, ``(n,)`` float."""
        return self.scores.max(axis=1)

    def abnormal_services(self, device: int) -> Tuple[int, ...]:
        """Indices of the services that raised for one device."""
        return tuple(int(s) for s in np.nonzero(self.abnormal[device])[0])


# ----------------------------------------------------------------------
# Bank base classes
# ----------------------------------------------------------------------
class DetectorBank(abc.ABC):
    """Batch abnormality detection over an ``(n, d)`` device fleet.

    The array-backed counterpart of ``n`` independent
    :class:`~repro.detection.composite.DeviceMonitor` instances:
    :meth:`observe_batch` consumes one QoS snapshot for the whole fleet
    and returns a :class:`BankDetection`.  Banks keep no per-tick
    history — state is exactly the detector recurrences' own arrays.
    """

    def __init__(
        self, devices: int, services: int, *, min_abnormal_services: int = 1
    ) -> None:
        if devices < 1:
            raise ConfigurationError(f"devices must be >= 1, got {devices!r}")
        if services < 1:
            raise ConfigurationError(f"services must be >= 1, got {services!r}")
        if not 1 <= min_abnormal_services <= services:
            raise ConfigurationError(
                "min_abnormal_services must lie in [1, services], got "
                f"{min_abnormal_services!r}"
            )
        self._n = devices
        self._d = services
        self._min_raise = min_abnormal_services
        self._seen = 0

    @property
    def devices(self) -> int:
        """Number of monitored devices ``n``."""
        return self._n

    @property
    def services(self) -> int:
        """Number of monitored services ``d``."""
        return self._d

    @property
    def shape(self) -> Tuple[int, int]:
        """The ``(n, d)`` state shape."""
        return (self._n, self._d)

    @property
    def samples_seen(self) -> int:
        """Snapshots consumed so far."""
        return self._seen

    def observe_batch(self, values: np.ndarray) -> BankDetection:
        """Consume one ``(n, d)`` snapshot; return the fleet's verdicts.

        Template method: validates the snapshot (shape and the scalar
        ``[0, 1]`` sample contract — ``NaN`` fails it too), delegates to
        :meth:`_observe`, then derives the device flags.
        """
        arr = np.asarray(values, dtype=float)
        if arr.shape != (self._n, self._d):
            raise DimensionMismatchError(
                f"expected a ({self._n}, {self._d}) snapshot, got shape "
                f"{arr.shape}"
            )
        # NaN fails both comparisons, so it is refused here too.
        if not (arr.min() >= 0.0 and arr.max() <= 1.0 + 1e-9):
            raise ConfigurationError(
                "QoS samples must lie in [0, 1] (NaN is not a sample)"
            )
        positions, abnormal, planes = self._observe(arr)
        self._seen += 1
        # Raise count summed one service column at a time (several times
        # cheaper than count_nonzero(axis=1) on an (n, d) frame, small d);
        # the smallest dtype that holds d keeps the adds narrow.
        raised = np.zeros(self._n, dtype=np.min_scalar_type(self._d))
        for k in range(self._d):
            raised += abnormal[:, k]
        flags = raised >= self._min_raise
        return BankDetection(positions, abnormal, flags, planes)

    @abc.abstractmethod
    def _observe(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Union[Planes, Callable[[], Planes]]]:
        """Consume one validated snapshot; return ``(positions, abnormal,
        planes)``: the snapshot as the detection reports it (``values``
        or the bank's retained copy), the per-service verdicts, and the
        :class:`BankDetection` planes or a recipe deriving them."""

    def reset(self) -> None:
        """Forget all state (subclasses must extend)."""
        self._seen = 0


class ScalarDetectorBank(DetectorBank):
    """Reference plane: ``n x d`` scalar detectors behind the batch API.

    This is *the* equivalence baseline the vectorized banks are tested
    against, and the escape hatch for custom detector factories the
    array plane cannot express.
    """

    def __init__(
        self,
        factory: Callable[[], Detector],
        devices: int,
        services: int,
        *,
        min_abnormal_services: int = 1,
    ) -> None:
        super().__init__(
            devices, services, min_abnormal_services=min_abnormal_services
        )
        self._detectors: List[List[Detector]] = [
            [factory() for _ in range(services)] for _ in range(devices)
        ]

    @property
    def detectors(self) -> List[List[Detector]]:
        """The underlying scalar detectors (row = device, col = service)."""
        return self._detectors

    def _observe(self, values):
        n, d = self.shape
        abnormal = np.zeros((n, d), dtype=bool)
        forecasts = np.full((n, d), np.nan)
        residuals = np.full((n, d), np.nan)
        scores = np.zeros((n, d))
        for i in range(n):
            row = self._detectors[i]
            for j in range(d):
                det = row[j].update(float(values[i, j]))
                abnormal[i, j] = det.abnormal
                scores[i, j] = det.score
                if det.forecast is not None:
                    forecasts[i, j] = det.forecast
                if det.residual is not None:
                    residuals[i, j] = det.residual
        return values, abnormal, (forecasts, residuals, scores)

    def reset(self) -> None:
        super().reset()
        for row in self._detectors:
            for det in row:
                det.reset()


class ArrayDetectorBank(DetectorBank):
    """Shared machinery of the vectorized banks.

    Every constructor parameter of the matching scalar detector may be
    given as a scalar or as an array broadcastable to ``(n, d)`` —
    heterogeneous per-device (or per-service) parameterizations cost
    nothing extra.  Parameters keep their given shape and broadcast in
    the update arithmetic.  Validation mirrors the scalar constructors
    elementwise.
    """

    def __init__(
        self,
        devices: int,
        services: int,
        *,
        warmup,
        min_abnormal_services: int = 1,
    ) -> None:
        super().__init__(
            devices, services, min_abnormal_services=min_abnormal_services
        )
        self._warmup = self._param(warmup, dtype=int)
        if np.any(self._warmup < 0):
            raise ConfigurationError("warmup must be >= 0 everywhere")

    def _param(self, value, dtype=float) -> np.ndarray:
        """Own copy of one parameter, checked to broadcast to ``(n, d)``."""
        arr = np.array(value, dtype=dtype)
        try:
            fits = np.broadcast_shapes(arr.shape, self.shape) == self.shape
        except ValueError:
            fits = False
        if not fits:
            raise ConfigurationError(
                f"parameter of shape {arr.shape} does not broadcast to "
                f"{self.shape}"
            )
        return arr

    def _require(self, condition: np.ndarray, message: str) -> None:
        """Elementwise constructor validation, scalar-error compatible."""
        if not bool(np.all(condition)):
            raise ConfigurationError(message)

    def _warmed(self) -> np.ndarray:
        """Mask of elements past their warm-up (pre-increment sample
        count, exactly like the scalar template method), at the warm-up
        parameter's shape."""
        return self._seen >= self._warmup


# ----------------------------------------------------------------------
# Threshold banks
# ----------------------------------------------------------------------
def _step_planes(values, last, active, max_step) -> Planes:
    """Step-threshold planes of one post-baseline observation."""
    resid = values - last
    return (
        np.where(active, last, np.nan),
        np.where(active, resid, np.nan),
        np.where(active, np.abs(resid) / max_step, 0.0),
    )


def _band_planes(values, active, center, half) -> Planes:
    """Band-threshold planes of one observation."""
    resid = values - center
    return (
        np.where(active, np.broadcast_to(center, values.shape), np.nan),
        np.where(active, resid, np.nan),
        # half > 0 by construction (low < high strictly).
        np.where(active, np.abs(resid) / half, 0.0),
    )


class StepThresholdBank(ArrayDetectorBank):
    """Vectorized :class:`~repro.detection.threshold.StepThresholdDetector`."""

    def __init__(
        self,
        devices: int,
        services: int,
        max_step,
        *,
        warmup=1,
        min_abnormal_services: int = 1,
    ) -> None:
        super().__init__(
            devices,
            services,
            warmup=warmup,
            min_abnormal_services=min_abnormal_services,
        )
        self._max_step = self._param(max_step)
        self._require(
            (self._max_step > 0.0) & (self._max_step <= 1.0),
            "max_step must lie in (0, 1] everywhere",
        )
        self._last: Optional[np.ndarray] = None
        # Private ``|values - last|`` plane, reused every tick so the
        # step test allocates no fleet-sized float temporary.  Never
        # exposed, never pickled (see ``__getstate__``).
        self._step: Optional[np.ndarray] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_step"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._step = None

    def _observe(self, values):
        last = self._last
        # The retained baseline doubles as the detection's positions.
        self._last = values.copy()
        if last is None:
            abnormal = np.zeros(self.shape, dtype=bool)
            return self._last, abnormal, partial(_idle_planes, self.shape)
        if self._step is None:
            self._step = np.empty(self.shape)
        step = np.abs(np.subtract(values, last, out=self._step), out=self._step)
        active = self._warmed()
        abnormal = np.greater(step, self._max_step)
        abnormal &= active
        planes = partial(_step_planes, self._last, last, active, self._max_step)
        return self._last, abnormal, planes

    def reset(self) -> None:
        super().reset()
        self._last = None


class BandThresholdBank(ArrayDetectorBank):
    """Vectorized :class:`~repro.detection.threshold.BandThresholdDetector`."""

    def __init__(
        self,
        devices: int,
        services: int,
        low,
        high=1.0,
        *,
        warmup=0,
        min_abnormal_services: int = 1,
    ) -> None:
        super().__init__(
            devices,
            services,
            warmup=warmup,
            min_abnormal_services=min_abnormal_services,
        )
        self._low = self._param(low)
        self._high = self._param(high)
        self._require(
            (self._low >= 0.0) & (self._low < self._high) & (self._high <= 1.0),
            "band must satisfy 0 <= low < high <= 1 everywhere",
        )
        self._center = (self._low + self._high) / 2.0
        self._half = (self._high - self._low) / 2.0

    def _observe(self, values):
        active = self._warmed()
        abnormal = active & ((values < self._low) | (values > self._high))
        planes = partial(_band_planes, values, active, self._center, self._half)
        return values, abnormal, planes


# ----------------------------------------------------------------------
# EWMA bank
# ----------------------------------------------------------------------
class EwmaBank(ArrayDetectorBank):
    """Vectorized :class:`~repro.detection.ewma.EwmaDetector`."""

    def __init__(
        self,
        devices: int,
        services: int,
        alpha=0.2,
        nsigma=4.0,
        *,
        min_std=1e-3,
        warmup=8,
        min_abnormal_services: int = 1,
    ) -> None:
        super().__init__(
            devices,
            services,
            warmup=warmup,
            min_abnormal_services=min_abnormal_services,
        )
        self._alpha = self._param(alpha)
        self._nsigma = self._param(nsigma)
        self._min_std = self._param(min_std)
        self._require(
            (self._alpha > 0.0) & (self._alpha <= 1.0),
            "alpha must lie in (0, 1] everywhere",
        )
        self._require(self._nsigma > 0, "nsigma must be positive everywhere")
        self._require(self._min_std >= 0, "min_std must be >= 0 everywhere")
        self._mean: Optional[np.ndarray] = None
        self._var = np.zeros(self.shape)

    def _observe(self, values):
        n, d = self.shape
        if self._mean is None:
            self._mean = values.copy()
            abnormal = np.zeros((n, d), dtype=bool)
            return values, abnormal, partial(_idle_planes, self.shape)
        forecasts = self._mean.copy()
        residuals = values - forecasts
        std = np.maximum(np.sqrt(self._var), self._min_std)
        scores = np.abs(residuals) / std
        abnormal = self._warmed() & (scores > self._nsigma)
        # Abnormal samples do not update the tracker (level shifts keep
        # flagging) — identical gating to the scalar detector.
        track = ~abnormal
        alpha = self._alpha
        self._mean = np.where(
            track, forecasts + alpha * residuals, self._mean
        )
        self._var = np.where(
            track,
            (1 - alpha) * (self._var + alpha * residuals * residuals),
            self._var,
        )
        return values, abnormal, (forecasts, residuals, scores)

    def reset(self) -> None:
        super().reset()
        self._mean = None
        self._var = np.zeros(self.shape)


# ----------------------------------------------------------------------
# Shewhart bank
# ----------------------------------------------------------------------
class ShewhartBank(ArrayDetectorBank):
    """Vectorized :class:`~repro.detection.shewhart.ShewhartDetector`.

    The scalar chart recomputes window mean and variance with sequential
    left-to-right sums over a deque in age order; the bank mirrors that
    exactly with per-element circular buffers gathered into age order
    and summed slot by slot (NumPy's pairwise ``sum`` would differ in
    the last ulp and break bit-exactness).
    """

    def __init__(
        self,
        devices: int,
        services: int,
        window=20,
        nsigma=3.5,
        *,
        min_std=1e-3,
        warmup=5,
        min_abnormal_services: int = 1,
    ) -> None:
        super().__init__(
            devices,
            services,
            warmup=warmup,
            min_abnormal_services=min_abnormal_services,
        )
        self._window = self._param(window, dtype=int)
        self._nsigma = self._param(nsigma)
        self._min_std = self._param(min_std)
        self._require(self._window >= 2, "window must be >= 2 everywhere")
        self._require(self._nsigma > 0, "nsigma must be positive everywhere")
        w_max = int(self._window.max())
        self._buffer = np.zeros(self.shape + (w_max,))
        self._count = np.zeros(self.shape, dtype=int)
        self._head = np.zeros(self.shape, dtype=int)

    def _ordered_window(self) -> Tuple[np.ndarray, np.ndarray]:
        """Window contents in age order plus the validity mask.

        Returns ``(ordered, valid)`` of shape ``(n, d, w_max)``; slot
        ``k`` of ``ordered`` is the ``k``-th oldest sample where
        ``valid[..., k]`` (i.e. ``k < count``).
        """
        w_max = self._buffer.shape[2]
        offsets = np.arange(w_max)
        # Growing windows write at slot `count` (head stays 0); full
        # windows overwrite `head` and advance it — either way slot
        # (head + k) % window is the k-th oldest of a window-sized ring.
        order = (self._head[..., None] + offsets) % self._window[..., None]
        ordered = np.take_along_axis(self._buffer, order, axis=2)
        valid = offsets < self._count[..., None]
        return ordered, valid

    def _observe(self, values):
        n, d = self.shape
        ordered, valid = self._ordered_window()
        w_max = ordered.shape[2]
        count = self._count
        small = count < 2
        safe_count = np.maximum(count, 1)
        # Sequential (left-to-right) sums in age order: bit-exact with
        # the scalar `sum(deque)` / `sum((x - mean) ** 2)` loops.
        total = np.zeros((n, d))
        for k in range(w_max):
            total = total + np.where(valid[..., k], ordered[..., k], 0.0)
        mean = total / safe_count
        sq_total = np.zeros((n, d))
        for k in range(w_max):
            dev = ordered[..., k] - mean
            sq_total = sq_total + np.where(valid[..., k], dev * dev, 0.0)
        var = sq_total / safe_count
        std = np.maximum(np.sqrt(var), self._min_std)
        resid = values - mean
        scores_full = np.abs(resid) / std
        abnormal = (~small) & self._warmed() & (scores_full > self._nsigma)
        forecasts = np.where(small, np.nan, mean)
        residuals = np.where(small, np.nan, resid)
        scores = np.where(small, 0.0, scores_full)
        # Append: warm-fill elements always, charted elements only when
        # the sample was accepted as normal (the scalar gating).
        append = small | ~abnormal
        grow = count < self._window
        pos = np.where(grow, count, self._head)
        slot = np.take_along_axis(self._buffer, pos[..., None], axis=2)[..., 0]
        new_slot = np.where(append, values, slot)
        np.put_along_axis(self._buffer, pos[..., None], new_slot[..., None], axis=2)
        self._count = np.where(append & grow, count + 1, count)
        self._head = np.where(
            append & ~grow, (self._head + 1) % self._window, self._head
        )
        return values, abnormal, (forecasts, residuals, scores)

    def reset(self) -> None:
        super().reset()
        self._buffer.fill(0.0)
        self._count.fill(0)
        self._head.fill(0)


# ----------------------------------------------------------------------
# CUSUM bank
# ----------------------------------------------------------------------
class CusumBank(ArrayDetectorBank):
    """Vectorized :class:`~repro.detection.cusum.CusumDetector`."""

    def __init__(
        self,
        devices: int,
        services: int,
        threshold=0.15,
        drift=0.01,
        *,
        mu=None,
        warmup=10,
        reset_on_alarm=True,
        min_abnormal_services: int = 1,
    ) -> None:
        super().__init__(
            devices,
            services,
            warmup=warmup,
            min_abnormal_services=min_abnormal_services,
        )
        self._threshold = self._param(threshold)
        self._drift = self._param(drift)
        self._require(self._threshold > 0, "threshold must be positive everywhere")
        self._require(self._drift >= 0, "drift must be >= 0 everywhere")
        self._reset_on_alarm = self._param(reset_on_alarm, dtype=bool)
        # NaN marks "mu not yet known" (scalar: `self._mu is None`);
        # a fixed mu disables learning for that element.
        self._mu_fixed = self._param(np.nan if mu is None else mu)
        self._learn = np.isnan(self._mu_fixed)
        self._mu = self._mu_fixed.copy()
        self._warmup_sum = np.zeros(self.shape)
        self._pos = np.zeros(self.shape)
        self._neg = np.zeros(self.shape)

    @property
    def statistics(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current one-sided statistics ``(S+, S-)`` arrays."""
        return (self._pos.copy(), self._neg.copy())

    def _observe(self, values):
        n, d = self.shape
        warming = ~self._warmed()
        self._warmup_sum = np.where(
            warming, self._warmup_sum + values, self._warmup_sum
        )
        learn_now = warming & self._learn & (self._seen + 1 == self._warmup)
        with np.errstate(divide="ignore", invalid="ignore"):
            learned = self._warmup_sum / self._warmup
        self._mu = np.where(learn_now, learned, self._mu)
        active = ~warming
        # warmup == 0 with no fixed mu: bootstrap on the first sample.
        bootstrap = active & np.isnan(self._mu)
        self._mu = np.where(bootstrap, values, self._mu)
        mu_safe = np.where(np.isnan(self._mu), 0.0, self._mu)
        deviation = values - mu_safe
        pos_new = np.maximum(0.0, self._pos + deviation - self._drift)
        neg_new = np.maximum(0.0, self._neg - deviation - self._drift)
        scores_full = np.maximum(pos_new, neg_new) / self._threshold
        abnormal = active & (scores_full > 1.0)
        alarm_reset = abnormal & self._reset_on_alarm
        self._pos = np.where(
            active, np.where(alarm_reset, 0.0, pos_new), self._pos
        )
        self._neg = np.where(
            active, np.where(alarm_reset, 0.0, neg_new), self._neg
        )
        forecasts = np.where(active, mu_safe, np.nan)
        residuals = np.where(active, deviation, np.nan)
        scores = np.where(active, scores_full, 0.0)
        return values, abnormal, (forecasts, residuals, scores)

    def reset(self) -> None:
        super().reset()
        self._mu = self._mu_fixed.copy()
        self._warmup_sum = np.zeros(self.shape)
        self._pos = np.zeros(self.shape)
        self._neg = np.zeros(self.shape)


# ----------------------------------------------------------------------
# Holt–Winters bank
# ----------------------------------------------------------------------
class HoltWintersBank(ArrayDetectorBank):
    """Vectorized :class:`~repro.detection.holt_winters.HoltWintersDetector`
    (Holt's linear level + trend with Brutlag-style deviation bands)."""

    def __init__(
        self,
        devices: int,
        services: int,
        alpha=0.5,
        beta=0.3,
        gamma=0.3,
        *,
        band=4.0,
        min_deviation=5e-3,
        warmup=5,
        min_abnormal_services: int = 1,
    ) -> None:
        warmup_arr = np.maximum(2, np.asarray(warmup, dtype=int))
        super().__init__(
            devices,
            services,
            warmup=warmup_arr,
            min_abnormal_services=min_abnormal_services,
        )
        self._alpha = self._param(alpha)
        self._beta = self._param(beta)
        self._gamma = self._param(gamma)
        self._band = self._param(band)
        self._min_dev = self._param(min_deviation)
        self._require(
            (self._alpha > 0.0) & (self._alpha <= 1.0),
            "alpha must lie in (0, 1] everywhere",
        )
        self._require(
            (self._gamma > 0.0) & (self._gamma <= 1.0),
            "gamma must lie in (0, 1] everywhere",
        )
        self._require(
            (self._beta >= 0.0) & (self._beta <= 1.0),
            "beta must lie in [0, 1] everywhere",
        )
        self._require(self._band > 0, "band must be positive everywhere")
        self._level: Optional[np.ndarray] = None
        self._trend = np.zeros(self.shape)
        self._deviation = np.zeros(self.shape)

    def _observe(self, values):
        n, d = self.shape
        if self._level is None:
            self._level = values.copy()
            abnormal = np.zeros((n, d), dtype=bool)
            return values, abnormal, partial(_idle_planes, self.shape)
        if self._seen == 1:
            # Second sample initializes the trend, fleet-wide (banks feed
            # every element in lockstep, so the scalar per-detector sample
            # counter is the bank's own).
            self._trend = values - self._level
        forecasts = self._level + self._trend
        residuals = values - forecasts
        dev = np.maximum(self._deviation, self._min_dev)
        threshold = self._band * dev
        magnitude = np.abs(residuals)
        scores = np.zeros((n, d))
        np.divide(magnitude, threshold, out=scores, where=dev > 0)
        abnormal = self._warmed() & (magnitude > threshold)
        track = ~abnormal
        level_prev = self._level
        level_new = self._alpha * values + (1 - self._alpha) * (
            self._level + self._trend
        )
        trend_new = self._beta * (level_new - level_prev) + (
            1 - self._beta
        ) * self._trend
        dev_new = self._gamma * magnitude + (1 - self._gamma) * self._deviation
        self._level = np.where(track, level_new, self._level)
        self._trend = np.where(track, trend_new, self._trend)
        self._deviation = np.where(track, dev_new, self._deviation)
        return values, abnormal, (forecasts, residuals, scores)

    def reset(self) -> None:
        super().reset()
        self._level = None
        self._trend = np.zeros(self.shape)
        self._deviation = np.zeros(self.shape)


# ----------------------------------------------------------------------
# Kalman bank
# ----------------------------------------------------------------------
class KalmanBank(ArrayDetectorBank):
    """Vectorized :class:`~repro.detection.kalman.KalmanDetector`
    (local-level model with an innovation gate)."""

    def __init__(
        self,
        devices: int,
        services: int,
        process_var=1e-4,
        measurement_var=1e-3,
        nsigma=4.0,
        *,
        initial_var=1.0,
        warmup=5,
        gate_updates=True,
        min_abnormal_services: int = 1,
    ) -> None:
        super().__init__(
            devices,
            services,
            warmup=warmup,
            min_abnormal_services=min_abnormal_services,
        )
        self._q = self._param(process_var)
        self._rho = self._param(measurement_var)
        self._nsigma = self._param(nsigma)
        self._initial_var = self._param(initial_var)
        self._require(
            (self._q >= 0) & (self._rho > 0),
            "need process_var >= 0 and measurement_var > 0 everywhere",
        )
        self._require(self._nsigma > 0, "nsigma must be positive everywhere")
        self._gate = self._param(gate_updates, dtype=bool)
        self._x: Optional[np.ndarray] = None
        self._p = self._initial_var.copy()

    @property
    def state(self) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Current ``(estimate, variance)`` arrays of the filtered level."""
        return (
            None if self._x is None else self._x.copy(),
            np.broadcast_to(self._p, self.shape).copy(),
        )

    def _observe(self, values):
        n, d = self.shape
        if self._x is None:
            # First observation initializes the state directly.
            self._x = values.copy()
            self._p = self._rho.copy()
            abnormal = np.zeros((n, d), dtype=bool)
            return values, abnormal, partial(_idle_planes, self.shape)
        x_pred = self._x
        p_pred = self._p + self._q
        innovation = values - x_pred
        s = p_pred + self._rho
        raw = np.abs(innovation) / np.sqrt(s)
        abnormal = self._warmed() & (raw > self._nsigma)
        gated = abnormal & self._gate
        gain = p_pred / s
        self._x = np.where(gated, x_pred, x_pred + gain * innovation)
        self._p = np.where(gated, p_pred, (1 - gain) * p_pred)
        return values, abnormal, (x_pred, innovation, raw / self._nsigma)

    def reset(self) -> None:
        super().reset()
        self._x = None
        self._p = self._initial_var.copy()


# ----------------------------------------------------------------------
# Spec: one config, either plane
# ----------------------------------------------------------------------
#: family name -> (scalar detector class, array bank class)
_FAMILY_TABLE: Dict[str, Tuple[type, type]] = {
    "step": (StepThresholdDetector, StepThresholdBank),
    "band": (BandThresholdDetector, BandThresholdBank),
    "ewma": (EwmaDetector, EwmaBank),
    "shewhart": (ShewhartDetector, ShewhartBank),
    "cusum": (CusumDetector, CusumBank),
    "holt-winters": (HoltWintersDetector, HoltWintersBank),
    "kalman": (KalmanDetector, KalmanBank),
}


@dataclass(frozen=True)
class DetectorSpec:
    """One detector configuration, buildable on either plane.

    ``family`` names the detector family (:data:`FAMILIES`); ``params``
    are the scalar constructor's keyword arguments (the banks accept the
    same names, additionally allowing ``(n, d)``-broadcastable arrays —
    arrays are only expressible on the ``"bank"`` plane).
    """

    family: str = "step"
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", resolve_family(self.family))
        object.__setattr__(self, "params", dict(self.params))

    def scalar(self) -> Detector:
        """Build one scalar reference detector from this spec."""
        scalar_cls, _ = _FAMILY_TABLE[self.family]
        try:
            return scalar_cls(**self.params)
        except (TypeError, ValueError) as exc:
            # ValueError covers array-valued params hitting the scalar
            # validators ("truth value of an array is ambiguous") —
            # arrays are only expressible on the bank plane.
            raise ConfigurationError(
                f"bad parameters for detector family {self.family!r}: {exc}"
            ) from exc

    def scalar_factory(self) -> Callable[[], Detector]:
        """Zero-argument factory building fresh scalar detectors."""
        return self.scalar

    def bank(
        self,
        devices: int,
        services: int,
        *,
        plane: Optional[str] = None,
        min_abnormal_services: int = 1,
    ) -> DetectorBank:
        """Build a fleet-sized bank on the requested plane.

        ``plane=None`` selects :data:`DEFAULT_PLANE` (the vectorized
        bank); ``"scalar"`` wraps ``n x d`` reference detectors in a
        :class:`ScalarDetectorBank` — same API, same verdicts, Python
        loop underneath.
        """
        plane = resolve_plane(plane)
        if plane == "scalar":
            return ScalarDetectorBank(
                self.scalar_factory(),
                devices,
                services,
                min_abnormal_services=min_abnormal_services,
            )
        _, bank_cls = _FAMILY_TABLE[self.family]
        try:
            return bank_cls(
                devices,
                services,
                min_abnormal_services=min_abnormal_services,
                **self.params,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"bad parameters for detector family {self.family!r}: {exc}"
            ) from exc

    def replace(self, **params) -> "DetectorSpec":
        """A copy of this spec with some parameters overridden."""
        merged = dict(self.params)
        merged.update(params)
        return DetectorSpec(self.family, merged)


def default_detector_spec(r: float) -> DetectorSpec:
    """The pipeline's default detector for impact radius ``r``.

    A step-threshold detector with ``max_step = min(4 r, 1)``: a
    relocation in the QoS space is macroscopic by construction, exactly
    the detector the Section VII simulator assumes.
    """
    return DetectorSpec("step", {"max_step": min(4.0 * r, 1.0)})


#: Something every consumer accepts where a detector is configured.
DetectorLike = Union[DetectorSpec, DetectorBank]


def as_bank(
    detector: DetectorLike,
    devices: int,
    services: int,
    *,
    plane: Optional[str] = None,
    min_abnormal_services: int = 1,
) -> DetectorBank:
    """Coerce a spec or prebuilt bank into a fleet-sized bank.

    A prebuilt bank is validated against the fleet shape and returned
    as-is (its plane is whatever it was built with); a spec is built on
    the requested plane.
    """
    if isinstance(detector, DetectorBank):
        if detector.shape != (devices, services):
            raise DimensionMismatchError(
                f"bank shape {detector.shape} does not match the fleet "
                f"({devices}, {services})"
            )
        return detector
    if isinstance(detector, DetectorSpec):
        return detector.bank(
            devices,
            services,
            plane=plane,
            min_abnormal_services=min_abnormal_services,
        )
    raise ConfigurationError(
        f"detector must be a DetectorSpec or DetectorBank, got {detector!r}"
    )


def resolve_bank(
    devices: int,
    services: int,
    *,
    detector_factory: Optional[Callable[[], Detector]] = None,
    detector: Optional[DetectorLike] = None,
    detection: Optional[str] = None,
    r: float = 0.03,
    min_abnormal_services: int = 1,
) -> DetectorBank:
    """The one front door every consumer builds its bank through.

    A :class:`DetectorSpec` (or prebuilt bank) selects a family on the
    requested plane; a bare ``detector_factory`` forces the scalar
    reference plane (an opaque factory cannot be vectorized); neither
    defaults to the step-threshold spec for impact radius ``r`` on the
    default (vectorized) plane.  Centralized here so the monitor, the
    trace replayers and the online drivers cannot drift on the
    arbitration rules.
    """
    if detector_factory is not None and detector is not None:
        raise ConfigurationError(
            "pass either detector_factory or detector, not both"
        )
    if detector_factory is not None:
        if detection not in (None, "scalar"):
            raise ConfigurationError(
                "a bare detector_factory runs on the scalar plane; build a "
                f"DetectorSpec for detection={detection!r}"
            )
        return ScalarDetectorBank(
            detector_factory,
            devices,
            services,
            min_abnormal_services=min_abnormal_services,
        )
    return as_bank(
        detector or default_detector_spec(r),
        devices,
        services,
        plane=detection,
        min_abnormal_services=min_abnormal_services,
    )
