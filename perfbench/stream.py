"""Stationary anomaly streams: the inputs every workload feeds the service.

A stream is fully determined by its seed.  It is *stationary* so that the
flagged population, and with it the per-tick cost, stays flat for as long
as a run lasts:

* every device has a fixed home position; a healthy device that reports
  lands at ``home + N(0, (r/4)^2)`` per coordinate (clipped to the cube);
* an isolated anomaly relocates one device to a uniform random point;
* a coordinated anomaly picks a uniform random centre and shifts the
  ``size`` nearest non-anomalous devices by one common offset whose every
  coordinate exceeds ``4r`` (so the default step detector, threshold
  ``4r`` per service, flags every member).  A centre is redrawn while the
  group, before or after its shift, would come within ``4r`` of another
  group of this tick or the last: two overlapping groups move as one
  motion of twice the size, whose collection search is exponential in it
  and turns one tick in a hundred into a 20x outlier;
* every anomalous device returns home (plus drift) on the next tick, and
  reports once more, unflagged, on the tick after.

A device is eligible for drift or a new anomaly only when it was not
flagged on the previous tick, so flag set/clear stays in equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Centre draws per coordinated event before it is placed regardless.
_PLACEMENT_TRIES = 100


@dataclass(frozen=True)
class StreamSpec:
    """Shape of one stationary stream."""

    n: int
    dim: int
    r: float
    drift: float
    isolated: float
    events: int
    event_size: int


@dataclass
class StreamTick:
    """One tick of input.

    ``frame`` is the fleet's full ``(n, d)`` state after the tick;
    ``changed`` lists the devices whose position or flag bit changed (the
    report-on-change events), with their new ``positions`` and ``flags``.
    """

    frame: np.ndarray
    changed: np.ndarray
    positions: np.ndarray
    flags: np.ndarray


class StationaryStream:
    """Seeded generator of :class:`StreamTick` inputs for one workload."""

    def __init__(self, spec: StreamSpec, seed: int) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        n, dim = spec.n, spec.dim
        self._sigma = spec.r / 4.0
        self.home = self._rng.uniform(0.0, 1.0, size=(n, dim))
        self._pos = self._healthy(np.arange(n))
        self._flag = np.zeros(n, dtype=bool)
        # Devices displaced last tick (they return now) and devices that
        # returned last tick (their flag clears now).
        self._displaced = np.empty(0, dtype=np.int64)
        self._returned = np.empty(0, dtype=np.int64)
        self._offset_lo = 4.5 * spec.r
        self._offset_hi = 5.5 * spec.r
        # Positions, before and after the shift, of last tick's groups.
        self._last_groups: List[np.ndarray] = []

    @property
    def initial(self) -> np.ndarray:
        """The fleet state the service is constructed with (a copy)."""
        return self._pos.copy()

    def _healthy(self, devices: np.ndarray) -> np.ndarray:
        noise = self._rng.normal(0.0, self._sigma, size=(devices.size, self.spec.dim))
        return np.clip(self.home[devices] + noise, 0.0, 1.0)

    def _coordinated(
        self, eligible: np.ndarray, groups: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One coordinated event clear of ``groups``: members and new positions."""
        spec = self.spec
        cand = np.nonzero(eligible)[0]
        busy = np.concatenate(groups) if groups else np.empty((0, spec.dim))
        for _ in range(_PLACEMENT_TRIES):
            centre = self._rng.uniform(0.0, 1.0, size=spec.dim)
            dist = np.max(np.abs(self._pos[cand] - centre), axis=1)
            members = cand[np.argpartition(dist, spec.event_size - 1)[: spec.event_size]]
            # Shift towards the cube's centre so the whole group stays
            # inside without clipping: clipping would break the common offset.
            sign = np.where(centre < 0.5, 1.0, -1.0)
            offset = sign * self._rng.uniform(self._offset_lo, self._offset_hi, size=spec.dim)
            shifted = np.clip(self._pos[members] + offset, 0.0, 1.0)
            points = np.concatenate([self._pos[members], shifted])
            gap = np.max(np.abs(points[:, None, :] - busy[None, :, :]), axis=2)
            if gap.size == 0 or gap.min() > 4.0 * spec.r:
                break
        groups.append(points)
        return members, shifted

    def next_tick(self) -> StreamTick:
        """Advance the stream by one tick."""
        spec = self.spec
        n = spec.n
        rng = self._rng
        pos = self._pos
        flag = self._flag
        eligible = ~flag
        changed: List[np.ndarray] = []

        # Clear the flags of devices that returned home last tick.
        cleared = self._returned
        flag[cleared] = False
        changed.append(cleared)

        # Devices displaced last tick return home, still flagged.
        back = self._displaced
        pos[back] = self._healthy(back)
        changed.append(back)

        new_anomalous: List[np.ndarray] = []
        n_iso = int(round(spec.isolated * n))
        if n_iso:
            iso = rng.choice(np.nonzero(eligible)[0], size=n_iso, replace=False)
            eligible[iso] = False
            pos[iso] = rng.uniform(0.0, 1.0, size=(n_iso, spec.dim))
            new_anomalous.append(iso)
        groups = list(self._last_groups)
        for _ in range(spec.events):
            members, shifted = self._coordinated(eligible, groups)
            eligible[members] = False
            pos[members] = shifted
            new_anomalous.append(members)
        displaced = (
            np.concatenate(new_anomalous) if new_anomalous else np.empty(0, dtype=np.int64)
        )
        flag[displaced] = True
        changed.append(displaced)

        n_drift = int(round(spec.drift * n))
        if n_drift:
            drift = rng.choice(np.nonzero(eligible)[0], size=n_drift, replace=False)
            pos[drift] = self._healthy(drift)
            changed.append(drift)

        self._returned = back
        self._displaced = displaced
        self._last_groups = groups[len(self._last_groups):]
        ids = np.unique(np.concatenate(changed).astype(np.int64))
        return StreamTick(
            frame=pos.copy(),
            changed=ids,
            positions=pos[ids].copy(),
            flags=flag[ids].copy(),
        )
