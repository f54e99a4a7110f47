"""System states and transitions between two successive snapshots.

The paper reasons about one time interval ``[k-1, k]`` at a time: the system
state ``S_{k-1}``, the state ``S_k``, and the flagged set
``A_k = {j : a_k(j) = true}``.  :class:`Transition` packages those three
pieces together with the model parameters ``r`` (consistency impact radius)
and ``tau`` (density threshold), pre-builds spatial indexes on both
snapshots, and exposes the neighbourhood queries every local algorithm
needs:

* ``N(j)`` — flagged devices within ``2r`` of ``j`` at **both** times
  (the input of Algorithm 2), and whether ``j`` is *lone*
  (``N(j) == (j,)``);
* combined coordinates — the ``2d``-dimensional embedding in which an
  r-consistent *motion* is simply a box of side ``2r``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    UnknownDeviceError,
)
from repro.core.geometry import (
    CONSISTENCY_ATOL,
    GridIndex,
    split_flat,
    validate_radius,
    validate_unit_cube,
)

__all__ = ["Snapshot", "Transition"]


@dataclass(frozen=True)
class Snapshot:
    """Positions of ``n`` devices in the QoS space at one discrete time.

    ``positions[j]`` is the point ``p_k(j) = (q_{1,k}(j), ..., q_{d,k}(j))``
    of Section III-A.  Device identifiers are the row indices ``0..n-1``
    (the paper's ``[[1, n]]`` shifted to zero-based).
    """

    positions: np.ndarray

    def __post_init__(self) -> None:
        pts = validate_unit_cube(np.asarray(self.positions, dtype=float))
        if pts.ndim != 2:
            raise DimensionMismatchError("positions must be an (n, d) array")
        object.__setattr__(self, "positions", pts)

    @property
    def n(self) -> int:
        """Number of devices."""
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        """Number of services ``d`` (dimensionality of the QoS space)."""
        return self.positions.shape[1]

    def position(self, device: int) -> np.ndarray:
        """Return ``p_k(device)``."""
        if not 0 <= device < self.n:
            raise UnknownDeviceError(f"device {device} not in [0, {self.n})")
        return self.positions[device]

    @classmethod
    def trusted(cls, positions: np.ndarray) -> "Snapshot":
        """Wrap an already-validated ``(n, d)`` float array without copying.

        Skips ``__post_init__`` — no dtype conversion, no unit-cube scan.
        For hot paths (the online store's snapshot views, the shard
        pipelines' halo-extended planes) where the producer has already
        enforced the invariants and an O(n·d) revalidation per tick is
        pure waste.
        The caller promises: float dtype, 2-d shape, values in the unit
        cube, and no writes through ``positions`` for the snapshot's
        lifetime (pass a read-only view).
        """
        snap = object.__new__(cls)
        object.__setattr__(snap, "positions", positions)
        return snap


class Transition:
    """One monitored interval ``[k-1, k]``: states, flags and parameters.

    Parameters
    ----------
    previous, current:
        Snapshots ``S_{k-1}`` and ``S_k``; must have identical shape.
    flagged:
        The set ``A_k`` of devices whose error detection function returned
        true.  Motions, partitions and characterizations only ever involve
        flagged devices (Definition 5 onwards).
    r:
        Consistency impact radius in ``[0, 1/4)``.
    tau:
        Density threshold in ``[1, n - 1]`` separating isolated from
        massive anomalies (Definition 4).
    """

    def __init__(
        self,
        previous: Snapshot,
        current: Snapshot,
        flagged: Iterable[int],
        r: float,
        tau: int,
    ) -> None:
        if previous.positions.shape != current.positions.shape:
            raise DimensionMismatchError(
                "previous and current snapshots must have the same shape; got "
                f"{previous.positions.shape} vs {current.positions.shape}"
            )
        self._previous = previous
        self._current = current
        self._r = validate_radius(r)
        n = previous.n
        if not isinstance(tau, (int, np.integer)) or not 1 <= int(tau) <= max(1, n - 1):
            raise ConfigurationError(
                f"tau must be an integer in [1, n-1] = [1, {n - 1}], got {tau!r}"
            )
        self._tau = int(tau)
        flagged_set = frozenset(int(j) for j in flagged)
        for j in flagged_set:
            if not 0 <= j < n:
                raise UnknownDeviceError(f"flagged device {j} not in [0, {n})")
        self._flagged: FrozenSet[int] = flagged_set
        self._flagged_sorted: Tuple[int, ...] = tuple(sorted(flagged_set))
        # Combined 2d-dimensional embedding: prev coords ++ cur coords.  A
        # subset has an r-consistent *motion* iff it fits a 2r-box here.
        # The full plane is built lazily, for the offline tessellation
        # baseline only; the verdict path gathers rows via combined_of.
        self._combined: Optional[np.ndarray] = None
        self._index_prev: Optional[GridIndex] = None
        self._index_cur: Optional[GridIndex] = None
        # Memo of N(j) keyed by (device, radius_factor): both the 2r
        # operating neighbourhood and the 4r knowledge ball are cached, so
        # the verdict path and ablation_locality never recompute the 4r query.
        self._neighborhood_cache: Dict[Tuple[int, float], Tuple[int, ...]] = {}
        # Lone devices (N(j) == (j,)) found by a batch 2r pass.
        self._lone: Set[int] = set()

    # ------------------------------------------------------------------
    # Simple accessors
    # ------------------------------------------------------------------
    @property
    def previous(self) -> Snapshot:
        """Snapshot ``S_{k-1}``."""
        return self._previous

    @property
    def current(self) -> Snapshot:
        """Snapshot ``S_k``."""
        return self._current

    @property
    def r(self) -> float:
        """Consistency impact radius."""
        return self._r

    @property
    def tau(self) -> int:
        """Density threshold."""
        return self._tau

    @property
    def n(self) -> int:
        """Number of devices in the system."""
        return self._previous.n

    @property
    def dim(self) -> int:
        """Number of services per device."""
        return self._previous.dim

    @property
    def flagged(self) -> FrozenSet[int]:
        """The set ``A_k`` of devices with abnormal trajectories."""
        return self._flagged

    @property
    def flagged_sorted(self) -> Tuple[int, ...]:
        """``A_k`` as a sorted tuple, for deterministic iteration."""
        return self._flagged_sorted

    @property
    def combined(self) -> np.ndarray:
        """The ``(n, 2d)`` combined coordinates (prev ++ cur).

        Built on first access and kept; an O(n) plane read only by the
        offline tessellation baseline.  The verdict path reads rows
        through :meth:`combined_of`.
        """
        if self._combined is None:
            self._combined = np.hstack(
                [self._previous.positions, self._current.positions]
            ).astype(float)
        return self._combined

    def combined_of(self, devices: Sequence[int]) -> np.ndarray:
        """Return the combined coordinates of ``devices``, in that order.

        Gathers the requested rows of both snapshots and joins only
        those, so the cost is O(len(devices)) whatever ``n`` is.
        """
        idx = list(devices)
        return np.hstack(
            [self._previous.positions[idx], self._current.positions[idx]]
        ).astype(float, copy=False)

    # ------------------------------------------------------------------
    # Neighbourhood queries
    # ------------------------------------------------------------------
    @property
    def index_cell(self) -> float:
        """Grid-cell side used by this transition's spatial indexes."""
        return max(2.0 * self._r, 1e-6)

    def _flagged_points(self, snapshot: Snapshot) -> np.ndarray:
        """Positions of the flagged devices (sorted order) at one time."""
        if not self._flagged_sorted:
            return np.zeros((0, self.dim))
        return snapshot.positions[list(self._flagged_sorted)]

    def _indexes(self) -> Tuple[GridIndex, GridIndex]:
        """Lazily build grid indexes over the *flagged* devices."""
        if self._index_prev is None:
            self._index_prev = GridIndex(
                self._flagged_points(self._previous), self.index_cell
            )
        if self._index_cur is None:
            self._index_cur = GridIndex(
                self._flagged_points(self._current), self.index_cell
            )
        return self._index_prev, self._index_cur

    @property
    def prev_index(self) -> GridIndex:
        """The ``S_{k-1}``-side flagged index (built on first access)."""
        return self._indexes()[0]

    @property
    def cur_index(self) -> GridIndex:
        """The ``S_k``-side flagged index (built on first access)."""
        return self._indexes()[1]

    def neighborhood(self, device: int, *, radius_factor: float = 2.0) -> Tuple[int, ...]:
        """Return ``N(j)``: flagged devices within ``radius_factor * r`` of
        ``j`` at both times (including ``j`` itself when flagged).

        With the default factor 2 this is exactly the set Algorithm 2
        receives: any device sharing an r-consistent motion with ``j`` is
        within ``2r`` of it at both ``k-1`` and ``k``.
        """
        if device not in self._flagged:
            raise UnknownDeviceError(
                f"device {device} is not flagged; N(j) is defined on A_k"
            )
        cache_key = (device, float(radius_factor))
        cached = self._neighborhood_cache.get(cache_key)
        if cached is not None:
            return cached
        rho = radius_factor * self._r
        idx_prev, idx_cur = self._indexes()
        flagged = self._flagged_sorted
        prev_hits = {flagged[i] for i in idx_prev.query(self._previous.positions[device], rho)}
        cur_hits = {flagged[i] for i in idx_cur.query(self._current.positions[device], rho)}
        out = tuple(sorted(prev_hits & cur_hits))
        self._neighborhood_cache[cache_key] = out
        return out

    def neighborhoods_batch(
        self,
        devices: Optional[Sequence[int]] = None,
        *,
        radius_factor: float = 2.0,
    ) -> Dict[int, Tuple[int, ...]]:
        """Compute ``N(j)`` for many flagged devices in one vectorized pass.

        Semantically identical to calling :meth:`neighborhood` per device,
        but the range queries of the whole batch run through one
        :meth:`GridIndex.query_batch_flat` per snapshot (a direct scan
        for a small batch, sorted cell codes for a large one) instead of
        one query per device.  Results land in the same memo
        :meth:`neighborhood` uses, so a batch pass warms the per-device
        path for free.  ``devices`` defaults to all of ``A_k``.
        """
        devs = (
            list(self._flagged_sorted)
            if devices is None
            else [int(j) for j in devices]
        )
        factor = float(radius_factor)
        for j in devs:
            if j not in self._flagged:
                raise UnknownDeviceError(
                    f"device {j} is not flagged; N(j) is defined on A_k"
                )
        missing = [j for j in devs if (j, factor) not in self._neighborhood_cache]
        if missing:
            rho = factor * self._r
            idx_prev, idx_cur = self._indexes()
            flagged = np.asarray(self._flagged_sorted, dtype=np.int64)
            prev_q, prev_rows = idx_prev.query_batch_flat(
                self._previous.positions[missing], rho
            )
            cur_q, cur_rows = idx_cur.query_batch_flat(
                self._current.positions[missing], rho
            )
            # Intersect prev/cur hits of all queries at once: encode each
            # (query, row) pair as one integer; both encodings are unique
            # and sorted, so the global intersection decomposes per query.
            m = max(len(idx_prev), 1)
            both = np.intersect1d(
                prev_q * m + prev_rows, cur_q * m + cur_rows, assume_unique=True
            )
            counts = np.bincount(both // m, minlength=len(missing))
            hits = split_flat(counts, flagged[both % m].tolist())
            cache = self._neighborhood_cache
            for j, near in zip(missing, hits):
                cache[(j, factor)] = near
            if factor == 2.0:
                # A query always hits its own device: one hit is lone.
                self._lone.update(np.asarray(missing)[counts == 1].tolist())
        return {j: self._neighborhood_cache[(j, factor)] for j in devs}

    def is_lone(self, device: int) -> bool:
        """True iff ``N(device) == (device,)``: no other flagged device
        lies within ``2r`` of it at both times.

        Read off the hit counts of a :meth:`neighborhoods_batch` pass, or
        else off the neighbourhood memo (:meth:`neighborhood`).  A lone
        device's only motion is ``{device}``, so with ``tau >= 1`` it has
        no dense motion and is isolated by Theorem 5.
        """
        return device in self._lone or self.neighborhood(device) == (device,)

    def knowledge_ball(self, device: int) -> Tuple[int, ...]:
        """Return the ``4r`` knowledge radius of Section V.

        The paper shows a device never needs trajectories farther than
        ``4r`` from its own: its neighbours' neighbourhoods.  Exposed so
        tests can assert the locality claim (Ablation A3).
        """
        return self.neighborhood(device, radius_factor=4.0)

    # ------------------------------------------------------------------
    # Consistency predicates
    # ------------------------------------------------------------------
    def is_consistent_motion(
        self, devices: Iterable[int], *, atol: float = CONSISTENCY_ATOL
    ) -> bool:
        """Definition 3: the subset is r-consistent at both times.

        Implemented as a single bounding-box check in the combined
        ``2d``-dimensional embedding.
        """
        idx = list(devices)
        if len(idx) <= 1:
            return True
        pts = self.combined_of(idx)
        side = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
        return side <= 2.0 * self._r + atol

    def is_dense(self, devices: Iterable[int]) -> bool:
        """Definition 4: a motion is tau-dense iff it has > tau members."""
        return len(set(devices)) > self._tau

    def is_dense_motion(self, devices: Iterable[int]) -> bool:
        """True iff the subset is an r-consistent motion with > tau members."""
        idx = list(set(devices))
        return len(idx) > self._tau and self.is_consistent_motion(idx)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        previous: np.ndarray,
        current: np.ndarray,
        flagged: Iterable[int],
        r: float,
        tau: int,
    ) -> "Transition":
        """Build a transition straight from two ``(n, d)`` arrays."""
        return cls(Snapshot(previous), Snapshot(current), flagged, r, tau)

    @classmethod
    def from_views(
        cls,
        previous: np.ndarray,
        current: np.ndarray,
        flagged: Iterable[int],
        r: float,
        tau: int,
    ) -> "Transition":
        """Build a transition over *pre-validated* array views, zero-copy.

        The columnar hot path: the online store (or a shard pipeline's
        halo-extended planes) already guarantees float
        ``(n, d)`` unit-cube arrays, so the snapshots adopt the views via
        :meth:`Snapshot.trusted` — no copy, no revalidation scan.  The
        views should be read-only for the transition's lifetime; the
        flagged-subset indexes fancy-index *copies* of the flagged rows,
        so neighbourhood state never dangles into the caller's buffers.
        """
        return cls(
            Snapshot.trusted(previous),
            Snapshot.trusted(current),
            flagged,
            r,
            tau,
        )

    @classmethod
    def from_trajectories_1d(
        cls,
        prev_cur: Sequence[Tuple[float, float]],
        flagged: Optional[Iterable[int]] = None,
        *,
        r: float,
        tau: int,
    ) -> "Transition":
        """Build a one-service transition from ``(q_{k-1}, q_k)`` pairs.

        Matches the paper's figures, which plot QoS at time ``k`` against
        QoS at time ``k-1`` for a single service.  When ``flagged`` is
        omitted every device is taken to be in ``A_k`` (as in the figures).
        """
        arr = np.asarray(prev_cur, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DimensionMismatchError("prev_cur must be a sequence of pairs")
        prev = arr[:, :1]
        cur = arr[:, 1:]
        if flagged is None:
            flagged = range(arr.shape[0])
        return cls(Snapshot(prev), Snapshot(cur), flagged, r, tau)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Transition(n={self.n}, d={self.dim}, |A_k|={len(self._flagged)}, "
            f"r={self._r}, tau={self._tau})"
        )
