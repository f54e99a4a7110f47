"""Sharded multi-service topology: spatial shards with halo exchange.

One :class:`~repro.online.service.OnlineCharacterizationService` holds
the whole fleet in one store and one verdict pipeline.  That is the
right shape up to a few hundred thousand devices; beyond it, one
process's tick becomes one long critical path.  This module decomposes
the plane instead of the pipeline: the unit QoS cube is tiled into
``topology_shards`` axis-aligned boxes of grid cells, each owned by a
:class:`_ShardWorker` — its own columnar
:class:`~repro.online.store.DeviceStateStore` partition (keyed by
*global* device ids), dirty-region tracker, characterization engine and
tracer — and a :class:`ShardedService` front door that speaks the same
API as the single service.

The paper's locality theorem is what makes the decomposition exact: a
flagged device's verdict depends only on flagged devices within ``4r``
(uniform norm) of it at the interval endpoints.  So a shard can
characterize its residents *locally*, provided it also sees the flagged
devices just across its borders — the **halo**.  Per tick:

1. **route & apply** — ingested events and snapshot diffs are applied on
   each device's owning shard (the front door keeps the device→shard
   map); devices whose new cell falls in another shard's box migrate via
   :meth:`~repro.online.store.DeviceStateStore.admit`, which carries the
   ``prev`` endpoint so the crossing move itself is not erased;
2. **dirty union** — every shard closes its tracker's cell bookkeeping
   (:meth:`~repro.online.dirty.DirtyRegionTracker.finish_cells`) and the
   front door unions the cells: an update near a boundary must
   invalidate verdicts on *both* sides, so each shard tests its own
   flagged rows against the global union (an int64 cell-key array);
3. **halo exchange** — each shard publishes the ``(prev, cur)`` rows of
   its flagged devices within ``halo_rings`` cells of its box boundary
   through a :class:`~repro.ipc.SnapshotRing` (the same double-buffered
   shared-memory publication path the worker pool uses); consumers take
   the bands whose cells lie within ``halo_rings`` *outside* their own
   box, read seq-gated by segment name;
4. **local pipelines** — each shard runs a
   :class:`~repro.online.stages.TickPipeline` of a halo-aware
   transition-build stage plus the standard
   :class:`~repro.online.stages.VerdictStage`;
5. **merge** — verdicts (already remapped to global ids), flagged sets,
   stats and stage timings are merged into one ordinary
   :class:`~repro.online.service.OnlineTick` for the sinks.

Every step is a command of one protocol
(:func:`repro.online.procshard.handle_command`) sent through one handle
per shard; ``topology_workers`` only picks where the handler runs — in
the front door's process (``"inline"``) or in one supervised child
process per shard (``"process"``).

Why the halo band is sufficient: a local verdict for owned device ``j``
is exact iff the local transition contains every flagged device ``i``
in ``j``'s transition neighbourhood, and that neighbourhood *intersects*
prev-side and cur-side ``4r`` balls — any qualifying ``i`` has its
**current** position within ``4r`` of ``j``'s, which lies in the box, so
``i``'s current cell is within ``rings`` cells of the box and the
``halo_rings = rings + 1`` band (one spare ring absorbing the indexes'
``1e-12`` query tolerance) contains it.  Devices that are prev-near but
cur-far are dropped by the intersection on both sides of the
decomposition, and extra halo members are harmless supersets.  See
DESIGN.md ("Sharded topology") for the full argument.

**Verdict identity** with the single service is exact — type, rule *and*
witness.  Shard-local transitions number devices by the rank of their
global id among the shard's participants (owned ∪ halo, sorted), a
strictly monotone map; every order the characterization pipeline relies
on (canonical motion sort keys, candidate pools, local universes) is
either geometric or lexicographic in device ids, and lexicographic
comparisons are invariant under monotone relabelling.  The randomized
equivalence suite (``tests/online/test_sharded.py``) pins this down,
churn and shard-crossing movers included.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from multiprocessing import shared_memory
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    QueueFullError,
)
from repro.core.transition import Transition
from repro.core.types import Characterization
from repro.detection.banks import BankDetection, DetectorBank, DetectorLike, as_bank
from repro.engine import CharacterizationEngine, EngineConfig
from repro.ipc import (
    ShardRoundtripError,
    SnapshotRing,
    StaleHaloError,
    unlink_by_name,
)
from repro.obs.trace import Tracer
from repro.online.dirty import DirtyRegionTracker, union_cells
from repro.online.procshard import (
    _CHILD_ERRORS,
    _FrameBoard,
    _InlineShardHandle,
    _ProcessShardHandle,
)
from repro.online.service import (
    _VERDICT_CODE,
    OnlineTick,
    QosUpdate,
    ServiceConfig,
    ServiceStats,
)
from repro.online.stages import (
    IndexUpdateStage,
    IngestDrainStage,
    SinkStage,
    TickContext,
    TickPipeline,
    VerdictStage,
)
from repro.online.store import DeviceStateStore
from repro.robust.chaos import get_injector

__all__ = [
    "HaloTransitionBuildStage",
    "ShardMap",
    "ShardedService",
    "StaleHaloError",
]


def _grid_for(shards: int, dim: int) -> Tuple[int, ...]:
    """Factor ``shards`` into a near-square grid over the first axes.

    Tiling at most two axes keeps halo volume O(boundary) while leaving
    the membership arithmetic trivially vectorizable; one axis in 1-D.
    """
    if dim == 1:
        return (shards,)
    best = 1
    for a in range(1, int(math.isqrt(shards)) + 1):
        if shards % a == 0:
            best = a
    return (shards // best, best)


class ShardMap:
    """Arithmetic cell→shard tiling of the unit cube, with halo masks.

    The cube holds ``K = floor(1/cell) + 1`` grid cells per axis (cell
    keys ``floor(p / cell)`` for ``p`` in ``[0, 1]``).  A tiled axis
    with ``g`` shards maps cell ``c`` to shard coordinate
    ``min(g - 1, c * g // K)`` — a pure integer expression, so placement
    is stable across processes and checkpoint restores and every shard's
    territory is a contiguous cell interval ``[lo, hi]``.  Shard ids are
    row-major over the (at most two-axis) grid.

    ``halo_rings`` is the exchange band width in cells: a cell belongs
    to shard ``s``'s halo iff its Chebyshev cell-distance to ``s``'s box
    is in ``(0, halo_rings]``.
    """

    def __init__(
        self, shards: int, *, cell: float, dim: int, halo_rings: int
    ) -> None:
        if shards < 1:
            raise ConfigurationError(
                f"topology shards must be >= 1, got {shards!r}"
            )
        if dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {dim!r}")
        if halo_rings < 1:
            raise ConfigurationError(
                f"halo_rings must be >= 1, got {halo_rings!r}"
            )
        self._cell = float(cell)
        self._dim = int(dim)
        self._halo_rings = int(halo_rings)
        self._K = int(math.floor(1.0 / self._cell)) + 1
        self._grid = _grid_for(int(shards), self._dim)
        for g in self._grid:
            if g > self._K:
                raise ConfigurationError(
                    f"grid axis of {g} shards exceeds the {self._K} grid "
                    f"cells per axis at cell={self._cell}; use fewer "
                    "topology shards or a finer cell"
                )
        self._n_shards = int(shards)
        # Per tiled axis: lo/hi cell of each shard coordinate.
        self._lo: List[np.ndarray] = []
        self._hi: List[np.ndarray] = []
        K = self._K
        for g in self._grid:
            coords = np.arange(g, dtype=np.int64)
            lo = (coords * K + g - 1) // g
            hi = np.empty(g, dtype=np.int64)
            hi[:-1] = lo[1:] - 1
            hi[-1] = K - 1
            self._lo.append(lo)
            self._hi.append(hi)

    @property
    def n_shards(self) -> int:
        """Total shard count (product of the grid axes)."""
        return self._n_shards

    @property
    def grid(self) -> Tuple[int, ...]:
        """Shards per tiled axis (row-major id order)."""
        return self._grid

    @property
    def halo_rings(self) -> int:
        """Exchange band width, in grid cells."""
        return self._halo_rings

    @property
    def cells_per_axis(self) -> int:
        """Grid cells per axis in the unit cube."""
        return self._K

    def _coords(self, shard: int) -> Tuple[int, ...]:
        if not 0 <= shard < self._n_shards:
            raise ConfigurationError(
                f"shard {shard} not in [0, {self._n_shards})"
            )
        if len(self._grid) == 1:
            return (shard,)
        return divmod(shard, self._grid[1])

    def box(self, shard: int) -> Tuple[Tuple[int, int], ...]:
        """Per tiled axis, the inclusive ``(lo, hi)`` cell interval."""
        coords = self._coords(shard)
        return tuple(
            (int(self._lo[axis][c]), int(self._hi[axis][c]))
            for axis, c in enumerate(coords)
        )

    def shard_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized cell→shard id for ``(m, d)`` integer cell keys."""
        keys = np.atleast_2d(np.asarray(keys, dtype=np.int64))
        K = self._K
        out = np.zeros(keys.shape[0], dtype=np.int64)
        for axis, g in enumerate(self._grid):
            c = np.clip(keys[:, axis], 0, K - 1)
            coord = np.minimum(g - 1, (c * g) // K)
            out = out * g + coord if axis else coord
        return out

    def box_distance(self, keys: np.ndarray, shard: int) -> np.ndarray:
        """Chebyshev cell-distance of each key to ``shard``'s box.

        Zero inside the box; untiled axes never contribute.  A key is in
        ``shard``'s halo iff ``0 < distance <= halo_rings``.
        """
        keys = np.atleast_2d(np.asarray(keys, dtype=np.int64))
        coords = self._coords(shard)
        dist = np.zeros(keys.shape[0], dtype=np.int64)
        for axis, c in enumerate(coords):
            lo = int(self._lo[axis][c])
            hi = int(self._hi[axis][c])
            col = keys[:, axis]
            axis_dist = np.maximum(np.maximum(lo - col, col - hi), 0)
            np.maximum(dist, axis_dist, out=dist)
        return dist

    def boundary_mask(self, keys: np.ndarray, shard: int) -> np.ndarray:
        """Which of a shard's own cells another shard could need.

        A cell with interior slack ``m`` (cells to its box's nearest
        face, from inside) is at Chebyshev distance ``>= m + 1`` from
        every cell outside the box, so only ``m < halo_rings`` rows can
        land inside any consumer's halo band — the producer-side filter
        that keeps the exchanged payload O(boundary), not O(area).
        """
        keys = np.atleast_2d(np.asarray(keys, dtype=np.int64))
        coords = self._coords(shard)
        slack = np.full(keys.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
        for axis, c in enumerate(coords):
            lo = int(self._lo[axis][c])
            hi = int(self._hi[axis][c])
            col = keys[:, axis]
            axis_slack = np.minimum(col - lo, hi - col)
            np.minimum(slack, axis_slack, out=slack)
        return slack < self._halo_rings

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardMap(grid={self._grid}, cells={self._K}/axis, "
            f"halo_rings={self._halo_rings})"
        )


class _HaloChannel:
    """One shard's halo publication over a snapshot ring, seq-gated.

    The position payload rides the same double-buffered shared-memory
    segments the process pool publishes transitions through
    (:meth:`~repro.ipc.SnapshotRing.publish_pair`); the global ids and
    cell keys of the published rows stay in worker memory alongside
    (they are small, and travel to the front door inside :meth:`meta`).
    A 16-byte header segment carries ``(seq, rows)``; the sequence slot
    is written strictly *after* the payload, so a consumer that observes
    the expected sequence before copying knows the band is complete, and
    one that re-observes it after copying knows the band was not
    overwritten mid-read
    (:func:`~repro.online.procshard._read_halo_sources`).
    """

    def __init__(self) -> None:
        self._ring = SnapshotRing()
        self._hdr: Optional[shared_memory.SharedMemory] = None
        self._shape: Tuple[int, int] = (0, 0)
        self._names: Optional[Tuple[str, str]] = None
        self._seq = 0
        self.ids: np.ndarray = np.empty(0, dtype=np.int64)
        self.keys: np.ndarray = np.empty((0, 0), dtype=np.int64)

    def _header(self) -> np.ndarray:
        if self._hdr is None:
            self._hdr = shared_memory.SharedMemory(create=True, size=16)
        return np.frombuffer(self._hdr.buf, dtype=np.int64, count=2)

    def publish(
        self,
        ids: np.ndarray,
        keys: np.ndarray,
        prev: np.ndarray,
        cur: np.ndarray,
        *,
        seq: int = 0,
    ) -> None:
        self.ids = ids
        self.keys = keys
        self._shape = (int(prev.shape[0]), int(prev.shape[1]))
        self._seq = int(seq)
        if prev.size == 0:
            self._names = None
        else:
            self._names = self._ring.publish_pair(
                np.ascontiguousarray(prev, dtype=np.float64),
                np.ascontiguousarray(cur, dtype=np.float64),
            )
        # Sequence last: observing it proves the payload above is whole.
        hdr = self._header()
        hdr[1] = self._shape[0]
        hdr[0] = self._seq

    def meta(self, shard: int) -> Dict[str, Any]:
        """Everything a cross-process consumer needs to read this band."""
        names = self._names or (None, None)
        hdr_name = self._hdr.name if self._hdr is not None else None
        live = [
            name
            for name in (*self._ring.segment_names(), hdr_name)
            if name
        ]
        return {
            "shard": int(shard),
            "seq": self._seq,
            "rows": self._shape[0],
            "hdr": hdr_name,
            "prev": names[0],
            "cur": names[1],
            "ids": self.ids,
            "keys": self.keys,
            "live": live,
        }

    def close(self) -> None:
        self._ring.drop_segments()
        self._names = None
        if self._hdr is not None:
            try:
                self._hdr.close()
                self._hdr.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
            self._hdr = None


class HaloTransitionBuildStage:
    """``transition-build`` over one shard's residents plus its halo.

    The halo-aware twin of
    :class:`~repro.online.stages.TransitionBuildStage`.  Participants
    are the shard's live devices plus the halo band deposited by the
    front door (:meth:`stage_halo`), numbered by the rank of their
    global id — a strictly monotone local→global map, which is what
    keeps every id-lexicographic tie-break in the characterization
    pipeline (canonical motion order, candidate pools) invariant and the
    shard's verdicts bit-identical to the single service's.

    No cross-tick chain or index adoption: the participant set churns
    with the halo every tick, so ``last_transition`` stays ``None`` and
    the verdict stage's motion carry is gated off via
    ``ctx.allow_carry`` (verdict-level caching, the big win, still
    applies — it is keyed by global id and survives any relabelling).
    """

    name = "transition-build"

    def __init__(self, owner: "_ShardWorker", r: float, tau: int) -> None:
        self._owner = owner
        self._r = float(r)
        self._tau = int(tau)
        #: Carry gate read by :class:`VerdictStage`; intentionally never set.
        self.last_transition: Optional[Transition] = None
        self._halo_ids = np.empty(0, dtype=np.int64)
        self._halo_prev = np.empty((0, 0), dtype=np.float64)
        self._halo_cur = np.empty((0, 0), dtype=np.float64)
        self._prestaged: Optional[
            Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = None

    def stage_halo(
        self, ids: np.ndarray, prev: np.ndarray, cur: np.ndarray
    ) -> None:
        """Deposit this tick's halo band (global ids + both endpoints)."""
        self._halo_ids = ids
        self._halo_prev = prev
        self._halo_cur = cur

    def prestage(self, tick: int) -> None:
        """Gather the owned-row planes early, overlapping the barrier.

        A process-topology child calls this right after replying to the
        ``halo`` command: no command between ``halo`` and ``verdict``
        mutates the store, so the copies are exactly what :meth:`run`
        would gather — made while the front door is still collecting the
        peers' halo metadata and computing consumer masks.  :meth:`run`
        consumes the cache only when the tick matches, so a respawn or
        retry in between degrades to a fresh gather, never a stale one.
        """
        store = self._owner.store
        ids = np.asarray(store.row_ids())
        alive_rows = np.nonzero(ids >= 0)[0]
        prev_plane, cur_plane = store.snapshot_arrays()
        self._prestaged = (
            int(tick),
            alive_rows,
            ids[alive_rows].copy(),
            prev_plane[alive_rows].copy(),
            cur_plane[alive_rows].copy(),
        )

    def run(self, ctx: TickContext, tracer: Tracer) -> None:
        store = self._owner.store
        ctx.allow_carry = False
        flagged_rows = store.flagged_rows()
        if flagged_rows.size == 0:
            # No verdicts owed by this shard: publish-only tick.
            ctx.flagged = ()
            ctx.verdict_targets = ()
            return
        with tracer.span("dirty-region"):
            affected_rows = store.index.rows_near_cells(
                flagged_rows, ctx.dirty_cells, self._owner.tracker.rings
            )
        with tracer.span(self.name):
            pre = self._prestaged
            self._prestaged = None
            if pre is not None and pre[0] == ctx.tick:
                _, alive_rows, own_ids, own_prev, own_cur = pre
            else:
                ids_arr = np.asarray(store.row_ids())
                alive_rows = np.nonzero(ids_arr >= 0)[0]
                own_ids = ids_arr[alive_rows]
                prev_plane, cur_plane = store.snapshot_arrays()
                own_prev = prev_plane[alive_rows]
                own_cur = cur_plane[alive_rows]
            halo_ids = self._halo_ids
            part_ids = np.concatenate([own_ids, halo_ids])
            n_part = part_ids.shape[0]
            order = np.argsort(part_ids, kind="stable")
            rank = np.empty(n_part, dtype=np.int64)
            rank[order] = np.arange(n_part, dtype=np.int64)
            n_owned = own_ids.shape[0]
            # Store row -> local rank, for targets and affected rows.
            used = np.asarray(store.row_ids()).shape[0]
            rank_by_row = np.full(used, -1, dtype=np.int64)
            rank_by_row[alive_rows] = rank[:n_owned]
            dim = store.dim
            # tau needs at least tau + 1 participants; the pad rows are
            # unflagged zeros — invisible to the flagged-only indexes,
            # so the padded transition is exact, not approximate.
            pad = max(0, self._tau + 1 - n_part)
            prev_arr = np.empty((n_part + pad, dim), dtype=np.float64)
            cur_arr = np.empty((n_part + pad, dim), dtype=np.float64)
            prev_arr[rank[:n_owned]] = own_prev
            cur_arr[rank[:n_owned]] = own_cur
            if halo_ids.size:
                prev_arr[rank[n_owned:]] = self._halo_prev
                cur_arr[rank[n_owned:]] = self._halo_cur
            if pad:
                prev_arr[n_part:] = 0.0
                cur_arr[n_part:] = 0.0
            prev_arr.flags.writeable = False
            cur_arr.flags.writeable = False
            key_of = np.full(n_part + pad, -1, dtype=np.int64)
            key_of[rank] = part_ids
            targets = tuple(
                int(l) for l in np.sort(rank_by_row[flagged_rows])
            )
            flagged_local = sorted(targets)
            if halo_ids.size:
                flagged_local = sorted(
                    [*flagged_local, *rank[n_owned:].tolist()]
                )
            ctx.key_of = key_of
            ctx.verdict_targets = targets
            ctx.flagged = tuple(flagged_local)
            ctx.affected = set(rank_by_row[affected_rows].tolist())
            ctx.transition = Transition.from_views(
                prev_arr, cur_arr, ctx.flagged, self._r, self._tau
            )


class _ShardWorker:
    """One spatial shard: store partition, tracker, engine, pipeline.

    ``planes_factory`` backs the store with shared-memory planes (the
    process topology's kill-survivable partition); ``store`` hands in a
    pre-built store (a respawned child adopting its predecessor's
    planes, or a degraded inline fallback).  :meth:`run_tick` leaves the
    snapshot roll to the *next* tick's first mutating command, so a
    mid-verdict kill always leaves the planes holding a consistent
    ``(S_{k-1}, S_k)`` pair.
    """

    def __init__(
        self,
        shard: int,
        positions: Optional[np.ndarray],
        ids: Optional[np.ndarray],
        dim: int,
        config: ServiceConfig,
        tracer: Tracer,
        *,
        planes_factory=None,
        store: Optional[DeviceStateStore] = None,
    ) -> None:
        self.shard = int(shard)
        cfg = config
        if store is not None:
            self.store = store
        elif positions is not None and positions.shape[0]:
            self.store = DeviceStateStore(
                positions,
                cell=cfg.cell,
                ids=ids,
                planes_factory=planes_factory,
            )
        else:
            # The store needs at least one row to exist; seed a
            # placeholder and evict it so the shard starts empty with a
            # reusable free row.
            self.store = DeviceStateStore(
                np.zeros((1, dim)),
                cell=cfg.cell,
                planes_factory=planes_factory,
            )
            self.store.leave(0)
        self.tracker = DirtyRegionTracker(
            cell=cfg.cell,
            influence_radius=4.0 * cfg.r,
            family_radius=2.0 * cfg.r,
        )
        self.engine = CharacterizationEngine(
            EngineConfig(
                backend=cfg.backend,
                workers=cfg.workers,
                max_worker_tasks=cfg.max_worker_tasks,
                dispatch_deadline=cfg.dispatch_deadline,
            )
        )
        self.tracer = tracer
        self.channel = _HaloChannel()
        self.index_stage = IndexUpdateStage(self)
        self.transition_stage = HaloTransitionBuildStage(self, cfg.r, cfg.tau)
        self.verdict_stage = VerdictStage(
            self,
            incremental=cfg.incremental,
            reuse_motions=False,
            transition_source=self.transition_stage,
        )
        self.pipeline = TickPipeline(
            [self.transition_stage, self.verdict_stage]
        )
        self._verdict_rows: Optional[np.ndarray] = None

    def publish_halo(self, boundary: "ShardMap", *, seq: int = 0) -> None:
        """Publish this shard's boundary band of flagged rows.

        ``seq`` (the tick number) gates the consumers' reads.
        """
        store = self.store
        rows = store.flagged_rows()
        if rows.size:
            keys = store.index.keys_of_rows(rows)
            mask = boundary.boundary_mask(keys, self.shard)
            rows = rows[mask]
            keys = keys[mask]
        else:
            keys = np.empty((0, store.dim), dtype=np.int64)
        ids = np.asarray(store.row_ids())[rows]
        prev_plane, cur_plane = store.snapshot_arrays()
        self.channel.publish(
            ids, keys, prev_plane[rows], cur_plane[rows], seq=seq
        )

    def run_tick(self, ctx: TickContext) -> TickContext:
        """Run the local pipeline and record the verdict codes."""
        self.pipeline.run(ctx, self.tracer)
        self._record_verdict_codes(ctx)
        return ctx

    def _record_verdict_codes(self, ctx: TickContext) -> None:
        store = self.store
        if self._verdict_rows is not None and self._verdict_rows.size:
            store.set_verdict_codes(
                self._verdict_rows,
                np.full(self._verdict_rows.shape[0], -1, dtype=np.int8),
            )
        targets = ctx.verdict_targets or ()
        if targets and ctx.key_of is not None:
            devices = [int(ctx.key_of[l]) for l in targets]
            rows = np.fromiter(
                (store.row_of(j) for j in devices),
                dtype=np.int64,
                count=len(devices),
            )
            codes = np.fromiter(
                (
                    _VERDICT_CODE[ctx.verdicts[j].anomaly_type]
                    for j in devices
                ),
                dtype=np.int8,
                count=len(devices),
            )
            store.set_verdict_codes(rows, codes)
            self._verdict_rows = rows
        else:
            self._verdict_rows = None

    def close(self) -> None:
        self.channel.close()
        self.engine.close()


class ShardedService:
    """Front door over ``topology_shards`` spatial shard workers.

    Speaks the single service's driver API — :meth:`ingest`,
    :meth:`feed_snapshot`, :meth:`feed_measurements`, :meth:`end_tick`,
    sinks — and produces one merged
    :class:`~repro.online.service.OnlineTick` per tick whose verdict map
    is identical (type, rule, witness) to what one
    :class:`~repro.online.service.OnlineCharacterizationService` over
    the same stream would produce.  ``OnlineTick.transition`` is
    ``None``: there is no global transition object, only per-shard ones.

    Parameters
    ----------
    initial_positions:
        ``(n, d)`` QoS state at service start; devices get global ids
        ``0..n-1`` and are partitioned by the cell→shard map.
    config:
        The standard :class:`~repro.online.service.ServiceConfig`
        (``shards`` remains the *store-internal* shard count, applied
        per partition store; the spatial topology is this class's own
        parameter).
    topology_shards:
        Number of spatial shards tiling the unit cube.
    topology_workers:
        Where each shard's command handler runs: ``"inline"`` (default)
        in this process, one shard after another (per-shard engines may
        themselves be process pools); ``"process"`` in one supervised
        long-lived daemonic process per shard whose store partition
        lives in shared-memory planes — the wall-clock-scaling topology.
    min_shard_devices:
        When positive, collapse the topology so every shard starts with
        at least this many devices (a shard below it pays more in halo
        exchange and fixed per-tick overhead than it wins back); emits a
        :class:`RuntimeWarning` naming the collapsed shard count.
    """

    def __init__(
        self,
        initial_positions: np.ndarray,
        config: Optional[ServiceConfig] = None,
        *,
        topology_shards: int = 4,
        topology_workers: str = "inline",
        min_shard_devices: int = 0,
        sinks: Iterable[Callable[[OnlineTick], None]] = (),
        detector: Optional[DetectorLike] = None,
        detection: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._config = config or ServiceConfig()
        cfg = self._config
        if topology_workers not in ("inline", "process"):
            raise ConfigurationError(
                f"topology_workers must be 'inline' or 'process', "
                f"got {topology_workers!r}"
            )
        pts = np.asarray(initial_positions, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise DimensionMismatchError(
                "initial_positions must be a non-empty (n, d) array"
            )
        self._dim = int(pts.shape[1])
        self._topology_workers = topology_workers
        if min_shard_devices and topology_shards > 1:
            cap = max(1, pts.shape[0] // int(min_shard_devices))
            if cap < topology_shards:
                warnings.warn(
                    f"collapsing topology from {topology_shards} to {cap} "
                    f"shard(s): {pts.shape[0]} devices is below "
                    f"min_shard_devices={min_shard_devices} per shard",
                    RuntimeWarning,
                    stacklevel=2,
                )
                topology_shards = cap
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
        self._gauge_shard_devices = registry.gauge(
            "repro_shard_devices",
            "Devices resident per spatial shard",
            labelnames=("shard",),
        )
        self._gauge_shard_flagged = registry.gauge(
            "repro_shard_flagged_devices",
            "Flagged devices per spatial shard",
            labelnames=("shard",),
        )
        self._hist_shard_stage = registry.histogram(
            "repro_shard_stage_seconds",
            "Per-shard wall-clock seconds by pipeline stage",
            labelnames=("shard", "stage"),
        )
        self._counter_respawns = registry.counter(
            "repro_shard_respawns_total",
            "Shard worker processes killed and respawned by supervision",
            labelnames=("shard",),
        )
        self._gauge_degraded = registry.gauge(
            "repro_topology_degraded_shards",
            "Shards degraded to the in-parent serial fallback",
        )
        # Only supervision degrades a shard; inline-hosted ones never count.
        self._degraded = 0
        self._gauge_degraded.set(0)
        self._counter_halo_bytes = registry.counter(
            "repro_halo_bytes_total",
            "Halo band bytes shipped between shards, both endpoints",
        )
        tracker_probe = DirtyRegionTracker(
            cell=cfg.cell, influence_radius=4.0 * cfg.r
        )
        # One spare ring on top of the influence band absorbs the grid
        # indexes' 1e-12 query tolerance at cell-boundary extremes.
        self._map = ShardMap(
            topology_shards,
            cell=cfg.cell,
            dim=self._dim,
            halo_rings=tracker_probe.rings + 1,
        )
        keys = np.floor(pts / cfg.cell).astype(np.int64)
        owners = self._map.shard_of_keys(keys)
        self._handles: List[Any] = []
        self._board = _FrameBoard()
        self._orphans: List[str] = []
        self._respawned_since_dirty = False
        self._prev_dirty: np.ndarray = union_cells(())
        self._mover_cells: List[np.ndarray] = []
        self._mover_carry: List[np.ndarray] = []
        self._shard_flagged: List[int] = [0] * self._map.n_shards
        for shard in range(self._map.n_shards):
            mask = owners == shard
            ids = np.nonzero(mask)[0].astype(np.int64)
            if topology_workers == "process":
                handle: Any = _ProcessShardHandle(
                    shard,
                    cfg,
                    self._dim,
                    self._map,
                    pts[mask],
                    ids,
                    self._tracer.enabled,
                )
            else:
                worker = _ShardWorker(
                    shard,
                    pts[mask],
                    ids,
                    self._dim,
                    cfg,
                    Tracer(registry, enabled=self._tracer.enabled),
                )
                handle = _InlineShardHandle(worker, self._map)
            self._handles.append(handle)
        self._owner: Dict[int, int] = {
            int(device): int(shard)
            for device, shard in enumerate(owners.tolist())
        }
        self._bank: Optional[DetectorBank] = None
        self._last_detection: Optional[BankDetection] = None
        if detector is not None:
            self._bank = as_bank(detector, pts.shape[0], self._dim, plane=detection)
            self._last_detection = self._bank.observe_batch(pts)
        elif detection is not None:
            raise ConfigurationError(
                "detection plane given without a detector spec or bank"
            )
        self._queue: Deque[QosUpdate] = deque()
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
        self.stats = ServiceStats()
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
        """The (per-shard) service configuration."""
        return self._config

    @property
    def topology(self) -> ShardMap:
        """The cell→shard tiling of the unit cube."""
        return self._map

    @property
    def n_shards(self) -> int:
        """Number of spatial shards."""
        return self._map.n_shards

    @property
    def topology_workers(self) -> str:
        """``"inline"`` or ``"process"`` — where shard pipelines run."""
        return self._topology_workers

    @property
    def handles(self) -> Tuple[Any, ...]:
        """The per-shard handles; an in-parent shard's worker is ``.inner``."""
        return tuple(self._handles)

    @property
    def n(self) -> int:
        """Number of live devices across every shard."""
        return sum(handle.n for handle in self._handles)

    @property
    def dim(self) -> int:
        """Number of services per device."""
        return self._dim

    @property
    def nbytes(self) -> int:
        """Columnar bytes held across every shard's store.

        Process shards report their shm plane segment size (derived
        from the capacity echoed in every reply header), so no
        roundtrip is needed.
        """
        return sum(handle.nbytes for handle in self._handles)

    @property
    def bytes_per_device(self) -> float:
        """Average columnar bytes per live device."""
        return self.nbytes / max(1, self.n)

    @property
    def current_tick(self) -> int:
        """Number of completed ticks."""
        return self._tick

    @property
    def queued(self) -> int:
        """Events currently waiting in the front-door queue."""
        return len(self._queue)

    @property
    def tracer(self) -> Tracer:
        """The front-door tracer (workers own per-shard tracers)."""
        return self._tracer

    @property
    def bank(self) -> Optional[DetectorBank]:
        """The front-door detector bank (None without a ``detector``)."""
        return self._bank

    @property
    def last_detection(self) -> Optional[BankDetection]:
        """The bank's most recent batch detection, if any."""
        return self._last_detection

    @property
    def verdicts(self) -> Dict[int, Characterization]:
        """The merged verdict map across shards (a copy)."""
        merged: Dict[int, Characterization] = {}
        for cache in self._query("verdicts"):
            merged.update(cache)
        return merged

    def flagged_devices(self) -> Tuple[int, ...]:
        """Currently flagged devices across every shard, sorted."""
        out: List[int] = []
        for part in self._query("flagged"):
            out.extend(part)
        return tuple(sorted(out))

    def shard_flagged_counts(self) -> Tuple[int, ...]:
        """Verdict targets per shard at the latest tick."""
        return tuple(self._shard_flagged)

    def shard_of(self, device: int) -> int:
        """The spatial shard currently owning ``device``."""
        shard = self._owner.get(int(device))
        if shard is None:
            raise ConfigurationError(f"device {device} is not in the service")
        return shard

    def shard_sizes(self) -> Tuple[int, ...]:
        """Resident device count per spatial shard."""
        return tuple(handle.n for handle in self._handles)

    def add_sink(self, sink: Callable[[OnlineTick], None]) -> None:
        """Attach a sink called with every finished :class:`OnlineTick`."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every shard (engine, halo ring, child) and the board."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.shutdown()
        self._board.close()
        self._drain_orphans()

    # ------------------------------------------------------------------
    # Command phases and supervision
    # ------------------------------------------------------------------
    def _phase(
        self, msgs: List[Optional[tuple]], *, chaos: bool = False
    ) -> List[Any]:
        """One scatter/collect roundtrip; ``None`` skips that shard.

        All commands go down every pipe before any reply is awaited —
        process shards run the phase concurrently and the parent blocks
        on the slowest; in-parent shards execute at collect time, one
        after another.  A shard-side error is re-raised only after
        *every* outstanding reply is drained, so one failing shard never
        leaves another's reply stranded in a pipe to desynchronize the
        next phase.  ``chaos`` routes the sends through the handles'
        pool-dispatch fault hook (the verdict phase).
        """
        for handle, msg in zip(self._handles, msgs):
            if msg is None:
                continue
            if chaos:
                handle.send_with_chaos(msg)
            else:
                handle.send(msg)
        results: List[Any] = [None] * len(msgs)
        error: Optional[BaseException] = None
        for shard, msg in enumerate(msgs):
            if msg is None:
                continue
            try:
                results[shard] = self._collect_one(shard)
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return results

    def _query(self, what: str) -> List[Any]:
        """Read-only fan-out (``frame`` / ``verdicts`` / ``flagged``)."""
        return self._phase(
            [
                ("query", self._tick, {"what": what})
                for _ in range(self._map.n_shards)
            ]
        )

    def _collect_one(self, shard: int) -> Any:
        """Await one shard's reply, supervising the roundtrip.

        A dead or deadline-missing child is respawned against its
        surviving shm planes and the last *canonical* command is resent,
        up to ``dispatch_retries`` times; after that the shard degrades
        to an in-parent serial worker running the same command handler
        (degraded, never divergent).  Error replies from a *healthy*
        child are protocol answers, not faults — they map back to the
        original exception class and are never retried.
        """
        deadline = self._config.dispatch_deadline
        retries = self._config.dispatch_retries
        attempt = 0
        while True:
            handle = self._handles[shard]
            try:
                ok, name, capacity, n, payload = handle.recv(deadline)
            except ShardRoundtripError:
                if attempt < retries:
                    attempt += 1
                    self._note_respawn(shard, handle.respawn())
                    handle.resend_last()
                    continue
                self._fallback_inline(shard)
                continue
            if ok:
                if name is not None:
                    handle.plane_name = name
                    handle.plane_capacity = int(capacity)
                    handle.n = int(n)
                return payload
            exc_name, tb = payload
            exc_cls = _CHILD_ERRORS.get(exc_name, RuntimeError)
            raise exc_cls(f"shard {shard} worker command failed:\n{tb}")

    def _note_respawn(self, shard: int, orphans: Iterable[str]) -> None:
        self._orphans.extend(orphans)
        self._respawned_since_dirty = True
        self._counter_respawns.labels(shard=str(shard)).inc()

    def _fallback_inline(self, shard: int) -> None:
        """Degrade ``shard`` to an in-parent serial worker.

        The child is killed and its planes are hosted in-parent
        (:meth:`~repro.online.procshard._ProcessShardHandle.degrade`),
        with the in-flight command re-queued so the caller's ``recv``
        loop re-executes it locally.
        """
        handle = self._handles[shard]
        self._orphans.extend(handle.kill())
        self._respawned_since_dirty = True
        self._handles[shard] = handle.degrade(
            Tracer(self._tracer.registry, enabled=self._tracer.enabled)
        )
        self._degraded += 1
        self._gauge_degraded.set(self._degraded)

    def _drain_orphans(self) -> None:
        """Unlink segments orphaned by kills — only after the tick's
        consumers are done reading them (end of ``end_tick``)."""
        for name in self._orphans:
            unlink_by_name(name)
        self._orphans = []

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def checkpoint(self, path, *, extra=None):
        """Write an atomic checkpoint of this service to ``path``.

        See :mod:`repro.online.recovery` for the format; returns the
        published path.
        """
        from repro.online.recovery import save_checkpoint

        return save_checkpoint(self, path, extra=extra)

    @classmethod
    def restore(cls, source, **kwargs) -> "ShardedService":
        """Rebuild a sharded service from a checkpoint path (or loaded
        object); see :func:`repro.online.recovery.restore_sharded_service`."""
        from repro.online.recovery import restore_sharded_service

        return restore_sharded_service(source, **kwargs)

    def shard_states(self) -> List[Tuple[Dict, Dict, Dict]]:
        """Per-shard ``(store_state, tracker_state, verdict_cache)``.

        The checkpoint's parts, wherever the shards run: the ``state``
        command first rolls any deferred tick advance, so the captured
        states are those of completed ticks.
        """
        return self._phase(
            [("state", self._tick, {}) for _ in range(self._map.n_shards)]
        )

    def load_shard_states(self, parts) -> None:
        """Reinstate per-shard states from checkpoint parts, in shard order.

        Stores, trackers and verdict caches are reinstated exactly;
        cross-tick perf caches start cold.  The device→shard owner map
        is rebuilt from the parts' id columns at the front door —
        placement is part of the stores' state, never recomputed from
        positions — so the map needs no roundtrip of its own.
        """
        owner: Dict[int, int] = {}
        for shard, part in enumerate(parts):
            ids = np.asarray(part.store_state["id_of"])
            for device in ids[ids >= 0].tolist():
                owner[int(device)] = shard
        self._phase(
            [
                (
                    "restore",
                    0,
                    {
                        "store": part.store_state,
                        "tracker": part.tracker_state,
                        "verdicts": part.verdicts,
                    },
                )
                for part in parts
            ]
        )
        self._owner = owner

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(
        self, device: int, position: Sequence[float], flagged: bool = False
    ) -> int:
        """Admit a device on the shard owning its cell; returns the shard.

        A flagged join's cell is folded into the front door's dirty
        insurance (see :meth:`_migrate`) as well as the shard's own.
        """
        device = int(device)
        if device in self._owner:
            raise ConfigurationError(f"device {device} is already stored")
        pos = np.asarray(position, dtype=float)
        key = np.floor(pos / self._config.cell).astype(np.int64)
        shard = int(self._map.shard_of_keys(key[None, :])[0])
        self._phase_one(
            shard,
            (
                "join",
                self._tick + 1,
                {"device": device, "position": pos, "flagged": bool(flagged)},
            ),
        )
        if flagged:
            self._mover_cells.append(key[None, :])
        self._owner[device] = shard
        return shard

    def leave(self, device: int) -> int:
        """Evict a device from its owning shard; returns the shard.

        A flagged device's reply carries its ``(prev, cur)`` endpoints,
        folded into the front door's dirty insurance: if the shard's
        worker dies before the next halo phase, the store's own record
        of those cells dies with it.
        """
        shard = self.shard_of(device)
        ends = self._phase_one(
            shard, ("leave", self._tick + 1, {"device": int(device)})
        )
        if ends is not None:
            self._mover_cells.append(
                np.floor(ends / self._config.cell).astype(np.int64)
            )
        del self._owner[int(device)]
        return shard

    def _phase_one(self, shard: int, msg: tuple) -> Any:
        """A single-shard roundtrip (membership commands)."""
        msgs: List[Optional[tuple]] = [None] * self._map.n_shards
        msgs[shard] = msg
        return self._phase(msgs)[shard]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, update: QosUpdate) -> bool:
        """Enqueue one event; same backpressure contract as the service."""
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
            else:
                with self._tracer.span("ingest-drain"):
                    self._apply_batch(cfg.max_batch or len(self._queue))
                self.stats.inline_drains += 1
        self._queue.append(update)
        return accepted

    def ingest_many(self, updates: Iterable[QosUpdate]) -> int:
        """Enqueue a batch; returns how many were accepted cleanly."""
        return sum(1 for update in updates if self.ingest(update))

    def _reject(self, reason: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.rejected[reason] = self.rejected.get(reason, 0) + count
        self._rejected_counter.labels(reason=reason).inc(count)

    def _apply_batch(self, limit: int) -> int:
        """Pop up to ``limit`` events and apply them, routed per shard."""
        batch: List[QosUpdate] = []
        while self._queue and len(batch) < limit:
            batch.append(self._queue.popleft())
        if not batch:
            return 0
        start = 0
        seen: Set[int] = set()
        applied = 0
        for i, update in enumerate(batch):
            if update.device in seen:
                applied += self._apply_segment(batch[start:i])
                start = i
                seen = set()
            seen.add(update.device)
        applied += self._apply_segment(batch[start:])
        self.stats.updates_applied += applied
        self._applied_since_tick += applied
        return len(batch)

    def _apply_segment(self, segment: List[QosUpdate]) -> int:
        """Apply one duplicate-free run, one row batch per owning shard.

        Routing and input validation happen here at the front door; the
        ``events`` commands carry *global device ids* — row numbers are
        a private concern of whichever worker hosts the partition.
        """
        dim = self._dim
        by_shard: Dict[int, List[QosUpdate]] = {}
        for update in segment:
            shard = self._owner.get(update.device)
            if shard is None:
                self._reject("unknown-device")
                continue
            if len(update.position) != dim:
                self._reject("dimension-mismatch")
                continue
            by_shard.setdefault(shard, []).append(update)
        total = 0
        msgs: List[Optional[tuple]] = [None] * self._map.n_shards
        for shard, kept in by_shard.items():
            positions = np.array(
                [update.position for update in kept], dtype=float
            )
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
                    continue
                positions = positions[idx]
                kept = [kept[i] for i in idx.tolist()]
            flags = np.fromiter(
                (update.flagged for update in kept),
                dtype=bool,
                count=len(kept),
            )
            ids = np.fromiter(
                (update.device for update in kept),
                dtype=np.int64,
                count=len(kept),
            )
            msgs[shard] = (
                "events",
                self._tick + 1,
                {"ids": ids, "positions": positions, "flags": flags},
            )
            total += len(kept)
        if any(msg is not None for msg in msgs):
            self._phase(msgs)
        return total

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def _migrate(self) -> int:
        """Move devices whose current cell left their shard's box.

        Runs after the tick's updates are applied (the source shard's
        tracker has already marked the crossing move's cells, and they
        enter the global dirty union) and before the halo exchange, so
        every published row lies in its publisher's own box.  The
        handover uses :meth:`DeviceStateStore.admit` — a plain ``join``
        would restart the trajectory as stationary and erase the very
        move that crossed the border.

        Three idempotent phases: ``movers`` is scan-only, so the parent
        holds the full handover records before any store mutates;
        ``migrate_out`` then evicts (leave-if-present) and
        ``migrate_in`` admits (admit-if-absent) — each phase replays
        safely after a kill+respawn at any point.  The parent also folds
        every mover's trajectory-endpoint cells into this tick's and the
        next tick's dirty union (``_mover_cells`` / ``_mover_carry``):
        if the *source* shard is respawned later this tick, the departed
        device exists in neither of its recovered planes, so
        conservative plane-scan invalidation alone would miss the cells
        its move touched.  Flagged joins and leaves ride the same
        insurance.
        """
        tick = self._tick + 1
        n_shards = self._map.n_shards
        replies = self._phase([("movers", tick, {})] * n_shards)
        out_by_src: Dict[int, List[int]] = {}
        in_by_dst: Dict[int, List[tuple]] = {}
        cell = self._config.cell
        moves = 0
        for src, records in enumerate(replies):
            for dest, device, prev, cur, flagged, code in records or ():
                device, dest = int(device), int(dest)
                out_by_src.setdefault(src, []).append(device)
                in_by_dst.setdefault(dest, []).append(
                    (device, prev, cur, bool(flagged), int(code))
                )
                self._owner[device] = dest
                ends = np.floor(np.asarray([prev, cur], dtype=float) / cell)
                self._mover_cells.append(ends.astype(np.int64))
                moves += 1
        if not moves:
            return 0
        out_msgs: List[Optional[tuple]] = [None] * n_shards
        in_msgs: List[Optional[tuple]] = [None] * n_shards
        for src, devices in out_by_src.items():
            out_msgs[src] = ("migrate_out", tick, {"devices": devices})
        for dst, records in in_by_dst.items():
            in_msgs[dst] = ("migrate_in", tick, {"records": records})
        self._phase(out_msgs)
        self._phase(in_msgs)
        return moves

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def _gather_current(self) -> np.ndarray:
        """Current positions gathered into one global-id-indexed frame."""
        frame = np.zeros((self.n, self._dim), dtype=float)
        for ids, positions in self._query("frame"):
            if ids.size:
                frame[ids] = positions
        return frame

    def feed_snapshot(
        self, current: np.ndarray, flags: Iterable[bool]
    ) -> OnlineTick:
        """One tick from a full snapshot + flag vector, fanned out by id.

        ``current`` is indexed by *global device id* and must cover the
        dense id range ``0..n-1`` — the fixed-fleet contract the
        snapshot drivers (monitor, trace replay, load generator) already
        satisfy.  Churned populations with id gaps flow through
        :meth:`ingest` / :meth:`join` / :meth:`leave` instead.
        """
        current = np.asarray(current, dtype=float)
        flags_arr = np.asarray(list(flags), dtype=bool)
        if (
            current.ndim != 2
            or current.shape[1] != self._dim
            or flags_arr.shape[0] != current.shape[0]
        ):
            self._reject("dimension-mismatch")
            raise DimensionMismatchError(
                f"snapshot frame {current.shape} with {flags_arr.shape[0]} "
                f"flags incompatible with dim {self._dim}"
            )
        self._ingest_stage.run(self._tracer)
        name, rows, _ = self._board.publish(current, flags_arr)
        try:
            counts = self._phase(
                [
                    (
                        "frame",
                        self._tick + 1,
                        {"board": name, "rows": rows, "live": [name]},
                    )
                    for _ in range(self._map.n_shards)
                ]
            )
        except DimensionMismatchError:
            self._reject("dimension-mismatch")
            raise
        applied_rows = sum(int(count) for count in counts)
        if applied_rows:
            self.stats.updates_applied += applied_rows
            self._applied_since_tick += applied_rows
        return self.end_tick()

    def feed_measurements(self, values: np.ndarray) -> OnlineTick:
        """One tick from raw QoS vectors: detect at the front door, flag."""
        if self._bank is None:
            raise ConfigurationError(
                "feed_measurements needs a detector; construct the service "
                "with detector=DetectorSpec(...)"
            )
        arr = np.asarray(values, dtype=float)
        injector = get_injector()
        if injector.active:
            arr = injector.corrupt_frame(self._tick + 1, arr)
        arr = self._validate_frame(arr)
        with self._tracer.span("detect"):
            detection = self._bank.observe_batch(arr)
        self._last_detection = detection
        return self.feed_snapshot(arr, detection.flags)

    def _validate_frame(self, arr: np.ndarray) -> np.ndarray:
        n, dim = self.n, self._dim
        if arr.ndim != 2 or arr.shape != (n, dim):
            self._reject("dimension-mismatch")
            raise DimensionMismatchError(
                f"measurement frame shape {arr.shape} incompatible with "
                f"({n}, {dim})"
            )
        nan_bad = np.isnan(arr).any(axis=1)
        inf_bad = np.isinf(arr).any(axis=1)
        finite = ~(nan_bad | inf_bad)
        range_bad = finite & (
            (arr < 0.0).any(axis=1) | (arr > 1.0).any(axis=1)
        )
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
        repaired[bad] = self._gather_current()[bad]
        return repaired

    # ------------------------------------------------------------------
    # Tick processing
    # ------------------------------------------------------------------
    def end_tick(self) -> OnlineTick:
        """Close the interval across every shard and merge the results."""
        tracer = self._tracer
        self._gauge_queue_depth.set(len(self._queue))
        self._ingest_stage.run(tracer)
        with tracer.span("shard-migrate"):
            self._migrate()
        applied = self._applied_since_tick
        self._applied_since_tick = 0
        self._tick += 1

        results, dirty_cells, halo_bytes = self._tick_shards(tracer)

        verdicts: Dict[int, Characterization] = {}
        flagged: List[int] = []
        recomputed: List[int] = []
        reused: List[int] = []
        families_recomputed = 0
        families_reused = 0
        stage_seconds = tracer.drain_stages()
        for shard, result in enumerate(results):
            verdicts.update(result["verdicts"])
            flagged.extend(result["flagged"])
            recomputed.extend(result["recomputed"])
            reused.extend(result["reused"])
            families_recomputed += result["families_recomputed"]
            families_reused += result["families_reused"]
            self._shard_flagged[shard] = result["n_targets"]
            shard_label = str(shard)
            self._gauge_shard_devices.labels(shard=shard_label).set(
                result["n"]
            )
            self._gauge_shard_flagged.labels(shard=shard_label).set(
                result["n_targets"]
            )
            for stage, seconds in result["stage_seconds"].items():
                self._hist_shard_stage.labels(
                    shard=shard_label, stage=stage
                ).observe(seconds)
                stage_seconds[stage] = (
                    stage_seconds.get(stage, 0.0) + seconds
                )

        self.stats.ticks += 1
        self.stats.verdicts_recomputed += len(recomputed)
        self.stats.verdicts_reused += len(reused)
        self.stats.families_recomputed += families_recomputed
        self.stats.families_reused += families_reused
        self._gauge_devices.set(self.n)
        self._gauge_flagged.set(len(flagged))
        if halo_bytes:
            self._counter_halo_bytes.inc(halo_bytes)
        result = OnlineTick(
            tick=self._tick,
            applied=applied,
            flagged=tuple(sorted(flagged)),
            recomputed=tuple(sorted(recomputed)),
            reused=tuple(sorted(reused)),
            dirty_cells=len(dirty_cells),
            verdicts=verdicts,
            transition=None,
            families_recomputed=families_recomputed,
            families_reused=families_reused,
            stage_seconds=stage_seconds,
            halo_bytes=halo_bytes,
        )
        self._sink_stage.run(result, tracer)
        for stage, seconds in tracer.drain_stages().items():
            result.stage_seconds[stage] = (
                result.stage_seconds.get(stage, 0.0) + seconds
            )
        return result

    def _tick_shards(
        self, tracer: Tracer
    ) -> Tuple[List[Dict[str, Any]], np.ndarray, int]:
        """The tick's halo barrier and verdicts over shm rings.

        The ``halo`` phase makes every shard publish its boundary band
        (seq-stamped with the tick) and reply with its dirty cells and
        ring metadata; while the parent unions the dirty sets and
        computes per-consumer halo masks, process children overlap by
        pre-gathering their owned-row planes (:meth:`prestage`).  The
        ``verdict`` phase then ships segment *names* — each shard gates
        on the publisher's sequence header before copying its band, so a
        slow publisher delays only its consumers' barrier and can never
        hand them a stale band.

        Three parent-side insurances widen the dirty union beyond the
        shards' reports: mover and flagged-membership endpoint cells for
        this tick and the next (a respawned shard has no trace of
        departed devices), and — after any respawn or degrade since the
        last union — the previous tick's whole dirty union, which is a
        superset of the carry set the dead child's tracker lost.
        """
        tick = self._tick
        n_shards = self._map.n_shards
        dim = self._dim
        with tracer.span("halo-exchange"):
            # The halo-delay fault is consulted here, once, in the parent
            # (a forked child's injector counts would be invisible), and
            # shipped as a reply stall: the shard publishes its band
            # first and sleeps before replying, so the fault delays only
            # the barrier — the seq gate proves consumers still read a
            # whole, current band.
            injector = get_injector()
            halo_msgs: List[Optional[tuple]] = []
            for shard in range(n_shards):
                payload: Dict[str, Any] = {}
                if injector.active:
                    stall = injector.halo_publish(tick, shard)
                    if stall:
                        payload["_hang"] = stall
                halo_msgs.append(("halo", tick, payload))
            replies = self._phase(halo_msgs)
            parts: List[np.ndarray] = []
            metas: List[Dict[str, Any]] = []
            for shard, (cells, meta) in enumerate(replies):
                parts.append(cells)
                metas.append(meta)
                self._handles[shard].ring_names = tuple(meta["live"])
            parts.extend(self._mover_cells)
            parts.extend(self._mover_carry)
            if self._respawned_since_dirty:
                parts.append(self._prev_dirty)
                self._respawned_since_dirty = False
            dirty_cells = union_cells(parts)
            self._prev_dirty = dirty_cells
            self._mover_carry = self._mover_cells
            self._mover_cells = []

            halo_rings = self._map.halo_rings
            halo_bytes = 0
            sources_of: List[List[Dict[str, Any]]] = []
            for consumer in range(n_shards):
                sources: List[Dict[str, Any]] = []
                for meta in metas:
                    if meta["shard"] == consumer:
                        continue
                    ids = meta["ids"]
                    if ids.size == 0:
                        continue
                    dist = self._map.box_distance(meta["keys"], consumer)
                    mask = (dist > 0) & (dist <= halo_rings)
                    if not mask.any():
                        continue
                    take = np.nonzero(mask)[0]
                    halo_bytes += int(take.size) * dim * 16
                    sources.append(
                        {
                            "shard": meta["shard"],
                            "seq": meta["seq"],
                            "rows": meta["rows"],
                            "hdr": meta["hdr"],
                            "prev": meta["prev"],
                            "cur": meta["cur"],
                            "ids": ids[take],
                            "take": take,
                            "live": meta["live"],
                        }
                    )
                sources_of.append(sources)

        results = self._phase(
            [
                (
                    "verdict",
                    tick,
                    {"sources": sources_of[shard], "dirty": dirty_cells},
                )
                for shard in range(n_shards)
            ],
            chaos=True,
        )
        # Segments orphaned by kills stay linked until every consumer is
        # done reading the tick's bands; unlink them only now.
        self._drain_orphans()
        return results, dirty_cells, halo_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedService(n={self.n}, shards={self._map.n_shards}, "
            f"ticks={self._tick}, queued={len(self._queue)})"
        )
