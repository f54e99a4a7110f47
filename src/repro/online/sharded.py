"""The online tick path: spatial shards with halo exchange.

The unit QoS cube is tiled into ``topology_shards`` axis-aligned boxes
of grid cells, each owned by a :class:`_ShardWorker` — its own columnar
:class:`~repro.online.store.DeviceStateStore` partition (keyed by
*global* device ids), dirty-region tracker, characterization engine and
tracer — behind one :class:`ShardedService` front door.  One process's
tick is one long critical path at a few hundred thousand devices;
shards divide it.  The single service,
:class:`OnlineCharacterizationService`, is the same class fixed at one
in-process shard: one shard with an empty halo holds the whole
computation, so there is one tick path, not two.

The paper's locality theorem is what makes the decomposition exact: a
flagged device's verdict depends only on flagged devices within ``4r``
(uniform norm) of it at the interval endpoints.  So a shard can
characterize its residents *locally*, provided it also sees the flagged
devices just across its borders — the **halo**.  Per tick:

1. **route & apply** — ingested events and snapshot diffs are applied on
   each device's owning shard (the front door keeps the device→shard
   map); devices whose new cell falls in another shard's box migrate in
   one columnar batch
   (:meth:`~repro.online.store.DeviceStateStore.admit_rows`), which
   carries the ``prev`` endpoint so the crossing move itself is not
   erased;
2. **dirty union** — every shard closes its tracker's dirty region
   (:meth:`~repro.online.dirty.DirtyRegionTracker.close`) and the front
   door unions the regions: an update near a boundary must invalidate
   verdicts on *both* sides, so each shard fans the global union out
   over its own flagged rows, through the same
   :meth:`~repro.online.dirty.DirtyRegionTracker.finish_tick` as the
   single service;
3. **halo exchange** — each shard's ``halo`` reply carries its band: the
   ids, cell keys and ``(prev, cur)`` rows of its flagged devices within
   ``halo_rings`` cells of its box boundary.  The front door keeps, for
   each consumer, the band rows whose cells lie within ``halo_rings``
   *outside* the consumer's box, and ships them in that consumer's
   ``verdict`` command — a few hundred bytes a tick, since the band is a
   boundary strip;
4. **local pipelines** — each shard runs a halo-aware
   transition-build stage, then the standard
   :class:`~repro.online.stages.VerdictStage`;
5. **merge** — verdicts (already remapped to global ids), flagged sets,
   stats and stage timings are merged into one ordinary
   :class:`~repro.online.service.OnlineTick` for the sinks.

With one shard, steps 1 and 3 have nothing to move: no device leaves
the only box, and its band is empty.

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
``i``'s current cell is within ``rings`` cells of the box, and the
``halo_rings = rings`` band contains it.  That band already absorbs the
indexes' ``1e-12`` query tolerance: points whose cells are ``D`` apart
are more than ``(D - 1) * cell`` apart, and the tracker's ``rings =
floor(4r / cell + 1e-9) + 1`` leaves ``rings * cell - 4r`` at a full
cell for the service's ``cell = 2r`` (``4r / cell`` is exactly 2 while
``2r`` is above the ``1e-6`` cell floor), so a device at key distance
``rings + 1`` is at least ``4r + cell`` away, far past ``4r + 1e-12``.  Devices that are prev-near but
cur-far are dropped by the intersection on both sides of the
decomposition, and extra halo members are harmless supersets.  See
DESIGN.md ("Sharded topology") for the full argument.

**Verdict identity** across shard counts is exact — type, rule *and*
witness.  Shard-local transitions number devices by the rank of their
global id among the shard's participants (owned flagged ∪ halo,
sorted), a strictly monotone map; every order the characterization
pipeline relies on (canonical motion sort keys, candidate pools, local
universes) is either geometric or lexicographic in device ids, and
lexicographic comparisons are invariant under monotone relabelling.
The randomized equivalence suite (``tests/online/test_sharded.py``)
pins this down, churn and shard-crossing movers included.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.errors import (
    CheckpointError,
    ConfigurationError,
    DimensionMismatchError,
)
from repro.core.transition import Transition
from repro.core.types import Characterization
from repro.detection.banks import DetectorLike, as_bank
from repro.engine import CharacterizationEngine
from repro.ipc import SegmentReader, ShardRoundtripError
from repro.obs.trace import Tracer
from repro.online.dirty import DirtyRegion, DirtyRegionTracker
from repro.online.idmap import IdColumnMap
from repro.online.procshard import (
    _CHILD_ERRORS,
    _FrameBoard,
    _InlineShardHandle,
    _ProcessShardHandle,
    _decorated,
    _mark_recovered,
)
from repro.online.service import OnlineTick, QosUpdate, ServiceConfig, _FrontDoor
from repro.online.stages import (
    IndexUpdateStage,
    TickContext,
    VerdictStage,
)
from repro.online.store import (
    DeviceStateStore,
    attach_store_planes,
    read_store_columns,
)
from repro.robust.chaos import get_injector

__all__ = [
    "HaloTransitionBuildStage",
    "OnlineCharacterizationService",
    "ShardMap",
    "ShardedService",
]

#: Dirty unions that fold in the front door's respawn insurance after a
#: shard respawn or degrade: the one closing that tick, and the next,
#: which would have read the dead child's move carry.
_INSURED_UNIONS = 2


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


def _shard_map(cfg: ServiceConfig, shards: int, dim: int) -> "ShardMap":
    """The tiling of a service over ``cfg``.  Its halo band is the dirty
    band's rings, which already clear 4r by a full cell, covering the grid
    indexes' 1e-12 query tolerance (module doc)."""
    rings = DirtyRegionTracker(cell=cfg.cell, influence_radius=4.0 * cfg.r).rings
    return ShardMap(shards, cell=cfg.cell, dim=dim, halo_rings=rings)


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

    def leavers(
        self, keys: np.ndarray, shard: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of ``keys`` that :meth:`shard_of_keys` maps off ``shard``.

        A box test on ``shard``'s own ``[lo, hi]`` per tiled axis — an
        edge face is open, since keys beyond the cube clip to the edge
        shards — so :meth:`shard_of_keys` runs only on the few rows that
        fail it.  Returns ``(idx, dest)``: ascending row positions in
        ``keys`` and each one's destination shard.
        """
        K = self._K
        outside = None
        for axis, c in enumerate(self._coords(shard)):
            lo = int(self._lo[axis][c])
            hi = int(self._hi[axis][c])
            col = keys[:, axis]
            if lo > 0:
                out = col < lo
                outside = out if outside is None else outside | out
            if hi < K - 1:
                out = col > hi
                outside = out if outside is None else outside | out
        if outside is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        idx = np.flatnonzero(outside)
        return idx, self.shard_of_keys(keys[idx])

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


class HaloTransitionBuildStage:
    """``transition-build`` over one shard's flagged residents plus its halo.

    Participants are the shard's *flagged* devices plus the halo band
    deposited by the front door (:meth:`stage_halo`) — nothing in a
    transition's verdict path reads an unflagged row (its indexes,
    neighbourhoods and ``combined_of`` gathers are all flagged-only), so
    the build costs
    O(flagged), not O(residents).  Participants are numbered by the rank
    of their global id — a strictly monotone local→global map, which is
    what keeps every id-lexicographic tie-break in the characterization
    pipeline (canonical motion order, candidate pools) invariant and the
    shard's verdicts bit-identical whatever the shard count.

    Nothing is carried across ticks: the participant set churns with
    the halo every tick.  Verdict-level caching still applies — it is
    keyed by global id and survives any relabelling.  A one-shard
    service has no halo, and its transition is the flagged subset of
    the whole fleet.
    """

    name = "transition-build"

    def __init__(self, owner: "_ShardWorker", r: float, tau: int) -> None:
        self._owner = owner
        self._r = float(r)
        self._tau = int(tau)
        self._halo_ids = np.empty(0, dtype=np.int64)
        self._halo_prev = np.empty((0, 0), dtype=np.float64)
        self._halo_cur = np.empty((0, 0), dtype=np.float64)

    def stage_halo(
        self, ids: np.ndarray, prev: np.ndarray, cur: np.ndarray
    ) -> None:
        """Deposit this tick's halo band (global ids + both endpoints)."""
        self._halo_ids = ids
        self._halo_prev = prev
        self._halo_cur = cur

    def run(self, ctx: TickContext, tracer: Tracer) -> None:
        store = self._owner.store
        flagged_rows = store.flagged_rows()
        if flagged_rows.size == 0:
            # No verdicts owed by this shard: publish-only tick.
            ctx.flagged = ()
            ctx.verdict_targets = ()
            return
        with tracer.span("dirty-region"):
            _, affected_rows = self._owner.tracker.finish_tick(store, ctx.dirty)
        with tracer.span(self.name):
            prev_plane, cur_plane = store.snapshot_arrays()
            halo_ids = self._halo_ids
            n_owned = flagged_rows.shape[0]
            part_ids = np.concatenate(
                [np.asarray(store.row_ids())[flagged_rows], halo_ids]
            )
            n_part = part_ids.shape[0]
            order = np.argsort(part_ids, kind="stable")
            rank = np.empty(n_part, dtype=np.int64)
            rank[order] = np.arange(n_part, dtype=np.int64)
            own_rank = rank[:n_owned]
            dim = store.dim
            # tau needs at least tau + 1 participants; the pad rows are
            # unflagged zeros — invisible to the flagged-only indexes,
            # so the padded transition is exact, not approximate.
            pad = max(0, self._tau + 1 - n_part)
            prev_arr = np.zeros((n_part + pad, dim), dtype=np.float64)
            cur_arr = np.zeros((n_part + pad, dim), dtype=np.float64)
            prev_arr[own_rank] = prev_plane[flagged_rows]
            cur_arr[own_rank] = cur_plane[flagged_rows]
            if halo_ids.size:
                prev_arr[rank[n_owned:]] = self._halo_prev
                cur_arr[rank[n_owned:]] = self._halo_cur
            prev_arr.flags.writeable = False
            cur_arr.flags.writeable = False
            # ``flagged_rows`` ascends, so affected rows (a subset, in
            # input order) locate their rank by binary search.
            affected = own_rank[np.searchsorted(flagged_rows, affected_rows)]
            ctx.key_of = part_ids[order].tolist()
            ctx.verdict_targets = tuple(np.sort(own_rank).tolist())
            ctx.flagged = tuple(range(n_part))
            ctx.affected = set(affected.tolist())
            ctx.transition = Transition.from_views(
                prev_arr, cur_arr, ctx.flagged, self._r, self._tau
            )


class _ShardWorker:
    """One spatial shard: store partition, tracker, engine, pipeline.

    Built around a ready store — :meth:`from_init` builds one from a
    shard's residents, a checkpoint part or surviving shm planes.
    :meth:`run_tick` leaves the snapshot roll to the *next* tick's first
    mutating command, so a mid-verdict kill always leaves the planes
    holding a consistent ``(S_{k-1}, S_k)`` pair; only a lone
    in-process shard's handle rolls right after the verdict
    (:mod:`repro.online.procshard`).
    """

    def __init__(
        self,
        shard: int,
        store: DeviceStateStore,
        config: ServiceConfig,
        tracer: Tracer,
        engine: Optional[CharacterizationEngine] = None,
    ) -> None:
        self.shard = int(shard)
        self.store = store
        cfg = config
        self.tracker = DirtyRegionTracker(
            cell=cfg.cell, influence_radius=4.0 * cfg.r
        )
        # A shared engine (the network monitor's) stays its owner's to close.
        self.owns_engine = engine is None
        self.engine = engine or CharacterizationEngine()
        self.tracer = tracer
        self.index_stage = IndexUpdateStage(self)
        self.transition_stage = HaloTransitionBuildStage(self, cfg.r, cfg.tau)
        self.verdict_stage = VerdictStage(self, incremental=cfg.incremental)

    @classmethod
    def from_init(
        cls, shard, init, dim, config, tracer, *, planes_factory=None, engine=None
    ) -> "_ShardWorker":
        """Build a worker from ``("fresh", positions, ids)`` (``ids``
        ``None`` numbers the rows ``0..n-1``), a checkpoint's ``("state",
        part)`` or ``("adopt", plane_name, capacity)``, the shm planes a
        killed predecessor left (``planes_factory`` puts a new store in
        shm).  A restored worker reinstates its part exactly; an adopting
        one dirties every alive cell (``_mark_recovered``).
        """
        kind, arg = init[0], init[1]
        if kind == "fresh" and arg.shape[0]:
            store = DeviceStateStore(
                arg, cell=config.cell, ids=init[2], planes_factory=planes_factory
            )
        elif kind == "fresh":
            # A store needs a row to exist: an empty shard seeds a
            # placeholder and evicts it, keeping a reusable free row.
            store = DeviceStateStore(
                np.zeros((1, dim)), cell=config.cell, planes_factory=planes_factory
            )
            store.leave(0)
        elif kind == "adopt":
            store = DeviceStateStore.adopt_planes(
                attach_store_planes(arg, init[2], dim),
                cell=config.cell,
                planes_factory=planes_factory,
            )
        else:
            store = DeviceStateStore.from_state(
                arg.store_state, planes_factory=planes_factory
            )
        worker = cls(shard, store, config, tracer, engine)
        if kind == "adopt":
            _mark_recovered(worker)
        elif kind == "state":
            worker.tracker.restore_state(arg.tracker_state)
            worker.verdict_stage.cache = dict(arg.verdicts)
        return worker

    def halo_band(self, boundary: "ShardMap") -> Dict[str, np.ndarray]:
        """This shard's boundary band of flagged rows, copied out.

        The rows another shard's halo could need
        (:meth:`ShardMap.boundary_mask`): their global ``ids``, cell
        ``keys`` and both endpoints, ``prev`` and ``cur``.  A lone shard
        has no consumer, and its band is empty.
        """
        store = self.store
        rows = np.empty(0, dtype=np.int64)
        keys = np.empty((0, store.dim), dtype=np.int64)
        if boundary.n_shards > 1:
            rows = store.flagged_rows()
            keys = store.index.keys_of_rows(rows)
            mask = boundary.boundary_mask(keys, self.shard)
            rows, keys = rows[mask], keys[mask]
        prev_plane, cur_plane = store.snapshot_arrays()
        return {
            "ids": np.asarray(store.row_ids())[rows],
            "keys": keys,
            "prev": prev_plane[rows],
            "cur": cur_plane[rows],
        }

    def run_tick(self, ctx: TickContext) -> TickContext:
        """Build the local transition, verdict it, record the codes."""
        self.transition_stage.run(ctx, self.tracer)
        self.verdict_stage.run(ctx, self.tracer)
        self.store.record_verdicts(ctx.verdicts)
        return ctx

    def close(self) -> None:
        if self.owns_engine:
            self.engine.close()


class _LoneShardOwners:
    """The device→shard map of a lone in-process shard: every id its
    store holds is shard 0's, so presence is read off the store's own id
    map and there is nothing to keep in step."""

    def __init__(self, worker: _ShardWorker) -> None:
        self._worker = worker

    def get(self, device: int) -> Optional[int]:
        return None if self._worker.store.row_if_present(device) is None else 0

    def lookup(self, ids) -> np.ndarray:
        return np.minimum(self._worker.store.rows_of(ids), 0)

    def _follow(self, *_) -> None:
        pass

    insert = delete = assign = _follow


class ShardedService(_FrontDoor):
    """Front door over ``topology_shards`` spatial shard workers.

    Owns the front door — :meth:`ingest`, :meth:`feed_measurements`,
    :meth:`end_tick`, validation, the detector bank, sinks and
    checkpoints — routes what it accepts to the owning shards, and
    produces one merged :class:`~repro.online.service.OnlineTick` per
    tick whose verdict map is identical (type, rule, witness) whatever
    the shard count, one included (:class:`OnlineCharacterizationService`).
    ``OnlineTick.transition`` is ``None``: there is no global transition
    object, only per-shard ones.

    Parameters
    ----------
    initial_positions:
        ``(n, d)`` QoS state at service start; devices get global ids
        ``0..n-1`` and are partitioned by the cell→shard map.
    config:
        The standard :class:`~repro.online.service.ServiceConfig`, read
        by the front door and by every shard.
    topology_shards:
        Number of spatial shards tiling the unit cube.
    topology_workers:
        Where each shard's command handler runs: ``"inline"`` (default)
        in this process, one shard after another; ``"process"`` in one
        supervised long-lived daemonic process per shard whose store
        partition lives in shared-memory planes — the wall-clock-scaling
        topology.
    min_shard_devices:
        When positive, collapse the topology so every shard starts with
        at least this many devices (a shard below it pays more in halo
        exchange and fixed per-tick overhead than it wins back); emits a
        :class:`RuntimeWarning` naming the collapsed shard count.
    engine:
        A characterization engine the in-process shards share (a process
        shard builds its own); :meth:`close` leaves it open.
    """

    _CHECKPOINT_TOPOLOGY = "sharded"

    def __init__(
        self,
        initial_positions: np.ndarray,
        config: Optional[ServiceConfig] = None,
        *,
        topology_shards: int = 4,
        topology_workers: str = "inline",
        min_shard_devices: int = 0,
        engine: Optional[CharacterizationEngine] = None,
        sinks: Iterable[Callable[[OnlineTick], None]] = (),
        detector: Optional[DetectorLike] = None,
        detection: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        cfg = config or ServiceConfig()
        pts = np.asarray(initial_positions, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise DimensionMismatchError(
                "initial_positions must be a non-empty (n, d) array"
            )
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
        shard_map = _shard_map(cfg, topology_shards, pts.shape[1])
        if shard_map.n_shards == 1:
            # One shard owns the whole fleet as given: no keying, no copy.
            inits = [("fresh", pts, None)]
        else:
            owners = shard_map.shard_of_keys(
                np.floor(pts / cfg.cell).astype(np.int64)
            )
            inits = [
                ("fresh", pts[ids], ids)
                for ids in (
                    np.flatnonzero(owners == k) for k in range(shard_map.n_shards)
                )
            ]
        self._start(
            cfg, shard_map, pts.shape[1], topology_workers, inits,
            sinks=sinks, tracer=tracer, engine=engine,
        )
        if detector is not None:
            # The bank observes the initial snapshot outside any span
            # (warm-up step 0, like the trace replayers' step 0).
            self._bank = as_bank(detector, *pts.shape, plane=detection)
            self._last_detection = self._bank.observe_batch(pts)
        elif detection is not None:
            raise ConfigurationError(
                "detection plane given without a detector spec or bank"
            )

    @classmethod
    def restore(
        cls,
        source,
        *,
        config: Optional[ServiceConfig] = None,
        topology_workers: str = "inline",
        sinks: Iterable[Callable[[OnlineTick], None]] = (),
        tracer: Optional[Tracer] = None,
        engine: Optional[CharacterizationEngine] = None,
    ) -> "ShardedService":
        """Rebuild a service of this class from a checkpoint path (or
        loaded :class:`~repro.online.recovery.Checkpoint`) of its own
        topology; see :func:`repro.online.recovery.restore_sharded_service`
        and :func:`~repro.online.recovery.restore_service`.

        The shards are born holding their checkpoint parts — a process
        child inherits its part through the fork — and the front door
        reinstates the rest.
        """
        from repro.online.recovery import Checkpoint, load_checkpoint

        ckpt = source if isinstance(source, Checkpoint) else load_checkpoint(source)
        topology = cls._CHECKPOINT_TOPOLOGY
        if ckpt.topology != topology:
            raise CheckpointError(
                f"checkpoint is from a {ckpt.topology} service with "
                f"{len(ckpt.parts)} part(s); {cls.__name__} restores "
                f"{topology} checkpoints"
            )
        parts, config = ckpt.parts, config or ckpt.config
        dim = int(np.asarray(parts[0].store_state["cur"]).shape[1])
        service = cls.__new__(cls)
        service._start(
            config, _shard_map(config, len(parts), dim), dim, topology_workers,
            [("state", part) for part in parts], sinks=sinks, tracer=tracer,
            engine=engine,
        )
        service._restore_front_door(ckpt)
        return service

    def _start(
        self, cfg, shard_map, dim, topology_workers, inits, *, sinks, tracer,
        engine=None,
    ) -> None:
        """Open the front door and bring up one shard per ``init``.

        Every process shard is forked before any ``ready`` is awaited, so
        the children build their stores concurrently while the front door
        builds its owner columns.  If any shard fails to start, every
        shard is shut down — children reaped, segments unlinked — and the
        first error is raised.  ``engine`` is shared by the in-process
        shards (the single service's one).
        """
        if topology_workers not in ("inline", "process"):
            raise ConfigurationError(
                f"topology_workers must be 'inline' or 'process', "
                f"got {topology_workers!r}"
            )
        self._dim = int(dim)
        self._topology_workers = topology_workers
        self._map = shard_map
        self._open_front_door(cfg, sinks=sinks, tracer=tracer)
        registry = self._tracer.registry
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
        self._handles: List[Any] = []
        self._board = _FrameBoard()
        self._planes_reader = SegmentReader()
        # Dirty insurance against shard respawns (see _tick_shards).
        self._insure = 0
        self._prev_dirty = DirtyRegion.empty()
        self._mover_points: List[DirtyRegion] = []
        self._mover_carry: List[DirtyRegion] = []
        self._shard_flagged: List[int] = [0] * shard_map.n_shards
        enabled = self._tracer.enabled
        failure: Optional[Exception] = None
        try:
            for shard, init in enumerate(inits):
                self._handles.append(
                    _ProcessShardHandle(shard, cfg, self._dim, shard_map, init, enabled)
                    if topology_workers == "process"
                    else _InlineShardHandle(
                        _ShardWorker.from_init(
                            shard, init, self._dim, cfg,
                            Tracer(registry, enabled=enabled), engine=engine,
                        ),
                        shard_map,
                    )
                )
            if shard_map.n_shards == 1 and topology_workers == "inline":
                self._owners = _LoneShardOwners(self._handles[0].inner)
            else:
                # The device→shard map: resident ids and each one's shard
                # (restored id columns mark free rows −1).
                cols = []
                for init in inits:
                    if init[0] == "fresh":
                        ids = init[2]
                        cols.append(
                            np.arange(init[1].shape[0]) if ids is None else ids
                        )
                    else:
                        ids = np.asarray(init[1].store_state["id_of"])
                        cols.append(ids[ids >= 0])
                self._owners = IdColumnMap(
                    np.concatenate(cols),
                    np.repeat(np.arange(len(cols)), [col.size for col in cols]),
                )
        except Exception as exc:
            failure = exc
        for handle in self._handles:
            try:
                handle.await_ready()
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            self.close()
            raise failure

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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
        shard = self._owners.get(int(device))
        if shard is None:
            raise ConfigurationError(f"device {device} is not in the service")
        return shard

    def shard_sizes(self) -> Tuple[int, ...]:
        """Resident device count per spatial shard."""
        return tuple(handle.n for handle in self._handles)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every shard (engine, child, planes) and the board."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.shutdown()
        self._board.close()
        self._planes_reader.close()

    # ------------------------------------------------------------------
    # Command phases and supervision
    # ------------------------------------------------------------------
    def _phase(
        self,
        msgs: List[Optional[tuple]],
        *,
        wire: Optional[List[Optional[tuple]]] = None,
        chaos: bool = False,
        span: Optional[str] = None,
    ) -> List[Any]:
        """One scatter/collect roundtrip; ``None`` skips that shard.

        All commands go down every pipe before any reply is awaited —
        process shards run the phase concurrently and the parent blocks
        on the slowest; in-parent shards execute at collect time, one
        after another.  A shard-side error is re-raised only after
        *every* outstanding reply is drained, so one failing shard never
        leaves another's reply stranded in a pipe to desynchronize the
        next phase.  ``wire``, when given, is what goes down each pipe
        instead: the same commands, some decorated with a chaos stall,
        while each handle remembers the plain one in ``msgs`` for a
        retry.  ``chaos`` routes the sends through the handles' dispatch
        fault hook (the verdict phase).  ``span`` times the sends — the
        collect is the shards' own work, which their stage spans time.
        """
        with self._tracer.span(span) if span else nullcontext():
            for handle, msg, sent in zip(self._handles, msgs, wire or msgs):
                if msg is None:
                    continue
                if chaos:
                    handle.send_with_chaos(msg)
                else:
                    handle.send(sent, canonical=msg)
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
                    handle.respawn()
                    self._note_respawn(shard)
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

    def _note_respawn(self, shard: int) -> None:
        self._insure = _INSURED_UNIONS
        self._counter_respawns.labels(shard=str(shard)).inc()

    def _fallback_inline(self, shard: int) -> None:
        """Degrade ``shard`` to an in-parent serial worker.

        The child is killed and its planes are hosted in-parent
        (:meth:`~repro.online.procshard._ProcessShardHandle.degrade`),
        with the in-flight command re-queued so the caller's ``recv``
        loop re-executes it locally.
        """
        handle = self._handles[shard]
        handle.kill()
        self._insure = _INSURED_UNIONS
        self._handles[shard] = handle.degrade(
            Tracer(self._tracer.registry, enabled=self._tracer.enabled)
        )
        self._degraded += 1
        self._gauge_degraded.set(self._degraded)

    def shard_states(self) -> List[Tuple[Dict, Dict, Dict]]:
        """Per-shard ``(store_state, tracker_state, verdict_cache)``.

        The checkpoint's parts, wherever the shards run: the ``state``
        command first rolls any deferred tick advance, so the captured
        states are those of completed ticks.  A process shard's reply
        leaves out its six store columns; they are copied here straight
        from its shm planes (the child idles between commands), so every
        returned array owns its memory and outlives :meth:`close`.
        """
        states = self._phase(
            [("state", self._tick, {}) for _ in range(self._map.n_shards)]
        )
        reader = self._planes_reader
        procs = [h for h in self._handles if isinstance(h, _ProcessShardHandle)]
        reader.evict_except([handle.plane_name for handle in procs])
        for handle, (store_state, _, _) in zip(self._handles, states):
            if handle in procs:
                seg = reader.segment(handle.plane_name)
                store_state.update(
                    read_store_columns(seg, handle.plane_capacity, self._dim)
                )
        return states

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(
        self, device: int, position: Sequence[float], flagged: bool = False
    ) -> int:
        """Admit a device on the shard owning its cell; returns the shard.

        A flagged join's position is folded into the front door's dirty
        insurance (see :meth:`_migrate`) as well as the shard's own.  Once
        the shard has admitted the device — it refuses a negative id or a
        position off the unit cube — the detector bank, if any, grows to
        the device's id and restarts its row from the join position
        (:meth:`~repro.detection.banks.DetectorBank.renew_rows`), so the
        next frame covers the id and the device inherits no predecessor's
        baseline.  A refused join changes nothing.
        """
        device = int(device)
        if self._owners.get(device) is not None:
            raise ConfigurationError(f"device {device} is already stored")
        pos = np.asarray(position, dtype=float)
        bank = self._bank
        if bank is not None:
            bank.check_renewal([device])
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
        if bank is not None:
            bank.renew_rows(np.array([device]), pos[None, :])
        if flagged:
            self._mover_points.append(
                DirtyRegion.of_points(pos[None, :], self._config.cell)
            )
        self._owners.insert([device], [shard])
        return shard

    def leave(self, device: int) -> int:
        """Evict a device from its owning shard; returns the shard.

        Scan, then evict, as :meth:`_migrate` does: a flagged device's
        ``(prev, cur)`` endpoints come back from a scan-only
        ``endpoints`` command and are folded into the front door's dirty
        insurance *before* ``leave`` evicts the row.  If the shard's
        worker dies after the evict — before its reply, or before the
        next halo phase — the store's own record of those cells dies
        with it, and a resent ``leave`` finds no row.
        """
        shard = self.shard_of(device)
        payload = {"device": int(device)}
        ends = self._phase_one(shard, ("endpoints", self._tick + 1, payload))
        if ends is not None:
            self._mover_points.append(DirtyRegion.of_points(ends, self._config.cell))
        self._phase_one(shard, ("leave", self._tick + 1, payload))
        self._owners.delete([int(device)])
        return shard

    def _phase_one(self, shard: int, msg: tuple) -> Any:
        """A single-shard roundtrip (membership commands)."""
        msgs: List[Optional[tuple]] = [None] * self._map.n_shards
        msgs[shard] = msg
        return self._phase(msgs)[shard]

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------
    def _apply_segment(self, segment: List[QosUpdate]) -> int:
        """Apply one duplicate-free run, one row batch per owning shard.

        Routing and input validation happen here at the front door, on
        whole id vectors; the ``events`` commands carry *global device
        ids* — row numbers are a private concern of whichever worker
        hosts the partition.
        """
        count = len(segment)
        ids = np.fromiter(
            (update.device for update in segment), dtype=np.int64, count=count
        )
        shards = self._owners.lookup(ids)
        keep, positions = self._screen_segment(segment, shards >= 0)
        if positions is None:
            return 0
        flags = np.fromiter(
            (update.flagged for update in segment), dtype=bool, count=count
        )[keep]
        ids, shards = ids[keep], shards[keep]
        msgs: List[Optional[tuple]] = [None] * self._map.n_shards
        for shard in np.unique(shards).tolist():
            take = shards == shard
            msgs[shard] = (
                "events",
                self._tick + 1,
                {"ids": ids[take], "positions": positions[take], "flags": flags[take]},
            )
        self._phase(msgs)
        return int(keep.size)

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def _migrate(self) -> int:
        """Move devices whose current cell left their shard's box.

        Runs after the tick's updates are applied (the source shard's
        tracker has already marked the crossing move's cells, and they
        enter the global dirty union) and before the halo exchange, so
        every published row lies in its publisher's own box.  The
        handover carries each mover's ``prev`` endpoint — a plain
        ``join`` would restart the trajectory as stationary and erase
        the very move that crossed the border.

        Two idempotent roundtrips.  ``movers`` is scan-only and replies
        one columnar record per shard (``dest``, ``ids``, ``prev``,
        ``cur``, ``flags``, ``codes``), so the parent holds every
        handover before any store mutates.  One ``migrate`` command per
        shard then carries its ``out`` ids and its ``in`` record: the
        shard evicts (leave-if-present) and admits (admit-if-absent),
        with no ordering across shards, and either half replays safely
        after a kill+respawn at any point.  The parent also folds every
        mover's trajectory endpoints as dirty insurance for this tick
        and the next (``_mover_points`` / ``_mover_carry``): if the
        *source* shard is respawned later this tick, the departed
        device exists in neither of its recovered planes, so
        conservative plane-scan invalidation alone would miss the
        positions its move touched.  Flagged joins and leaves ride the
        same insurance.
        """
        tick = self._tick
        n_shards = self._map.n_shards
        replies = self._phase([("movers", tick, {})] * n_shards)
        moves = sum(int(rec["ids"].shape[0]) for rec in replies)
        if not moves:
            return 0
        src = np.repeat(
            np.arange(n_shards), [rec["ids"].shape[0] for rec in replies]
        )
        merged = {
            field: np.concatenate([rec[field] for rec in replies])
            for field in replies[0]
        }
        ids, dest = merged["ids"], merged["dest"]
        self._owners.assign(ids, dest)
        self._mover_points.append(
            DirtyRegion.of_points(
                np.concatenate([merged["prev"], merged["cur"]]), self._config.cell
            )
        )
        msgs: List[Optional[tuple]] = [None] * n_shards
        for shard in range(n_shards):
            out = ids[src == shard]
            take = dest == shard
            if not out.size and not take.any():
                continue
            admit = {
                field: col[take]
                for field, col in merged.items()
                if field != "dest"
            }
            msgs[shard] = ("migrate", tick, {"out": out, "in": admit})
        self._phase(msgs)
        return moves

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def _gather_current(self, rows: int) -> np.ndarray:
        """Current positions gathered into a ``rows``-row, id-indexed frame."""
        frame = np.zeros((rows, self._dim), dtype=float)
        for ids, positions in self._query("frame"):
            keep = ids < rows
            frame[ids[keep]] = positions[keep]
        return frame

    def feed_snapshot(
        self, current: np.ndarray, flags: Iterable[bool]
    ) -> OnlineTick:
        """One tick from a full snapshot + flag vector, fanned out by id.

        ``current`` is indexed by *global device id* and must cover the
        dense id range ``0..n-1`` — the fixed-fleet contract the
        snapshot drivers (monitor, trace replay, load generator) already
        satisfy.  Churned populations with id gaps flow through
        :meth:`ingest` / :meth:`join` / :meth:`leave` instead.  The
        frame, one row per flag, passes the configured ``validation``
        mode before the frame board or any shard is touched.
        """
        self._tick_clock.start(restart=True)
        flags_arr = np.asarray(
            flags if isinstance(flags, np.ndarray) else list(flags),
            dtype=bool,
        )
        current = self._validate_frame(
            np.asarray(current, dtype=float), flags_arr.shape[0]
        )
        return self._feed_frame(current, flags_arr)

    def _apply_frame(self, current: np.ndarray, flags: np.ndarray) -> int:
        """Hand the frame to every shard; each applies its residents' rows.

        An in-process shard takes the arrays themselves; process shards
        read them off the shared frame board, written once per frame.
        """
        board: Dict[str, Any] = {}
        msgs: List[Optional[tuple]] = []
        with self._tracer.span("frame-roundtrip"):
            for handle in self._handles:
                if isinstance(handle, _InlineShardHandle):
                    payload = {"cur": current, "flags": flags}
                else:
                    if not board:
                        name, rows, _ = self._board.publish(current, flags)
                        board = {"board": name, "rows": rows, "live": [name]}
                    payload = board
                msgs.append(("frame", self._tick + 1, payload))
        try:
            counts = self._phase(msgs, span="frame-roundtrip")
        except DimensionMismatchError:
            self._reject("dimension-mismatch")
            raise
        return sum(int(count) for count in counts)

    # ------------------------------------------------------------------
    # Tick processing
    # ------------------------------------------------------------------
    def _run_tick(self, applied: int, tracer: Tracer) -> OnlineTick:
        """Migrate, exchange halos, run every shard and merge the results."""
        with tracer.span("shard-migrate"):
            self._migrate()
        results, dirty_cells, halo_bytes = self._tick_shards(tracer)
        verdicts: Dict[int, Characterization] = {}
        flagged: List[int] = []
        recomputed: List[int] = []
        reused: List[int] = []
        families_recomputed = 0
        stage_seconds: Dict[str, float] = {}
        with tracer.span("verdict-merge"):
            for shard, result in enumerate(results):
                verdicts.update(result["verdicts"])
                flagged.extend(result["flagged"])
                recomputed.extend(result["recomputed"])
                reused.extend(result["reused"])
                families_recomputed += result["families_recomputed"]
                self._shard_flagged[shard] = result["n_targets"]
                shard_label = str(shard)
                self._gauge_shard_devices.labels(shard=shard_label).set(result["n"])
                self._gauge_shard_flagged.labels(shard=shard_label).set(
                    result["n_targets"]
                )
                for stage, seconds in result["stage_seconds"].items():
                    self._hist_shard_stage.labels(
                        shard=shard_label, stage=stage
                    ).observe(seconds)
                    stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
            if halo_bytes:
                self._counter_halo_bytes.inc(halo_bytes)
            tick = OnlineTick(
                tick=self._tick,
                applied=applied,
                flagged=tuple(sorted(flagged)),
                recomputed=tuple(sorted(recomputed)),
                reused=tuple(sorted(reused)),
                dirty_cells=dirty_cells,
                verdicts=verdicts,
                transition=None,
                families_recomputed=families_recomputed,
                stage_seconds=stage_seconds,
                halo_bytes=halo_bytes,
            )
        for stage, seconds in tracer.drain_stages().items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
        return tick

    def _tick_shards(
        self, tracer: Tracer
    ) -> Tuple[List[Dict[str, Any]], int, int]:
        """The tick's halo barrier and verdicts, bands in the commands.

        The ``halo`` phase makes every shard reply with its dirty region
        and its boundary band (:meth:`_ShardWorker.halo_band`); the
        parent unions the regions and, for each consumer, keeps the band
        rows within ``halo_rings`` cells outside the consumer's box.  The
        ``verdict`` phase ships those rows inside each consumer's command,
        so the command is self-contained — a respawned consumer's resent
        one carries its band, and no shard reads another's memory — and
        each shard builds its local transition from its flagged rows plus
        the band, O(flagged) (:class:`HaloTransitionBuildStage`).

        For two unions after any respawn or degrade, parent-side
        insurance widens the union beyond the shards' reports: the
        endpoints of this tick's and the last tick's movers and flagged
        joins / leaves (a respawned shard has no trace of departed
        devices), and the previous tick's whole union, a superset of the
        carry the dead child's tracker lost.  Without a respawn the
        shards' regions already hold every relevant endpoint, so the
        union — and the recompute set — equals the single service's.
        """
        tick = self._tick
        n_shards = self._map.n_shards
        dim = self._dim
        with tracer.span("halo-exchange"):
            # The halo-delay fault is drawn here, once, in the parent (a
            # forked child's injector counts would be invisible), and
            # decorates only the command on the wire: the shard stalls its
            # reply, and a retry after a missed deadline replays the plain
            # command.  A lone shard has no band to delay.
            halo = ("halo", tick, {})
            wire = [halo] * n_shards
            injector = get_injector()
            if injector.active and n_shards > 1:
                for shard in range(n_shards):
                    stall = injector.halo_publish(tick, shard)
                    if stall:
                        wire[shard] = _decorated(halo, _hang=stall)
            replies = self._phase([halo] * n_shards, wire=wire)
            parts = [region for region, _ in replies]
            if self._insure:
                parts += [self._prev_dirty, *self._mover_points, *self._mover_carry]
                self._insure -= 1

            halo_rings = self._map.halo_rings
            halo_bytes = 0
            empty = (np.empty(0, dtype=np.int64), np.empty((0, dim)), np.empty((0, dim)))
            halos: List[Tuple[np.ndarray, ...]] = []
            for consumer in range(n_shards):
                # Each consumer's (ids, prev, cur), peer by peer.
                picks = [empty]
                for peer, (_, band) in enumerate(replies):
                    if peer == consumer or not band["ids"].size:
                        continue
                    dist = self._map.box_distance(band["keys"], consumer)
                    take = np.flatnonzero((dist > 0) & (dist <= halo_rings))
                    halo_bytes += int(take.size) * dim * 16
                    picks.append(tuple(band[f][take] for f in ("ids", "prev", "cur")))
                halos.append(tuple(np.concatenate(col) for col in zip(*picks)))
        with tracer.span("dirty-union"):
            dirty = DirtyRegion.union(parts)
            # The cells are de-duplicated once, here, and travel with the
            # region, so no shard repeats the sort.
            dirty_cells = len(dirty.cells)
        self._prev_dirty = dirty
        self._mover_carry = self._mover_points
        self._mover_points = []

        results = self._phase(
            [
                ("verdict", tick, {"halo": halos[shard], "dirty": dirty})
                for shard in range(n_shards)
            ],
            chaos=True,
            span="shard-send",
        )
        return results, dirty_cells, halo_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, shards={self._map.n_shards}, "
            f"ticks={self._tick}, queued={len(self._queue)})"
        )


class OnlineCharacterizationService(ShardedService):
    """The single service: one in-process shard holding the whole fleet.

    The paper's locality result makes one shard with an empty halo the
    whole computation, so the single service is a :class:`ShardedService`
    fixed at one inline shard — the same front door, command protocol and
    tick path.  It exposes that shard's ``store``, ``tracker`` and
    ``engine``, tags its checkpoints ``"single"``
    (:func:`repro.online.recovery.restore_service` restores them), and
    takes an optional shared ``engine`` (e.g. a
    :class:`~repro.network.monitor.NetworkMonitor`'s), which
    :meth:`close` leaves open.  Devices get ids ``0..n-1``; the other
    parameters are :class:`ShardedService`'s.
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
        super().__init__(
            initial_positions, config, topology_shards=1, engine=engine,
            sinks=sinks, detector=detector, detection=detection, tracer=tracer,
        )

    @classmethod
    def restore(cls, source, **kwargs) -> "OnlineCharacterizationService":
        """:meth:`ShardedService.restore`, with its one shard in process."""
        if kwargs.get("topology_workers", "inline") != "inline":
            raise ConfigurationError("the single service's shard runs inline")
        return super().restore(source, **kwargs)

    @property
    def store(self) -> DeviceStateStore:
        """The columnar device-state store of the one shard."""
        return self._handles[0].inner.store

    @property
    def tracker(self) -> DirtyRegionTracker:
        """The dirty-region tracker accumulating this tick's region."""
        return self._handles[0].inner.tracker

    @property
    def engine(self) -> CharacterizationEngine:
        """The characterization engine recomputations route through."""
        return self._handles[0].inner.engine
