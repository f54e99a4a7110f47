"""The online tick as explicit pipeline stages.

The service's ``end_tick`` used to be one ~300-line method; the spans it
emitted (``ingest-drain``, ``detect``, ``index-update``,
``dirty-region``, ``transition-build``, ``verdict``, ``sinks``) were
names painted onto inline code.  This module makes each span a *stage
object* with an array-in/array-out contract over a shared
:class:`TickContext`, so the same stages can be composed two ways:

* :class:`~repro.online.service.OnlineCharacterizationService` runs one
  pipeline over the whole population (exactly the old behaviour — the
  refactor is observationally identical, including which spans a tick
  emits);
* :class:`~repro.online.sharded.ShardedService` runs one pipeline *per
  spatial shard*, swapping only the transition-build stage for a
  halo-aware variant and keying the verdict cache by global device id.

Stage contract
--------------
A stage is constructed once with its long-lived collaborators (store,
tracker, engine, config) and holds whatever cross-tick state it needs
(the transition chain, the verdict cache, the motion-cache carry).  Per
tick it receives one :class:`TickContext` and fills in its outputs:

====================  ===============================================  ================================================
stage                 reads                                            writes
====================  ===============================================  ================================================
``dirty-region``      store flags, tracker cells                       ``flagged, dirty_cells, affected, family_dirty``
``transition-build``  store planes, ``flagged``                        ``transition, chain_next``
``verdict``           ``transition, flagged, affected, family_dirty``  ``recompute, reused, verdicts, families_*``
``sinks``             the finished ``OnlineTick``                      (side effects only)
====================  ===============================================  ================================================

Each stage opens its own tracer span *only when it actually works*, so
the per-tick ``stage_seconds`` breakdown keeps exactly the keys the
inline code produced (quiet ticks still skip ``transition-build`` /
``verdict``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.neighborhood import MotionCache
from repro.core.transition import Transition
from repro.core.types import Characterization
from repro.detection.banks import BankDetection, DetectorBank, DetectorLike, as_bank
from repro.obs.trace import Tracer

__all__ = [
    "DetectStage",
    "DirtyRegionStage",
    "IndexUpdateStage",
    "IngestDrainStage",
    "SinkStage",
    "TickContext",
    "TickPipeline",
    "TransitionBuildStage",
    "VerdictStage",
    "remap_characterization",
]


@dataclass
class TickContext:
    """The array-valued blackboard one tick's stages read and write.

    ``flagged``, ``affected``, ``recompute`` and ``reused`` are in
    *transition id space*: for the single service that is the global
    device id (its transition is row-indexed, so ids are store rows),
    for a shard pipeline it is the local row of the shard's
    transition arrays and ``key_of`` carries the local→global id map
    (``None`` means identity).  ``verdicts`` is always keyed by the
    *cache key* (global id).  ``dirty_cells`` is a sorted ``(k, d)``
    int64 array of cell keys.  ``family_dirty`` is the subset of
    ``affected`` whose motion families are invalidated; ``None`` where
    the stage that closes the cells does not compute it (the motion
    carry then stays off).

    The context itself never crosses a process boundary: a shard worker
    builds it from the ``verdict`` command's payload (tick plus the
    global dirty-cell union) and replies only the plain result dict
    distilled by :func:`repro.online.procshard._ctx_result`, so every
    field here may hold arbitrarily large arrays without ever being
    pickled down a pipe.
    """

    tick: int
    applied: int = 0
    flagged: Tuple[int, ...] = ()
    dirty_cells: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0), dtype=np.int64)
    )
    affected: Set[int] = field(default_factory=set)
    family_dirty: Optional[Set[int]] = None
    transition: Optional[Transition] = None
    chain_next: Optional[np.ndarray] = None
    allow_carry: bool = True
    key_of: Optional[np.ndarray] = None
    verdict_targets: Optional[Tuple[int, ...]] = None
    recompute: List[int] = field(default_factory=list)
    reused: List[int] = field(default_factory=list)
    verdicts: Dict[int, Characterization] = field(default_factory=dict)
    families_recomputed: int = 0
    families_reused: int = 0

    def key(self, device: int) -> int:
        """Map a transition-space id to its stable cache key."""
        if self.key_of is None:
            return device
        return int(self.key_of[device])


def remap_characterization(
    verdict: Characterization, key_of: np.ndarray
) -> Characterization:
    """Rewrite a verdict from transition-local ids to global ids.

    A shard's transition numbers devices by local row; the verdict it
    produces — including the witness motions, which are frozensets of
    device ids — must leave the shard in the global id space or two
    shards' reports could not be compared, merged or checkpointed.
    """
    witness = verdict.witness
    if witness is not None:
        witness = tuple(
            frozenset(int(key_of[j]) for j in motion) for motion in witness
        )
    return replace(
        verdict, device=int(key_of[verdict.device]), witness=witness
    )


class IngestDrainStage:
    """``ingest-drain``: empty the bounded queue into the store.

    The queue and its backpressure policy are service-level API; the
    stage wraps the service's drain callable so the pipeline owns the
    span and the loop, not the queue semantics.
    """

    name = "ingest-drain"

    def __init__(self, drain: Callable[[], int], pending: Callable[[], int]) -> None:
        self._drain = drain
        self._pending = pending

    def run(self, tracer: Tracer) -> None:
        if not self._pending():
            return
        with tracer.span(self.name):
            while self._pending():
                self._drain()


class DetectStage:
    """``detect``: the in-service detector bank and its latest detection.

    :meth:`attach` builds the bank and lets it observe the initial
    snapshot (warm-up step 0, like the trace replayers' step 0) outside
    any span; :meth:`observe` runs it over one raw frame per tick.
    """

    name = "detect"

    def __init__(self) -> None:
        self.bank: Optional[DetectorBank] = None
        self.last: Optional[BankDetection] = None

    def attach(
        self,
        detector: Optional[DetectorLike],
        detection: Optional[str],
        initial: np.ndarray,
    ) -> None:
        """Build the bank for ``initial``'s ``(n, d)`` fleet and warm it."""
        if detector is not None:
            self.bank = as_bank(
                detector, initial.shape[0], initial.shape[1], plane=detection
            )
            self.last = self.bank.observe_batch(initial)
        elif detection is not None:
            raise ConfigurationError(
                "detection plane given without a detector spec or bank"
            )

    def require_bank(self) -> DetectorBank:
        bank = self.bank
        if bank is None:
            raise ConfigurationError(
                "feed_measurements needs a detector; construct the service "
                "with detector=DetectorSpec(...)"
            )
        return bank

    def observe(self, frame: np.ndarray, tracer: Tracer) -> BankDetection:
        bank = self.require_bank()
        with tracer.span(self.name):
            self.last = bank.observe_batch(frame)
        return self.last


class IndexUpdateStage:
    """``index-update``: diff one snapshot against the store and apply it.

    The bridge the snapshot-shaped drivers share: rows whose position
    or flag bit differs from the owner's store are applied as one
    vectorized batch and marked on the dirty tracker.  ``current`` and
    ``flags`` must be aligned with the store's allocated rows.  Returns
    the number of rows applied.
    """

    name = "index-update"

    def __init__(self, owner) -> None:
        self._owner = owner

    def apply_diff(
        self, current: np.ndarray, flags, tracer: Tracer
    ) -> int:
        from repro.online.replay import diff_rows

        store = self._owner.store
        with tracer.span(self.name):
            rows, positions, new_flags = diff_rows(
                store.current_positions(),
                current,
                store.flag_vector(),
                flags,
            )
            if rows.size:
                applied = store.apply_rows(rows, positions, new_flags)
                self._owner.tracker.mark_batch(
                    applied, was_relevant=applied.was_flagged
                )
            return int(rows.size)


class DirtyRegionStage:
    """``dirty-region``: close the tracker and fan out to affected rows.

    Only the flagged rows — the verdict targets — are tested against
    the dirty cells; the unflagged bulk near them is never visited.

    ``owner`` is any object with ``store`` / ``tracker`` properties (a
    service or a shard worker); stages read through it so a checkpoint
    restore that swaps the owner's store is seen by every stage.
    """

    name = "dirty-region"

    def __init__(self, owner) -> None:
        self._owner = owner

    def run(self, ctx: TickContext, tracer: Tracer) -> None:
        store = self._owner.store
        ctx.flagged = store.flagged_devices()
        with tracer.span(self.name):
            tracker = self._owner.tracker
            ctx.dirty_cells, ctx.affected = tracker.finish_tick(store)
            ctx.family_dirty = tracker.family_dirty


class TransitionBuildStage:
    """``transition-build``: freeze the snapshot pair into a transition.

    Owns the cross-tick perf state of the build: the *chained* current
    copy (steady-state ticks pay one ``(n, d)`` copy, not two — the
    previous tick's frozen ``cur`` is this tick's ``prev`` by object
    identity) and the previous transition, which gates the verdict
    stage's motion carry.
    """

    name = "transition-build"

    def __init__(self, owner, r: float, tau: int) -> None:
        self._owner = owner
        self._r = float(r)
        self._tau = int(tau)
        self.last_transition: Optional[Transition] = None
        self.chain_cur: Optional[np.ndarray] = None
        self.chain_serial: Optional[Tuple[int, int]] = None

    def reset(self) -> None:
        """Drop all cross-tick perf state (checkpoint restore path)."""
        self.last_transition = None
        self.chain_cur = None
        self.chain_serial = None

    def run(self, ctx: TickContext, tracer: Tracer) -> None:
        if not ctx.flagged:
            return
        store = self._owner.store
        with tracer.span(self.name):
            prev_view, cur_view = store.snapshot_arrays()
            # One read-only copy freezes the current positions for the
            # published transition (ticks retain them; live views would
            # be corrupted by the next update).  The prev side chains
            # the previous tick's frozen cur — same content as the
            # store's prev plane, zero extra copy — unless the store
            # rolled an unexpected number of times in between, or a
            # join/leave vacated or recycled a row since the copy.
            cur_arr = cur_view.copy()
            cur_arr.flags.writeable = False
            chained = (
                self.chain_cur is not None
                and (store.tick_serial, store.membership_serial)
                == self.chain_serial
                and self.chain_cur.shape == prev_view.shape
            )
            if chained:
                prev_arr = self.chain_cur
            else:
                prev_arr = prev_view.copy()
                prev_arr.flags.writeable = False
            ctx.chain_next = cur_arr
            ctx.transition = Transition.from_views(
                prev_arr, cur_arr, ctx.flagged, self._r, self._tau
            )

    def advance(self, ctx: TickContext) -> None:
        """Roll the store and the chain after the tick's verdicts land."""
        store = self._owner.store
        store.advance_tick()
        self.chain_cur = ctx.chain_next
        self.chain_serial = (store.tick_serial, store.membership_serial)
        self.last_transition = ctx.transition


class VerdictStage:
    """``verdict``: plan the recompute set, carry families, characterize.

    Owns the per-device verdict cache (the incremental path serves
    unaffected devices from it) and the cross-tick
    :class:`~repro.core.neighborhood.MotionCache` carry.  Ids seen by
    the engine are transition-space; the cache is keyed through
    ``ctx.key`` so a sharded pipeline can keep it in global id space
    across halo churn and migrations.
    """

    name = "verdict"

    def __init__(
        self,
        owner,
        *,
        incremental: bool,
        reuse_motions: bool,
        transition_source: TransitionBuildStage,
    ) -> None:
        self._owner = owner
        self._incremental = bool(incremental)
        self._reuse_motions = bool(reuse_motions)
        self._transitions = transition_source
        self.cache: Dict[int, Characterization] = {}
        self.last_cache: Optional[MotionCache] = None

    def reset(self) -> None:
        """Drop the motion-cache carry (checkpoint restore path)."""
        self.last_cache = None

    def run(self, ctx: TickContext, tracer: Tracer) -> None:
        # ``targets`` is who this stage owes a verdict: everything
        # flagged for the single service, the *owned* flagged subset for
        # a shard pipeline (halo devices participate in the transition
        # but are characterized by their owning shard).
        targets = (
            ctx.flagged
            if ctx.verdict_targets is None
            else ctx.verdict_targets
        )
        if not targets:
            self.last_cache = None
            self.cache = {}
            return
        transition = ctx.transition
        if self._incremental:
            ctx.recompute = [
                j
                for j in targets
                if j in ctx.affected or ctx.key(j) not in self.cache
            ]
            recompute_set = set(ctx.recompute)
            ctx.reused = [j for j in targets if j not in recompute_set]
        else:
            ctx.recompute = list(targets)
        # Cross-tick motion-family carry: families see only the 2r ball,
        # half the verdicts' 4r reach, so the family-clean set (outside
        # the tighter family_rings band) is strictly larger than the
        # verdict-clean set — devices whose verdicts must be recomputed
        # still reuse their own and their neighbours' families.
        reuse_effective = (
            self._incremental and self._reuse_motions and ctx.allow_carry
        )
        carry: Optional[MotionCache] = None
        family_dirty = ctx.family_dirty
        if (
            reuse_effective
            and family_dirty is not None
            and self.last_cache is not None
            and self._transitions.last_transition is not None
        ):
            # The family band comes from the dirty-region fan-out; its
            # ids are store rows, which are transition ids here (the
            # carry runs on the single service only — shard pipelines
            # gate it off).
            carry_clean = [j for j in targets if j not in family_dirty]
            carry = MotionCache.carry_from(
                self.last_cache, transition, carry_clean
            )
        if ctx.recompute:
            engine = self._owner.engine
            with tracer.span(self.name):
                run = engine.characterize_run(
                    transition, devices=ctx.recompute, cache=carry
                )
            fresh = run.verdicts
            ctx.families_recomputed = run.families_recomputed
            ctx.families_reused = run.families_reused
            self.last_cache = (
                engine.motion_cache if reuse_effective else None
            )
        else:
            fresh = {}
            self.last_cache = carry
        key_of = ctx.key_of
        merged: Dict[int, Characterization] = {}
        for j in targets:
            if j in fresh:
                verdict = fresh[j]
                if key_of is not None:
                    verdict = remap_characterization(verdict, key_of)
                merged[ctx.key(j)] = verdict
            else:
                merged[ctx.key(j)] = self.cache[ctx.key(j)]
        ctx.verdicts = merged
        self.cache = merged


class SinkStage:
    """``sinks``: fan the finished tick out to every attached sink."""

    name = "sinks"

    def __init__(self, sinks: List[Callable]) -> None:
        self.sinks = sinks

    def run(self, tick, tracer: Tracer) -> None:
        with tracer.span(self.name):
            for sink in self.sinks:
                sink(tick)


class TickPipeline:
    """An ordered run of the core per-tick stages over one context."""

    def __init__(self, stages: Sequence[object]) -> None:
        self.stages = list(stages)

    def run(self, ctx: TickContext, tracer: Tracer) -> TickContext:
        for stage in self.stages:
            stage.run(ctx, tracer)
        return ctx
