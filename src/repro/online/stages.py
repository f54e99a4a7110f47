"""The shard side of the online tick as explicit pipeline stages.

A shard's spans are *stage objects* with an array-in/array-out contract
over a shared :class:`TickContext`.  There is one tick path: each
spatial shard of a :class:`~repro.online.sharded.ShardedService` — the
single service is the one-shard, in-process case — runs the
:class:`IndexUpdateStage` on its input, and the halo-aware transition
build (:class:`~repro.online.sharded.HaloTransitionBuildStage`) then the
:class:`VerdictStage` at its verdict command.  The front door
(:class:`~repro.online.service._FrontDoor`), of which there is one, times
its own ``ingest-drain``, ``detect`` and ``sinks`` spans.

Stage contract
--------------
A stage is constructed once with its long-lived collaborators (store,
tracker, engine, config) and holds whatever cross-tick state it needs
(the verdict cache).  Per tick it receives one :class:`TickContext` and
fills in its outputs:

====================  ====================================  ====================================================
stage                 reads                                 writes
====================  ====================================  ====================================================
``transition-build``  store planes, ``dirty``, halo band    ``flagged, affected, transition, key_of, verdict_targets``
``verdict``           ``transition, verdict_targets,``      ``recompute, reused, verdicts, families_recomputed``
                      ``affected, key_of``                  (``verdicts`` in global ids, built by the engine)
====================  ====================================  ====================================================

The transition build also opens the ``dirty-region`` span of the
fan-out from the tick's dirty region to the affected verdict targets.
The verdict stage hands ``key_of`` to the engine, which builds each
verdict once in global ids.
Each stage opens its own tracer span *only when it actually works*, so
quiet ticks skip ``transition-build`` / ``verdict``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.transition import Transition
from repro.core.types import Characterization
from repro.obs.trace import Tracer
from repro.online.dirty import DirtyRegion

__all__ = [
    "IndexUpdateStage",
    "TickContext",
    "VerdictStage",
]


@dataclass
class TickContext:
    """The array-valued blackboard one shard's tick stages read and write.

    ``flagged``, ``affected``, ``recompute``, ``reused`` and
    ``verdict_targets`` are in *transition id space*: the local row of
    the shard's transition arrays.  ``key_of`` maps a local row to its
    global device id, the key of the verdict cache and of ``verdicts``.
    ``verdict_targets`` are the rows the shard owes a verdict (its own
    flagged devices; halo participants are characterized by their
    owners).  ``dirty`` is the tick's
    :class:`~repro.online.dirty.DirtyRegion` (its ``cells`` are the
    dirty cell keys): the front door's union of every shard's region,
    cut to the boxes within ``halo_rings`` cells of this shard's box.

    The context itself never crosses a process boundary: a shard worker
    builds it from the ``verdict`` command's payload (tick plus its cut
    of the dirty-region union) and replies only the plain result dict
    distilled by :func:`repro.online.procshard._ctx_result`, so every
    field here may hold arbitrarily large arrays without ever being
    pickled down a pipe.
    """

    tick: int
    flagged: Tuple[int, ...] = ()
    dirty: DirtyRegion = field(default_factory=DirtyRegion.empty)
    affected: Set[int] = field(default_factory=set)
    transition: Optional[Transition] = None
    key_of: List[int] = field(default_factory=list)
    verdict_targets: Tuple[int, ...] = ()
    recompute: List[int] = field(default_factory=list)
    reused: List[int] = field(default_factory=list)
    verdicts: Dict[int, Characterization] = field(default_factory=dict)
    families_recomputed: int = 0


class IndexUpdateStage:
    """``index-update``: diff one frame against the store and apply it.

    The frame path's shard-side stage: the id-indexed frame is aligned
    with the store's rows, and rows whose position or flag bit differs
    are applied as one vectorized batch and marked on the dirty tracker.
    Returns the number of rows applied.
    """

    name = "index-update"

    def __init__(self, owner) -> None:
        self._owner = owner

    def apply_frame(
        self, frame: np.ndarray, flags: np.ndarray, tracer: Tracer
    ) -> int:
        from repro.online.procshard import _gather_frame
        from repro.online.replay import diff_rows

        store = self._owner.store
        with tracer.span(self.name):
            current, flags = _gather_frame(
                np.asarray(store.row_ids()), frame, flags
            )
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


class VerdictStage:
    """``verdict``: plan the recompute set and characterize it.

    Owns the per-device verdict cache (the incremental path serves
    unaffected devices from it).  Ids seen by the engine are
    transition-space; the engine builds the verdicts in global ids
    through ``ctx.key_of``, so the cache stays in global id space across
    halo churn and migrations.  Its span covers the plan, the engine run
    and the cache update.
    """

    name = "verdict"

    def __init__(self, owner, *, incremental: bool) -> None:
        self._owner = owner
        self._incremental = bool(incremental)
        self.cache: Dict[int, Characterization] = {}

    def run(self, ctx: TickContext, tracer: Tracer) -> None:
        targets = ctx.verdict_targets
        if not targets:
            self.cache = {}
            return
        key_of = ctx.key_of
        cache = self.cache
        with tracer.span(self.name):
            keys = [key_of[j] for j in targets]
            if self._incremental:
                affected = ctx.affected
                ctx.recompute = [
                    j
                    for j, key in zip(targets, keys)
                    if j in affected or key not in cache
                ]
                recompute_set = set(ctx.recompute)
                ctx.reused = [j for j in targets if j not in recompute_set]
            else:
                ctx.recompute = list(targets)
            fresh: Dict[int, Characterization] = {}
            if ctx.recompute:
                run = self._owner.engine.characterize_run(
                    ctx.transition, devices=ctx.recompute, key_of=key_of
                )
                fresh = run.verdicts
                ctx.families_recomputed = run.families_recomputed
            ctx.verdicts = self.cache = {
                key: fresh[key] if key in fresh else cache[key] for key in keys
            }
