"""Pluggable execution backends for the characterization engine.

A backend answers one question: given a transition and a list of flagged
devices, produce the verdict of every device.  The *serial* backend is the
seed behaviour — one :class:`~repro.core.characterize.Characterizer`, one
pass.  Characterization is embarrassingly parallel across devices (the
paper's locality result is precisely that device ``j``'s verdict depends
only on trajectories within ``4r`` of ``j``), so the parallel backend
needs no worker coordination:

* ``process`` (:class:`WorkerPoolBackend`) keeps a **persistent** pool of
  worker processes alive across :meth:`~ExecutionBackend.run` calls.
  Snapshot arrays are published through a double-buffered
  :mod:`multiprocessing.shared_memory` ring
  (:class:`~repro.ipc.SnapshotRing`): two
  *current*-snapshot slots written alternately plus a *previous*-snapshot
  fallback, so a steady-state tick — whose ``prev`` side is, by object
  identity, the array published as ``cur`` one run earlier — writes
  exactly one ``(n, d)`` copy into shared memory.  A tick then ships only
  row indices (device ids, the flagged set, the carry-clean set) down the
  pipes — never a pickled :class:`~repro.core.transition.Transition` and
  never a second snapshot copy.  Workers attach the segments *zero-copy*
  (read-only views, :meth:`Transition.from_views`); a sequence gate makes
  that safe: cross-task state (the carried cache, the adoptable cur-side
  index) is only reused when the task is the immediate successor of the
  one that produced it, because one run later the ring overwrites the
  slot that task's ``prev`` views point into.  Each worker keeps a
  private :class:`~repro.core.neighborhood.MotionCache` across ticks,
  re-seeded per tick via :meth:`MotionCache.carry_from` with the caller's
  clean set (devices outside the dirty cell-rings), which extends the
  online service's cross-tick motion-family reuse to multi-core runs.

Verdicts are deterministic functions of the transition, so every backend
returns bit-identical results — the engine equivalence tests enforce it.

Run results (verdicts plus the motion-family work counters of caches the
caller cannot see) travel in a :class:`BackendRun` value, never through
mutable backend attributes: a run that raises mid-pool or two engines
sharing a backend instance can never observe another run's counters.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import time
import traceback
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.characterize import Characterizer
from repro.core.errors import PoolError
from repro.core.neighborhood import MotionCache
from repro.core.transition import Transition
from repro.core.types import Characterization

from repro.engine.config import EngineConfig
from repro.ipc import (
    SnapshotRing,
    WorkerHandle,
    shm_unregister,
    shutdown_worker,
    shutdown_workers,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.robust.chaos import get_injector

__all__ = [
    "BackendRun",
    "ExecutionBackend",
    "SerialBackend",
    "WorkerPoolBackend",
    "make_backend",
]


@dataclass(frozen=True)
class BackendRun:
    """Everything one :meth:`ExecutionBackend.run` call produced.

    Attributes
    ----------
    verdicts:
        ``device -> Characterization`` for every requested device.
    expansions:
        Motion-family expansions performed in caches the caller cannot
        see (worker-process caches); ``None`` means every expansion
        happened in the shared cache the caller passed in, whose own
        counters already reflect the work.
    families_reused:
        Worker-side carried families actually served during this run
        (cross-tick reuse the shared cache cannot observe).
    """

    verdicts: Dict[int, Characterization]
    expansions: Optional[int] = None
    families_reused: int = 0


class ExecutionBackend:
    """Interface: run per-device characterization for one transition.

    ``carry_clean`` names the devices whose motion families provably did
    not change since the *immediately previous* :meth:`run` call on this
    backend (the online service's dirty-cell complement); backends with
    private per-worker caches may reuse those families verbatim.  Callers
    must only pass it when that single-step invariant holds — backends
    that cannot honour it safely ignore it.
    """

    name = "abstract"

    def run(
        self,
        transition: Transition,
        devices: Sequence[int],
        config: EngineConfig,
        cache: Optional[MotionCache] = None,
        *,
        carry_clean: Optional[Sequence[int]] = None,
    ) -> BackendRun:
        raise NotImplementedError

    def plans_fanout(
        self, devices: Sequence[int], config: EngineConfig
    ) -> bool:
        """Whether :meth:`run` would dispatch to out-of-process workers.

        The engine skips its parent-side neighbourhood warm-up when the
        work is about to leave the process anyway (workers warm their own
        device subsets against their own transition rebuilds).
        """
        return False

    def close(self) -> None:
        """Release any long-lived resources (idempotent; default no-op)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process execution (the seed code path, minus rebuild overhead)."""

    name = "serial"

    def run(
        self,
        transition: Transition,
        devices: Sequence[int],
        config: EngineConfig,
        cache: Optional[MotionCache] = None,
        *,
        carry_clean: Optional[Sequence[int]] = None,
    ) -> BackendRun:
        characterizer = Characterizer(
            transition, cache=cache, **config.characterizer_kwargs()
        )
        return BackendRun(verdicts=characterizer.characterize_many(devices))


# ----------------------------------------------------------------------
# Persistent worker pool.
#
# The shared-memory ring and the worker supervision helpers live in
# :mod:`repro.ipc`, shared with the process topology's shard children.
# ----------------------------------------------------------------------


def _pool_worker(conn, kwargs: Dict[str, object], unregister_shm: bool) -> None:
    """Long-lived worker loop: tasks in, verdicts + cache counters out.

    The worker owns a private :class:`MotionCache` that survives tasks.
    Each task builds its transition over *zero-copy read-only views* of
    the shared-memory ring slots (:meth:`Transition.from_views` — no
    per-task snapshot copies) and re-seeds the cache from the previous
    one via ``carry_from`` with the task's clean set — families of
    devices outside the dirty cell-rings are reused, everything else
    recomputes.

    Zero-copy makes sequencing load-bearing: the parent's ring keeps a
    task's ``cur`` slot intact for exactly one more run (it becomes the
    next run's ``prev``), and overwrites the task's ``prev`` slot at the
    next publish.  So everything that survives across tasks — the cache
    and the adoptable cur-side index — is only reused when this task's
    ``seq`` is the immediate successor of the one that produced it;
    otherwise the stale state (whose views may now show a different
    tick's data) is dropped wholesale and the task recomputes.
    """
    segments: Dict[str, shared_memory.SharedMemory] = {}
    # Segments that could not close because live views still pinned their
    # buffers; retried once the views are garbage.
    zombies: List[shared_memory.SharedMemory] = []
    cache: Optional[MotionCache] = None
    last_transition: Optional[Transition] = None
    last_names: set = set()
    last_seq: Optional[int] = None
    kernel = kwargs.get("kernel")
    try:
        while True:
            task = conn.recv()
            if task is None:
                break
            try:
                n, d = task["shape"]
                seq = task["seq"]
                consecutive = last_seq is not None and seq == last_seq + 1
                if not consecutive:
                    # The ring may have recycled the slots this state's
                    # views point into; nothing carried is trustworthy.
                    cache = None
                    last_transition = None
                    last_names = set()
                # Evict superseded segments: the parent regrows capacity
                # under new names and unlinks the old ones, which stay
                # pinned in the kernel as long as any worker keeps them
                # mapped.  Views pin mappings, so any carried state
                # referencing a stale segment is dropped first; a close
                # still blocked by an exported buffer parks the segment
                # on the zombie list for a later retry.
                keep = set(task["ring"])
                stale = [name for name in segments if name not in keep]
                if stale:
                    if last_names & set(stale):
                        cache = None
                        last_transition = None
                        last_names = set()
                    for name in stale:
                        seg = segments.pop(name)
                        try:
                            seg.close()
                        except BufferError:  # pragma: no cover - view alive
                            zombies.append(seg)
                        except OSError:  # pragma: no cover - already gone
                            pass
                if zombies:
                    remaining = []
                    for seg in zombies:
                        try:
                            seg.close()
                        except BufferError:  # pragma: no cover
                            remaining.append(seg)
                        except OSError:  # pragma: no cover
                            pass
                    zombies = remaining

                def _attach(name: str) -> np.ndarray:
                    seg = segments.get(name)
                    if seg is None:
                        seg = shared_memory.SharedMemory(name=name)
                        if unregister_shm:
                            shm_unregister(name)
                        segments[name] = seg
                    # Zero-copy, read-only: the transition reads the ring
                    # slot in place.  The flagged-subset indexes and every
                    # family are built from fancy-indexed *copies*, so
                    # nothing retained beyond this task dereferences the
                    # slot once the ring moves on.
                    arr = np.frombuffer(
                        seg.buf, dtype=np.float64, count=n * d
                    ).reshape(n, d)
                    arr.flags.writeable = False
                    return arr

                def _build(index_prev) -> Transition:
                    return Transition.from_views(
                        _attach(task["prev"]),
                        _attach(task["cur"]),
                        task["flagged"],
                        task["r"],
                        task["tau"],
                        index_prev=index_prev,
                    )

                # The store rolls cur into prev at every tick boundary,
                # so this tick's prev-side flagged index is last tick's
                # cur-side one whenever the flagged set held steady; the
                # adoption is content-validated, so a mismatch (stream
                # jump, changed r) falls back to a fresh build.  Only a
                # consecutive task may adopt: a lazy index build on an
                # older transition would read a recycled ring slot.
                index_prev = None
                if (
                    last_transition is not None
                    and last_transition.flagged_sorted == task["flagged"]
                    and last_transition.r == task["r"]
                ):
                    index_prev = last_transition.cur_index
                try:
                    transition = _build(index_prev)
                except Exception:
                    if index_prev is None:
                        raise
                    transition = _build(None)
                last_transition = transition
                last_names = {task["prev"], task["cur"]}
                clean = task["clean"]
                if cache is not None and clean is not None:
                    cache = MotionCache.carry_from(cache, transition, clean)
                else:
                    cache = MotionCache(transition, kernel=kernel)
                characterizer = Characterizer(
                    transition, cache=cache, **kwargs
                )
                devices = task["devices"]
                if task["precompute"] and devices:
                    transition.neighborhoods_batch(devices)
                    transition.neighborhoods_batch(devices, radius_factor=4.0)
                expansions_before = cache.expansions
                reused_before = cache.carried_used
                verdicts = [characterizer.characterize(j) for j in devices]
                last_seq = seq
                # Chaos hooks (inert in production: the keys are only
                # ever present when a FaultPlan injected them).  A hang
                # delays the reply past the parent's deadline; a dropped
                # reply never arrives at all — either way the parent
                # kills this process and re-runs the slice elsewhere.
                hang = task.get("chaos_hang")
                if hang:  # pragma: no cover - exercised via tests/chaos
                    time.sleep(hang)
                if task.get("chaos_drop_reply"):
                    continue
                conn.send(
                    (
                        "ok",
                        verdicts,
                        cache.expansions - expansions_before,
                        cache.carried_used - reused_before,
                    )
                )
            except Exception:
                # Reset carry state: a half-built cache or transition
                # must not seed the next tick.
                cache = None
                last_transition = None
                last_names = set()
                last_seq = None
                conn.send(("err", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - shutdown races
        pass
    finally:
        cache = None
        last_transition = None
        for seg in segments.values():
            try:
                seg.close()
            except (OSError, BufferError):  # pragma: no cover - already gone
                pass
        conn.close()


class _DeadlineExpired(Exception):
    """A worker missed its dispatch deadline (internal control flow)."""


@dataclass
class _PoolState:
    """Everything :class:`WorkerPoolBackend` must tear down at close.

    Kept in a separate object so a ``weakref.finalize`` / atexit hook can
    clean up without keeping the backend itself alive.
    """

    workers: List[WorkerHandle] = field(default_factory=list)
    ring: SnapshotRing = field(default_factory=SnapshotRing)

    def close(self) -> None:
        shutdown_workers(self.workers)
        self.workers = []
        self.ring.drop_segments()


class WorkerPoolBackend(ExecutionBackend):
    """Persistent shared-memory worker pool (the ``process`` backend).

    Lifecycle
    ---------
    Workers start lazily on the first :meth:`run` that clears
    ``min_process_devices`` and live until :meth:`close` (the backend is
    a context manager, engines and services forward their own ``close``
    here, and an atexit hook sweeps up anything left).  A worker that
    dies mid-run is respawned automatically (``worker_respawn``) and its
    task re-sent — the fresh worker simply recomputes without a carry.
    ``max_worker_tasks`` bounds worker lifetime: after that many tasks a
    worker is retired and replaced, bounding any slow leak in long
    always-on services.

    Per-run protocol
    ----------------
    The parent copies the two snapshot arrays into shared memory (no
    pickling; the segments are reused and grown geometrically), then
    sends each worker only ``(flagged set, clean set, its device ids)``.
    A run engages ``ceil(|devices| / chunk_size)`` workers (capped at
    the pool size) and routes by ``device % engaged``: under a steady
    engagement level a device keeps landing on the same worker, which
    is what makes the worker-private cache carry effective.  When the
    engagement level shifts between ticks the mapping reshuffles and
    carry hits drop for that tick (verdicts stay exact — the per-worker
    sequence gate already withholds invalid carries); the trade is
    deliberate, since every engaged worker pays a per-tick transition
    rebuild.

    Cache-invalidation invariant
    ----------------------------
    The caller's clean set compares tick ``k`` against tick ``k-1``, so
    a worker may only carry its cache if that cache is exactly one run
    old.  Two gates enforce it: the *pool* gate (the previous
    :meth:`run` on this backend took the pool path for a same-shaped
    transition — a serial fallback or stream change voids every carry)
    and the *per-worker* gate (the worker served the immediately
    previous run; one idled by partial engagement, respawn or
    ``max_worker_tasks`` retirement recomputes instead).  A run that
    fails mid-flight restarts the pool wholesale, so no later run can
    consume a stranded reply or a half-updated cache.

    Supervision
    -----------
    Every roundtrip is supervised.  ``dispatch_deadline`` bounds how
    long the parent waits for a worker's reply; a worker that misses it
    is declared hung, killed, respawned and its task re-sent — up to
    ``dispatch_retries`` times with exponential backoff
    (``retry_backoff``).  A slice that keeps killing workers
    (``poison_threshold``) is *quarantined*: its devices run on the
    in-process serial path (verdict-identical, just slower) so one
    pathological batch cannot take the pool down, and the event is
    counted on ``repro_pool_poison_batches_total``.  Worker *error
    replies* (a deterministic Python exception in the characterization
    itself) are never retried — re-running deterministic code cannot
    help — and surface immediately as :class:`PoolError` carrying the
    worker traceback (also kept on :attr:`last_worker_error`, so a
    later teardown can never mask the root cause).

    Pool health is an explicit three-state machine, exported as the
    gauge ``repro_pool_health_state`` (0 healthy / 1 degraded /
    2 serial-fallback) with transitions counted on
    ``repro_pool_health_transitions_total{from,to}``:

    * ``healthy`` → ``degraded`` on any supervised fault in a run;
    * ``degraded`` → ``healthy`` after ``recovery_runs`` consecutive
      clean pool runs;
    * ``degraded`` → ``serial-fallback`` after
      ``serial_fallback_after`` consecutive faulty runs: runs execute
      serially (counted on ``repro_pool_serial_fallback_runs_total``)
      except a pool *probe* every ``recovery_probe_every`` runs — a
      clean probe promotes back to ``degraded``, a faulty one restarts
      the probe countdown.
    """

    name = "process"

    #: Registry metric names (process-global registry; see repro.obs).
    _GAUGE_WORKERS = "repro_pool_workers_live"
    _GAUGE_RING_SEQ = "repro_pool_ring_seq"
    _GAUGE_HEALTH = "repro_pool_health_state"
    _COUNTER_RESPAWNS = "repro_pool_worker_respawns_total"
    _COUNTER_HUNG = "repro_pool_hung_workers_total"
    _COUNTER_RETRIES = "repro_pool_dispatch_retries_total"
    _COUNTER_POISON = "repro_pool_poison_batches_total"
    _COUNTER_FALLBACK_RUNS = "repro_pool_serial_fallback_runs_total"
    _COUNTER_TRANSITIONS = "repro_pool_health_transitions_total"

    #: Health state -> exported gauge level.
    _HEALTH_LEVELS = {"healthy": 0, "degraded": 1, "serial-fallback": 2}

    def __init__(self) -> None:
        self._state = _PoolState()
        self._started_config: Optional[Tuple] = None
        self._last_pool_meta: Optional[Tuple] = None
        self._run_seq = 0
        self._closed = False
        # Supervision / health state.
        self._health = "healthy"
        self._faulty_streak = 0
        self._clean_streak = 0
        self._runs_since_probe = 0
        self._faults_this_run = 0
        self.poisoned_batches = 0
        #: Most recent worker traceback observed (kept across close /
        #: atexit sweeps, so the root cause of a failed run survives
        #: the teardown that follows it).
        self.last_worker_error: Optional[str] = None
        # Prefer fork only on Linux, where it is both safe and an order
        # of magnitude faster to start; macOS abandoned fork as the
        # default for good reasons (Objective-C / Accelerate threads in
        # the parent), so everywhere else the platform default rules.
        if sys.platform == "linux":
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - platform-dependent
            self._ctx = multiprocessing.get_context()
        # Fires when the backend is garbage-collected *or* at interpreter
        # exit, whichever comes first — workers and shared-memory
        # segments never outlive their backend even when a driver forgot
        # close() (e.g. an engine created inside an experiment run).
        self._state_finalizer = weakref.finalize(
            self, _PoolState.close, self._state
        )

    # -- introspection -------------------------------------------------
    @property
    def workers_alive(self) -> int:
        """Currently running worker processes (0 before the first run)."""
        return sum(1 for w in self._state.workers if w.process.is_alive())

    # -- telemetry -----------------------------------------------------
    # Looked up per use (the getters are idempotent) rather than bound at
    # construction, so a backend keeps reporting into whatever the
    # process-global registry currently is — test harnesses swap it.
    def _count_respawn(self, reason: str) -> None:
        get_registry().counter(
            self._COUNTER_RESPAWNS,
            "Pool workers respawned, by reason (death, retirement)",
            labelnames=("reason",),
        ).labels(reason=reason.replace(" ", "-")).inc()

    def _count(self, name: str, help_text: str) -> None:
        get_registry().counter(name, help_text).inc()

    # -- health state machine ------------------------------------------
    @property
    def health(self) -> str:
        """Current pool health: healthy / degraded / serial-fallback."""
        return self._health

    def _set_health(self, new: str) -> None:
        old = self._health
        if new == old:
            return
        self._health = new
        registry = get_registry()
        registry.counter(
            self._COUNTER_TRANSITIONS,
            "Pool health state transitions",
            labelnames=("from", "to"),
        ).labels(**{"from": old, "to": new}).inc()
        registry.gauge(
            self._GAUGE_HEALTH,
            "Pool health: 0 healthy, 1 degraded, 2 serial-fallback",
        ).set(self._HEALTH_LEVELS[new])

    def _note_run_outcome(self, config: EngineConfig, *, faulty: bool) -> None:
        """Advance the health machine after one pool-path run."""
        if faulty:
            self._clean_streak = 0
            self._faulty_streak += 1
            if self._health == "healthy":
                self._set_health("degraded")
            if (
                self._health == "degraded"
                and self._faulty_streak >= config.serial_fallback_after
            ):
                self._set_health("serial-fallback")
                self._runs_since_probe = 0
            elif self._health == "serial-fallback":
                # A faulty probe: restart the countdown to the next one.
                self._runs_since_probe = 0
        else:
            self._faulty_streak = 0
            self._clean_streak += 1
            if self._health == "serial-fallback":
                # Clean probe: the pool works again, but stay wary.
                self._set_health("degraded")
                self._clean_streak = 1
            elif (
                self._health == "degraded"
                and self._clean_streak >= config.recovery_runs
            ):
                self._set_health("healthy")

    # -- lifecycle -----------------------------------------------------
    def _pool_size(self, config: EngineConfig) -> int:
        # The pool always holds the *configured* worker count — sizing it
        # to the batch would restart workers (and lose their caches)
        # every time the per-tick recompute count fluctuates.
        return config.workers or os.cpu_count() or 1

    def plans_fanout(
        self, devices: Sequence[int], config: EngineConfig
    ) -> bool:
        if (
            self._health == "serial-fallback"
            and self._runs_since_probe + 1 < config.recovery_probe_every
        ):
            # The next run executes serially, so the parent-side warm-up
            # pays off exactly as on the serial backend.
            return False
        return (
            self._pool_size(config) > 1
            and len(devices) >= config.min_process_devices
        )

    def _config_key(self, workers: int, config: EngineConfig) -> Tuple:
        return (workers, tuple(sorted(config.characterizer_kwargs().items())))

    def _spawn_worker(self, config: EngineConfig) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker,
            args=(
                child_conn,
                config.characterizer_kwargs(),
                self._ctx.get_start_method() != "fork",
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return WorkerHandle(process=process, conn=parent_conn)

    def _retire_worker(self, worker: WorkerHandle) -> None:
        shutdown_worker(worker)

    def _ensure_workers(self, workers: int, config: EngineConfig) -> None:
        key = self._config_key(workers, config)
        if self._started_config != key:
            # Config changed (or first run): restart the pool wholesale.
            shutdown_workers(self._state.workers)
            self._state.workers = []
            self._started_config = key
            self._last_pool_meta = None
        while len(self._state.workers) < workers:
            self._state.workers.append(self._spawn_worker(config))
        for i, worker in enumerate(self._state.workers):
            dead = not worker.process.is_alive()
            if dead and not config.worker_respawn:
                raise PoolError(
                    f"pool worker {i} died and worker_respawn is off",
                    worker_traceback=self.last_worker_error,
                )
            expired = (
                config.max_worker_tasks is not None
                and worker.tasks_done >= config.max_worker_tasks
            )
            if dead or expired:
                self._retire_worker(worker)
                self._state.workers[i] = self._spawn_worker(config)
                self._count_respawn("dead" if dead else "retired")

    def _publish(self, transition: Transition) -> Tuple[str, str]:
        """Publish the snapshots through the ring; return segment names."""
        return self._state.ring.publish(transition)

    def close(self) -> None:
        """Shut workers down and release the shared-memory segments.

        Idempotent: a double close (or a close racing the atexit sweep)
        is a clean no-op.  Worker tracebacks are never consumed here —
        the last one observed stays on :attr:`last_worker_error`.
        """
        if self._closed:
            return
        self._closed = True
        self._state.close()
        self._started_config = None
        self._last_pool_meta = None

    # -- execution -----------------------------------------------------
    def run(
        self,
        transition: Transition,
        devices: Sequence[int],
        config: EngineConfig,
        cache: Optional[MotionCache] = None,
        *,
        carry_clean: Optional[Sequence[int]] = None,
    ) -> BackendRun:
        devices = [int(j) for j in devices]
        workers = self._pool_size(config)
        if workers <= 1 or len(devices) < config.min_process_devices:
            # Serial fallback consults the caller's shared cache (and its
            # carry); worker caches go stale, so void the next pool carry.
            self._last_pool_meta = None
            return SerialBackend().run(transition, devices, config, cache)
        if self._health == "serial-fallback":
            self._runs_since_probe += 1
            if self._runs_since_probe < config.recovery_probe_every:
                # Degraded mode: the pool keeps faulting, so run serially
                # (same shared cache as the small-tick fallback, so reuse
                # keeps working) until the next recovery probe is due.
                self._count(
                    self._COUNTER_FALLBACK_RUNS,
                    "Runs executed serially because pool health is "
                    "serial-fallback",
                )
                self._last_pool_meta = None
                return SerialBackend().run(transition, devices, config, cache)
            # This run is the recovery probe: take the pool path and let
            # its outcome decide whether the pool is trustworthy again.
            self._runs_since_probe = 0
        self._closed = False
        self._faults_this_run = 0
        tracer = get_tracer()
        registry = tracer.registry
        # Publish before (possibly) forking workers: creating the first
        # shared-memory segment starts the resource-tracker process, and
        # fork-context workers must inherit that tracker — a worker that
        # boots its own tracker would try to "clean up" (unlink) the
        # parent's live segments when it exits.
        with tracer.span("pool-publish"):
            prev_name, cur_name = self._publish(transition)
        self._ensure_workers(workers, config)
        registry.gauge(
            self._GAUGE_WORKERS, "Live worker processes in the pool"
        ).set(self.workers_alive)
        meta = (transition.n, transition.dim, transition.r, transition.tau)
        carry_ok = self._last_pool_meta == meta
        self._last_pool_meta = meta
        clean = (
            tuple(sorted(int(j) for j in carry_clean))
            if (carry_clean is not None and carry_ok)
            else None
        )
        # Engage only as many workers as the batch warrants: every
        # engaged worker pays a per-tick transition rebuild, so a
        # 12-device tick should wake 2 workers, not 8.  Large batches
        # engage the whole pool with stable device%N routing, which
        # keeps each device's family in the same worker's cache.
        target = config.chunk_size or 8
        engaged = max(1, min(workers, math.ceil(len(devices) / target)))
        assignments: List[List[int]] = [[] for _ in range(engaged)]
        for device in devices:
            assignments[device % engaged].append(device)
        self._run_seq += 1
        seq = self._run_seq
        registry.gauge(
            self._GAUGE_RING_SEQ,
            "Publish sequence number of the shared-memory snapshot ring",
        ).set(seq)
        task_base = {
            "prev": prev_name,
            "cur": cur_name,
            "ring": self._state.ring.segment_names(),
            "seq": seq,
            "shape": (transition.n, transition.dim),
            "r": transition.r,
            "tau": transition.tau,
            "flagged": transition.flagged_sorted,
            "precompute": config.precompute_neighborhoods,
        }
        tasks = []
        for index in range(len(assignments)):
            if not assignments[index]:
                continue
            # Per-worker carry gate: the clean set compares this run to
            # the immediately previous one, so only a worker that served
            # that exact run holds a cache the set is valid for — a
            # worker idled by partial engagement (or freshly spawned)
            # must recompute instead of carrying a multi-run-old cache.
            fresh = self._state.workers[index].last_seq == seq - 1
            tasks.append(
                (
                    index,
                    {
                        **task_base,
                        "clean": clean if fresh else None,
                        "devices": assignments[index],
                    },
                )
            )
        try:
            # Scatter first, then gather: workers compute concurrently.
            with tracer.span("pool-dispatch"):
                for index, task in tasks:
                    self._send_task(index, task, config, seq)
            out: Dict[int, Characterization] = {}
            expansions = 0
            families_reused = 0
            with tracer.span("pool-collect"):
                for index, task in tasks:
                    # Per-worker round-trip: dispatch-to-reply latency of
                    # each engaged worker, one histogram sample apiece.
                    with tracer.span("pool-worker-roundtrip"):
                        verdicts, worker_expansions, worker_reused = (
                            self._collect(index, task, config, seq, transition)
                        )
                    expansions += worker_expansions
                    families_reused += worker_reused
                    for verdict in verdicts:
                        out[verdict.device] = verdict
        except BaseException:
            # A failed run strands unread replies in sibling pipes and
            # half-updated caches in workers; restart the pool wholesale
            # so the next run cannot consume another run's stale state.
            # BaseException on purpose: a KeyboardInterrupt mid-gather
            # strands replies exactly the same way.
            self._reset_pool()
            self._note_run_outcome(config, faulty=True)
            raise
        self._note_run_outcome(config, faulty=self._faults_this_run > 0)
        return BackendRun(
            verdicts=out,
            expansions=expansions,
            families_reused=families_reused,
        )

    def _respawn(
        self, index: int, config: EngineConfig, reason: str
    ) -> WorkerHandle:
        if not config.worker_respawn:
            raise PoolError(
                f"pool worker {index} {reason} and worker_respawn is off",
                worker_traceback=self.last_worker_error,
            )
        self._retire_worker(self._state.workers[index])
        worker = self._state.workers[index] = self._spawn_worker(config)
        self._count_respawn(reason)
        return worker

    def _send_task(
        self,
        index: int,
        task: Dict[str, object],
        config: EngineConfig,
        seq: int,
    ) -> None:
        """Send one task, respawning a dead worker once.

        A respawned worker has no cache, so its task is sent without a
        clean set — it recomputes everything it was assigned (correct,
        just slower for one tick).  The chaos injector hooks in here:
        inert in production, it can kill the worker, delay the send,
        corrupt the ring sequence number, or arm a worker-side hang or
        reply drop for the ``tests/chaos`` suite.
        """
        action = None
        injector = get_injector()
        if injector.active:
            action = injector.pool_dispatch(seq, index)
        if action is not None:
            if action.delay:
                time.sleep(action.delay)
            if action.corrupt_seq:
                task = {**task, "seq": -int(task["seq"])}
            if action.hang:
                task = {**task, "chaos_hang": action.hang}
            if action.drop_reply:
                task = {**task, "chaos_drop_reply": True}
            if action.kill:
                self._state.workers[index].process.kill()
                self._state.workers[index].process.join()
        worker = self._state.workers[index]
        if not worker.process.is_alive():
            self._faults_this_run += 1
            worker = self._respawn(index, config, "died")
            task = {**task, "clean": None}
        try:
            worker.conn.send(task)
        except (OSError, ValueError, BrokenPipeError):
            self._faults_this_run += 1
            worker = self._respawn(index, config, "lost its pipe")
            worker.conn.send({**task, "clean": None})
        if action is not None and action.kill_after:
            worker.process.kill()

    @staticmethod
    def _await_reply(worker: WorkerHandle, deadline: Optional[float]):
        """Receive one reply, bounded by the dispatch deadline."""
        if deadline is not None and not worker.conn.poll(deadline):
            raise _DeadlineExpired()
        return worker.conn.recv()

    def _collect(
        self,
        index: int,
        task: Dict[str, object],
        config: EngineConfig,
        seq: int,
        transition: Transition,
    ) -> Tuple[List[Characterization], int, int]:
        """Await one worker's reply under the supervision policy.

        Infrastructure faults (the worker died or missed the dispatch
        deadline) are retried against a respawned worker with
        exponential backoff, up to ``dispatch_retries`` times; a slice
        that keeps killing workers (``poison_threshold``) is quarantined
        onto the serial path.  A worker *error reply* — a deterministic
        exception inside the characterization — is never retried and
        surfaces as :class:`PoolError` carrying the worker traceback.
        """
        deadline = config.dispatch_deadline
        worker = self._state.workers[index]
        attempt = 0
        kills = 0
        while True:
            failure = None
            try:
                reply = self._await_reply(worker, deadline)
            except _DeadlineExpired:
                failure = "hung"
                self._count(
                    self._COUNTER_HUNG,
                    "Pool workers killed after missing the dispatch deadline",
                )
                worker.process.kill()
            except (EOFError, OSError):
                failure = "died mid-task"
            if failure is None:
                worker.tasks_done += 1
                if reply[0] == "err":
                    self.last_worker_error = reply[1]
                    raise PoolError(
                        f"pool worker {index} failed:\n{reply[1]}",
                        worker_traceback=reply[1],
                    )
                worker.last_seq = seq
                return reply[1], reply[2], reply[3]
            self._faults_this_run += 1
            kills += 1
            if (
                kills >= config.poison_threshold
                or attempt >= config.dispatch_retries
            ):
                return self._quarantine(index, task, config, transition, failure)
            attempt += 1
            if config.retry_backoff:
                time.sleep(config.retry_backoff * 2 ** (attempt - 1))
            self._count(
                self._COUNTER_RETRIES,
                "Pool dispatches retried after a worker fault",
            )
            worker = self._respawn(index, config, failure)
            try:
                worker.conn.send({**task, "clean": None})
            except (OSError, ValueError, BrokenPipeError):
                # The respawned worker is already gone; the next await
                # sees EOF and loops back here.
                pass

    def _quarantine(
        self,
        index: int,
        task: Dict[str, object],
        config: EngineConfig,
        transition: Transition,
        failure: str,
    ) -> Tuple[List[Characterization], int, int]:
        """Run a poison slice serially; keep the pool whole.

        The respawn keeps worker ``index`` available for sibling tasks
        and later runs.  The serial re-run uses a private cache so its
        expansion count can be reported like a worker's.
        """
        self.poisoned_batches += 1
        self._count(
            self._COUNTER_POISON,
            "Task slices quarantined to the serial path after repeatedly "
            "killing workers",
        )
        self._respawn(index, config, failure)
        cache = MotionCache(transition, kernel=config.kernel)
        run = SerialBackend().run(
            transition, task["devices"], config, cache
        )
        return list(run.verdicts.values()), cache.expansions, 0

    def _reset_pool(self) -> None:
        """Retire every worker; the next run rebuilds from scratch."""
        shutdown_workers(self._state.workers)
        self._state.workers = []
        self._started_config = None
        self._last_pool_meta = None


def make_backend(name: str) -> ExecutionBackend:
    """Instantiate a backend by :data:`~repro.engine.config.BACKENDS` name."""
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return WorkerPoolBackend()
    raise ValueError(f"unknown backend {name!r}")  # pragma: no cover - guarded
