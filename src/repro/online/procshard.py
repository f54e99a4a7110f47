"""The shard command protocol and its two hosts: in-parent and process.

:class:`~repro.online.sharded.ShardedService` drives every shard —
ingest, migration, halo exchange, verdicts, membership, queries,
checkpoints — through one function, :func:`handle_command`, which runs
against an ordinary ``_ShardWorker``.  Where it runs is the only thing
the topology chooses:

* :class:`_InlineShardHandle` runs it inside the front door's process
  (``topology_workers="inline"``, the single service's one shard, and
  the degraded fallback of a process shard whose supervision ran out of
  retries);
* :class:`_ProcessShardHandle` runs it in one long-lived **fork-context
  daemonic process** per shard, whose store partition lives in
  shared-memory columnar planes
  (:func:`repro.online.store.shm_planes_factory`); the front door ships
  *commands* — global device ids, tick numbers, halo rows, segment
  names — over a duplex pipe, never pickled stores.  This host takes
  the shard pipelines out of the parent's GIL.

Protocol
--------
One tick is a fixed phase sequence, each phase one scatter/collect
roundtrip per shard: ``events``/``frame`` (ingest; a frame is one
gather by row id, of the shared board in a child, of the frame arrays
themselves in process), ``movers`` → ``migrate``
(parent-mediated migration: a scan-only columnar record of the shard's
leavers, then one command per shard evicting its ``out`` ids and
admitting its ``in`` record, in no cross-shard order), ``halo`` (close
the dirty region, reply it with the shard's boundary band of flagged
rows), ``verdict`` (run the local pipeline over the flagged rows plus
the peer rows the front door sliced out of the other shards' bands and
shipped in the command, reply a result dict).  Every mutating
command carries its tick and the worker rolls the deferred snapshot
(``advance_tick``) lazily at the *first* command of the next tick —
deferring the roll past the verdict is what makes a kill-and-respawn
recoverable: the shared-memory planes always hold a consistent
``(S_{k-1}, partially-updated S_k)`` pair.  A lone in-process shard —
the single service's, whose store is read between ticks — has no kill
to survive and rolls right after its verdict instead.

Supervision
-----------
The parent (:class:`_ProcessShardHandle` driven by
``ShardedService._collect_one``) supervises every roundtrip:
a per-roundtrip ``dispatch_deadline`` catches hangs, EOF on the pipe
catches kills fast, and a failed roundtrip is retried
``dispatch_retries`` times against a respawned child that *adopts* the
planes its predecessor left in shared memory
(:meth:`DeviceStateStore.adopt_planes`).  Because in-memory state
(dirty tracker, verdict caches) dies with the child, the respawn
conservatively invalidates every alive cell — a superset dirty region
is exact, just slower for one tick — and every command handler is
idempotent under re-execution against partially-applied planes
(re-scatters no-op, evictions and admissions skip when already done).
Exhausted retries degrade the shard to an in-parent serial worker
(:class:`_InlineShardHandle`) running the *same* command handler —
degraded, never divergent.

Why ``fork``: children inherit the parent's modules, chaos plan and
resource tracker, so shared-memory create/attach/unlink registrations
pair up without manual tracking, and spawning costs one page-table
copy, not an interpreter boot.  The tracker is only inherited if it is
already running at fork time — :meth:`_ProcessShardHandle._fork`
starts it first; otherwise every child would start its own, and a
killed child's tracker would unlink every segment the child had merely
attached: the front door's frame board.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    QueueFullError,
    UnknownDeviceError,
)
from repro.ipc import (
    SegmentReader,
    ShardDeadError,
    ShardTimeoutError,
    ShmPlanes,
    WorkerHandle,
    reap_worker,
    shutdown_worker,
    unlink_by_name,
)
from repro.obs.trace import Tracer
from repro.online.store import (
    DeviceStateStore,
    shm_planes_factory,
    store_plane_fields,
)
from repro.robust.chaos import get_injector

__all__ = [
    "handle_command",
    "_FrameBoard",
    "_InlineShardHandle",
    "_ProcessShardHandle",
]

#: Deadline for the child's post-fork "ready" handshake.
_READY_DEADLINE = 60.0

#: Child-raised exception classes the parent re-raises by name (every
#: other class surfaces as a RuntimeError carrying the child traceback).
_CHILD_ERRORS = {
    cls.__name__: cls
    for cls in (
        ConfigurationError,
        DimensionMismatchError,
        QueueFullError,
        UnknownDeviceError,
    )
}


def _maybe_roll(store: DeviceStateStore, tick: int) -> None:
    """Roll the deferred ``S_{k-1} <- S_k`` snapshot copy lazily.

    A deferred-advance worker leaves tick ``k``'s verdict with
    ``tick_serial == k - 1``; the first mutating command of tick ``k+1``
    must roll *before* touching the current plane, or the update would
    corrupt the previous endpoint of every trajectory.
    """
    if store.tick_serial < tick - 1:
        store.advance_tick()


def _mark_recovered(worker) -> None:
    """Reinstate the respawn invariants on an adopted-planes worker.

    The planes carry rows, flags, verdict codes and the tick serial
    (the adopted store derives its coded rows from them); everything
    in-memory — the dirty tracker's regions, the verdict cache — died
    with the predecessor.  Dirtying every alive cell on
    *both* snapshot planes (with the move carry, so next tick's
    ``prev``-shift invalidation is also covered) makes the lost
    bookkeeping a conservative superset: the ``prev``-plane cells are
    the old trajectory endpoints of any updates the dead child had
    already applied, the ``cur``-plane cells the new ones, so every
    verdict those updates could touch recomputes once, bit-identically.
    (The lost *carry* — the previous tick's move endpoints — is
    covered at the front door, which re-unions the previous tick's
    global dirty region whenever a shard was respawned.)
    """
    store = worker.store
    ids = np.asarray(store.row_ids())
    alive = np.nonzero(ids >= 0)[0]
    if alive.size:
        cur_keys = store.index.keys_of_rows(alive)
        prev_plane, _ = store.snapshot_arrays()
        prev_keys = np.floor(prev_plane[alive] / store.index.cell).astype(
            np.int64
        )
        worker.tracker.invalidate_cells(np.concatenate([cur_keys, prev_keys]))


def _gather_frame(
    ids: np.ndarray, board_cur: np.ndarray, board_flags: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Align an id-indexed frame board with a store's rows.

    ``ids`` is the store's row→id column.  One gather by ``max(ids, 0)``
    builds the row-aligned ``(cur, flags)`` pair; free rows (id −1) then
    take the store's scrubbed zeros and cleared flag, so they always
    diff clean against it.  A store whose rows hold ids ``0..n-1`` in
    order, over an ``n``-row board, is aligned already: the board itself
    is returned.
    """
    top = int(ids.max()) if ids.size else -1
    if top >= board_flags.shape[0]:
        raise DimensionMismatchError(
            "snapshot frame rows do not cover the fleet's global id "
            "range; feed churned populations through ingest/join/leave"
        )
    if top < 0:
        # No resident: every row is free (and the board may be empty).
        return (
            np.zeros((ids.size, board_cur.shape[1])),
            np.zeros(ids.size, dtype=bool),
        )
    n = ids.size
    # Ids strictly ascending from 0 to n - 1 over n rows are 0..n-1.
    if (
        n == board_flags.shape[0]
        and ids[0] == 0
        and ids[-1] == n - 1
        and (ids[1:] > ids[:-1]).all()
    ):
        return board_cur, board_flags
    take = np.maximum(ids, 0)
    cur = np.take(board_cur, take, axis=0)
    flags = np.take(board_flags, take)
    free = np.flatnonzero(ids < 0)
    if free.size:
        cur[free] = 0.0
        flags[free] = False
    return cur, flags


def _ctx_result(worker, ctx) -> Dict[str, Any]:
    """One shard's tick outcome as a plain, picklable result dict.

    The merge currency of the ``verdict`` command: the front door's
    merge loop reads the same dict from either host.  Verdict maps are
    already keyed by global ids; local ranks are translated through
    ``ctx.key_of`` here, before the context dies.
    """
    key_of = ctx.key_of
    targets = ctx.verdict_targets
    return {
        "verdicts": ctx.verdicts,
        "flagged": [key_of[j] for j in targets],
        "recomputed": [key_of[j] for j in ctx.recompute],
        "reused": [key_of[j] for j in ctx.reused],
        "families_recomputed": int(ctx.families_recomputed),
        "n_targets": len(targets),
        "stage_seconds": worker.tracer.drain_stages(),
        "n": worker.store.n,
    }


def handle_command(
    worker,
    op: str,
    tick: int,
    payload: Dict[str, Any],
    *,
    shard_map,
    board_reader: SegmentReader,
):
    """Execute one front-door command against a shard worker.

    The single implementation both hosts run — the child main loop and
    :class:`_InlineShardHandle` — so the topology never changes *what* a
    shard computes, only where.  Every handler is idempotent under
    re-execution on partially-applied planes (the respawn-retry
    contract).
    """
    from repro.online.stages import TickContext

    store = worker.store
    if op == "state":
        # Checkpoints capture *completed* ticks: roll the deferred
        # advance so the cut never depends on where the shard ran.  The
        # columns of shm-backed planes are not pickled down the pipe:
        # the front door copies them out of the planes itself.
        if store.tick_serial < tick:
            store.advance_tick()
        return (
            store.state(columns=store.planes is None),
            worker.tracker.state(),
            dict(worker.verdict_stage.cache),
        )
    if op == "query":
        what = payload["what"]
        if what == "frame":
            ids = np.asarray(store.row_ids())
            alive = np.nonzero(ids >= 0)[0]
            return (
                ids[alive].copy(),
                np.asarray(store.current_positions())[alive].copy(),
            )
        if what == "verdicts":
            return dict(worker.verdict_stage.cache)
        if what == "flagged":
            return store.flagged_devices()
        raise ConfigurationError(f"unknown shard query {what!r}")

    # Every mutating command below belongs to tick ``tick``; roll the
    # deferred snapshot from the previous tick before touching state.
    _maybe_roll(store, tick)

    if op == "events":
        applied = store.apply_rows(
            store.rows_of(payload["ids"]), payload["positions"], payload["flags"]
        )
        worker.tracker.mark_batch(applied, was_relevant=applied.was_flagged)
        return None
    if op == "frame":
        if "cur" in payload:
            # An in-process shard is handed the frame itself.
            board_cur, board_flags = payload["cur"], payload["flags"]
        else:
            rows_total = int(payload["rows"])
            dim = store.dim
            board_reader.evict_except(payload["live"])
            board_cur = board_reader.array(
                payload["board"], np.float64, rows_total * dim
            ).reshape(rows_total, dim)
            board_flags = board_reader.array(
                payload["board"], np.bool_, rows_total, offset=rows_total * dim * 8
            )
        return worker.index_stage.apply_frame(board_cur, board_flags, worker.tracer)
    if op == "movers":
        # Scan-only: eviction happens in the ``migrate`` phase, *after*
        # the parent has durably received these records — a kill between
        # leave and reply must not lose devices.
        ids = np.asarray(store.row_ids())
        idx, dest = shard_map.leavers(
            store.index.key_column()[: ids.shape[0]], worker.shard
        )
        keep = ids[idx] >= 0
        rows, dest = idx[keep], dest[keep]
        prev_plane, cur_plane = store.snapshot_arrays()
        return {
            "dest": dest,
            "ids": ids[rows],
            "prev": prev_plane[rows],
            "cur": cur_plane[rows],
            "flags": store.flag_vector()[rows],
            "codes": store.verdict_codes()[rows],
        }
    if op == "migrate":
        # One id-map search per half: the slots found locate the entries
        # the eviction and the admission then write.
        rows, slots = store.locate(payload["out"])
        present = rows >= 0
        store.leave_rows(rows[present], slots[present])
        admit = payload["in"]
        rows, slots = store.locate(admit["ids"])
        absent = rows < 0
        store.admit_rows(
            *(
                admit[field][absent]
                for field in ("ids", "prev", "cur", "flags", "codes")
            ),
            slots=slots[absent],
        )
        return None
    if op == "join":
        if store.row_if_present(int(payload["device"])) is None:
            store.join(
                int(payload["device"]),
                payload["position"],
                bool(payload["flagged"]),
            )
        return None
    if op == "endpoints":
        # Scan-only, like ``movers``: a flagged leaver's (prev, cur)
        # reach the parent before ``leave`` evicts it, so a kill between
        # the evict and its reply cannot lose them.
        row = store.row_if_present(int(payload["device"]))
        if row is None or not store.flag_vector()[row]:
            return None
        prev_plane, cur_plane = store.snapshot_arrays()
        return np.stack([prev_plane[row], cur_plane[row]])
    if op == "leave":
        if store.row_if_present(int(payload["device"])) is not None:
            store.leave(int(payload["device"]))
        return None
    if op == "halo":
        return (worker.tracker.close(store), worker.halo_band(shard_map))
    if op == "verdict":
        worker.transition_stage.stage_halo(*payload["halo"])
        ctx = TickContext(tick=tick, dirty=payload["dirty"])
        worker.run_tick(ctx)
        return _ctx_result(worker, ctx)
    raise ConfigurationError(f"unknown shard command {op!r}")


def _decorated(msg: tuple, **flags: Any) -> tuple:
    """``msg`` with chaos flags (``_hang``, ``_drop_reply``) added to its
    payload.  Only the hosts' reply path honors them, and only on the
    wire: supervision remembers and resends the undecorated command."""
    op, tick, payload = msg
    return (op, tick, {**payload, **flags})


def _reply_header(worker) -> Tuple[bool, Optional[str], int, int]:
    planes = worker.store.planes
    if planes is None:
        return (True, None, 0, worker.store.n)
    return (True, planes.name, planes.capacity, worker.store.n)


def _error_reply(exc: Exception) -> tuple:
    return (False, None, 0, 0, (type(exc).__name__, traceback.format_exc()))


def _child_cleanup(worker, *, unlink: bool) -> None:
    try:
        if worker.store.planes is not None:
            worker.store.release_planes(unlink=unlink)
    except Exception:  # pragma: no cover
        pass


def _shard_child_main(
    conn, shard, config, dim, shard_map, init, trace_enabled
) -> None:
    """The shard-process entry point: build (or adopt) a worker, serve.

    ``init`` is ``("fresh", positions, ids)`` at construction, ``("state",
    part)`` on a restore (inherited through the fork, never pickled) or
    ``("adopt", plane_name, capacity)`` on a respawn.  A failed build
    unlinks the segments it made and replies its error.  The loop answers one command per message; a ``None`` sentinel
    (clean shutdown) and parent death both unlink the owned segments.
    Parent death is noticed by polling: the forked child inherits the
    parent's end of its own pipe, so a dead parent never shows up as
    EOF, and the loop instead watches for the child being re-parented.
    """
    from repro.online.sharded import _ShardWorker

    created: List[ShmPlanes] = []
    factory = shm_planes_factory(created)
    tracer = Tracer(enabled=trace_enabled)
    try:
        worker = _ShardWorker.from_init(
            shard, init, dim, config, tracer, planes_factory=factory
        )
    except Exception as exc:
        for planes in created:
            planes.unlink()
        conn.send(_error_reply(exc))
        return
    board_reader = SegmentReader()
    try:
        conn.send(_reply_header(worker) + ("ready",))
        parent = os.getppid()
        while True:
            try:
                while not conn.poll(1.0):
                    if os.getppid() != parent:
                        raise EOFError
                msg = conn.recv()
            except (EOFError, OSError):
                # Parent died without a sentinel: nobody left to clean
                # up by name, so unlink everything we own.
                _child_cleanup(worker, unlink=True)
                return
            if msg is None:
                _child_cleanup(worker, unlink=True)
                return
            op, tick, payload = msg
            # The parent has, by protocol, processed our previous reply
            # (and with it the current plane name) before sending this
            # command — segments retired by a grow are safe to drop.
            worker.store.drop_retired_planes()
            try:
                result = handle_command(
                    worker,
                    op,
                    tick,
                    payload,
                    shard_map=shard_map,
                    board_reader=board_reader,
                )
                reply = _reply_header(worker) + (result,)
            except Exception as exc:
                reply = _error_reply(exc)
            hang = payload.get("_hang") if isinstance(payload, dict) else None
            if hang:
                time.sleep(float(hang))
            if not (isinstance(payload, dict) and payload.get("_drop_reply")):
                try:
                    conn.send(reply)
                except (BrokenPipeError, OSError):
                    _child_cleanup(worker, unlink=True)
                    return
    finally:
        board_reader.close()


class _ProcessShardHandle:
    """Parent-side handle over one shard process: pipe, planes, respawn.

    Tracks the out-of-band facts supervision needs: the current plane
    segment name and capacity (refreshed from every reply header, so a
    respawned child can adopt them, and the parent can unlink the planes
    at shutdown after a kill — a killed child never cleans up), and the
    last *canonical* command (resent verbatim on retry; chaos decorations
    are never remembered).  Every command is self-contained — a
    ``verdict`` carries its halo rows — so a resent one needs nothing the
    dead child held.
    """

    def __init__(self, shard, config, dim, shard_map, init, trace_enabled) -> None:
        self.shard = int(shard)
        self._config = config
        self._dim = int(dim)
        self._map = shard_map
        self._trace_enabled = bool(trace_enabled)
        self._ctx = multiprocessing.get_context("fork")
        self.plane_name: Optional[str] = None
        self.plane_capacity = 0
        self.n = 0
        self.respawns = 0
        self.last_msg: Optional[tuple] = None
        self.worker: Optional[WorkerHandle] = None
        # Forks only; the caller awaits ``ready`` once every shard forked.
        self._fork(init)

    @property
    def nbytes(self) -> int:
        """The shard's shm plane segment size, from the last reply header."""
        return ShmPlanes.required_bytes(
            self.plane_capacity, store_plane_fields(self._dim)
        )

    def _fork(self, init) -> None:
        # The children must inherit one tracker (see the module notes).
        resource_tracker.ensure_running()
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_child_main,
            args=(
                child_conn,
                self.shard,
                self._config,
                self._dim,
                self._map,
                init,
                self._trace_enabled,
            ),
            daemon=True,
            name=f"repro-shard-{self.shard}",
        )
        proc.start()
        child_conn.close()
        self.worker = WorkerHandle(process=proc, conn=parent_conn)

    def await_ready(self) -> None:
        """Block until the forked child has built its worker; a failed
        build raises :class:`ConfigurationError` with its traceback."""
        ok, name, capacity, n, payload = self.recv(_READY_DEADLINE)
        if not ok or payload != "ready":
            detail = payload[1] if not ok else repr(payload)
            raise ConfigurationError(
                f"shard {self.shard} worker failed to start:\n{detail}"
            )
        self.plane_name = name
        self.plane_capacity = int(capacity)
        self.n = int(n)

    def send(self, msg, *, canonical: Optional[tuple] = None) -> None:
        """Ship one command; remember its canonical form for retries.

        ``canonical`` strips chaos decorations (drop-reply/hang flags)
        so a supervised retry replays the *intended* command.  Send
        failures are swallowed — a dead child surfaces at :meth:`recv`,
        where the respawn logic lives.
        """
        self.last_msg = canonical if canonical is not None else msg
        try:
            self.worker.conn.send(msg)
        except (BrokenPipeError, OSError):
            pass

    def send_with_chaos(self, msg: tuple) -> None:
        """Ship one verdict command through the chaos injector.

        Faults are keyed on (tick, shard): ``kill`` strikes before the
        send (dispatch meets a dead child), ``kill_after`` right after
        (EOF mid-task); drop/hang decorate the payload with flags only
        the child's *pipe loop* honors — the canonical, undecorated command is what supervision
        remembers and resends, so a retry replays the intended work.
        """
        injector = get_injector()
        action = (
            injector.dispatch(int(msg[1]), self.shard)
            if injector.active
            else None
        )
        if action is None:
            self.send(msg)
            return
        if action.delay:
            time.sleep(action.delay)
        if action.kill:
            self.terminate_child()
        flags: Dict[str, Any] = {}
        if action.drop_reply:
            flags["_drop_reply"] = True
        if action.hang:
            flags["_hang"] = action.hang
        self.send(_decorated(msg, **flags) if flags else msg, canonical=msg)
        if action.kill_after:
            self.terminate_child()

    def resend_last(self) -> None:
        try:
            self.worker.conn.send(self.last_msg)
        except (BrokenPipeError, OSError):
            pass

    def recv(self, deadline: Optional[float]):
        conn = self.worker.conn
        try:
            if deadline is not None and not conn.poll(deadline):
                raise ShardTimeoutError(
                    f"shard {self.shard} worker missed its "
                    f"{deadline}s dispatch deadline"
                )
            return conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardDeadError(
                f"shard {self.shard} worker died mid-roundtrip"
            ) from exc

    def terminate_child(self) -> None:
        proc = self.worker.process
        if proc.is_alive():
            proc.terminate()

    def kill(self) -> None:
        """Terminate and reap the child; its planes stay for adoption."""
        self.terminate_child()
        reap_worker(self.worker)

    def respawn(self) -> None:
        """Kill and relaunch a child that adopts the surviving planes."""
        self.kill()
        self.respawns += 1
        self._fork(("adopt", self.plane_name, self.plane_capacity))
        self.await_ready()

    def degrade(self, tracer: Tracer) -> "_InlineShardHandle":
        """Host the (killed) child's shard in-parent, serially.

        The dead child's shm planes are adopted, copied onto the heap
        (releasing the segments), and wrapped in a fresh worker with
        conservatively invalidated caches; the in-flight command is
        re-queued on the returned handle.
        """
        from repro.online.sharded import _ShardWorker

        worker = _ShardWorker.from_init(
            self.shard,
            ("adopt", self.plane_name, self.plane_capacity),
            self._dim,
            self._config,
            tracer,
        )
        adopted, worker.store = worker.store, DeviceStateStore.from_state(
            worker.store.state()
        )
        adopted.release_planes(unlink=True)
        inline = _InlineShardHandle(worker, self._map)
        inline.send(self.last_msg)
        return inline

    def shutdown(self) -> None:
        """Sentinel → join → close, then unlink the planes if left over."""
        shutdown_worker(self.worker)
        if self.plane_name:
            unlink_by_name(self.plane_name)


class _InlineShardHandle:
    """A shard hosted inside the front door's process.

    The ``"inline"`` topology's handle, and the degraded mode a process
    shard falls back to when supervision exhausts its retries.  Speaks
    the send/recv surface of :class:`_ProcessShardHandle` (so the phase
    loops don't branch) but executes :func:`handle_command` directly on
    an in-parent ``_ShardWorker`` at ``recv`` time; a lone shard rolls
    its snapshot right after a verdict (module doc).  A frame arrives as
    the arrays themselves, and peer halo rows inside the ``verdict``
    command, as on the process host; the board reader serves only a
    degraded shard's re-queued board frame.
    Dispatch faults are never drawn here — there is no child to kill —
    while a payload's ``_hang`` (a delayed ``halo`` reply) stalls the
    reply the way the child loop does.
    """

    def __init__(self, worker, shard_map) -> None:
        self.shard = worker.shard
        self.inner = worker
        self._map = shard_map
        self._board_reader = SegmentReader()
        self._pending: Optional[tuple] = None

    def await_ready(self) -> None:
        """The worker is built in the constructor: nothing to wait for."""

    @property
    def n(self) -> int:
        return self.inner.store.n

    @property
    def nbytes(self) -> int:
        return self.inner.store.nbytes

    def send(self, msg: tuple, *, canonical: Optional[tuple] = None) -> None:
        """Queue ``msg`` for :meth:`recv`; with no retry in process,
        ``canonical`` has nothing to be remembered for."""
        self._pending = msg

    send_with_chaos = send

    def recv(self, deadline: Optional[float] = None):
        op, tick, payload = self._pending
        self._pending = None
        result = handle_command(
            self.inner,
            op,
            tick,
            payload,
            shard_map=self._map,
            board_reader=self._board_reader,
        )
        if op == "verdict" and self._map.n_shards == 1:
            # No kill to survive in-process: roll the snapshot as soon as
            # the verdicts land, so between ticks the exposed store reads
            # ``(S_k, S_k)``, and the next tick's ``_maybe_roll`` is a no-op.
            self.inner.store.advance_tick()
        if payload.get("_hang"):
            time.sleep(float(payload["_hang"]))
        return (True, None, 0, self.inner.store.n, result)

    def shutdown(self) -> None:
        self.inner.close()
        self._board_reader.close()


class _FrameBoard:
    """Parent-owned shm board fanning one global frame out to all shards.

    ``feed_snapshot``'s frame is indexed by global device id; instead of
    pickling per-shard slices down every pipe, the parent writes the
    whole ``(n, d)`` frame plus the flag vector into one segment and the
    children gather their residents' rows by id.  The segment is reused
    across ticks and regrown (under a new name) only when the fleet
    outgrows it.
    """

    def __init__(self) -> None:
        self._seg: Optional[shared_memory.SharedMemory] = None
        self._capacity = 0

    def publish(
        self, current: np.ndarray, flags: np.ndarray
    ) -> Tuple[str, int, int]:
        rows, dim = current.shape
        needed = rows * dim * 8 + rows
        if self._seg is None or self._capacity < needed:
            self.close()
            self._seg = shared_memory.SharedMemory(
                create=True, size=max(needed, 2 * self._capacity, 1)
            )
            self._capacity = self._seg.size
        np.copyto(
            np.frombuffer(self._seg.buf, dtype=np.float64, count=rows * dim),
            np.ascontiguousarray(current, dtype=np.float64).ravel(),
        )
        np.copyto(
            np.frombuffer(
                self._seg.buf, dtype=np.bool_, count=rows, offset=rows * dim * 8
            ),
            np.ascontiguousarray(flags, dtype=np.bool_),
        )
        return self._seg.name, rows, dim

    def close(self) -> None:
        if self._seg is not None:
            try:
                self._seg.close()
                self._seg.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
            self._seg = None
            self._capacity = 0
