"""Deterministic fault injection for the shard and service planes.

The chaos harness exists to make the fault-tolerance layer testable: a
:class:`FaultPlan` declares *where* faults strike (scheduled by service
tick and shard, or probabilistically with a seeded generator), a
:class:`ChaosInjector` applies them, and the production code consults
the process-global injector — a no-op singleton unless a test (or the
example driver) installs a plan via :func:`inject`.

Injection points mirror the real failure modes the supervised process
shards and the input-validation layer defend against:

* **kill** — the shard process is killed before its verdict command is
  sent (dispatch finds a dead child) or right after (``kill_after``:
  the parent's collect sees EOF mid-command);
* **drop reply** — the child completes the command but swallows the
  reply: indistinguishable from a hung child to the parent, which must
  enforce its ``dispatch_deadline`` (a plan that drops replies against
  a service with no deadline deadlocks — deliberately);
* **hang** — the child sleeps before replying (exercises real
  deadline overruns; prefer ``drop`` in tests, it costs no wall-clock);
* **delay** — the parent sleeps before sending (latency, no fault);
* **halo delay** — a shard's halo publish stalls (the consumers'
  seq-gated barrier must wait, never read a stale band);
* **frame faults** — a measurement frame is corrupted (NaN / inf /
  out-of-range cells) before the service validates it.

Every injected fault is *recoverable by design*: a killed or silent
child is respawned against its surviving shared-memory planes (or, once
retries are exhausted, its shard is hosted in the parent) and the
command is replayed — so verdicts stay bit-identical to a fault-free
run.  The ``tests/chaos`` suite asserts exactly that.

The module imports nothing from the engine or online planes, so both
can consult it without cycles.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ChaosInjector",
    "FaultAction",
    "FaultPlan",
    "get_injector",
    "inject",
]


@dataclass(frozen=True)
class FaultAction:
    """What the injector wants done to one shard dispatch."""

    kill: bool = False
    kill_after: bool = False
    drop_reply: bool = False
    hang: float = 0.0
    delay: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault schedule.

    Scheduled dispatch faults map a service tick to the *shard index*
    whose verdict command they strike; frame faults key on the service
    tick being fed.  Probabilistic faults draw from a seeded generator
    per dispatch, so a given plan replays identically.
    """

    seed: int = 0
    # tick -> shard index
    kill_at: Mapping[int, int] = field(default_factory=dict)
    kill_after_at: Mapping[int, int] = field(default_factory=dict)
    drop_reply_at: Mapping[int, int] = field(default_factory=dict)
    hang_at: Mapping[int, int] = field(default_factory=dict)
    delay_at: Mapping[int, int] = field(default_factory=dict)
    hang_seconds: float = 0.5
    delay_seconds: float = 0.01
    # Per-dispatch probabilities (kill beats drop when both fire).
    kill_probability: float = 0.0
    drop_probability: float = 0.0
    # tick -> device rows whose frame cells are corrupted
    frame_nan_at: Mapping[int, Sequence[int]] = field(default_factory=dict)
    frame_inf_at: Mapping[int, Sequence[int]] = field(default_factory=dict)
    frame_oob_at: Mapping[int, Sequence[int]] = field(default_factory=dict)
    # tick -> shard whose halo publish is delayed by ``delay_seconds``
    halo_delay_at: Mapping[int, int] = field(default_factory=dict)


class ChaosInjector:
    """Applies a :class:`FaultPlan`; counts every injected fault.

    With ``plan=None`` the injector is inert (``active`` is false) and
    every hook is a cheap no-op — the production default.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan
        self.active = plan is not None
        self.injected: Dict[str, int] = {}
        self._rng = np.random.default_rng(plan.seed if plan else 0)
        self._lock = threading.Lock()

    def _count(self, kind: str) -> None:
        with self._lock:
            self.injected[kind] = self.injected.get(kind, 0) + 1

    def dispatch(self, tick: int, shard: int) -> Optional[FaultAction]:
        """The fault (if any) to inject into ``shard``'s ``tick`` dispatch."""
        plan = self.plan
        if plan is None:
            return None
        kill = plan.kill_at.get(tick) == shard
        kill_after = plan.kill_after_at.get(tick) == shard
        drop = plan.drop_reply_at.get(tick) == shard
        hang = plan.hang_seconds if plan.hang_at.get(tick) == shard else 0.0
        delay = plan.delay_seconds if plan.delay_at.get(tick) == shard else 0.0
        if plan.kill_probability or plan.drop_probability:
            # One draw per dispatch keeps the schedule replayable.
            u = float(self._rng.random())
            if u < plan.kill_probability:
                kill = True
            elif u < plan.kill_probability + plan.drop_probability:
                drop = True
        if not (kill or kill_after or drop or hang or delay):
            return None
        for kind, hit in (
            ("kill", kill),
            ("kill_after", kill_after),
            ("drop_reply", drop),
            ("hang", bool(hang)),
            ("delay", bool(delay)),
        ):
            if hit:
                self._count(kind)
        return FaultAction(
            kill=kill,
            kill_after=kill_after,
            drop_reply=drop,
            hang=hang,
            delay=delay,
        )

    def halo_publish(self, tick: int, shard: int) -> float:
        """Seconds to stall ``shard``'s halo publish at ``tick`` (0 = none).

        Exercises the overlap window of the sharded topology: a slow
        publisher must delay only the consumers' seq-gated barrier,
        never hand them a stale band.
        """
        plan = self.plan
        if plan is None:
            return 0.0
        if plan.halo_delay_at.get(tick) != shard:
            return 0.0
        self._count("halo_delay")
        return plan.delay_seconds

    def corrupt_frame(self, tick: int, values: np.ndarray) -> np.ndarray:
        """Return ``values`` with this tick's frame faults applied.

        Copies before corrupting, so the caller's array is never
        damaged; returns the input unchanged when no fault is due.
        """
        plan = self.plan
        if plan is None:
            return values
        faults: Tuple[Tuple[str, Sequence[int], float], ...] = (
            ("frame_nan", plan.frame_nan_at.get(tick, ()), np.nan),
            ("frame_inf", plan.frame_inf_at.get(tick, ()), np.inf),
            ("frame_oob", plan.frame_oob_at.get(tick, ()), 7.5),
        )
        out = values
        for kind, rows, fill in faults:
            if len(rows):
                if out is values:
                    out = np.array(values, dtype=float, copy=True)
                out[list(rows), 0] = fill
                self._count(kind)
        return out


#: The inert default every production code path consults.
_NOOP = ChaosInjector()
_INJECTOR = _NOOP
_INSTALL_LOCK = threading.Lock()


def get_injector() -> ChaosInjector:
    """The process-global injector (inert unless a plan is installed)."""
    return _INJECTOR


@contextmanager
def inject(plan: FaultPlan) -> Iterator[ChaosInjector]:
    """Install ``plan`` globally for the duration of the block.

    Yields the live :class:`ChaosInjector` so callers can read its
    ``injected`` fault counts.  Nested installs are rejected — two
    overlapping plans would make fault attribution meaningless.
    """
    global _INJECTOR
    injector = ChaosInjector(plan)
    with _INSTALL_LOCK:
        if _INJECTOR is not _NOOP:
            raise RuntimeError("a chaos plan is already installed")
        _INJECTOR = injector
    try:
        yield injector
    finally:
        with _INSTALL_LOCK:
            _INJECTOR = _NOOP
