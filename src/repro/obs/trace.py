"""Stage spans: nestable timing contexts feeding the metric registry.

A :class:`Tracer` times named *stages* of a pipeline::

    with tracer.span("detect"):
        bank.observe_batch(qos)

Each completed span lands in two places:

* the registry histogram ``repro_stage_seconds{stage=...}`` — the
  continuously exported latency distribution (p50/p95/p99 derivable
  from any snapshot);
* the tracer's *stage accumulator*, a plain ``{stage: seconds}`` dict
  the owning pipeline drains once per tick
  (:meth:`Tracer.drain_stages`) to attach a ``stage_seconds`` breakdown
  to its tick result.

Spans nest freely — an enclosing span's time includes its children's
(stages are recorded under their own names, so a nested breakdown never
changes the keys callers see).  Seconds accumulate per stage between
drains, so a stage entered many times in one tick (per-worker
round-trips, segmented drains) reports its per-tick total.

The disabled path is the design constraint: ``Tracer(enabled=False)``
makes :meth:`span` return one shared no-op context manager — no clock
reads, no dict writes, no histogram — benched at well under the 2%
tick-overhead budget (``benchmarks/test_bench_obs.py``).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.obs.metrics import DEFAULT_BUCKETS, Registry, get_registry

__all__ = ["Span", "TickClock", "Tracer", "get_tracer"]

#: Histogram family every tracer records completed spans into.
STAGE_HISTOGRAM = "repro_stage_seconds"

#: Histogram family a service records each tick's wall clock into.
TICK_HISTOGRAM = "repro_tick_seconds"


class _NullSpan:
    """The shared no-op context manager of a disabled tracer."""

    __slots__ = ()
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Span:
    """One live timing context; exposes its duration as ``seconds``."""

    __slots__ = ("_tracer", "stage", "seconds", "_start")

    def __init__(self, tracer: "Tracer", stage: str) -> None:
        self._tracer = tracer
        self.stage = stage
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._tracer._depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        self._tracer._record(self.stage, self.seconds)


class Tracer:
    """Times pipeline stages into a registry and a per-tick accumulator.

    Parameters
    ----------
    registry:
        Destination for the ``repro_stage_seconds`` histogram; defaults
        to the process-global registry.
    enabled:
        When false, :meth:`span` returns a shared no-op context manager
        and the tracer never reads a clock (the <2% overhead null path).
    buckets:
        Histogram upper bounds for the stage histogram (shared with any
        other tracer on the same registry — first creation wins).
    """

    def __init__(
        self,
        registry: Optional[Registry] = None,
        *,
        enabled: bool = True,
        buckets=DEFAULT_BUCKETS,
    ) -> None:
        self.enabled = enabled
        self._registry = registry or get_registry()
        self._histogram = self._registry.histogram(
            STAGE_HISTOGRAM,
            "Wall-clock seconds spent per pipeline stage",
            labelnames=("stage",),
            buckets=buckets,
        )
        self._stages: Dict[str, float] = {}
        self._depth = 0

    @property
    def registry(self) -> Registry:
        """The registry completed spans are recorded into."""
        return self._registry

    @property
    def depth(self) -> int:
        """Currently open spans (nesting level)."""
        return self._depth

    def span(self, stage: str):
        """A context manager timing one ``stage``; no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, stage)

    def _record(self, stage: str, seconds: float) -> None:
        self._depth -= 1
        self._stages[stage] = self._stages.get(stage, 0.0) + seconds
        self._histogram.labels(stage=stage).observe(seconds)

    def drain_stages(self) -> Dict[str, float]:
        """Return and reset the ``{stage: seconds}`` accumulated so far.

        The per-tick handoff: the owning pipeline drains at each tick
        boundary so every tick result carries exactly its own stage
        breakdown.  Registry histograms are cumulative and unaffected.
        """
        if not self._stages:
            return {}
        stages = self._stages
        self._stages = {}
        return stages


class TickClock:
    """One service's per-tick wall clock, into ``repro_tick_seconds``.

    :meth:`start` marks a tick's first work — a frame feed (which
    ``restart``s, so a rejected frame's time is not carried over), or
    ``end_tick`` itself for an event-fed tick — and :meth:`stop`
    observes the elapsed seconds once, at the close of ``end_tick``.
    Events merely queued between ticks are not tick work.  Like the
    tracer's spans, a disabled tracer reads no clock.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._histogram = tracer.registry.histogram(
            TICK_HISTOGRAM, "Wall-clock seconds per service tick"
        )
        self._start: Optional[float] = None

    def start(self, *, restart: bool = False) -> None:
        if (restart or self._start is None) and self._tracer.enabled:
            self._start = time.perf_counter()

    def stop(self) -> None:
        if self._start is not None:
            self._histogram.observe(time.perf_counter() - self._start)
            self._start = None


#: The process-global tracer shared instrumentation (network monitor)
#: defaults to.
_GLOBAL_TRACER: Optional[Tracer] = None


def get_tracer() -> Tracer:
    """The process-global :class:`Tracer` (enabled, global registry).

    Created lazily so a test that swapped the global registry first
    gets a tracer bound to the registry it sees.
    """
    global _GLOBAL_TRACER
    if (
        _GLOBAL_TRACER is None
        or _GLOBAL_TRACER._registry is not get_registry()
    ):
        _GLOBAL_TRACER = Tracer()
    return _GLOBAL_TRACER
