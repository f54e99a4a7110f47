"""Metric primitives: counters, gauges, fixed-bucket histograms, registry.

The smallest useful slice of the Prometheus data model, with none of the
client-library machinery:

* a metric *family* has a name, a help string and a fixed tuple of label
  names; :meth:`MetricFamily.labels` resolves one labelled *child* per
  distinct label-value tuple (families without labels act as their own
  single child, so ``registry.counter("x").inc()`` just works);
* :class:`Counter` children only go up, :class:`Gauge` children move
  freely, :class:`Histogram` children bin observations into *fixed*
  upper-bound buckets (cumulative ``le`` semantics on export) and keep a
  running sum/count — p50/p95/p99 are derivable from any snapshot by
  linear interpolation (:meth:`Histogram.quantile`), which is exactly
  what ``histogram_quantile`` does server-side;
* a :class:`Registry` owns families, hands them out idempotently (same
  name, kind and label names → same family; a mismatch is a
  configuration error), and :meth:`Registry.snapshot`\\ s everything to
  plain dicts — the one representation both exposition formats render.

A hard per-family cardinality cap (``max_label_sets``) turns the classic
"label value per device id" mistake into an immediate
:class:`~repro.core.errors.ConfigurationError` instead of a slow OOM.

Everything is thread-safe: the export server thread snapshots while the
service thread writes.  Mutation cost is one lock acquire plus a float
add — invisible next to a characterization tick, and the tracer's
disabled path never reaches these objects at all.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.errors import ConfigurationError

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "Registry",
    "get_registry",
]

#: Default histogram upper bounds (seconds), tuned for tick-stage spans:
#: sub-millisecond store work up to multi-second full recomputes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """Monotonically increasing value (one labelled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; cannot inc by {amount!r}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class Gauge:
    """Instantaneous value that can move in either direction."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the value up by ``amount``."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the value down by ``amount``."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class Histogram:
    """Fixed-bucket histogram with a running sum and count.

    ``buckets`` are *upper bounds* in ascending order; an implicit
    ``+Inf`` bucket catches everything above the last bound.  Bucket
    counts are stored non-cumulatively and accumulated at export time
    (Prometheus ``le`` buckets are cumulative).  Boundary semantics match
    Prometheus: an observation equal to a bound lands in that bound's
    bucket (``le`` is *less-or-equal*).
    """

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram buckets must be strictly increasing, got {bounds}"
            )
        self._lock = threading.Lock()
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (default one).

        A caller that tallies equal values first makes one call per
        distinct value instead of one per observation.
        """
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += count
            self.sum += value * count
            self.count += count

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by intra-bucket interpolation.

        Mirrors PromQL's ``histogram_quantile``: linear within the
        target bucket, the last finite bound for the ``+Inf`` bucket,
        ``nan`` with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must lie in [0, 1], got {q!r}")
        with self._lock:
            total = self.count
            counts = list(self.counts)
        if total == 0:
            return float("nan")
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                into = (rank - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * into
        return self.bounds[-1]  # pragma: no cover - rank <= total always hits

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view: per-bound counts, +Inf overflow, sum, count."""
        with self._lock:
            counts = list(self.counts)
            total = self.count
            total_sum = self.sum
        return {
            "buckets": {
                str(bound): count
                for bound, count in zip(self.bounds, counts)
            },
            "inf": counts[-1],
            "sum": total_sum,
            "count": total,
        }


#: kind name -> child class
_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its labelled children.

    A family with no label names *is* its single child: every child
    method (``inc``/``set``/``observe``/…) proxies to
    ``labels()``-with-no-arguments, so unlabelled metrics skip the
    resolution step at call sites.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_label_sets: int = 1024,
    ) -> None:
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets)
        self._max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._buckets)
        return _KINDS[self.kind]()

    def labels(self, **labels: str):
        """Resolve (creating if needed) the child for one label set."""
        if set(labels) != set(self.labelnames):
            raise ConfigurationError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if len(self._children) >= self._max_label_sets:
                        raise ConfigurationError(
                            f"{self.name} exceeded {self._max_label_sets} "
                            "label sets — a label value is probably "
                            "carrying an unbounded id"
                        )
                    child = self._children[key] = self._make_child()
        return child

    # -- unlabelled proxies -------------------------------------------
    def _sole_child(self):
        if self.labelnames:
            raise ConfigurationError(
                f"{self.name} is labelled by {self.labelnames}; "
                "resolve a child with .labels(...)"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole_child().dec(amount)

    def set(self, value: float) -> None:
        self._sole_child().set(value)

    def observe(self, value: float, count: int = 1) -> None:
        self._sole_child().observe(value, count)

    def quantile(self, q: float) -> float:
        return self._sole_child().quantile(q)

    @property
    def value(self) -> float:
        return self._sole_child().value

    # -- export --------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view of the family and every child."""
        with self._lock:
            items = list(self._children.items())
        samples: List[Dict[str, object]] = []
        for key, child in items:
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                samples.append({"labels": labels, **child.snapshot()})
            else:
                samples.append({"labels": labels, "value": child.value})
        return {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "samples": samples,
        }


class Registry:
    """Owns metric families; snapshots them all to plain dicts.

    Family getters are idempotent so instrumented modules never
    coordinate creation order: the first caller creates, later callers
    (with a matching kind and label names) receive the same family.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, help: str, labelnames, **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = MetricFamily(
                    name, kind, help, labelnames, **kwargs
                )
            elif family.kind != kind or family.labelnames != tuple(labelnames):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames}; cannot re-register "
                    f"as {kind} with labels {tuple(labelnames)}"
                )
            return family

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        max_label_sets: int = 1024,
    ) -> MetricFamily:
        """Get-or-create a counter family."""
        return self._family(
            name, "counter", help, labelnames, max_label_sets=max_label_sets
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        max_label_sets: int = 1024,
    ) -> MetricFamily:
        """Get-or-create a gauge family."""
        return self._family(
            name, "gauge", help, labelnames, max_label_sets=max_label_sets
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_label_sets: int = 1024,
    ) -> MetricFamily:
        """Get-or-create a histogram family with fixed ``buckets``."""
        return self._family(
            name,
            "histogram",
            help,
            labelnames,
            buckets=buckets,
            max_label_sets=max_label_sets,
        )

    def families(self) -> Iterable[MetricFamily]:
        """The registered families, in registration order."""
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict view of every family — the export plane's input."""
        return {family.name: family.snapshot() for family in self.families()}


#: The process-global registry instrumented modules default to.
_GLOBAL_REGISTRY = Registry()


def get_registry() -> Registry:
    """The process-global :class:`Registry`."""
    return _GLOBAL_REGISTRY


def _reset_global_registry() -> Registry:
    """Swap in a fresh global registry (test isolation hook).

    Returns the previous registry.  Long-lived objects keep the family
    references they already resolved, so this only isolates *newly*
    constructed instruments — exactly what per-test construction wants.
    """
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = Registry()
    return previous
