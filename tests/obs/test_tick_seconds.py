"""``repro_tick_seconds``: one wall-clock observation per closed tick.

Both services observe the histogram once per ``end_tick`` — frame-fed
ticks from the feed's first work, event-fed ticks from ``end_tick``
itself — and a disabled tracer reads no clock, so it records nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import Registry
from repro.obs.trace import TICK_HISTOGRAM, Tracer
from repro.online import (
    OnlineCharacterizationService,
    QosUpdate,
    ServiceConfig,
    ShardedService,
)


def make_service(kind, tracer, pts):
    cfg = ServiceConfig(r=0.03, tau=2)
    if kind == "single":
        return OnlineCharacterizationService(pts, cfg, tracer=tracer)
    return ShardedService(pts, cfg, topology_shards=2, tracer=tracer)


def tick_histogram(registry):
    samples = registry.snapshot()[TICK_HISTOGRAM]["samples"]
    return samples[0] if samples else {"count": 0, "sum": 0.0}


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_one_observation_per_tick(kind):
    registry = Registry()
    rng = np.random.default_rng(0)
    pts = rng.random((200, 2))
    svc = make_service(kind, Tracer(registry), pts)
    with svc:
        flags = np.zeros(200, dtype=bool)
        flags[:20] = True
        for _ in range(3):
            pts[:20] = np.clip(pts[:20] + rng.normal(0, 0.01, (20, 2)), 0, 1)
            svc.feed_snapshot(pts, flags)
        svc.ingest(QosUpdate(5, (0.5, 0.5), True))
        svc.end_tick()
        svc.end_tick()
    hist = tick_histogram(registry)
    assert hist["count"] == 5
    assert hist["sum"] > 0.0
    bucketed = sum(hist["buckets"].values())
    assert bucketed + hist["inf"] >= 1


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_disabled_tracer_records_nothing(kind):
    registry = Registry()
    pts = np.random.default_rng(1).random((100, 2))
    svc = make_service(kind, Tracer(registry, enabled=False), pts)
    with svc:
        svc.feed_snapshot(pts, np.zeros(100, dtype=bool))
        svc.end_tick()
    assert tick_histogram(registry)["count"] == 0


def test_prometheus_exposition_carries_tick_buckets():
    from repro.obs.export import render_prometheus

    registry = Registry()
    pts = np.random.default_rng(2).random((50, 2))
    with make_service("single", Tracer(registry), pts) as svc:
        svc.end_tick()
    assert "repro_tick_seconds_bucket" in render_prometheus(registry)
