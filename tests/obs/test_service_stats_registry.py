"""``ServiceStats`` counters land on the service tracer's registry.

A service built with ``tracer=Tracer(Registry())`` exports its
``repro_service_<stat>_total`` counters beside its gauges on that
registry, and adds none of them to the process-global one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import Registry, get_registry
from repro.obs.trace import Tracer
from repro.online import OnlineCharacterizationService, ServiceConfig, ShardedService


def make_service(kind, tracer, pts):
    cfg = ServiceConfig(r=0.03, tau=2)
    if kind == "single":
        return OnlineCharacterizationService(pts, cfg, tracer=tracer)
    return ShardedService(
        pts, cfg, topology_shards=2, topology_workers=kind, tracer=tracer
    )


@pytest.mark.parametrize("kind", ["single", "inline", "process"])
def test_stats_counters_land_on_the_tracer_registry(kind):
    registry = Registry()
    rng = np.random.default_rng(3)
    pts = rng.random((120, 2))
    flags = np.zeros(120, dtype=bool)
    flags[:12] = True
    with make_service(kind, Tracer(registry), pts) as svc:
        svc.feed_snapshot(np.clip(pts + 0.01, 0, 1), flags)
        assert svc.stats.ticks == 1
    snap = registry.snapshot()
    (sample,) = snap["repro_service_ticks_total"]["samples"]
    assert sample["value"] == 1
    assert snap["repro_service_updates_applied_total"]["samples"][0]["value"] > 0
    # The gauges were already there; the counters now sit beside them.
    assert "repro_service_devices" in snap
    assert "repro_service_ticks_total" not in get_registry().snapshot()
