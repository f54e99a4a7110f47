#!/usr/bin/env python
"""Quickstart for the online characterization service, end to end.

Part 1 — replay: the same two-day, 120-gateway trace as
``trace_replay.py`` (diurnal cycles, one massive outage, one flaky
gateway), but driven through the *online* pipeline: detectors turn
consecutive snapshots into report-on-change events, the service applies
them to its columnar store, invalidates only the verdicts whose ``4r``
neighbourhoods the events touched, and serves the rest from cache —
while staying verdict-identical to batch recharacterization.

Part 2 — load: a synthetic scenario stream (1% churn, coordinated
bursts) pumped through the service, the shape of a scale run
(``python -m repro.cli serve`` is the CLI twin of this loop).

Run:  python examples/online_replay.py
"""

import tracemalloc

import numpy as np

from repro.core.types import AnomalyType
from repro.detection import StepThresholdDetector
from repro.io import Incident, TraceConfig, generate_trace
from repro.online import (
    LoadGenerator,
    LoadProfile,
    MetricsSink,
    OnlineCharacterizationService,
    ReportSink,
    ServiceConfig,
    drive_load,
    replay_trace_online,
)

N_DEVICES = 120


def replay_part() -> None:
    config = TraceConfig(
        devices=N_DEVICES,
        services=2,
        steps=48,
        diurnal_period=24,
        diurnal_amplitude=0.05,
        noise_sigma=0.003,
        seed=12,
    )
    incidents = [
        Incident(start=18, duration=3, devices=tuple(range(40, 50)), service=0, drop=0.35),
        Incident(start=30, duration=4, devices=(7,), service=1, drop=0.5),
    ]
    trace = generate_trace(config, incidents)

    # Sinks observe every finished tick live: here, operator-style
    # reports for massive events only (the OTT policy as a sink).
    reports = ReportSink(kinds=(AnomalyType.MASSIVE,))
    metrics = MetricsSink()
    service = OnlineCharacterizationService(
        trace[0].qos,
        ServiceConfig(r=0.03, tau=3),
        sinks=(reports, metrics),
    )
    result = replay_trace_online(
        trace, lambda: StepThresholdDetector(max_step=0.12), service=service
    )

    print(f"replayed {len(result.ticks)} intervals, "
          f"{result.total_updates} events")
    print(f"verdicts recomputed: {result.total_recomputed}, "
          f"served from cache: {result.total_reused}")
    outage_tick = result.ticks[17]  # trace step 18
    assert sorted(outage_tick.flagged) == list(range(40, 50))
    assert all(v.is_massive for v in outage_tick.verdicts.values())
    flaky_tick = result.ticks[29]   # trace step 30
    assert list(flaky_tick.flagged) == [7]
    assert flaky_tick.verdicts[7].is_isolated
    massive_reports = {device for _, device, _ in reports.rows}
    assert set(range(40, 50)) <= massive_reports and 7 not in massive_reports
    print("online replay OK: outage certified massive, flaky gateway "
          "isolated,\nreports filtered by sink — identical to the batch "
          "replay, at a fraction of the work.\n")


def load_part() -> None:
    profile = LoadProfile(
        devices=2_000,
        churn=0.01,          # 1% of the fleet reports per tick
        flag_rate=0.1,
        burst_every=5,       # a coordinated 8-device jump every 5 ticks
        burst_size=8,
        seed=3,
    )
    generator = LoadGenerator(profile)
    service = OnlineCharacterizationService(
        generator.initial_positions(),
        ServiceConfig(r=0.02, tau=3, max_batch=512),
    )
    result = drive_load(service, generator, ticks=20)
    stats = service.stats
    throughput = result.total_updates / max(result.elapsed_seconds, 1e-9)
    print(f"scenario run: {stats.ticks} ticks, {stats.updates_applied} events, "
          f"{throughput:,.0f} events/s")
    print(f"recomputed {stats.verdicts_recomputed} verdicts, reused "
          f"{stats.verdicts_reused}")
    assert stats.verdicts_recomputed > 0

    # The columnar store's memory story: a device is a row across a few
    # flat columns, not a Python object graph.
    store = service.store
    print(f"store memory: {store.nbytes:,} bytes total, "
          f"{store.bytes_per_device:.0f} bytes/device "
          f"(n={store.n}, d={store.dim})")

    # And its allocation story: one steady non-verdict tick allocates a
    # handful of numpy temporaries — no per-device object plane.
    flags = np.zeros(store.n, dtype=bool)
    positions = store.current_positions(copy=True)
    service.feed_snapshot(positions, flags)  # settle: clear leftover flags
    movers = np.random.default_rng(0).choice(store.n, size=20, replace=False)
    positions[movers] = np.clip(positions[movers] + 0.005, 0.0, 1.0)
    tracemalloc.start()
    service.feed_snapshot(positions, flags)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"steady tick allocation peak: {peak:,} bytes "
          f"({peak / store.n:.1f} bytes/device)")
    print("load generator OK — scale this with "
          "`python -m repro.cli serve --devices 1000000`.")


def main() -> None:
    replay_part()
    load_part()


if __name__ == "__main__":
    main()
