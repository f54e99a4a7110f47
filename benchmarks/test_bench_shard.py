"""Sharded-topology benchmarks: spatial scale-out of the tick pipeline.

Asserted claims, at ``n = 10k`` with ~1% flagged churn per tick:

* the cell→shard tiling balances a uniform population — no shard owns
  more than twice the smallest shard's share;
* the sharded tick emits the same flagged set and verdict types as the
  single service on the identical stream (the identity contract, held
  at benchmark scale);
* per-shard partial tick work shrinks with the shard count — the
  per-tick verdict load of the busiest shard at 4 shards is well below
  the single-shard load (the near-linear partial-work curve CI tracks
  via the summary artifact).

Wall-clock per configuration is *recorded* in the summary rows (CI
plots the scaling trajectory) but only asserted where it can be real:
``scaling_efficiency`` rows compare inline vs process topologies per
shard count, and the >=2x-at-4-process-shards gate arms only when
``os.cpu_count() >= 4`` — on a one- or two-core runner a process
speedup is physically impossible and the row records that honestly
(every row carries ``cpu_count``).  The partial-work counters remain
the core-count-independent proxy.

A 100k-device scaling lane rides behind ``REPRO_BENCH_SHARD_100K=1``
and a 1M-device smoke behind ``REPRO_BENCH_SHARD_1M=1`` (minutes of
runtime; off in the default CI lane).

Every run appends rows to ``_SUMMARY_ROWS``; after the module,
``benchmarks/conftest.py`` writes them to the path in
``BENCH_SHARD_JSON`` when that variable is set. CI merges it into
``BENCH_summary.json`` and uploads both.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.online import OnlineCharacterizationService, ServiceConfig, ShardedService

CFG = ServiceConfig(r=0.01, tau=2)
N = 10_000
TICKS = 3

_SUMMARY_ROWS: list = []


def _stream(n, ticks, seed):
    """Pre-generated identical (frame, flags) stream for every config."""
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2))
    frames = []
    flags = np.zeros(n, dtype=bool)
    for _ in range(ticks):
        movers = rng.choice(n, size=n // 100, replace=False)
        positions[movers] = np.clip(
            positions[movers] + rng.normal(0, 0.004, (len(movers), 2)), 0, 1
        )
        flags = flags.copy()
        flags[movers] = rng.random(len(movers)) < 0.5
        frames.append((positions.copy(), flags))
    return frames


def _drive(service, frames):
    """Feed the stream; returns (seconds, per-tick busiest-shard load,
    total halo bytes).  Shard load comes from the front door's per-shard
    flagged counters, which work under both worker topologies (the
    inline workers' stores are in-process, the process workers' are
    not)."""
    peak_targets = []
    halo_bytes = 0
    start = time.perf_counter()
    for positions, flags in frames:
        out = service.feed_snapshot(positions, flags)
        if hasattr(service, "shard_flagged_counts"):
            peak_targets.append(max(service.shard_flagged_counts()))
        else:
            peak_targets.append(len(out.flagged))
        halo_bytes += getattr(out, "halo_bytes", 0)
    return time.perf_counter() - start, peak_targets, halo_bytes


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_tick_scaling(shards):
    frames = _stream(N, TICKS, seed=0)
    with ShardedService(
        frames[0][0], CFG, topology_shards=shards
    ) as service:
        sizes = service.shard_sizes()
        assert sum(sizes) == N
        # Uniform population, contiguous cell boxes: balanced shards.
        assert max(sizes) <= 2 * max(1, min(sizes)), sizes
        seconds, peaks, _ = _drive(service, frames)
        assert service.current_tick == TICKS
        assert all(service.verdicts), "flagged devices carry verdicts"
    _SUMMARY_ROWS.append(
        {
            "claim": "tick_scaling",
            "n": N,
            "topology_shards": shards,
            "ticks": TICKS,
            "seconds": seconds,
            "per_tick_ms": seconds / TICKS * 1e3,
            "shard_sizes": list(sizes),
            "peak_shard_flagged": max(peaks),
        }
    )


def test_busiest_shard_load_shrinks_with_shard_count():
    """Partial per-shard work is the stable scaling proxy: at 4 shards
    the busiest shard owns well under the whole flagged set."""
    frames = _stream(N, TICKS, seed=0)
    loads = {}
    for shards in (1, 4):
        with ShardedService(
            frames[0][0], CFG, topology_shards=shards
        ) as service:
            _, peaks, _ = _drive(service, frames)
            loads[shards] = max(peaks)
    # A uniform flagged population splits ~4 ways; 60% is a loose gate
    # covering stat noise at ~50 flagged devices per tick.
    assert loads[4] <= 0.6 * loads[1], loads
    _SUMMARY_ROWS.append(
        {
            "claim": "partial_work",
            "n": N,
            "peak_flagged_1_shard": loads[1],
            "peak_flagged_4_shards": loads[4],
        }
    )


def _scaling_rows(n, ticks, seed, topology, shard_counts, churn=100):
    """Drive the identical stream per shard count; emit efficiency rows.

    Speedup and parallel efficiency are relative to the 1-shard run of
    the *same* topology, so process startup overhead never flatters the
    inline numbers (or vice versa).
    """
    frames = _stream(n, ticks, seed)
    rows = []
    base_seconds = None
    for shards in shard_counts:
        with ShardedService(
            frames[0][0],
            CFG,
            topology_shards=shards,
            topology_workers=topology,
        ) as service:
            seconds, _, halo_bytes = _drive(service, frames)
            assert service.current_tick == ticks
        if base_seconds is None:
            base_seconds = seconds
        speedup = base_seconds / seconds if seconds > 0 else float("inf")
        rows.append(
            {
                "claim": "scaling_efficiency",
                "n": n,
                "topology_workers": topology,
                "topology_shards": shards,
                "ticks": ticks,
                "seconds": seconds,
                "per_tick_ms": seconds / ticks * 1e3,
                "speedup": speedup,
                "parallel_efficiency": speedup / shards,
                "halo_bytes_per_tick": halo_bytes / ticks,
                "cpu_count": os.cpu_count(),
            }
        )
    return rows


@pytest.mark.parametrize("topology", ["inline", "process"])
def test_scaling_efficiency(topology):
    """Record speedup + parallel efficiency per shard count and topology.

    The >=2x gate at 4 process shards only arms on a >=4-core machine:
    below that, process parallelism cannot beat wall clock and the rows
    simply document the overhead (cpu_count is in every row so CI can
    tell a failed claim from an unarmed one).
    """
    rows = _scaling_rows(N, TICKS, seed=0, topology=topology,
                         shard_counts=(1, 2, 4))
    _SUMMARY_ROWS.extend(rows)
    by_shards = {row["topology_shards"]: row for row in rows}
    if topology == "process" and (os.cpu_count() or 1) >= 4:
        assert by_shards[4]["speedup"] >= 2.0, by_shards


@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SHARD_100K"),
    reason="100k scaling lane: set REPRO_BENCH_SHARD_100K=1 to run",
)
@pytest.mark.parametrize("topology", ["inline", "process"])
def test_scaling_efficiency_100k(topology):
    rows = _scaling_rows(
        100_000, ticks=2, seed=5, topology=topology, shard_counts=(1, 4)
    )
    _SUMMARY_ROWS.extend(rows)
    by_shards = {row["topology_shards"]: row for row in rows}
    if topology == "process" and (os.cpu_count() or 1) >= 4:
        assert by_shards[4]["speedup"] >= 2.0, by_shards


def test_sharded_matches_single_at_bench_scale():
    n, ticks = 5_000, 2
    frames = _stream(n, ticks, seed=3)
    with OnlineCharacterizationService(frames[0][0].copy(), CFG) as single:
        with ShardedService(
            frames[0][0].copy(), CFG, topology_shards=4
        ) as sharded:
            for positions, flags in frames:
                want = single.feed_snapshot(positions, flags)
                got = sharded.feed_snapshot(positions, flags)
                assert got.flagged == want.flagged
                assert set(got.verdicts) == set(want.verdicts)
                for device, verdict in want.verdicts.items():
                    assert (
                        got.verdicts[device].anomaly_type
                        == verdict.anomaly_type
                    ), device


@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SHARD_1M"),
    reason="1M-device scale smoke: set REPRO_BENCH_SHARD_1M=1 to run",
)
@pytest.mark.parametrize("topology", ["inline", "process"])
def test_million_device_tick(topology):
    n = 1_000_000
    rng = np.random.default_rng(7)
    positions = rng.random((n, 2))
    cfg = ServiceConfig(r=0.001, tau=2)
    with ShardedService(
        positions,
        cfg,
        topology_shards=8,
        topology_workers=topology,
    ) as service:
        assert sum(service.shard_sizes()) == n
        flags = np.zeros(n, dtype=bool)
        flags[rng.choice(n, size=1_000, replace=False)] = True
        start = time.perf_counter()
        out = service.feed_snapshot(positions, flags)
        seconds = time.perf_counter() - start
        assert len(out.flagged) == 1_000
    _SUMMARY_ROWS.append(
        {
            "claim": "million_devices",
            "n": n,
            "topology_workers": topology,
            "seconds": seconds,
            "cpu_count": os.cpu_count(),
        }
    )
