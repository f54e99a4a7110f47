"""Fault-tolerance cost: supervision overhead and checkpoint latency.

Two claims from the fault-tolerance PR, measured at the acceptance
scale (n=10k, 1% churn):

* arming the supervision machinery (``dispatch_deadline`` + health
  accounting) costs < 3% per tick on the pooled online replay — the
  deadline turns a blocking ``recv`` into ``poll(timeout)`` and the
  health machine is O(1) bookkeeping per run, so a fault-free stream
  pays nearly nothing for its crash insurance;
* a full checkpoint (store planes + tracker + verdict map + stats) of
  a 10k-device service writes in a few milliseconds and restores
  verdict-identically — cheap enough for an every-tick cadence.

Every run appends rows to a ``BENCH_recovery.json`` summary written at
session end (path overridable via ``BENCH_RECOVERY_JSON``); CI merges
it into ``BENCH_summary.json`` and uploads both.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.engine import CharacterizationEngine, EngineConfig
from repro.online import (
    LoadGenerator,
    LoadProfile,
    OnlineCharacterizationService,
    ServiceConfig,
    drive_load,
    restore_service,
    save_checkpoint,
)

_SUMMARY_ROWS: list = []

N, CHURN = 10_000, 0.01
WORKERS = 6


@pytest.fixture(scope="module", autouse=True)
def bench_summary_artifact():
    """Collect per-test rows; write the JSON summary after the module."""
    yield
    if not _SUMMARY_ROWS:
        return
    path = os.environ.get("BENCH_RECOVERY_JSON", "BENCH_recovery.json")
    with open(path, "w") as handle:
        json.dump(
            {"benchmark": "recovery", "rows": _SUMMARY_ROWS}, handle, indent=2
        )


def _profile():
    return LoadProfile(
        devices=N, services=2, churn=CHURN, flag_rate=0.05, seed=42
    )


def _history(ticks):
    return [
        {
            j: (v.anomaly_type, v.rule, v.witness)
            for j, v in tick.verdicts.items()
        }
        for tick in ticks
    ]


def _verdict_history(result):
    return _history(result.ticks)


def test_supervision_overhead_under_3_percent_per_tick():
    # Paired measurement: two warm pools run the *same* stream in
    # lockstep, tick order alternating, so scheduler drift hits both
    # configurations alike and the median per-tick ratio isolates the
    # supervision machinery itself (a min-of-runs design drowns a sub-1%
    # effect in multi-percent run-to-run noise on a busy box).
    import statistics

    def build(deadline):
        generator = LoadGenerator(_profile())
        engine = CharacterizationEngine(
            EngineConfig(
                backend="process",
                workers=WORKERS,
                min_process_devices=2,
                dispatch_deadline=deadline,
            )
        )
        service = OnlineCharacterizationService(
            generator.initial_positions(),
            ServiceConfig(r=0.01, tau=3, reuse_motions=True),
            engine=engine,
        )
        return service, generator, engine

    plain, gen_plain, engine_plain = build(None)
    armed, gen_armed, engine_armed = build(5.0)
    ticks = 24
    plain_times, armed_times = [], []
    plain_ticks, armed_ticks = [], []
    with engine_plain, engine_armed:
        for _ in range(2):  # warm both pools and flagged sets
            plain.ingest_many(gen_plain.tick_updates())
            plain.end_tick()
            armed.ingest_many(gen_armed.tick_updates())
            armed.end_tick()
        for i in range(ticks):
            pairs = [
                (plain, gen_plain, plain_times, plain_ticks),
                (armed, gen_armed, armed_times, armed_ticks),
            ]
            if i % 2:
                pairs.reverse()
            for service, generator, times, history in pairs:
                service.ingest_many(generator.tick_updates())
                start = time.perf_counter()
                tick = service.end_tick()
                times.append(time.perf_counter() - start)
                history.append(tick)
    assert _history(armed_ticks) == _history(plain_ticks)
    ratio = statistics.median(
        a / p for a, p in zip(armed_times, plain_times)
    )
    overhead = ratio - 1.0
    assert overhead < 0.03, (
        f"supervision overhead {overhead:.1%} >= 3% per tick "
        f"(median armed/plain ratio over {ticks} paired ticks at n={N})"
    )
    _SUMMARY_ROWS.append(
        {
            "claim": "supervision_overhead",
            "n": N,
            "churn": CHURN,
            "ticks": ticks,
            "plain_seconds": sum(plain_times),
            "armed_seconds": sum(armed_times),
            "overhead_percent": 100.0 * overhead,
        }
    )


def test_checkpoint_write_and_restore_latency(tmp_path):
    generator = LoadGenerator(_profile())
    service = OnlineCharacterizationService(
        generator.initial_positions(),
        ServiceConfig(r=0.01, tau=3),
    )
    with service:
        drive_load(service, generator, 3)
        path = tmp_path / "bench.npz"
        write_seconds = min(
            _timed(lambda: save_checkpoint(service, path))
            for _ in range(3)
        )
        reference = _verdict_history(drive_load(service, generator, 1))
    restore_seconds, restored = min(
        (_timed_value(lambda: restore_service(path)) for _ in range(3)),
        key=lambda pair: pair[0],
    )
    with restored:
        generator2 = LoadGenerator(_profile())
        generator2.fast_forward(restored.current_tick)
        resumed = _verdict_history(drive_load(restored, generator2, 1))
    assert resumed == reference
    _SUMMARY_ROWS.append(
        {
            "claim": "checkpoint_latency",
            "n": N,
            "write_seconds": write_seconds,
            "restore_seconds": restore_seconds,
            "bytes": path.stat().st_size,
        }
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _timed_value(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value
