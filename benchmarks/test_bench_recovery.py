"""Fault-tolerance cost: checkpoint latency.

Measured at n=10k, 1% churn: a full checkpoint (store planes + tracker
+ verdict map + stats) of a 10k-device service writes in a few
milliseconds and restores verdict-identically — cheap enough for an
every-tick cadence.  A second row feeds the same fleet raw frames
through the in-service step-threshold bank, so its checkpoint also
carries the detector state and the last detection (``aux_bytes``).  A
third row runs that frame-fed fleet on 2 process shards.  The two
frame-fed rows time the restore's ``load_checkpoint`` and its rebuild
apart (``restore_seconds`` is their sum).

Every run appends rows to ``_SUMMARY_ROWS``; after the module,
``benchmarks/conftest.py`` writes them to the path in
``BENCH_RECOVERY_JSON`` when that variable is set. CI merges it into
``BENCH_summary.json`` and uploads both.
"""

from __future__ import annotations

import time
import zipfile

from repro.detection.banks import default_detector_spec
from repro.online import (
    LoadGenerator,
    LoadProfile,
    OnlineCharacterizationService,
    ServiceConfig,
    ShardedService,
    drive_load,
    drive_load_measurements,
    load_checkpoint,
    restore_service,
    restore_sharded_service,
    save_checkpoint,
)

_SUMMARY_ROWS: list = []

N, CHURN = 10_000, 0.01


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


def _frame_fed_row(tmp_path, service, restore):
    """Checkpoint a frame-fed ``service``; time the write, the load and the
    rebuild apart, and check the restored service resumes identically."""
    generator = LoadGenerator(_profile())
    with service:
        drive_load_measurements(service, generator, 3)
        path = tmp_path / "bench.npz"
        write_seconds = min(
            _timed(lambda: save_checkpoint(service, path))
            for _ in range(3)
        )
        reference = _history(
            drive_load_measurements(service, generator, 1).ticks
        )
    load_seconds, loaded = min(
        (_timed_value(lambda: load_checkpoint(path)) for _ in range(3)),
        key=lambda pair: pair[0],
    )
    rebuilds = []
    restored = None
    for _ in range(3):
        if restored is not None:
            restored.close()
        seconds, restored = _timed_value(lambda: restore(loaded))
        rebuilds.append(seconds)
    with restored:
        generator2 = LoadGenerator(_profile())
        generator2.fast_forward(restored.current_tick)
        resumed = _history(
            drive_load_measurements(restored, generator2, 1).ticks
        )
    assert resumed == reference
    with zipfile.ZipFile(path) as archive:
        aux_bytes = archive.getinfo("aux_blob.npy").file_size
    return {
        "n": N,
        "detector": "step",
        "write_seconds": write_seconds,
        "load_seconds": load_seconds,
        "rebuild_seconds": min(rebuilds),
        "restore_seconds": load_seconds + min(rebuilds),
        "bytes": path.stat().st_size,
        "aux_bytes": aux_bytes,
    }


def test_frame_fed_checkpoint_with_detector_bank(tmp_path):
    cfg = ServiceConfig(r=0.01, tau=3)
    service = OnlineCharacterizationService(
        LoadGenerator(_profile()).initial_positions(),
        cfg,
        detector=default_detector_spec(cfg.r),
    )
    row = _frame_fed_row(tmp_path, service, restore_service)
    _SUMMARY_ROWS.append({"claim": "checkpoint_latency_frame_fed", **row})


def test_process_sharded_frame_fed_checkpoint(tmp_path):
    cfg = ServiceConfig(r=0.01, tau=3)
    service = ShardedService(
        LoadGenerator(_profile()).initial_positions(),
        cfg,
        topology_shards=2,
        topology_workers="process",
        detector=default_detector_spec(cfg.r),
    )
    row = _frame_fed_row(
        tmp_path,
        service,
        lambda loaded: restore_sharded_service(loaded, topology_workers="process"),
    )
    _SUMMARY_ROWS.append(
        {"claim": "checkpoint_latency_frame_fed_sharded", "shards": 2, **row}
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _timed_value(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value
