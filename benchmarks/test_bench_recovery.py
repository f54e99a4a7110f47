"""Fault-tolerance cost: checkpoint latency.

Measured at n=10k, 1% churn: a full checkpoint (store planes + tracker
+ verdict map + stats) of a 10k-device service writes in a few
milliseconds and restores verdict-identically — cheap enough for an
every-tick cadence.  A second row feeds the same fleet raw frames
through the in-service step-threshold bank, so its checkpoint also
carries the detector state and the last detection (``aux_bytes``).

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
    drive_load,
    drive_load_measurements,
    restore_service,
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


def test_frame_fed_checkpoint_with_detector_bank(tmp_path):
    cfg = ServiceConfig(r=0.01, tau=3)
    generator = LoadGenerator(_profile())
    service = OnlineCharacterizationService(
        generator.initial_positions(),
        cfg,
        detector=default_detector_spec(cfg.r),
    )
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
    restore_seconds, restored = min(
        (_timed_value(lambda: restore_service(path)) for _ in range(3)),
        key=lambda pair: pair[0],
    )
    with restored:
        generator2 = LoadGenerator(_profile())
        generator2.fast_forward(restored.current_tick)
        resumed = _history(
            drive_load_measurements(restored, generator2, 1).ticks
        )
    assert resumed == reference
    with zipfile.ZipFile(path) as archive:
        aux_bytes = archive.getinfo("aux_blob.npy").file_size
    _SUMMARY_ROWS.append(
        {
            "claim": "checkpoint_latency_frame_fed",
            "n": N,
            "detector": "step",
            "write_seconds": write_seconds,
            "restore_seconds": restore_seconds,
            "bytes": path.stat().st_size,
            "aux_bytes": aux_bytes,
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
