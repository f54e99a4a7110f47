"""Detection-plane benchmarks: array banks beat the scalar loop.

The asserted claim: a vectorized
:class:`~repro.detection.banks.DetectorBank` consumes a multi-step QoS
stream ≥ 5x faster than the per-device scalar
:class:`~repro.detection.composite.DeviceMonitor` loop at
``n ∈ {1k, 10k}``, ``d ∈ {2, 3}``, while producing *identical* flag
sequences (the banks' bit-exact equivalence contract — the speed means
nothing if the flags drift).

Every run appends rows to ``_SUMMARY_ROWS``; after the module,
``benchmarks/conftest.py`` writes them to the path in
``BENCH_DETECT_JSON`` when that variable is set. CI uploads it as a
workflow artifact and ``tools/bench_merge.py`` folds it into
``BENCH_summary.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.detection.banks import DetectorSpec
from repro.detection.composite import DeviceMonitor

#: (n, d) grid for the claim; steps shrink with n to keep the scalar
#: side's wall-clock tolerable in CI.
SCALES = [(1_000, 2), (1_000, 3), (10_000, 2), (10_000, 3)]

_SUMMARY_ROWS: list = []


def _qos_stream(n, d, steps, *, seed=0, anomaly_rate=0.01):
    """A drifting fleet stream with sprinkled jump anomalies."""
    rng = np.random.default_rng(seed)
    base = np.clip(rng.normal(0.85, 0.04, (n, d)), 0.0, 1.0)
    stream = np.empty((steps, n, d))
    for k in range(steps):
        base = np.clip(base + rng.normal(0.0, 0.004, (n, d)), 0.0, 1.0)
        snapshot = base.copy()
        jumpers = rng.random(n) < anomaly_rate
        if jumpers.any():
            snapshot[jumpers] = np.clip(
                snapshot[jumpers] - rng.uniform(0.2, 0.4, (int(jumpers.sum()), d)),
                0.0,
                1.0,
            )
        stream[k] = snapshot
    return stream


def _run_bank(spec, stream):
    steps, n, d = stream.shape
    bank = spec.bank(n, d)
    start = time.perf_counter()
    flags = [bank.observe_batch(stream[k]).flags for k in range(steps)]
    return time.perf_counter() - start, np.array(flags)


def _run_scalar_monitors(spec, stream):
    """The pre-refactor tick path: one DeviceMonitor.observe per device."""
    steps, n, d = stream.shape
    factory = spec.scalar_factory()
    monitors = [DeviceMonitor(factory, d) for _ in range(n)]
    flags = np.zeros((steps, n), dtype=bool)
    start = time.perf_counter()
    for k in range(steps):
        snapshot = stream[k]
        for j, monitor in enumerate(monitors):
            flags[k, j] = monitor.observe(snapshot[j]).abnormal
    return time.perf_counter() - start, flags


@pytest.mark.parametrize("n,d", SCALES)
def test_bank_beats_scalar_device_monitor_loop(n, d):
    steps = 20 if n <= 1_000 else 6
    stream = _qos_stream(n, d, steps, seed=n + d)
    spec = DetectorSpec("step", {"max_step": 0.12})
    bank_time, bank_flags = _run_bank(spec, stream)
    scalar_time, scalar_flags = _run_scalar_monitors(spec, stream)

    # Flag identity first: the vectorized plane must not drift.
    assert np.array_equal(bank_flags, scalar_flags)

    # The acceptance assertion: ≥ 5x on the detection tick path
    # (measured ~50-100x; the margin absorbs noisy CI boxes).
    assert bank_time * 5 < scalar_time, (
        f"bank {bank_time * 1e3:.1f}ms not 5x faster than scalar "
        f"{scalar_time * 1e3:.1f}ms at n={n}, d={d}"
    )
    _SUMMARY_ROWS.append(
        {
            "claim": "observe_batch",
            "n": n,
            "d": d,
            "steps": steps,
            "bank_seconds": bank_time,
            "scalar_seconds": scalar_time,
            "speedup": scalar_time / bank_time,
        }
    )


def test_all_families_flag_identical_at_scale():
    """Every family's bank matches its scalar loop on a 1k-device stream."""
    n, d, steps = 1_000, 2, 12
    stream = _qos_stream(n, d, steps, seed=7)
    specs = {
        "step": DetectorSpec("step", {"max_step": 0.1}),
        "band": DetectorSpec("band", {"low": 0.5}),
        "ewma": DetectorSpec("ewma", {"alpha": 0.3, "nsigma": 4.0, "warmup": 4}),
        "shewhart": DetectorSpec("shewhart", {"window": 6, "nsigma": 4.0, "warmup": 3}),
        "cusum": DetectorSpec("cusum", {"threshold": 0.2, "drift": 0.01, "warmup": 4}),
        "holt-winters": DetectorSpec("holt-winters", {"band": 5.0, "warmup": 4}),
        "kalman": DetectorSpec("kalman", {"nsigma": 5.0, "warmup": 3}),
    }
    for family, spec in specs.items():
        bank_time, bank_flags = _run_bank(spec, stream)
        ref = spec.bank(n, d, plane="scalar")
        ref_flags = np.array(
            [ref.observe_batch(stream[k]).flags for k in range(steps)]
        )
        assert np.array_equal(bank_flags, ref_flags), family
