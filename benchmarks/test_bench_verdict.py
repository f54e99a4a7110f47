"""Verdict benchmarks: ``characterize_many`` timings.

* ``Characterizer.characterize_many`` is timed at ``n ∈ {1k, 10k}`` with
  ~5% of devices flagged (radii chosen to keep neighbourhood density —
  and hence per-device verdict work — comparable across scales), and on
  an all-flagged fleet whose one 2r-connected component is above the
  motion-sharing bound (the per-device ball path).  These rows record
  timings only; verdict correctness is anchored on the omniscient
  oracle in ``tests/online/test_oracle_matrix.py``.

Every run appends rows to ``_SUMMARY_ROWS``; after the module,
``benchmarks/conftest.py`` writes them to the path in
``BENCH_VERDICT_JSON`` when that variable is set. CI uploads it as a
workflow artifact and feeds it to ``tools/bench_merge.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.characterize import Characterizer
from repro.core.neighborhood import MotionCache
from repro.core.transition import Snapshot, Transition

#: (n, r) grid for the timing rows; r keeps ~comparable flagged density
#: inside the 2r ball at both scales (flagged fraction is 5% of n).
SCALES = [(1_000, 0.1), (10_000, 0.03)]

_SUMMARY_ROWS: list = []


# ----------------------------------------------------------------------
# Timing rows: characterize_many
# ----------------------------------------------------------------------
def _verdict_scenario(n, r, *, frac=0.05, tau=3, seed=0):
    """~5% flagged: coherent clusters of tau+2 (massive-style) plus
    stragglers, so all of Theorems 5/6/7 fire."""
    rng = np.random.default_rng(seed)
    prev = rng.random((n, 2))
    flagged = sorted(
        int(j) for j in rng.choice(n, size=max(8, int(n * frac)), replace=False)
    )
    cur = prev.copy()
    i = 0
    while i < len(flagged):
        group = flagged[i : i + tau + 2]
        center = rng.random(2) * 0.8 + 0.1
        prev[group] = center + rng.normal(0, r / 2, (len(group), 2))
        cur[group] = np.clip(
            prev[group] + rng.normal(0, r / 3, (len(group), 2))
            + rng.normal(0, 0.05, 2),
            0,
            1,
        )
        i += tau + 2 + int(rng.integers(0, 2))
    prev = np.clip(prev, 0, 1)
    return prev, cur, flagged


def _time_characterize(prev, cur, flagged, r, tau, repeats, targets=None):
    targets = flagged if targets is None else targets
    best = float("inf")
    results = None
    for _ in range(repeats):
        transition = Transition(Snapshot(prev), Snapshot(cur), flagged, r, tau)
        # Warm the vectorized neighbourhood memo outside the timed
        # region, exactly as the engine does.
        transition.neighborhoods_batch(flagged)
        transition.neighborhoods_batch(flagged, radius_factor=4.0)
        characterizer = Characterizer(transition)
        start = time.perf_counter()
        results = characterizer.characterize_many(targets)
        best = min(best, time.perf_counter() - start)
    assert sorted(results) == sorted(targets)
    return best


@pytest.mark.parametrize("n,r", SCALES)
def test_characterize_many_timing(n, r):
    tau = 3
    prev, cur, flagged = _verdict_scenario(n, r, tau=tau)
    repeats = 3 if n <= 1_000 else 2
    seconds = _time_characterize(prev, cur, flagged, r, tau, repeats)
    _SUMMARY_ROWS.append(
        {
            "claim": "characterize_many",
            "n": n,
            "r": r,
            "flagged": len(flagged),
            "bitset_seconds": seconds,
        }
    )


def test_large_component_takes_the_per_device_path():
    """All-flagged 1k fleet at r=0.03: one 2r-connected component far
    above the sharing bound, so Theorem 7 pools take the per-device ball
    path.  Every 10th device is characterized."""
    n, r, tau = 1_000, 0.03, 3
    rng = np.random.default_rng(0)
    prev = rng.random((n, 2))
    cur = np.clip(prev + rng.normal(0, r / 3, (n, 2)), 0, 1)
    flagged = list(range(n))
    targets = flagged[::10]
    seconds = _time_characterize(prev, cur, flagged, r, tau, 1, targets)
    transition = Transition(Snapshot(prev), Snapshot(cur), flagged, r, tau)
    assert MotionCache(transition).component(0) is None
    _SUMMARY_ROWS.append(
        {
            "claim": "characterize_many_large_component",
            "n": n,
            "r": r,
            "flagged": n,
            "characterized": len(targets),
            "bitset_seconds": seconds,
        }
    )


def test_summary_rows_schema():
    """Rows carry what the CI artifact consumers expect: every row a
    claim, ``n`` and its seconds."""
    for row in _SUMMARY_ROWS:
        assert {"claim", "n"} <= set(row)
        assert row["bitset_seconds"] > 0.0
