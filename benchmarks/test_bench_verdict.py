"""Verdict benchmarks: ``characterize_many`` timings.

* ``Characterizer.characterize_many`` is timed at ``n ∈ {1k, 10k}`` with
  ~5% of devices flagged (radii chosen to keep neighbourhood density —
  and hence per-device verdict work — comparable across scales), and on
  an all-flagged fleet whose one 2r-connected component is above the
  motion-sharing bound (the per-device ball path).  These rows record
  timings only; verdict correctness is anchored on the omniscient
  oracle in ``tests/online/test_oracle_matrix.py``.
* ``CharacterizationEngine.characterize_run`` is timed on a lone-heavy
  tick with the ``fleet-100k`` perfbench mix — about 200 lone flagged
  devices, one group of 8 moving and one returning — built as a shard
  builds it: flagged participants numbered by rank, verdicts mapped to
  global ids through ``key_of``.  Most of these devices settle in the
  one-step Theorem 5 path.

Every run appends rows to ``_SUMMARY_ROWS``; after the module,
``benchmarks/conftest.py`` writes them to the path in
``BENCH_VERDICT_JSON`` when that variable is set. CI uploads it as a
workflow artifact and feeds it to ``tools/bench_merge.py``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.characterize import Characterizer
from repro.core.neighborhood import MotionCache
from repro.core.transition import Snapshot, Transition
from repro.core.types import DecisionRule
from repro.engine import CharacterizationEngine
from repro.online import OnlineCharacterizationService, QosUpdate, ServiceConfig

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


def _lone_heavy_tick(seed=0, lone=200, group=8):
    """One ``fleet-100k``-like tick as a shard's transition sees it: the
    flagged devices of a 100k fleet (``lone`` isolated jumps, one group
    of ``group`` moving together and one returning), numbered by the
    rank of their global id, and the rank→id map."""
    n, r = 100_000, 0.01 / np.sqrt(10)
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(n, size=lone + 2 * group, replace=False))
    order = rng.permutation(ids.size)
    prev = rng.uniform(0.05, 0.95, (ids.size, 2))
    cur = rng.uniform(0.05, 0.95, (ids.size, 2))  # lone devices jump
    for members in (order[lone : lone + group], order[lone + group :]):
        centre = rng.uniform(0.1, 0.9, 2)
        prev[members] = centre + rng.uniform(-r / 2, r / 2, (group, 2))
        cur[members] = prev[members] + 5 * r  # one common shift
    return Transition.from_views(prev, cur, range(ids.size), r, 2), ids.tolist()


def test_lone_heavy_engine_run():
    repeats = 30
    best = float("inf")
    for _ in range(repeats):
        transition, key_of = _lone_heavy_tick()
        engine = CharacterizationEngine()
        start = time.perf_counter()
        run = engine.characterize_run(transition, key_of=key_of)
        best = min(best, time.perf_counter() - start)
    rules = [verdict.rule for verdict in run.verdicts.values()]
    lone = sum(transition.is_lone(j) for j in transition.flagged_sorted)
    assert rules.count(DecisionRule.THEOREM_6) == 16
    assert lone == rules.count(DecisionRule.THEOREM_5) >= 195
    assert set(run.verdicts) == set(key_of)
    _SUMMARY_ROWS.append(
        {
            "claim": "characterize_lone_heavy",
            "n": 100_000,
            "r": transition.r,
            "flagged": len(transition.flagged),
            "lone": lone,
            "families_recomputed": run.families_recomputed,
            "repeats": repeats,
            "bitset_seconds": best,
            "cpu_count": os.cpu_count(),
        }
    )


# ----------------------------------------------------------------------
# Group-size sweep: the massive-10k stream at growing event sizes
# ----------------------------------------------------------------------
_PERFBENCH_STREAM = Path(__file__).resolve().parents[1] / "perfbench" / "stream.py"
SWEEP_SIZES = (10, 14, 18, 22)
SWEEP_WARMUP = 5
SWEEP_TICKS = 30


def _perfbench_stream():
    """``perfbench/stream.py`` as a module, without touching ``sys.path``
    (its dataclasses resolve their module through ``sys.modules``)."""
    name = "perfbench_stream"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, _PERFBENCH_STREAM)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


def _end_tick_seconds(stream, service):
    """Feed one stream tick as events and time ``end_tick`` alone."""
    st = stream.next_tick()
    service.ingest_many(
        [
            QosUpdate(device, position, flag)
            for device, position, flag in zip(
                st.changed.tolist(), st.positions.tolist(), st.flags.tolist()
            )
        ]
    )
    start = time.perf_counter()
    service.end_tick()
    return time.perf_counter() - start


def test_characterize_group_sweep():
    perfbench = _perfbench_stream()
    for size in SWEEP_SIZES:
        # perfbench's massive-10k stream (tau 2), event size varied.
        spec = perfbench.StreamSpec(
            n=10_000,
            dim=2,
            r=0.01,
            drift=0.01,
            isolated=0.001,
            events=8,
            event_size=size,
        )
        stream = perfbench.StationaryStream(spec, seed=1)
        service = OnlineCharacterizationService(
            stream.initial, ServiceConfig(r=spec.r, tau=2)
        )
        try:
            for _ in range(SWEEP_WARMUP):
                _end_tick_seconds(stream, service)
            ms = [
                1e3 * _end_tick_seconds(stream, service) for _ in range(SWEEP_TICKS)
            ]
        finally:
            service.close()
        _SUMMARY_ROWS.append(
            {
                "claim": "characterize_group_sweep",
                "n": spec.n,
                "event_size": size,
                "warmup_ticks": SWEEP_WARMUP,
                "ticks": SWEEP_TICKS,
                "p50_ms": float(np.percentile(ms, 50)),
                "p90_ms": float(np.percentile(ms, 90)),
                "max_ms": max(ms),
                "cpu_count": os.cpu_count(),
            }
        )


def test_summary_rows_schema():
    """Rows carry what the CI artifact consumers expect: every row a
    claim and ``n``; a ``characterize_many`` row its seconds, a sweep row
    its ordered percentiles and ``cpu_count``."""
    for row in _SUMMARY_ROWS:
        assert {"claim", "n"} <= set(row)
        if row["claim"] == "characterize_group_sweep":
            assert 0.0 < row["p50_ms"] <= row["p90_ms"] <= row["max_ms"]
            assert row["cpu_count"] >= 1
        else:
            assert row["bitset_seconds"] > 0.0
