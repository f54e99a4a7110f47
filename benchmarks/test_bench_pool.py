"""Persistent worker pool on the online path: verdicts and family reuse.

Two claims, both on churny online replays:

* the persistent shared-memory ``process`` backend returns, tick by
  tick, the same verdicts (type / rule / witness) as the in-process
  ``serial`` reference on a 1%-churn replay at 1k and 10k devices;
* its workers' private motion caches extend cross-tick family reuse to
  multi-core runs.

Every run appends rows to a ``BENCH_pool.json`` summary written at
session end (path overridable via the ``BENCH_POOL_JSON`` env var); CI
merges it into ``BENCH_summary.json`` and uploads both.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.engine import CharacterizationEngine, EngineConfig
from repro.online import (
    LoadGenerator,
    LoadProfile,
    OnlineCharacterizationService,
    ServiceConfig,
    drive_load,
)

#: (devices, churn) grid; 10k/1% is the acceptance scale.
SCALES = [(1_000, 0.01), (10_000, 0.01)]

_SUMMARY_ROWS: list = []


@pytest.fixture(scope="module", autouse=True)
def bench_summary_artifact():
    """Collect per-test rows; write the JSON summary after the module."""
    yield
    if not _SUMMARY_ROWS:
        return
    path = os.environ.get("BENCH_POOL_JSON", "BENCH_pool.json")
    with open(path, "w") as handle:
        json.dump({"benchmark": "pool", "rows": _SUMMARY_ROWS}, handle, indent=2)


#: Fixed pool size, so every host routes devices to workers the same way
#: instead of by what cpu_count() happens to report.
WORKERS = 6


def _profile(n, churn):
    # flag_rate keeps a few dozen flagged devices in flight so every tick
    # does real multi-device recomputation work at online cadence.
    return LoadProfile(
        devices=n, services=2, churn=churn, flag_rate=0.05, seed=42
    )


def _run_replay(n, churn, backend, *, ticks, warmup=2):
    generator = LoadGenerator(_profile(n, churn))
    engine = CharacterizationEngine(
        EngineConfig(backend=backend, workers=WORKERS, min_process_devices=2)
    )
    service = OnlineCharacterizationService(
        generator.initial_positions(),
        ServiceConfig(r=0.01, tau=3, reuse_motions=True),
        engine=engine,
    )
    with engine:
        drive_load(service, generator, warmup)  # populate the flagged set
        return drive_load(service, generator, ticks)


def _verdict_history(result):
    return [
        {
            j: (v.anomaly_type, v.rule, v.witness)
            for j, v in tick.verdicts.items()
        }
        for tick in result.ticks
    ]


@pytest.mark.parametrize("n,churn", SCALES)
def test_pool_verdicts_match_serial_per_tick(n, churn):
    ticks = 8
    pool_result = _run_replay(n, churn, "process", ticks=ticks)
    serial_result = _run_replay(n, churn, "serial", ticks=ticks)
    # Identical streams, identical verdict history (type / rule / witness).
    assert _verdict_history(pool_result) == _verdict_history(serial_result)


def test_pool_carry_reuses_families_on_churny_replay():
    """The pool extends cross-tick family reuse to multi-core runs."""
    n, churn, ticks = 2_000, 0.01, 6

    def run(reuse):
        generator = LoadGenerator(
            LoadProfile(
                devices=n, services=2, churn=churn, flag_rate=0.3, seed=42
            )
        )
        engine = CharacterizationEngine(
            EngineConfig(backend="process", workers=4, min_process_devices=2)
        )
        service = OnlineCharacterizationService(
            generator.initial_positions(),
            ServiceConfig(r=0.02, tau=3, reuse_motions=reuse),
            engine=engine,
        )
        with engine:
            drive_load(service, generator, ticks)
        return service.stats

    with_reuse = run(True)
    without = run(False)
    assert with_reuse.families_reused > 0
    assert without.families_reused == 0
    assert with_reuse.families_recomputed < without.families_recomputed
    _SUMMARY_ROWS.append(
        {
            "claim": "pool_family_reuse",
            "n": n,
            "churn": churn,
            "ticks": ticks,
            "families_recomputed_reuse": with_reuse.families_recomputed,
            "families_recomputed_noreuse": without.families_recomputed,
            "families_reused": with_reuse.families_reused,
            "speedup": without.families_recomputed
            / max(1, with_reuse.families_recomputed),
        }
    )


def test_summary_rows_schema():
    """Rows carry what the CI artifact consumers expect."""
    for row in _SUMMARY_ROWS:
        assert {"claim", "n", "churn", "speedup"} <= set(row)
        assert row["speedup"] > 1.0
