"""Observability overhead benchmark: tracing must cost < 2% per tick.

The asserted claim, at ``n = 10k`` with 1% per-tick churn: the
instrumentation PR 7 added to the tick pipeline (stage spans feeding
the registry histogram, per-tick drains, the post-sink merge) costs at
most 2% of a real tick.

The overhead is measured as a ratio of two independently tight numbers
rather than by differencing two end-to-end wall clocks.  A calibration
run against identical null arms showed whole-run differencing on shared
CI hardware carries ±2-3% scheduler/allocator noise — an order of
magnitude above the true effect — so a subtraction of two ~100ms runs
cannot resolve a sub-2% delta:

* the *numerator* replays one tick's worth of tracer work (the exact
  span sequence a serial tick emits, both per-tick drains and the
  post-sink merge) tens of thousands of times, enabled minus disabled —
  a microsecond-scale quantity with sub-percent jitter;
* the *denominator* is the per-tick floor of a real instrumented
  ``n = 10k`` run: the minimum wall clock per tick index across
  repeats (the same seed makes tick ``k`` identical work every repeat).

End-to-end runs of both arms still pin down verdict identity and the
presence/absence of per-tick breakdowns, so the measured tracer is the
one the real pipeline drives, not a synthetic stand-in.

Every run appends one row to ``_SUMMARY_ROWS``; after the module,
``benchmarks/conftest.py`` writes them to the path in ``BENCH_OBS_JSON``
when that variable is set. CI uploads it as a workflow artifact.
"""

from __future__ import annotations

import time

import pytest

from repro.obs.trace import Tracer
from repro.online import (
    LoadGenerator,
    LoadProfile,
    MetricsSink,
    OnlineCharacterizationService,
    ServiceConfig,
)

#: (devices, churn, allowed overhead fraction).  The ISSUE gate is 2%
#: at n = 10k.
SCALES = [(10_000, 0.01, 0.02)]

TICKS = 12
REPEATS = 3

#: The span sequence one serial tick emits (drive_load's "ingest" plus
#: the five pipeline stages of ``end_tick``).
TICK_STAGES = (
    "ingest",
    "ingest-drain",
    "dirty-region",
    "transition-build",
    "verdict",
    "sinks",
)

_SUMMARY_ROWS: list = []


def _run(n, churn, *, traced: bool):
    """One pass over an identical seeded stream, timing each tick."""
    generator = LoadGenerator(LoadProfile(devices=n, churn=churn, seed=7))
    service = OnlineCharacterizationService(
        generator.initial_positions(),
        ServiceConfig(r=0.015, tau=3),
        tracer=Tracer() if traced else Tracer(enabled=False),
    )
    service.add_sink(MetricsSink())
    tick_seconds = []
    ticks = []
    for _ in range(TICKS):
        updates = generator.tick_updates()
        start = time.perf_counter()
        service.ingest_many(updates)
        ticks.append(service.end_tick())
        tick_seconds.append(time.perf_counter() - start)
    service.close()
    verdict_map = {
        tick.tick: {j: v.anomaly_type for j, v in tick.verdicts.items()}
        for tick in ticks
    }
    return tick_seconds, ticks, verdict_map


def _tracer_tick_cost(tracer: Tracer, iterations: int = 20_000) -> float:
    """Seconds one tick's worth of tracer work costs, best of 5 batches.

    Replays exactly what the serial pipeline asks of the tracer each
    tick: one span per stage in ``TICK_STAGES``, the pre-sink drain,
    the sink-stage drain and the post-sink merge into the tick's
    breakdown dict.
    """
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(iterations // 5):
            for stage in TICK_STAGES[:-1]:
                with tracer.span(stage):
                    pass
            breakdown = tracer.drain_stages()
            with tracer.span(TICK_STAGES[-1]):
                pass
            for stage, seconds in tracer.drain_stages().items():
                breakdown[stage] = breakdown.get(stage, 0.0) + seconds
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / (iterations // 5))
    return best


@pytest.mark.parametrize("n,churn,budget", SCALES)
def test_tracing_overhead_under_budget(n, churn, budget):
    floors = {True: [float("inf")] * TICKS, False: [float("inf")] * TICKS}
    verdicts = {}
    ticks = {}
    # One untimed pass per arm warms code paths and page cache — the
    # first run of a session is reliably the slowest.
    _run(n, churn, traced=True)
    _run(n, churn, traced=False)
    for _ in range(REPEATS):
        for traced in (True, False):
            tick_seconds, tick_rows, verdict_map = _run(n, churn, traced=traced)
            floors[traced] = [
                min(floor, sample)
                for floor, sample in zip(floors[traced], tick_seconds)
            ]
            verdicts[traced] = verdict_map
            ticks[traced] = tick_rows

    # The two arms must do identical characterization work.
    assert verdicts[True] == verdicts[False]
    # The traced arm produced per-tick breakdowns, the untraced none —
    # the instrumentation really was live in exactly one arm.
    assert all(t.stage_seconds for t in ticks[True])
    assert all(not t.stage_seconds for t in ticks[False])

    # Incremental cost of the enabled tracer per tick, measured tightly.
    enabled_cost = _tracer_tick_cost(Tracer())
    disabled_cost = _tracer_tick_cost(Tracer(enabled=False))
    tracer_cost = max(0.0, enabled_cost - disabled_cost)

    tick_floor = sum(floors[True]) / TICKS
    overhead = tracer_cost / tick_floor
    assert overhead <= budget, (
        f"tracing overhead {overhead:.2%} exceeds {budget:.0%} at n={n} "
        f"({tracer_cost * 1e6:.1f}us of tracer work per "
        f"{tick_floor * 1e3:.1f}ms tick)"
    )
    _SUMMARY_ROWS.append(
        {
            "claim": "tracing_overhead",
            "n": n,
            "churn": churn,
            "ticks": TICKS,
            "traced_seconds": sum(floors[True]),
            "untraced_seconds": sum(floors[False]),
            "tracer_cost_per_tick_seconds": tracer_cost,
            "tick_floor_seconds": tick_floor,
            "overhead_fraction": overhead,
            "budget_fraction": budget,
            # Merge tooling expects a speedup-shaped figure; here it is
            # the instrumented:null tick-cost ratio (>= 0.98 in budget).
            "speedup": 1.0 / (1.0 + overhead),
        }
    )


def test_summary_rows_schema():
    """Rows carry what the CI artifact consumers expect."""
    for row in _SUMMARY_ROWS:
        assert {
            "claim",
            "n",
            "churn",
            "overhead_fraction",
            "budget_fraction",
            "speedup",
        } <= set(row)
        assert row["overhead_fraction"] <= row["budget_fraction"]
