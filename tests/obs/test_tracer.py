"""Stage spans: nesting, drain semantics, the disabled null path, and
the service integration (every OnlineTick carries its own breakdown).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.detection import DetectorSpec
from repro.obs.metrics import Registry, get_registry
from repro.obs.trace import STAGE_HISTOGRAM, Tracer, get_tracer
from repro.online import (
    LoadGenerator,
    LoadProfile,
    OnlineCharacterizationService,
    ServiceConfig,
    drive_load,
)


def _stage_count(registry: Registry, stage: str) -> int:
    snap = registry.snapshot().get(STAGE_HISTOGRAM)
    if snap is None:
        return 0
    for sample in snap["samples"]:
        if sample["labels"] == {"stage": stage}:
            return sample["count"]
    return 0


class TestSpans:
    def test_span_records_into_accumulator_and_histogram(self):
        reg = Registry()
        tracer = Tracer(reg)
        with tracer.span("detect"):
            pass
        stages = tracer.drain_stages()
        assert set(stages) == {"detect"}
        assert stages["detect"] >= 0.0
        assert _stage_count(reg, "detect") == 1

    def test_spans_nest_and_parent_includes_child(self):
        reg = Registry()
        tracer = Tracer(reg)
        with tracer.span("outer"):
            assert tracer.depth == 1
            with tracer.span("inner"):
                assert tracer.depth == 2
        assert tracer.depth == 0
        stages = tracer.drain_stages()
        # Stages keep their own (leaf) names; the parent's time includes
        # the child's.
        assert set(stages) == {"outer", "inner"}
        assert stages["outer"] >= stages["inner"]

    def test_same_stage_accumulates_between_drains(self):
        tracer = Tracer(Registry())
        for _ in range(3):
            with tracer.span("ingest-drain"):
                pass
        assert _stage_count(tracer.registry, "ingest-drain") == 3
        stages = tracer.drain_stages()
        assert set(stages) == {"ingest-drain"}

    def test_drain_resets(self):
        tracer = Tracer(Registry())
        with tracer.span("a"):
            pass
        assert tracer.drain_stages() != {}
        assert tracer.drain_stages() == {}

    def test_span_exposes_seconds(self):
        tracer = Tracer(Registry())
        with tracer.span("timed") as span:
            pass
        assert span.seconds >= 0.0


class TestDisabledTracer:
    def test_null_span_is_shared_and_records_nothing(self):
        reg = Registry()
        tracer = Tracer(reg, enabled=False)
        first = tracer.span("detect")
        second = tracer.span("verdict")
        assert first is second  # one shared no-op object, no allocation
        with first:
            pass
        assert tracer.drain_stages() == {}
        assert _stage_count(reg, "detect") == 0

    def test_null_span_seconds_is_zero(self):
        tracer = Tracer(Registry(), enabled=False)
        with tracer.span("x") as span:
            pass
        assert span.seconds == 0.0


class TestGlobalTracer:
    def test_follows_global_registry_swap(self):
        tracer = get_tracer()
        assert tracer.registry is get_registry()
        assert get_tracer() is tracer


class TestServiceIntegration:
    def _service(self, **kwargs):
        generator = LoadGenerator(LoadProfile(devices=150, churn=0.1, seed=3))
        service = OnlineCharacterizationService(
            generator.initial_positions(),
            ServiceConfig(r=0.05, tau=2),
            **kwargs,
        )
        return service, generator

    def test_ticks_carry_their_own_stage_seconds(self):
        service, generator = self._service()
        result = drive_load(service, generator, 4)
        for tick in result.ticks:
            assert "dirty-region" in tick.stage_seconds
            assert "ingest" in tick.stage_seconds
            assert all(v >= 0.0 for v in tick.stage_seconds.values())
        flagged_ticks = [t for t in result.ticks if t.recomputed]
        assert flagged_ticks, "load profile should flag someone"
        for tick in flagged_ticks:
            assert "transition-build" in tick.stage_seconds
            assert "verdict" in tick.stage_seconds
        # The accumulator is fully drained between ticks.
        assert service.tracer.drain_stages() == {}

    def test_sinks_stage_folded_into_tick(self):
        service, generator = self._service()
        service.add_sink(lambda tick: None)
        result = drive_load(service, generator, 2)
        for tick in result.ticks:
            assert "sinks" in tick.stage_seconds

    def test_run_level_breakdown_sums_ticks(self):
        service, generator = self._service()
        result = drive_load(service, generator, 3)
        totals = result.stage_seconds
        assert totals["dirty-region"] == pytest.approx(
            sum(t.stage_seconds.get("dirty-region", 0.0) for t in result.ticks)
        )

    def test_disabled_tracer_yields_empty_breakdowns(self):
        service, generator = self._service(tracer=Tracer(enabled=False))
        result = drive_load(service, generator, 3)
        assert all(t.stage_seconds == {} for t in result.ticks)
        assert result.stage_seconds == {}
        # elapsed_seconds falls back to a direct clock, not the tracer.
        assert result.elapsed_seconds > 0.0

    def test_stage_histogram_reaches_global_registry(self):
        service, generator = self._service()
        drive_load(service, generator, 2)
        assert _stage_count(get_registry(), "dirty-region") == 2

    def test_verdicts_identical_with_and_without_tracing(self):
        on, gen_on = self._service()
        off, gen_off = self._service(tracer=Tracer(enabled=False))
        ticks_on = drive_load(on, gen_on, 5).ticks
        ticks_off = drive_load(off, gen_off, 5).ticks
        for a, b in zip(ticks_on, ticks_off):
            assert a.flagged == b.flagged
            assert {
                j: v.anomaly_type for j, v in a.verdicts.items()
            } == {j: v.anomaly_type for j, v in b.verdicts.items()}


class TestOneShardSpans:
    """The single service's tick runs the sharded front door, and spans
    its roundtrips: the frame handoff, the verdict sends, the dirty
    union and the verdict merge, beside the shard's own stages."""

    FRONT_DOOR = (
        "detect",
        "frame-roundtrip",
        "shard-migrate",
        "halo-exchange",
        "dirty-union",
        "shard-send",
        "verdict-merge",
        "sinks",
    )
    SHARD = ("index-update", "dirty-region", "transition-build", "verdict")

    def test_frame_tick_carries_every_span(self):
        rng = np.random.default_rng(2)
        positions = rng.random((300, 2))
        service = OnlineCharacterizationService(
            positions,
            ServiceConfig(r=0.05, tau=2),
            detector=DetectorSpec("step", {"max_step": 0.05}),
        )
        frame = positions.copy()
        frame[:30] = np.clip(frame[:30] + 0.2, 0.0, 1.0)
        with service:
            start = time.perf_counter()
            tick = service.feed_measurements(frame)
            elapsed = time.perf_counter() - start
        assert tick.recomputed
        for stage in self.FRONT_DOOR + self.SHARD:
            assert stage in tick.stage_seconds, stage
        # Flat spans: each stretch of the tick is timed once, so they
        # never add up to more than the tick took.
        assert sum(tick.stage_seconds.values()) <= elapsed
