"""MetricsSink transition counting and ReportSink bounding.

The sinks consume :class:`OnlineTick` values, so the edge cases are
drivable with fabricated ticks: a device that re-flags after a quiet
spell must count as a *new* event, and a device that leaves the flagged
set must stop accruing device-ticks immediately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.types import AnomalyType, Characterization, DecisionRule
from repro.obs.metrics import Registry, get_registry
from repro.online import (
    MetricsSink,
    OnlineCharacterizationService,
    OnlineTick,
    QosUpdate,
    ReportSink,
    ServiceConfig,
)


def _tick(number: int, verdicts: dict) -> OnlineTick:
    built = {
        device: Characterization(
            device=device, anomaly_type=kind, rule=DecisionRule.THEOREM_5
        )
        for device, kind in verdicts.items()
    }
    return OnlineTick(
        tick=number,
        applied=0,
        flagged=tuple(sorted(built)),
        recomputed=tuple(sorted(built)),
        reused=(),
        dirty_cells=0,
        verdicts=built,
    )


def _counter_value(registry, name: str, kind: str) -> float:
    snap = registry.snapshot().get(name)
    if snap is None:
        return 0.0
    for sample in snap["samples"]:
        if sample["labels"] == {"kind": kind}:
            return sample["value"]
    return 0.0


class TestTransitionCounting:
    def test_steady_verdict_counts_once(self):
        sink = MetricsSink()
        for k in range(1, 6):
            sink(_tick(k, {7: AnomalyType.ISOLATED}))
        assert sink.verdict_counts["isolated"] == 1
        assert sink.verdict_tick_counts["isolated"] == 5

    def test_reflag_after_quiet_spell_is_a_new_event(self):
        sink = MetricsSink()
        sink(_tick(1, {7: AnomalyType.ISOLATED}))
        sink(_tick(2, {}))  # quiet spell: device 7 unflagged
        sink(_tick(3, {7: AnomalyType.ISOLATED}))
        assert sink.verdict_counts["isolated"] == 2
        assert sink.verdict_tick_counts["isolated"] == 2

    def test_device_leave_stops_device_ticks(self):
        sink = MetricsSink()
        sink(_tick(1, {7: AnomalyType.MASSIVE, 9: AnomalyType.MASSIVE}))
        sink(_tick(2, {9: AnomalyType.MASSIVE}))  # device 7 left
        sink(_tick(3, {9: AnomalyType.MASSIVE}))
        assert sink.verdict_counts["massive"] == 2  # one event per device
        assert sink.verdict_tick_counts["massive"] == 4  # 2 + 1 + 1

    def test_kind_change_is_a_transition(self):
        sink = MetricsSink()
        sink(_tick(1, {7: AnomalyType.ISOLATED}))
        sink(_tick(2, {7: AnomalyType.MASSIVE}))
        assert sink.verdict_counts["isolated"] == 1
        assert sink.verdict_counts["massive"] == 1

    def test_registry_mirrors_both_counters(self):
        reg = Registry()
        sink = MetricsSink(registry=reg)
        sink(_tick(1, {7: AnomalyType.ISOLATED}))
        sink(_tick(2, {}))
        sink(_tick(3, {7: AnomalyType.ISOLATED}))
        assert _counter_value(
            reg, "repro_verdict_transitions_total", "isolated"
        ) == 2.0
        assert _counter_value(
            reg, "repro_verdict_device_ticks_total", "isolated"
        ) == 2.0

    def test_defaults_to_global_registry(self):
        sink = MetricsSink()
        sink(_tick(1, {3: AnomalyType.UNRESOLVED}))
        assert _counter_value(
            get_registry(), "repro_verdict_transitions_total", "unresolved"
        ) == 1.0


class TestReportSinkBounding:
    def test_drop_oldest_and_dropped_counter(self):
        sink = ReportSink(max_rows=3)
        for k in range(1, 6):
            sink(_tick(k, {1: AnomalyType.ISOLATED}))
        assert len(sink.rows) == 3
        assert sink.dropped == 2
        # Oldest rows were evicted: the survivors are ticks 3..5.
        assert [row[0] for row in sink.rows] == [3, 4, 5]

    def test_unbounded_when_max_rows_none(self):
        sink = ReportSink(max_rows=None)
        for k in range(1, 6):
            sink(_tick(k, {1: AnomalyType.ISOLATED}))
        assert len(sink.rows) == 5
        assert sink.dropped == 0

    def test_max_rows_validated(self):
        with pytest.raises(ConfigurationError):
            ReportSink(max_rows=0)

    def test_drops_mirrored_to_registry(self):
        reg = Registry()
        sink = ReportSink(max_rows=1, registry=reg)
        sink(_tick(1, {1: AnomalyType.ISOLATED}))
        sink(_tick(2, {1: AnomalyType.ISOLATED}))
        snap = reg.snapshot()["repro_report_rows_dropped_total"]
        assert snap["samples"][0]["value"] == 1.0

    def test_kind_filter_still_applies(self):
        sink = ReportSink(kinds=(AnomalyType.MASSIVE,), max_rows=10)
        sink(_tick(1, {1: AnomalyType.ISOLATED, 2: AnomalyType.MASSIVE}))
        assert [row[1] for row in sink.rows] == [2]


def _rule_value(registry, rule: str) -> float:
    snap = registry.snapshot().get("repro_verdict_decisions_total")
    if snap is None:
        return 0.0
    for sample in snap["samples"]:
        if sample["labels"] == {"rule": rule}:
            return sample["value"]
    return 0.0


class TestDecisionRuleCounting:
    """``decision_counts`` is the rule mix of each tick's recomputed verdicts."""

    def _stream_ticks(self, sink, ticks=8):
        rng = np.random.default_rng(4)
        home = rng.random((80, 2)) * 0.8 + 0.1
        service = OnlineCharacterizationService(
            home.copy(), ServiceConfig(r=0.03, tau=2), sinks=(sink,)
        )
        out = []
        flagged = []
        for _ in range(ticks):
            for device in flagged:  # last tick's anomalies return home
                service.ingest(QosUpdate(device, tuple(home[device]), False))
            # Two coordinated groups (massive or unresolved) and two
            # isolated jumps, drawn fresh every tick.
            picks = rng.choice(80, 10, replace=False).tolist()
            flagged = picks
            for group in (picks[:4], picks[4:8]):
                shift = rng.uniform(-0.15, 0.15, 2)
                for device in group:
                    pos = np.clip(home[group[0]] + shift + rng.normal(0, 0.004, 2), 0, 1)
                    service.ingest(QosUpdate(device, tuple(pos), True))
            for device in picks[8:]:
                service.ingest(QosUpdate(device, tuple(rng.random(2)), True))
            out.append(service.end_tick())
        return out

    def test_counts_match_recomputed_verdict_rules(self):
        reg = Registry()
        sink = MetricsSink(registry=reg)
        ticks = self._stream_ticks(sink)
        want = {rule.value: 0 for rule in DecisionRule}
        for tick in ticks:
            for device in tick.recomputed:
                want[tick.verdicts[device].rule.value] += 1
        assert sink.decision_counts == want
        assert sum(want.values()) == sum(len(t.recomputed) for t in ticks) > 0
        assert sum(1 for count in want.values() if count) >= 2  # a real mix
        for rule, count in want.items():
            assert _rule_value(reg, rule) == float(count)
        assert sink.as_dict()["decision_counts"] == want
        # The batched per-kind increments still mirror the sink's tallies.
        for kind in AnomalyType:
            assert _counter_value(
                reg, "repro_verdict_device_ticks_total", kind.value
            ) == float(sink.verdict_tick_counts[kind.value])
            assert _counter_value(
                reg, "repro_verdict_transitions_total", kind.value
            ) == float(sink.verdict_counts[kind.value])

    def test_reused_verdicts_are_not_recounted(self):
        reg = Registry()
        sink = MetricsSink(registry=reg)
        built = {
            device: Characterization(
                device=device,
                anomaly_type=AnomalyType.MASSIVE,
                rule=DecisionRule.THEOREM_6,
            )
            for device in (1, 2, 3)
        }
        sink(
            OnlineTick(
                tick=1,
                applied=0,
                flagged=(1, 2, 3),
                recomputed=(1, 2),
                reused=(3,),
                dirty_cells=0,
                verdicts=built,
            )
        )
        assert sink.decision_counts["theorem-6"] == 2
        assert _rule_value(reg, "theorem-6") == 2.0


class TestFamilyMotionsHistogram:
    """``repro_verdict_family_motions``: family sizes of recomputed verdicts."""

    def _chain_ticks(self, sink, ticks=6, r=0.03):
        # Devices 6k..6k+5 sit on a chain 0.7 * 2r apart; each tick one
        # chain moves as one (interior members lie in two maximal
        # motions) and two other devices jump alone (one motion each).
        rng = np.random.default_rng(11)
        home = rng.random((80, 2)) * 0.8 + 0.1
        for k in range(4):
            corner = np.array([0.15 + 0.2 * k, 0.5])
            for i in range(6):
                home[6 * k + i] = corner + [i * 1.4 * r, 0.0]
        service = OnlineCharacterizationService(
            home.copy(), ServiceConfig(r=r, tau=1), sinks=(sink,)
        )
        out = []
        flagged = []
        for t in range(ticks):
            for device in flagged:
                service.ingest(QosUpdate(device, tuple(home[device]), False))
            chain = list(range(6 * (t % 4), 6 * (t % 4) + 6))
            loners = rng.choice(np.arange(24, 80), 2, replace=False).tolist()
            flagged = chain + loners
            shift = rng.uniform(-0.05, 0.05, 2)
            for device in chain:
                pos = np.clip(home[device] + shift, 0, 1)
                service.ingest(QosUpdate(device, tuple(pos), True))
            for device in loners:
                service.ingest(QosUpdate(device, tuple(rng.random(2)), True))
            out.append(service.end_tick())
        return out

    def test_exported_buckets_match_recomputed_families(self, monkeypatch):
        from repro.obs.export import render_prometheus
        from repro.obs.metrics import Histogram

        calls = []
        observe = Histogram.observe

        def counting(self, value, count=1):
            calls.append(self.bounds)
            observe(self, value, count)

        monkeypatch.setattr(Histogram, "observe", counting)
        reg = Registry()
        sink = MetricsSink(registry=reg)
        ticks = self._chain_ticks(sink)
        sizes = [
            tick.verdicts[device].cost.maximal_motions
            for tick in ticks
            for device in tick.recomputed
        ]
        assert 1 in sizes and max(sizes) > 1  # lone devices and groups
        bounds = (1, 2, 4, 8, 16, 64)
        hist = reg.snapshot()["repro_verdict_family_motions"]["samples"][0]
        assert hist["buckets"] == {
            str(float(b)): sum(
                1 for s in sizes if (bounds[i - 1] if i else 0) < s <= b
            )
            for i, b in enumerate(bounds)
        }
        assert hist["inf"] == sum(1 for s in sizes if s > 64)
        assert hist["count"] == len(sizes)
        assert hist["sum"] == sum(sizes)
        # One registry call per distinct size per tick, not per verdict.
        family_calls = [b for b in calls if b == tuple(map(float, bounds))]
        assert len(family_calls) == sum(
            len({tick.verdicts[d].cost.maximal_motions for d in tick.recomputed})
            for tick in ticks
        )
        assert len(family_calls) < len(sizes)
        text = render_prometheus(reg)
        lone = sum(1 for s in sizes if s == 1)
        assert f'repro_verdict_family_motions_bucket{{le="1.0"}} {lone}' in text
        assert (
            f'repro_verdict_family_motions_bucket{{le="+Inf"}} {len(sizes)}' in text
        )

    def test_reused_verdicts_are_not_observed(self):
        reg = Registry()
        sink = MetricsSink(registry=reg)
        verdicts = {
            device: Characterization(
                device=device,
                anomaly_type=AnomalyType.ISOLATED,
                rule=DecisionRule.THEOREM_5,
            )
            for device in (1, 2, 3)
        }
        verdicts[1].cost.maximal_motions = 1
        verdicts[2].cost.maximal_motions = 3
        verdicts[3].cost.maximal_motions = 3
        sink(
            OnlineTick(
                tick=1,
                applied=0,
                flagged=(1, 2, 3),
                recomputed=(1, 2),
                reused=(3,),
                dirty_cells=0,
                verdicts=verdicts,
            )
        )
        hist = reg.snapshot()["repro_verdict_family_motions"]["samples"][0]
        assert hist["count"] == 2
        assert hist["sum"] == 4
        assert hist["buckets"]["1.0"] == 1
        assert hist["buckets"]["4.0"] == 1


class TestTestedCollectionsHistogram:
    """``repro_verdict_tested_collections``: the Theorem 7 search's cost
    for each recomputed verdict it decided."""

    def test_observes_search_verdicts_once_per_distinct_count(self, monkeypatch):
        from repro.obs.metrics import Histogram

        calls = []
        observe = Histogram.observe

        def counting(self, value, count=1):
            calls.append(self.bounds)
            observe(self, value, count)

        monkeypatch.setattr(Histogram, "observe", counting)
        reg = Registry()
        sink = MetricsSink(registry=reg)
        # The chain stream's interior members reach Corollary 8.
        ticks = TestFamilyMotionsHistogram._chain_ticks(self, sink, ticks=8)
        searched = (DecisionRule.THEOREM_7, DecisionRule.COROLLARY_8)
        per_tick = [
            [
                tick.verdicts[device].cost.tested_collections
                for device in tick.recomputed
                if tick.verdicts[device].rule in searched
            ]
            for tick in ticks
        ]
        tested = [value for values in per_tick for value in values]
        assert tested and min(tested) >= 1
        bounds = (1, 2, 4, 8, 16, 64, 256, 1024, 4096)
        hist = reg.snapshot()["repro_verdict_tested_collections"]["samples"][0]
        assert hist["count"] == len(tested)
        assert hist["sum"] == sum(tested)
        assert hist["buckets"] == {
            str(float(b)): sum(
                1 for v in tested if (bounds[i - 1] if i else 0) < v <= b
            )
            for i, b in enumerate(bounds)
        }
        # One registry call per distinct count per tick, not per verdict.
        tested_calls = [b for b in calls if b == tuple(map(float, bounds))]
        assert len(tested_calls) == sum(len(set(values)) for values in per_tick)
        assert len(tested_calls) < len(tested)

    def test_fallbacks_other_rules_and_reused_are_not_observed(self):
        reg = Registry()
        sink = MetricsSink(registry=reg)
        rules = {
            1: (AnomalyType.UNRESOLVED, DecisionRule.COROLLARY_8, 3),
            2: (AnomalyType.MASSIVE, DecisionRule.THEOREM_7, 5),  # reused
            3: (AnomalyType.UNRESOLVED, DecisionRule.ALGORITHM_3, 0),
            4: (AnomalyType.MASSIVE, DecisionRule.THEOREM_6, 0),
        }
        verdicts = {}
        for device, (kind, rule, tested) in rules.items():
            verdicts[device] = Characterization(
                device=device, anomaly_type=kind, rule=rule
            )
            verdicts[device].cost.tested_collections = tested
        sink(
            OnlineTick(
                tick=1,
                applied=0,
                flagged=(1, 2, 3, 4),
                recomputed=(1, 3, 4),
                reused=(2,),
                dirty_cells=0,
                verdicts=verdicts,
            )
        )
        hist = reg.snapshot()["repro_verdict_tested_collections"]["samples"][0]
        assert hist["count"] == 1
        assert hist["sum"] == 3
        # A budget fallback shows as an algorithm-3 decision instead.
        assert _rule_value(reg, "algorithm-3") == 1.0
