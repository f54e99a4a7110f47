"""Cross-tick motion-family reuse: sound carry, fewer recomputations.

The service contract: with ``reuse_motions`` on, every tick's verdicts
are still identical to a fresh batch pass (the carry only skips
re-deriving facts the locality theorem guarantees are unchanged), while
strictly fewer motion families are enumerated on churny streams.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.neighborhood import MotionCache
from repro.core.transition import Snapshot, Transition
from repro.engine import CharacterizationEngine, EngineConfig
from repro.online import OnlineCharacterizationService, QosUpdate, ServiceConfig


def _transition(rng, n=30, r=0.05, tau=2):
    prev = rng.random((n, 2))
    cur = np.clip(prev + rng.normal(0, 0.01, (n, 2)), 0, 1)
    return Transition(Snapshot(prev), Snapshot(cur), range(n), r, tau)


class TestMotionCacheCarry:
    def test_carry_seeds_only_requested_devices(self):
        rng = np.random.default_rng(0)
        t1 = _transition(rng)
        cache = MotionCache(t1)
        for j in t1.flagged_sorted:
            cache.family(j)
        t2 = _transition(rng)
        carried = MotionCache.carry_from(cache, t2, [0, 1, 2, 999])
        assert carried.transition is t2
        assert carried.carried == 3  # 999 was never cached
        assert 0 in carried and 3 not in carried

    def test_carried_hit_counts_once_per_device(self):
        rng = np.random.default_rng(1)
        t1 = _transition(rng)
        cache = MotionCache(t1)
        cache.family(0)
        t2 = _transition(rng)
        carried = MotionCache.carry_from(cache, t2, [0])
        assert carried.family(0) is cache.family(0)
        assert carried.family(0) is not None  # second hit
        assert carried.carried_used == 1
        assert carried.expansions == 0

    def test_carried_family_values_equal_fresh_ones(self):
        """On an unchanged transition the carried families are exact."""
        rng = np.random.default_rng(2)
        t1 = _transition(rng)
        cache = MotionCache(t1)
        for j in t1.flagged_sorted:
            cache.family(j)
        t2 = Transition(
            Snapshot(t1.previous.positions.copy()),
            Snapshot(t1.current.positions.copy()),
            t1.flagged,
            t1.r,
            t1.tau,
        )
        carried = MotionCache.carry_from(cache, t2, t1.flagged_sorted)
        fresh = MotionCache(t2)
        for j in t1.flagged_sorted:
            assert carried.family(j) == fresh.family(j)
        assert carried.expansions == 0


def _drive(base, flagged, *, reuse, ticks=6, r=0.05, tau=2, seed=1):
    service = OnlineCharacterizationService(
        base.copy(),
        ServiceConfig(r=r, tau=tau, reuse_motions=reuse),
    )
    rng = np.random.default_rng(seed)
    pos = base.copy()
    for dev in flagged:
        pos[dev] = np.clip(pos[dev] + 0.04, 0, 1)
        service.ingest(QosUpdate(dev, tuple(pos[dev]), True))
    service.end_tick()
    service.end_tick()  # absorb the setup move carry
    results = []
    for _ in range(ticks):
        movers = rng.choice(flagged, size=3, replace=False)
        for dev in movers:
            dev = int(dev)
            pos[dev] = np.clip(pos[dev] + rng.normal(0, 0.01, 2), 0, 1)
            service.ingest(QosUpdate(dev, tuple(pos[dev]), True))
        results.append(service.end_tick())
    return service, results


class TestServiceMotionReuse:
    @pytest.fixture(scope="class")
    def scenario(self):
        rng = np.random.default_rng(0)
        base = rng.random((400, 2))
        flagged = sorted(int(j) for j in rng.choice(400, 30, replace=False))
        return base, flagged

    def test_verdicts_identical_to_batch_with_reuse(self, scenario):
        base, flagged = scenario
        _, ticks = _drive(base, flagged, reuse=True)
        engine = CharacterizationEngine(EngineConfig())
        for tick in ticks:
            fresh = engine.characterize(tick.transition)
            assert tick.verdicts.keys() == fresh.keys()
            for j, got in tick.verdicts.items():
                want = fresh[j]
                assert got.anomaly_type == want.anomaly_type, (tick.tick, j)
                assert got.rule == want.rule, (tick.tick, j)
                assert got.witness == want.witness, (tick.tick, j)

    def test_reuse_recomputes_strictly_fewer_families(self, scenario):
        base, flagged = scenario
        with_reuse, _ = _drive(base, flagged, reuse=True)
        without, _ = _drive(base, flagged, reuse=False)
        assert (
            with_reuse.stats.families_recomputed
            < without.stats.families_recomputed
        )
        assert with_reuse.stats.families_reused > 0
        assert without.stats.families_reused == 0

    def test_tick_and_sink_report_family_counts(self, scenario):
        from repro.online import MetricsSink

        base, flagged = scenario
        service = OnlineCharacterizationService(
            base.copy(), ServiceConfig(r=0.05, tau=2, reuse_motions=True)
        )
        sink = MetricsSink()
        service.add_sink(sink)
        pos = base.copy()
        for dev in flagged:
            pos[dev] = np.clip(pos[dev] + 0.04, 0, 1)
            service.ingest(QosUpdate(dev, tuple(pos[dev]), True))
        service.end_tick()
        tick = service.end_tick()
        assert tick.families_recomputed + tick.families_reused >= 0
        assert sink.families_recomputed == service.stats.families_recomputed
        assert sink.families_reused == service.stats.families_reused
        payload = sink.as_dict()
        assert "families_recomputed" in payload
        assert "families_reused" in payload

    def test_randomized_stream_reuse_matches_no_reuse_verdicts(self):
        """Same stream, reuse on vs off: identical verdict history."""
        rng = np.random.default_rng(7)
        base = rng.random((200, 2))
        flagged = sorted(int(j) for j in rng.choice(200, 16, replace=False))
        _, ticks_a = _drive(base, flagged, reuse=True, seed=3)
        _, ticks_b = _drive(base, flagged, reuse=False, seed=3)
        assert len(ticks_a) == len(ticks_b)
        for ta, tb in zip(ticks_a, ticks_b):
            assert ta.verdicts.keys() == tb.verdicts.keys()
            for j in ta.verdicts:
                a, b = ta.verdicts[j], tb.verdicts[j]
                assert a.anomaly_type == b.anomaly_type, (ta.tick, j)
                assert a.rule == b.rule, (ta.tick, j)
                assert a.witness == b.witness, (ta.tick, j)


class TestCliFlags:
    def test_reuse_motions_flag_round_trip(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--devices", "10"])
        assert args.reuse_motions is True
        args = parser.parse_args(["serve", "--devices", "10", "--no-reuse-motions"])
        assert args.reuse_motions is False
        args = parser.parse_args(["replay", "--reuse-motions"])
        assert args.reuse_motions is True

    def test_service_config_receives_flag(self):
        from repro.cli import _service_config, build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--no-reuse-motions"])
        assert _service_config(args).reuse_motions is False
