"""OnlineCharacterizationService: the verdict-identity contract.

The service may cache, invalidate lazily, shard and batch — but after
every ``end_tick`` its verdict map must equal a
fresh batch characterization of the same transition (type, rule,
witness).  The randomized drive below checks that on every tick of
adversarially mixed update streams.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.characterize import Characterizer
from repro.core.errors import ConfigurationError, QueueFullError
from repro.core.transition import Snapshot, Transition
from repro.core.types import AnomalyType
from repro.engine import CharacterizationEngine
from repro.online import (
    MetricsSink,
    OnlineCharacterizationService,
    QosUpdate,
    ReportSink,
    ServiceConfig,
    ShardedService,
)


def assert_verdicts_match_batch(out, reference_transition):
    """Service verdicts == fresh batch pass (type / rule / witness)."""
    batch = Characterizer(reference_transition).characterize_all()
    assert set(out.verdicts) == set(batch)
    for device, got in out.verdicts.items():
        want = batch[device]
        assert got.anomaly_type == want.anomaly_type, device
        assert got.rule == want.rule, device
        assert got.witness == want.witness, device


def random_drive(service, rng, n, d, ticks, *, churn, flag_p, jump_p):
    """Feed a random walk with random flag toggles; verify every tick.

    Maintains its *own* mirror of positions and flags, so the reference
    transition is built independently of the service internals.
    """
    positions = service.store.snapshot_arrays(copy=True)[1]
    flags = np.zeros(n, dtype=bool)
    for _ in range(ticks):
        k = max(1, int(round(churn * n)))
        movers = rng.choice(n, size=k, replace=False)
        for j in movers:
            j = int(j)
            sigma = 0.12 if rng.random() < jump_p else 0.01
            positions[j] = np.clip(
                positions[j] + rng.normal(0, sigma, d), 0, 1
            )
            flags[j] = rng.random() < flag_p
            service.ingest(
                QosUpdate(j, tuple(positions[j]), bool(flags[j]))
            )
        previous = service.store.snapshot_arrays(copy=True)[0]
        out = service.end_tick()
        flagged = [int(x) for x in np.nonzero(flags)[0]]
        assert list(out.flagged) == flagged
        if flagged:
            reference = Transition(
                Snapshot(previous),
                Snapshot(positions.copy()),
                flagged,
                service.config.r,
                service.config.tau,
            )
            assert_verdicts_match_batch(out, reference)
        else:
            assert out.verdicts == {}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dispatch_retries": -1},
            {"queue_capacity": 0},
            {"max_batch": 0},
            {"backpressure": "spill"},
            {"dispatch_deadline": 0.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**kwargs)

    def test_cell_matches_transition_indexes(self):
        config = ServiceConfig(r=0.03)
        assert config.cell == pytest.approx(0.06)
        assert ServiceConfig(r=0.0).cell == pytest.approx(1e-6)

    def test_single_service_restores_inline_only(self, tmp_path):
        """Its ``store``/``tracker``/``engine`` read an in-process shard."""
        base = np.random.default_rng(4).random((30, 2))
        with OnlineCharacterizationService(base) as service:
            service.end_tick()
            path = service.checkpoint(tmp_path / "single.npz")
        with pytest.raises(ConfigurationError, match="inline"):
            OnlineCharacterizationService.restore(path, topology_workers="process")
        with OnlineCharacterizationService.restore(path) as restored:
            assert restored.store.n == 30


class TestEngineOwnership:
    """A service closes the engine it built, never one it was handed."""

    @staticmethod
    def _counting_close(engine):
        calls = []
        engine.close = lambda: calls.append(1)
        return calls

    def _serve_one_tick(self, service):
        for dev in range(8):
            service.ingest(QosUpdate(dev, (0.5, 0.5), True))
        service.end_tick()

    def test_service_owns_and_closes_its_engine(self):
        base = np.random.default_rng(5).random((40, 2))
        with OnlineCharacterizationService(
            base, ServiceConfig(r=0.05, tau=2)
        ) as service:
            calls = self._counting_close(service.engine)
            self._serve_one_tick(service)
        assert calls == [1]
        service.close()  # idempotent: a double close is a clean no-op
        assert calls == [1]

    def test_shared_engine_left_open_by_service_close(self):
        base = np.random.default_rng(6).random((40, 2))
        engine = CharacterizationEngine()
        calls = self._counting_close(engine)
        service = OnlineCharacterizationService(
            base, ServiceConfig(r=0.05, tau=2), engine=engine
        )
        self._serve_one_tick(service)
        service.close()  # not the engine's owner: must not close it
        assert calls == []
        assert engine.stats.transitions == 1


class TestVerdictEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_streams_match_batch_every_tick(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 150, 2
        service = OnlineCharacterizationService(
            rng.random((n, d)), ServiceConfig(r=0.05, tau=2)
        )
        random_drive(
            service, rng, n, d, ticks=10, churn=0.12, flag_p=0.5, jump_p=0.3
        )
        assert service.stats.verdicts_recomputed > 0

    @pytest.mark.parametrize("seed", [3, 4])
    def test_low_churn_streams_match_batch_and_reuse(self, seed):
        # Localized churn: dirty bands cover a sliver of the cube, so
        # most verdicts must come from cache — and still match batch.
        rng = np.random.default_rng(seed)
        n, d = 150, 2
        service = OnlineCharacterizationService(
            rng.random((n, d)), ServiceConfig(r=0.02, tau=2)
        )
        random_drive(
            service, rng, n, d, ticks=12, churn=0.03, flag_p=0.5, jump_p=0.1
        )
        assert service.stats.verdicts_reused > 0
        assert service.stats.verdicts_recomputed > 0

    def test_quiet_ticks_reuse_everything(self):
        rng = np.random.default_rng(7)
        n = 80
        service = OnlineCharacterizationService(
            rng.random((n, 2)), ServiceConfig(r=0.04, tau=2)
        )
        # One busy tick: a cluster jumps together and gets flagged.
        cluster = list(range(10, 16))
        offset = np.array([0.2, 0.2])
        for j in cluster:
            pos = np.clip(service.store.position(j) + offset, 0, 1)
            service.ingest(QosUpdate(j, tuple(pos), True))
        busy = service.end_tick()
        assert busy.recomputed == tuple(cluster)
        # Next tick the trajectories settle (prev catches up): the carry
        # forces one more recomputation round ...
        settle = service.end_tick()
        assert settle.recomputed == tuple(cluster)
        # ... after which nothing changes and the cache serves everyone.
        for _ in range(3):
            quiet = service.end_tick()
            assert quiet.recomputed == ()
            assert quiet.reused == tuple(cluster)
            assert quiet.verdicts.keys() == set(cluster)
        # Stationary flagged cluster: still a valid batch answer.
        reference = Transition(
            Snapshot(service.store.snapshot_arrays()[0]),
            Snapshot(service.store.snapshot_arrays()[1]),
            cluster,
            service.config.r,
            service.config.tau,
        )
        assert_verdicts_match_batch(quiet, reference)

    def test_unflagged_churn_costs_no_recomputation(self):
        rng = np.random.default_rng(11)
        n = 100
        service = OnlineCharacterizationService(
            rng.random((n, 2)), ServiceConfig(r=0.03, tau=2)
        )
        for j in (0, 1, 2):
            service.ingest(QosUpdate(j, (0.5 + 0.01 * j, 0.5), True))
        service.end_tick()
        service.end_tick()  # consume the move carry
        # Healthy devices far away drift; no flagged verdict can change.
        for _ in range(3):
            for j in rng.choice(range(50, 100), size=10, replace=False):
                j = int(j)
                pos = np.clip(
                    service.store.position(j) + rng.normal(0, 0.005, 2), 0, 1
                )
                service.ingest(QosUpdate(j, tuple(pos), False))
            out = service.end_tick()
            assert out.recomputed == ()
            assert set(out.reused) == {0, 1, 2}

    def test_incremental_false_recomputes_all(self):
        rng = np.random.default_rng(5)
        service = OnlineCharacterizationService(
            rng.random((40, 2)),
            ServiceConfig(r=0.05, tau=2, incremental=False),
        )
        for j in range(4):
            service.ingest(QosUpdate(j, (0.5, 0.5 + 0.01 * j), True))
        service.end_tick()
        out = service.end_tick()  # no updates at all
        assert out.recomputed == tuple(range(4))
        assert out.reused == ()


class TestBackpressure:
    """The queue contract, on the single service; the subclasses below
    run the same tests through a 2-shard front door."""

    @pytest.fixture
    def make(self):
        made = []

        def make(initial, config):
            made.append(self.build(initial, config))
            return made[-1]

        yield make
        for service in made:
            service.close()

    def build(self, initial, config):
        return OnlineCharacterizationService(initial, config)

    def config(self, policy, capacity=4):
        return ServiceConfig(
            r=0.03, tau=2, queue_capacity=capacity, backpressure=policy
        )

    def updates(self, count):
        return [
            QosUpdate(j, (0.1 + 0.001 * j, 0.1), False) for j in range(count)
        ]

    def test_error_policy_raises(self, make):
        service = make(np.full((10, 2), 0.5), self.config("error"))
        for update in self.updates(4):
            service.ingest(update)
        with pytest.raises(QueueFullError):
            service.ingest(QosUpdate(9, (0.9, 0.9), False))

    def test_drop_oldest_policy_sheds_load(self, make):
        service = make(np.full((10, 2), 0.5), self.config("drop-oldest"))
        accepted = service.ingest_many(self.updates(7))
        assert accepted == 4
        assert service.stats.updates_dropped == 3
        assert service.queued == 4

    def test_block_policy_applies_inline(self, make):
        service = make(np.full((10, 2), 0.5), self.config("block"))
        accepted = service.ingest_many(self.updates(7))
        assert accepted == 7
        assert service.stats.updates_dropped == 0
        assert service.stats.inline_drains >= 1
        # Inline-drained events still belong to this tick's accounting.
        out = service.end_tick()
        assert service.queued == 0
        assert out.applied == 7
        assert service.stats.updates_applied == 7

    def test_max_batch_drains_in_chunks(self, make):
        service = make(
            np.full((10, 2), 0.5),
            ServiceConfig(r=0.03, tau=2, max_batch=2, queue_capacity=100),
        )
        service.ingest_many(self.updates(5))
        out = service.end_tick()
        assert out.applied == 5
        assert service.queued == 0


class TestBackpressureInlineShards(TestBackpressure):
    WORKERS = "inline"

    def build(self, initial, config):
        # Half the fleet on each side of the shards' seam.
        initial = initial.copy()
        initial[::2, 0] = 0.9
        return ShardedService(
            initial, config, topology_shards=2, topology_workers=self.WORKERS
        )


class TestBackpressureProcessShards(TestBackpressureInlineShards):
    WORKERS = "process"


def _front_door_stream(rng, n, ticks):
    """Per tick: well-formed moves and flag flips, a repeated device,
    and one event per rejection reason."""
    for _ in range(ticks):
        batch = [
            QosUpdate(int(j), tuple(rng.random(2)), bool(rng.random() < 0.5))
            for j in rng.choice(n, size=8, replace=False)
        ]
        batch.append(QosUpdate(batch[0].device, tuple(rng.random(2)), True))
        batch += [
            QosUpdate(n + 7, (0.5, 0.5), True),
            QosUpdate(1, (0.5, 0.5, 0.5), True),
            QosUpdate(2, (float("nan"), 0.5), True),
            QosUpdate(3, (float("inf"), 0.5), True),
            QosUpdate(4, (0.5, 1.5), True),
        ]
        rng.shuffle(batch)
        yield batch


class TestFrontDoorParity:
    @pytest.mark.parametrize("policy", ["error", "drop-oldest", "block"])
    def test_topologies_report_the_same_tick_stream(self, policy):
        n = 40
        base = np.random.default_rng(4).random((n, 2))
        config = ServiceConfig(
            r=0.05,
            tau=2,
            queue_capacity=6,
            max_batch=4,
            backpressure=policy,
        )
        services = [
            OnlineCharacterizationService(base, config),
            *(
                ShardedService(
                    base, config, topology_shards=2, topology_workers=workers
                )
                for workers in ("inline", "process")
            ),
        ]
        try:
            runs = []
            for service in services:
                ticks = []
                for batch in _front_door_stream(np.random.default_rng(9), n, 6):
                    accepted = []
                    for update in batch:
                        try:
                            accepted.append(service.ingest(update))
                        except QueueFullError:
                            accepted.append(None)
                    out = service.end_tick()
                    ticks.append(
                        (
                            accepted,
                            out.applied,
                            out.flagged,
                            {
                                j: (v.anomaly_type, v.rule, v.witness)
                                for j, v in out.verdicts.items()
                            },
                        )
                    )
                runs.append(
                    (ticks, service.stats.as_dict(), dict(service.rejected))
                )
        finally:
            for service in services:
                service.close()
        single = runs[0]
        assert single[1]["updates_applied"] > 0
        assert single[1]["verdicts_recomputed"] > 0
        assert set(single[2]) == {
            "unknown-device", "dimension-mismatch", "nan", "inf", "out-of-range"
        }
        for run in runs[1:]:
            assert run == single


class TestSinks:
    def test_sinks_see_every_tick(self):
        rng = np.random.default_rng(0)
        metrics = MetricsSink()
        reports = ReportSink(kinds=(AnomalyType.ISOLATED,))
        service = OnlineCharacterizationService(
            rng.random((30, 2)),
            ServiceConfig(r=0.03, tau=2),
            sinks=(metrics,),
        )
        service.add_sink(reports)
        service.ingest(QosUpdate(3, (0.9, 0.9), True))
        service.end_tick()
        service.end_tick()
        assert metrics.ticks == 2
        assert metrics.verdict_counts["isolated"] >= 1
        assert all(row[2] is AnomalyType.ISOLATED for row in reports.rows)
        assert {row[1] for row in reports.rows} == {3}

    def test_shared_engine_accumulates_stats(self):
        engine = CharacterizationEngine()
        service = OnlineCharacterizationService(
            np.full((10, 2), 0.5), ServiceConfig(r=0.03, tau=2), engine=engine
        )
        service.ingest(QosUpdate(0, (0.7, 0.7), True))
        service.end_tick()
        assert engine.stats.transitions == 1


class TestMetricsSinkTransitionCounting:
    """Regression: cached verdicts must not be re-counted every tick.

    ``tick.verdicts`` carries every flagged device (cached ones too), so
    the old sink reported a device flagged isolated for 100 quiet ticks
    as 100 isolated verdicts.  ``verdict_counts`` now counts verdict
    *transitions*; the per-tick view lives in ``verdict_tick_counts``.
    """

    def _service(self, metrics, n=30):
        rng = np.random.default_rng(1)
        return OnlineCharacterizationService(
            rng.random((n, 2)), ServiceConfig(r=0.03, tau=2), sinks=(metrics,)
        )

    def test_quiet_ticks_count_one_event_many_device_ticks(self):
        metrics = MetricsSink()
        service = self._service(metrics)
        service.ingest(QosUpdate(3, (0.9, 0.9), True))
        service.end_tick()
        for _ in range(9):
            service.end_tick()  # device 3 stays flagged, verdict cached
        assert metrics.verdict_counts["isolated"] == 1
        assert metrics.verdict_tick_counts["isolated"] == 10

    def test_unflag_then_reflag_counts_a_new_event(self):
        metrics = MetricsSink()
        service = self._service(metrics)
        service.ingest(QosUpdate(3, (0.9, 0.9), True))
        service.end_tick()
        service.ingest(QosUpdate(3, (0.9, 0.9), False))
        service.end_tick()
        service.ingest(QosUpdate(3, (0.88, 0.88), True))
        service.end_tick()
        assert metrics.verdict_counts["isolated"] == 2

    def test_changed_verdict_type_counts_as_new_event(self):
        metrics = MetricsSink()
        rng = np.random.default_rng(2)
        base = rng.random((30, 2)) * 0.2 + 0.75  # everyone far from 0.5
        service = OnlineCharacterizationService(
            base, ServiceConfig(r=0.05, tau=2), sinks=(metrics,)
        )
        # Tick 1: lone flagged device at (0.5, 0.5) — isolated.
        service.ingest(QosUpdate(0, (0.5, 0.5), True))
        service.end_tick()
        assert metrics.verdict_counts["isolated"] == 1
        # Tick 2: two companions jump there from far away.  Their arrival
        # trajectories are inconsistent with 0's stationary one, so all
        # three are isolated this tick (+2 isolated events, 0 unchanged).
        for device in (1, 2):
            service.ingest(QosUpdate(device, (0.5, 0.5), True))
        service.end_tick()
        assert metrics.verdict_counts["isolated"] == 3
        assert metrics.verdict_counts["massive"] == 0
        # Tick 3: everyone sits still — three stationary trajectories in
        # one 2r-box form a tau-dense motion and all three verdicts flip
        # to massive: three new massive events, no new isolated ones.
        service.end_tick()
        assert metrics.verdict_counts["isolated"] == 3
        assert metrics.verdict_counts["massive"] == 3
        total_events = sum(metrics.verdict_counts.values())
        total_device_ticks = sum(metrics.verdict_tick_counts.values())
        assert total_device_ticks > total_events
        payload = metrics.as_dict()
        assert payload["verdict_counts"] == metrics.verdict_counts
        assert payload["verdict_tick_counts"] == metrics.verdict_tick_counts


class TestFeedSnapshotStoreDiff:
    def test_feed_snapshot_converges_after_mid_tick_ingest(self):
        """The diff runs against the store, not the caller's `previous`.

        A mid-tick ingest moves a device inside the store; the caller's
        remembered ``previous`` snapshot no longer matches.  If the diff
        used the caller's array, a device whose caller-previous equals
        caller-current would emit no update and the store would keep the
        mid-tick position forever.
        """
        rng = np.random.default_rng(3)
        n = 20
        base = rng.random((n, 2))
        service = OnlineCharacterizationService(
            base.copy(), ServiceConfig(r=0.05, tau=2)
        )
        # Mid-tick ingest: device 0 wanders off and gets flagged.
        service.ingest(QosUpdate(0, (0.25, 0.25), True))
        # The snapshot driver, unaware of the wander, feeds a snapshot
        # where device 0 sits at its base position with a False flag.
        current = base.copy()
        current[5] = np.clip(current[5] + 0.03, 0, 1)
        flags = [False] * n
        flags[5] = True
        out = service.feed_snapshot(current, flags)
        # The store converged to the fed snapshot: device 0 back at its
        # base position and unflagged, device 5 moved and flagged.
        np.testing.assert_allclose(
            service.store.current_positions(), current
        )
        assert service.flagged_devices() == (5,)
        assert set(out.verdicts) == {5}
        # The tick's transition runs from the base to the fed snapshot
        # (ticks publish no transition object of their own).
        reference = Transition(
            Snapshot(base), Snapshot(current), [5], 0.05, 2
        )
        assert_verdicts_match_batch(out, reference)

    def test_feed_snapshot_unchanged_when_store_agrees(self):
        rng = np.random.default_rng(4)
        n = 15
        base = rng.random((n, 2))
        service = OnlineCharacterizationService(
            base.copy(), ServiceConfig(r=0.05, tau=2)
        )
        current = base.copy()
        current[2] = np.clip(current[2] + 0.04, 0, 1)
        out = service.feed_snapshot(current, [j == 2 for j in range(n)])
        assert out.applied == 1  # only the genuinely changed device
        assert service.flagged_devices() == (2,)
