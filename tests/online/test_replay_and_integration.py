"""Replay pipeline + the online mode of the network and streaming drivers.

Three integrations must be verdict-identical to their batch twins:

* :func:`replay_trace_online` vs :func:`repro.io.synthetic.replay_trace`
  on the same trace (flagged sets and verdicts per step);
* ``NetworkMonitor(incremental=True)`` vs the default monitor on the
  same fault course;
* ``SampledCharacterizationStream(incremental=True)`` vs the batch
  stream on the same snapshot sequence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.detection.threshold import StepThresholdDetector
from repro.io.synthetic import Incident, TraceConfig, generate_trace, replay_trace
from repro.network import (
    GatewayFault,
    IspTopology,
    NetworkFault,
    NetworkMonitor,
    ReportingPolicy,
    TopologyConfig,
)
from repro.online import (
    LoadGenerator,
    LoadProfile,
    OnlineCharacterizationService,
    ServiceConfig,
    drive_load,
    replay_trace_online,
)
from repro.online.replay import diff_rows
from repro.streaming import SampledCharacterizationStream


def detector_factory():
    return StepThresholdDetector(max_step=0.12)


@pytest.fixture(scope="module")
def incident_trace():
    config = TraceConfig(devices=120, services=2, steps=16, seed=3)
    incidents = [
        Incident(start=4, duration=2, devices=tuple(range(30, 38)), service=0, drop=0.3),
        Incident(start=9, duration=2, devices=(77,), service=1, drop=0.4),
    ]
    return generate_trace(config, incidents)


class TestDiffRows:
    def test_only_changes_emit_events(self):
        prev = np.full((4, 2), 0.5)
        cur = prev.copy()
        cur[1] += 0.1
        rows, positions, flags = diff_rows(
            prev, cur, [False, False, True, False], [False, False, False, True]
        )
        by_device = dict(zip(rows.tolist(), flags.tolist()))
        assert set(by_device) == {1, 2, 3}
        assert by_device[1] is False
        assert by_device[2] is False  # flag lowered
        assert by_device[3] is True
        assert positions.tolist() == cur[[1, 2, 3]].tolist()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            diff_rows(np.zeros((3, 2)), np.zeros((4, 2)), [0] * 3, [0] * 4)

    def test_flag_vector_length_rejected(self):
        with pytest.raises(ConfigurationError):
            diff_rows(np.zeros((3, 2)), np.zeros((3, 2)), [0] * 2, [0] * 3)
        with pytest.raises(ConfigurationError):
            diff_rows(np.zeros((3, 2)), np.zeros((3, 2)), [0] * 3, [0] * 4)

    def test_vectorized_diff_matches_per_device_loop(self):
        # The changed-device selection is one np.nonzero over the moved /
        # flag-diff masks; it must agree with the naive per-device scan.
        rng = np.random.default_rng(11)
        n, d = 300, 3
        prev = rng.random((n, d))
        cur = prev.copy()
        movers = rng.choice(n, size=40, replace=False)
        cur[movers] = np.clip(cur[movers] + 0.01, 0, 1)
        prev_flags = rng.random(n) < 0.2
        cur_flags = prev_flags.copy()
        toggles = rng.choice(n, size=25, replace=False)
        cur_flags[toggles] = ~cur_flags[toggles]
        rows, positions, flags = diff_rows(prev, cur, prev_flags, cur_flags)
        expected = [
            (j, tuple(cur[j]), bool(cur_flags[j]))
            for j in range(n)
            if np.any(prev[j] != cur[j]) or bool(prev_flags[j]) != bool(cur_flags[j])
        ]
        got = list(zip(rows.tolist(), map(tuple, positions.tolist()), flags.tolist()))
        assert got == expected
        # Devices are emitted in ascending order (np.nonzero contract).
        assert rows.tolist() == sorted(rows.tolist())


class TestTraceReplayEquivalence:
    def test_flagged_and_verdicts_match_batch_replay(self, incident_trace):
        batch = replay_trace(incident_trace, detector_factory, r=0.03, tau=3)
        online = replay_trace_online(
            incident_trace, detector_factory, ServiceConfig(r=0.03, tau=3)
        )
        # Batch replay emits one result per step including step 0 (which
        # never characterizes); the online replay starts at step 1.
        assert len(online.ticks) == len(batch) - 1
        for tick, reference in zip(online.ticks, batch[1:]):
            assert list(tick.flagged) == reference.flagged
            assert set(tick.verdicts) == set(reference.verdicts)
            for device, got in tick.verdicts.items():
                want = reference.verdicts[device]
                assert got.anomaly_type == want.anomaly_type, (tick.tick, device)
                assert got.rule == want.rule, (tick.tick, device)
                assert got.witness == want.witness, (tick.tick, device)

    def test_incident_devices_classified(self, incident_trace):
        online = replay_trace_online(
            incident_trace, detector_factory, ServiceConfig(r=0.03, tau=3)
        )
        flagged_ever = set()
        for tick in online.ticks:
            flagged_ever.update(tick.flagged)
        assert set(range(30, 38)) <= flagged_ever
        assert 77 in flagged_ever
        assert online.total_updates > 0
        assert online.total_recomputed > 0

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            replay_trace_online([], detector_factory)

    def test_service_plus_config_rejected(self):
        trace = generate_trace(TraceConfig(devices=5, steps=3))
        service = OnlineCharacterizationService(trace[0].qos)
        with pytest.raises(ConfigurationError):
            replay_trace_online(
                trace, detector_factory, ServiceConfig(), service=service
            )


class TestLoadGenerator:
    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            LoadProfile(churn=0.0)
        with pytest.raises(ConfigurationError):
            LoadProfile(flag_rate=1.5)

    def test_deterministic_given_seed(self):
        a = LoadGenerator(LoadProfile(devices=50, seed=9))
        b = LoadGenerator(LoadProfile(devices=50, seed=9))
        assert np.array_equal(a.initial_positions(), b.initial_positions())
        assert a.tick_updates() == b.tick_updates()

    def test_burst_produces_coordinated_flags(self):
        profile = LoadProfile(
            devices=60, churn=0.02, flag_rate=0.0, burst_every=2, burst_size=6,
            seed=4,
        )
        generator = LoadGenerator(profile)
        first = generator.tick_updates()
        assert not any(u.flagged for u in first)
        second = generator.tick_updates()
        assert sum(u.flagged for u in second) == 6

    def test_drive_load_end_to_end(self):
        generator = LoadGenerator(
            LoadProfile(devices=80, churn=0.05, burst_every=3, seed=2)
        )
        service = OnlineCharacterizationService(
            generator.initial_positions(), ServiceConfig(r=0.03, tau=3)
        )
        result = drive_load(service, generator, 5)
        assert len(result.ticks) == 5
        assert result.total_updates == service.stats.updates_applied
        assert result.elapsed_seconds >= 0.0

    def test_drive_load_rejects_bad_ticks(self):
        generator = LoadGenerator(LoadProfile(devices=10))
        service = OnlineCharacterizationService(generator.initial_positions())
        with pytest.raises(ConfigurationError):
            drive_load(service, generator, 0)


def make_monitor(**kwargs) -> NetworkMonitor:
    topo = IspTopology(
        TopologyConfig(
            cores=2,
            aggregations_per_core=2,
            access_per_aggregation=2,
            gateways_per_access=10,
        )
    )
    return NetworkMonitor(
        topo, policy=ReportingPolicy.ALL, tau=3, seed=42, **kwargs
    )


def fault_course(monitor):
    results = list(monitor.run(3))
    monitor.injector.inject(NetworkFault("acc-0-0-0", severity=0.4, duration=2))
    monitor.injector.inject(GatewayFault(device_id=3, severity=0.6, duration=2))
    results += monitor.run(4)
    return results


class TestMonitorIncrementalMode:
    def test_verdicts_and_reports_identical_to_batch(self):
        batch = fault_course(make_monitor())
        online = fault_course(make_monitor(incremental=True))
        for got, want in zip(online, batch):
            assert got.flagged == want.flagged
            assert set(got.verdicts) == set(want.verdicts)
            for device in want.verdicts:
                a, b = got.verdicts[device], want.verdicts[device]
                assert a.anomaly_type == b.anomaly_type, (got.tick, device)
                assert a.rule == b.rule, (got.tick, device)
                assert a.witness == b.witness, (got.tick, device)
            assert [
                (r.device_id, r.anomaly_type) for r in got.reports
            ] == [(r.device_id, r.anomaly_type) for r in want.reports]

    def test_service_owned_lazily_and_shares_engine(self):
        monitor = make_monitor(incremental=True)
        assert monitor.service is None
        monitor.tick()
        assert monitor.service is not None
        assert monitor.service.engine is monitor.engine

    def test_service_config_inherits_monitor_parameters(self):
        monitor = make_monitor(
            incremental=True, service_config=ServiceConfig(r=0.2, tau=50, max_batch=3)
        )
        monitor.tick()
        assert monitor.service.config.r == monitor._r  # noqa: SLF001
        assert monitor.service.config.tau == monitor._tau  # noqa: SLF001
        assert monitor.service.config.max_batch == 3

    def test_batch_mode_reuses_indexes_across_stable_ticks(self):
        # A band (SLA) detector keeps the fault footprint flagged for
        # the whole degradation, so consecutive ticks see the same
        # flagged set.
        from repro.detection.threshold import BandThresholdDetector

        monitor = make_monitor(
            detector_factory=lambda: BandThresholdDetector(low=0.7)
        )
        monitor.run(3)
        monitor.injector.inject(
            NetworkFault("acc-0-0-0", severity=0.4, duration=4)
        )
        results = monitor.run(3)
        transitions = [r.transition for r in results if r.transition]
        assert len(transitions) >= 2
        assert tuple(results[1].flagged) == tuple(results[2].flagged)


class TestStreamIncrementalMode:
    def drive(self, stream, seed=0, ticks=12, n=60):
        rng = np.random.default_rng(seed)
        positions = rng.random((n, 2))
        flags = np.zeros(n, dtype=bool)
        emitted = []
        for _ in range(ticks):
            movers = rng.choice(n, size=6, replace=False)
            for j in movers:
                j = int(j)
                positions[j] = np.clip(
                    positions[j] + rng.normal(0, 0.05, 2), 0, 1
                )
                flags[j] = rng.random() < 0.4
            emitted.append(
                stream.observe(positions, [int(x) for x in np.nonzero(flags)[0]])
            )
        return emitted

    def test_emitted_verdicts_identical_to_batch_stream(self):
        batch = self.drive(
            SampledCharacterizationStream(60, r=0.05, tau=2)
        )
        online = self.drive(
            SampledCharacterizationStream(60, r=0.05, tau=2, incremental=True)
        )
        for got, want in zip(online, batch):
            assert got.flagged == want.flagged
            assert got.due == want.due
            assert set(got.verdicts) == set(want.verdicts)
            for device in want.verdicts:
                a, b = got.verdicts[device], want.verdicts[device]
                assert a.anomaly_type == b.anomaly_type, (got.tick, device)
                assert a.rule == b.rule, (got.tick, device)
                assert a.witness == b.witness, (got.tick, device)

    def test_service_created_lazily(self):
        stream = SampledCharacterizationStream(10, r=0.03, tau=2, incremental=True)
        assert stream.service is None
        stream.observe(np.full((10, 2), 0.5), [])
        assert stream.service is not None
        assert stream.service.engine is stream.engine
