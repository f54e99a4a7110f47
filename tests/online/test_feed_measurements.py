"""In-service flagging: raw measurements in, verdicts out.

The service (and the sampled stream) can own the detector bank: callers
ship ``(n, d)`` QoS snapshots, the bank decides ``a_k(j)``, and the flag
diffs feed the same dirty-region invalidation as precomputed flags.
Contract: feeding measurements to a detector-owning service equals
running the same bank outside and feeding ``feed_snapshot`` — tick by
tick, verdict by verdict.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, DimensionMismatchError
from repro.detection import DetectorSpec
from repro.io import Incident, TraceConfig, generate_trace
from repro.online import (
    LoadGenerator,
    LoadProfile,
    OnlineCharacterizationService,
    ServiceConfig,
    ShardedService,
    drive_load_measurements,
    replay_trace_online,
)
from repro.streaming import SampledCharacterizationStream

SPEC = DetectorSpec("step", {"max_step": 0.12})


def _trace(devices=40, steps=16, seed=9):
    incidents = [
        Incident(
            start=6, duration=3, devices=tuple(range(7)), service=0, drop=0.35
        ),
        Incident(
            start=11, duration=2, devices=(devices - 1,), service=1, drop=0.5
        ),
    ]
    return generate_trace(
        TraceConfig(devices=devices, steps=steps, seed=seed), incidents
    )


class TestFeedMeasurements:
    def test_equals_external_bank_plus_feed_snapshot(self):
        trace = _trace()
        n, d = trace[0].qos.shape
        config = ServiceConfig(r=0.03, tau=3)
        inside = OnlineCharacterizationService(
            trace[0].qos, config, detector=SPEC
        )
        outside = OnlineCharacterizationService(trace[0].qos, config)
        bank = SPEC.bank(n, d)
        bank.observe_batch(trace[0].qos)  # step-0 warm-up, like the service
        for step in trace[1:]:
            got = inside.feed_measurements(step.qos)
            flags = bank.observe_batch(step.qos).flags
            want = outside.feed_snapshot(step.qos, flags)
            assert got.flagged == want.flagged
            assert set(got.verdicts) == set(want.verdicts)
            for device in got.verdicts:
                assert (
                    got.verdicts[device].anomaly_type
                    is want.verdicts[device].anomaly_type
                )

    def test_requires_detector(self):
        service = OnlineCharacterizationService(np.full((4, 2), 0.5))
        with pytest.raises(ConfigurationError):
            service.feed_measurements(np.full((4, 2), 0.5))
        with pytest.raises(ConfigurationError):
            OnlineCharacterizationService(
                np.full((4, 2), 0.5), detection="bank"
            )

    def test_snapshot_diffs_bypass_error_backpressure(self):
        """A fleet-wide snapshot diff must not trip the ingest bound.

        Ticks are atomic: once the bank has observed a snapshot, the
        self-produced diff batch is applied directly — an "error"
        backpressure policy with a tiny queue must not fire mid-tick
        and leave the bank one observation ahead of the store.
        """
        rng = np.random.default_rng(6)
        initial = rng.random((50, 2))
        service = OnlineCharacterizationService(
            initial,
            ServiceConfig(r=0.03, tau=3, queue_capacity=4, backpressure="error"),
            detector=SPEC,
        )
        moved = np.clip(initial + 0.005, 0.0, 1.0)  # every device reports
        tick = service.feed_measurements(moved)
        assert tick.applied == 50
        assert service.bank.samples_seen == 2
        # An invalid snapshot is rejected before the bank consumes it.
        bad = moved.copy()
        bad[3, 1] = np.nan
        with pytest.raises(ConfigurationError):
            service.feed_measurements(bad)
        assert service.bank.samples_seen == 2

    def test_bank_exposed_and_detection_recorded(self):
        service = OnlineCharacterizationService(
            np.full((4, 2), 0.8), detector=SPEC
        )
        assert service.bank is not None
        assert service.bank.samples_seen == 1  # initial snapshot consumed
        snapshot = np.full((4, 2), 0.8)
        snapshot[2, 0] = 0.2
        tick = service.feed_measurements(snapshot)
        assert service.last_detection is not None
        assert service.last_detection.flagged_devices() == [2]
        assert tick.flagged == (2,)

    def test_scalar_plane_identical(self):
        trace = _trace(devices=25, steps=12)
        config = ServiceConfig(r=0.03, tau=3)
        bank_service = OnlineCharacterizationService(
            trace[0].qos, config, detector=SPEC
        )
        scalar_service = OnlineCharacterizationService(
            trace[0].qos, config, detector=SPEC, detection="scalar"
        )
        for step in trace[1:]:
            got = bank_service.feed_measurements(step.qos)
            want = scalar_service.feed_measurements(step.qos)
            assert got.flagged == want.flagged

    def test_replay_default_detector_tracks_prebuilt_service_radius(self):
        """The default step bank uses the *service's* r, prebuilt or not."""
        trace = _trace(devices=20, steps=8)
        prebuilt = OnlineCharacterizationService(
            trace[0].qos, ServiceConfig(r=0.1, tau=3)
        )
        via_service = replay_trace_online(trace, service=prebuilt)
        via_config = replay_trace_online(
            trace, config=ServiceConfig(r=0.1, tau=3)
        )
        assert [t.flagged for t in via_service.ticks] == [
            t.flagged for t in via_config.ticks
        ]
        prebuilt.close()
        via_config.service.close()

    def test_replay_trace_online_spec_matches_io_replay(self):
        from repro.io import replay_trace

        trace = _trace()
        online = replay_trace_online(
            trace, detector=SPEC, config=ServiceConfig(r=0.03, tau=3)
        )
        batch = replay_trace(trace, detector=SPEC, r=0.03, tau=3)
        # Tick k of the online replay is trace step k+1.
        for tick, outcome in zip(online.ticks, batch[1:]):
            assert list(tick.flagged) == outcome.flagged
            assert set(tick.verdicts) == set(outcome.verdicts)
            for device in tick.verdicts:
                assert (
                    tick.verdicts[device].anomaly_type
                    is outcome.verdicts[device].anomaly_type
                )
        online.service.close()


class TestFrameAfterLeave:
    """A frame keeps one row per bank row after a device leaves.

    The bank and the store diff are sized to the fleet the service was
    built over; the departed device's row is ignored, whatever it holds.
    A frame sized to the live count is refused before the bank sees it.
    """

    N = 40
    LEFT = (3, 17)

    def _service(self, host, positions):
        config = ServiceConfig(r=0.03, tau=3)
        if host == "single":
            return OnlineCharacterizationService(positions, config, detector=SPEC)
        return ShardedService(
            positions, config, topology_shards=2, topology_workers=host, detector=SPEC
        )

    def _frames(self, ticks=5):
        rng = np.random.default_rng(11)
        base = 0.1 + 0.8 * rng.random((self.N, 2))
        frames = [base]
        for tick in range(ticks):
            frame = np.clip(frames[-1] + rng.normal(0.0, 0.005, base.shape), 0, 1)
            if tick % 2:
                # The left devices and their neighbours by id jump past
                # max_step: the bank raises the vacant rows too.
                frame[[2, 3, 4, 16, 17, 18], 0] = np.where(
                    frame[[2, 3, 4, 16, 17, 18], 0] > 0.5, 0.1, 0.9
                )
            frames.append(frame)
        return frames

    def _run(self, host):
        frames = self._frames()
        bank = SPEC.bank(self.N, 2)
        bank.observe_batch(frames[0])
        live = sorted(set(range(self.N)) - set(self.LEFT))
        ticks = []
        with self._service(host, frames[0]) as service:
            for device in self.LEFT:
                # The single service's membership lives on its store.
                getattr(service, "store", service).leave(device)
            seen = service.bank.samples_seen
            with pytest.raises(DimensionMismatchError):
                service.feed_measurements(frames[1][live])
            assert service.bank.samples_seen == seen
            for frame in frames[1:]:
                flags = bank.observe_batch(frame).flags
                got = service.feed_measurements(frame)
                assert got.flagged == tuple(j for j in live if flags[j])
                assert set(got.verdicts) == set(got.flagged)
                ticks.append(got)
            assert service.n == self.N - len(self.LEFT)
        assert any(tick.flagged for tick in ticks)
        return ticks

    @pytest.mark.parametrize("host", ["single", "inline", "process"])
    def test_leave_then_frame(self, host):
        self._run(host)

    def test_hosts_agree_after_leave(self):
        want = self._run("single")
        for host in ("inline", "process"):
            for a, b in zip(want, self._run(host)):
                assert a.flagged == b.flagged
                assert {j: v.anomaly_type for j, v in a.verdicts.items()} == {
                    j: v.anomaly_type for j, v in b.verdicts.items()
                }


class TestDriveLoadMeasurements:
    def test_runs_and_flags_through_bank(self):
        profile = LoadProfile(
            devices=300, services=2, churn=0.05, flag_rate=0.3, seed=4
        )
        generator = LoadGenerator(profile)
        with OnlineCharacterizationService(
            generator.initial_positions(),
            ServiceConfig(r=0.03, tau=3),
            detector=SPEC,
        ) as service:
            result = drive_load_measurements(service, generator, ticks=6)
        assert len(result.ticks) == 6
        # Anomalous jumps (sigma 0.15) clear max_step=0.12 regularly.
        assert any(tick.flagged for tick in result.ticks)

    def test_retained_detections_are_not_aliased(self):
        generator = LoadGenerator(
            LoadProfile(devices=50, services=2, churn=0.2, flag_rate=0.5, seed=2)
        )
        snapshots = []
        with OnlineCharacterizationService(
            generator.initial_positions(),
            ServiceConfig(r=0.03, tau=3),
            detector=SPEC,
            sinks=(lambda tick: None,),
        ) as service:
            service.add_sink(
                lambda tick: snapshots.append(service.last_detection.positions)
            )
            drive_load_measurements(service, generator, ticks=3)
        assert snapshots[0] is not snapshots[1]
        assert not np.array_equal(snapshots[0], snapshots[2])

    def test_requires_detector_and_matching_fleet(self):
        generator = LoadGenerator(LoadProfile(devices=10, services=2))
        plain = OnlineCharacterizationService(generator.initial_positions())
        with pytest.raises(ConfigurationError):
            drive_load_measurements(plain, generator, ticks=1)
        mismatched = OnlineCharacterizationService(
            np.full((5, 2), 0.5), detector=SPEC
        )
        with pytest.raises(ConfigurationError):
            drive_load_measurements(mismatched, generator, ticks=1)


class TestStreamMeasurements:
    def test_observe_measurements_matches_precomputed_flags(self):
        trace = _trace(devices=30, steps=14)
        n, d = trace[0].qos.shape
        detecting = SampledCharacterizationStream(
            n, r=0.03, tau=3, detector=SPEC
        )
        plain = SampledCharacterizationStream(n, r=0.03, tau=3)
        bank = SPEC.bank(n, d)
        for step in trace:
            got = detecting.observe_measurements(step.qos)
            flags = bank.observe_batch(step.qos).flagged_devices()
            want = plain.observe(step.qos, flags)
            assert got.flagged == want.flagged
            assert got.due == want.due
            assert set(got.verdicts) == set(want.verdicts)
        detecting.close()
        plain.close()

    def test_requires_detector(self):
        stream = SampledCharacterizationStream(4, r=0.03, tau=3)
        with pytest.raises(ConfigurationError):
            stream.observe_measurements(np.full((4, 2), 0.5))
        with pytest.raises(ConfigurationError):
            SampledCharacterizationStream(4, r=0.03, tau=3, detection="bank")

    def test_bank_built_lazily(self):
        stream = SampledCharacterizationStream(4, r=0.03, tau=3, detector=SPEC)
        assert stream.bank is None
        stream.observe_measurements(np.full((4, 3), 0.8))
        assert stream.bank is not None
        assert stream.bank.shape == (4, 3)
        assert stream.last_detection is not None
        stream.close()
