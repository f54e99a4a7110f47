"""Integration tests: the full measure → detect → characterize → report loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import AnomalyType
from repro.network import (
    GatewayFault,
    IspTopology,
    NetworkFault,
    NetworkMonitor,
    ReportingPolicy,
    TopologyConfig,
)


def make_monitor(policy=ReportingPolicy.ALL, **kwargs) -> NetworkMonitor:
    topo = IspTopology(
        TopologyConfig(
            cores=2,
            aggregations_per_core=2,
            access_per_aggregation=2,
            gateways_per_access=10,
        )
    )
    return NetworkMonitor(topo, policy=policy, tau=3, seed=42, **kwargs)


class TestNominalOperation:
    def test_no_flags_under_nominal_conditions(self):
        monitor = make_monitor()
        for result in monitor.run(5):
            assert result.flagged == []
            assert result.reports == []

    def test_tick_counter(self):
        monitor = make_monitor()
        monitor.run(3)
        assert monitor.current_tick == 3


class TestNetworkEvent:
    def test_access_fault_classified_massive(self):
        monitor = make_monitor()
        monitor.run(3)
        monitor.injector.inject(NetworkFault("acc-0-0-0", severity=0.4, duration=3))
        result = monitor.tick()
        impacted = {
            monitor._topology.graph.nodes[g]["device_id"]  # noqa: SLF001 - test introspection
            for g in monitor._topology.gateways_behind("acc-0-0-0")
        }
        assert set(result.flagged) == impacted
        for device in impacted:
            assert result.verdicts[device].anomaly_type is AnomalyType.MASSIVE

    def test_core_fault_impacts_larger_footprint(self):
        monitor = make_monitor()
        monitor.run(3)
        monitor.injector.inject(NetworkFault("core-0", severity=0.3, duration=3))
        result = monitor.tick()
        assert len(result.flagged) >= 20
        massive = [
            d
            for d, v in result.verdicts.items()
            if v.anomaly_type is AnomalyType.MASSIVE
        ]
        assert len(massive) == len(result.flagged)


class TestLocalEvent:
    def test_gateway_fault_classified_isolated(self):
        monitor = make_monitor()
        monitor.run(3)
        monitor.injector.inject(GatewayFault(device_id=17, severity=0.5, duration=3))
        result = monitor.tick()
        assert result.flagged == [17]
        assert result.verdicts[17].anomaly_type is AnomalyType.ISOLATED


class TestMixedEvents:
    def test_simultaneous_faults_disambiguated(self):
        monitor = make_monitor()
        monitor.run(3)
        monitor.injector.inject(NetworkFault("acc-1-1-1", severity=0.45, duration=3))
        monitor.injector.inject(GatewayFault(device_id=3, severity=0.6, duration=3))
        result = monitor.tick()
        verdict_types = {
            d: v.anomaly_type for d, v in result.verdicts.items()
        }
        assert verdict_types.pop(3) is AnomalyType.ISOLATED
        assert verdict_types
        assert all(t is AnomalyType.MASSIVE for t in verdict_types.values())


class TestReportingPolicies:
    def _mixed_fault_reports(self, policy):
        monitor = make_monitor(policy=policy)
        monitor.run(3)
        monitor.injector.inject(NetworkFault("acc-0-1-0", severity=0.4, duration=3))
        monitor.injector.inject(GatewayFault(device_id=70, severity=0.6, duration=3))
        return monitor.tick()

    def test_isp_policy_reports_isolated_only(self):
        result = self._mixed_fault_reports(ReportingPolicy.ISP)
        assert [r.device_id for r in result.reports] == [70]
        assert result.reports[0].anomaly_type is AnomalyType.ISOLATED

    def test_ott_policy_reports_massive_only(self):
        result = self._mixed_fault_reports(ReportingPolicy.OTT)
        assert result.reports
        assert all(r.anomaly_type is AnomalyType.MASSIVE for r in result.reports)
        assert 70 not in {r.device_id for r in result.reports}

    def test_all_policy_reports_everything(self):
        result = self._mixed_fault_reports(ReportingPolicy.ALL)
        reported = {r.device_id for r in result.reports}
        assert 70 in reported
        assert len(reported) > 1

    def test_isp_policy_suppresses_mass_notification(self):
        """The paper's motivation: a network event must NOT flood the
        operator with per-gateway reports under the ISP policy."""
        monitor = make_monitor(policy=ReportingPolicy.ISP)
        monitor.run(3)
        monitor.injector.inject(NetworkFault("core-1", severity=0.35, duration=3))
        result = monitor.tick()
        assert len(result.flagged) >= 20
        assert result.reports == []


class TestRecovery:
    def test_fault_expiry_triggers_second_transition(self):
        monitor = make_monitor()
        monitor.run(3)
        monitor.injector.inject(NetworkFault("acc-0-0-1", severity=0.4, duration=1))
        during = monitor.tick()
        assert during.flagged
        # Fault expires: QoS jumps back up, which is again an abnormal
        # variation and must be classified massive (same footprint).
        after = monitor.tick()
        assert set(after.flagged) == set(during.flagged)
        for verdict in after.verdicts.values():
            assert verdict.anomaly_type is AnomalyType.MASSIVE


class TestEngineRouting:
    """The tick loop routes verdicts through one shared engine."""

    def test_monitor_owns_an_engine(self):
        from repro.engine import CharacterizationEngine

        monitor = make_monitor()
        assert isinstance(monitor.engine, CharacterizationEngine)

    def test_engine_stats_accumulate_over_ticks(self):
        monitor = make_monitor()
        monitor.run(3)
        monitor.injector.inject(NetworkFault("core-1", severity=0.35, duration=2))
        monitor.run(2)
        assert monitor.engine.stats.transitions >= 1
        assert monitor.engine.stats.devices_characterized > 0

    def test_shared_engine_across_monitors(self):
        from repro.engine import CharacterizationEngine

        engine = CharacterizationEngine()
        monitor = make_monitor(engine=engine)
        assert monitor.engine is engine


class TestDetectionPlane:
    """The tick loop detects through an array bank; planes agree."""

    def _fault_course(self, monitor):
        results = monitor.run(3)
        monitor.injector.inject(NetworkFault("acc-0-0-0", severity=0.4, duration=2))
        results.append(monitor.tick())
        monitor.injector.inject(GatewayFault(device_id=5, severity=0.6, duration=1))
        results.append(monitor.tick())
        results.append(monitor.tick())
        return results

    def test_bank_and_scalar_planes_identical(self):
        bank = self._fault_course(make_monitor())
        scalar = self._fault_course(make_monitor(detection="scalar"))
        for got, want in zip(bank, scalar):
            assert got.flagged == want.flagged
            assert np.array_equal(got.qos, want.qos)
            assert {d: v.anomaly_type for d, v in got.verdicts.items()} == {
                d: v.anomaly_type for d, v in want.verdicts.items()
            }

    def test_detector_spec_selects_family(self):
        from repro.detection import DetectorSpec, EwmaBank

        monitor = make_monitor(
            detector_spec=DetectorSpec(
                "ewma", {"alpha": 0.3, "nsigma": 5.0, "warmup": 3, "min_std": 5e-3}
            ),
            keep_detections=True,
        )
        assert isinstance(monitor.bank, EwmaBank)
        monitor.run(5)
        monitor.injector.inject(NetworkFault("acc-0-0-0", severity=0.5, duration=2))
        result = monitor.tick()
        assert len(result.flagged) == 10
        assert result.detection is not None
        assert result.detection.flagged_devices() == result.flagged
        assert monitor.last_detection is result.detection

    def test_detection_retention_opt_in(self):
        monitor = make_monitor()
        result = monitor.tick()
        # Off by default: TickResult stays lean, the latest detection is
        # still reachable on the monitor itself.
        assert result.detection is None
        assert monitor.last_detection is not None
        assert monitor.last_detection.flagged_devices() == result.flagged

    def test_legacy_factory_runs_scalar_plane(self):
        from repro.detection import ScalarDetectorBank, StepThresholdDetector

        monitor = make_monitor(
            detector_factory=lambda: StepThresholdDetector(max_step=0.12)
        )
        assert isinstance(monitor.bank, ScalarDetectorBank)

    def test_factory_and_spec_conflict_rejected(self):
        from repro.core.errors import ConfigurationError
        from repro.detection import DetectorSpec, StepThresholdDetector

        with pytest.raises(ConfigurationError):
            make_monitor(
                detector_factory=lambda: StepThresholdDetector(max_step=0.1),
                detector_spec=DetectorSpec("step", {"max_step": 0.1}),
            )
        with pytest.raises(ConfigurationError):
            make_monitor(
                detector_factory=lambda: StepThresholdDetector(max_step=0.1),
                detection="bank",
            )

    def test_vectorized_measurement_matches_scalar_loop(self):
        """qos_matrix is bit-exact with per-gateway qos_vector calls."""
        monitor = make_monitor()
        monitor.injector.inject(NetworkFault("core-0", severity=0.3, duration=3))
        monitor.injector.tick()
        topo, catalog = monitor._topology, monitor.catalog  # noqa: SLF001
        matrix = catalog.qos_matrix(topo)
        for device in range(topo.n_gateways):
            vector = catalog.qos_vector(topo, topo.gateway_name(device))
            assert matrix[device].tolist() == vector
