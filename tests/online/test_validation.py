"""Input validation: malformed reports are rejected per-row, counted.

Satellite contract of the fault-tolerance PR: garbage on the ingest
queue (unknown device, wrong dimension, NaN, inf, out-of-range) and
garbage measurement frames must not crash the tick or desync the store
— each bad input is dropped (or, in ``sanitize`` mode, repaired),
tallied on ``service.rejected`` and the
``repro_service_rejected_total{reason}`` counter, and every well-formed
report in the same batch still lands.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, DimensionMismatchError
from repro.detection.banks import DetectorSpec
from repro.obs.metrics import _reset_global_registry, get_registry
from repro.online import (
    OnlineCharacterizationService,
    QosUpdate,
    ServiceConfig,
    ShardedService,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    _reset_global_registry()
    yield
    _reset_global_registry()


def _counter_value(reason):
    family = get_registry().counter(
        "repro_service_rejected_total", "", labelnames=("reason",)
    )
    return family.labels(reason=reason).value


class TestQueuePathRejection:
    @pytest.fixture
    def service(self):
        base = np.random.default_rng(0).random((12, 2))
        with self._service(base, ServiceConfig(r=0.05, tau=2)) as svc:
            yield svc

    def _service(self, base, config):
        return OnlineCharacterizationService(base, config)

    def _positions(self, service):
        return service.store.current_positions()

    @pytest.mark.parametrize(
        "update, reason",
        [
            (QosUpdate(999, (0.5, 0.5), False), "unknown-device"),
            (QosUpdate(1, (0.5, 0.5, 0.5), False), "dimension-mismatch"),
            (QosUpdate(1, (float("nan"), 0.5), False), "nan"),
            (QosUpdate(1, (float("inf"), 0.5), True), "inf"),
            (QosUpdate(1, (1.5, 0.5), True), "out-of-range"),
        ],
    )
    def test_each_reason_is_dropped_and_counted(self, service, update, reason):
        before = self._positions(service)[1].copy()
        service.ingest(update)
        tick = service.end_tick()
        assert tick.applied == 0
        assert service.rejected == {reason: 1}
        assert _counter_value(reason) == 1
        # The store never saw the bad row.
        assert np.array_equal(self._positions(service)[1], before)

    def test_good_rows_in_a_poisoned_batch_still_land(self, service):
        target = self._positions(service)[3].copy()
        service.ingest_many(
            [
                QosUpdate(2, (float("nan"), 0.5), True),
                QosUpdate(3, (0.25, 0.75), True),
                QosUpdate(999, (0.5, 0.5), False),
            ]
        )
        tick = service.end_tick()
        assert tick.applied == 1
        assert service.rejected == {"nan": 1, "unknown-device": 1}
        assert np.allclose(self._positions(service)[3], (0.25, 0.75))
        assert not np.array_equal(self._positions(service)[3], target)

    def test_negative_coordinate_is_out_of_range(self, service):
        service.ingest(QosUpdate(0, (-0.1, 0.5), False))
        service.end_tick()
        assert service.rejected == {"out-of-range": 1}

    def test_rejections_accumulate_across_ticks(self, service):
        for _ in range(3):
            service.ingest(QosUpdate(999, (0.5, 0.5), False))
            service.end_tick()
        assert service.rejected == {"unknown-device": 3}
        assert _counter_value("unknown-device") == 3


class TestQueuePathRejectionInlineShards(TestQueuePathRejection):
    """The same per-event contract on a 2-shard front door."""

    WORKERS = "inline"

    def _service(self, base, config):
        return ShardedService(
            base, config, topology_shards=2, topology_workers=self.WORKERS
        )

    def _positions(self, service):
        return service._gather_current(service.n)


class TestQueuePathRejectionProcessShards(TestQueuePathRejectionInlineShards):
    WORKERS = "process"


class TestFramePathRejection:
    def _raw_service(self, validation):
        base = np.random.default_rng(1).random((10, 2))
        return OnlineCharacterizationService(
            base,
            ServiceConfig(r=0.05, tau=2, validation=validation),
            detector=DetectorSpec("step", {"max_step": 0.2}),
            detection="bank",
        )

    def _positions(self, service):
        return service.store.current_positions()

    @pytest.mark.parametrize(
        "poison, reason",
        [(np.nan, "nan"), (np.inf, "inf"), (4.2, "out-of-range")],
    )
    def test_strict_counts_then_raises(self, poison, reason):
        with self._raw_service("strict") as service:
            frame = np.full((10, 2), 0.5)
            frame[4, 0] = poison
            with pytest.raises(ConfigurationError, match="strict"):
                service.feed_measurements(frame)
            assert service.rejected == {reason: 1}
            assert _counter_value(reason) == 1
            # Nothing was observed or applied beyond the constructor's
            # warm-up: the next clean frame is tick 1, not tick 2.
            assert service.bank.samples_seen == 1
            tick = service.feed_measurements(np.full((10, 2), 0.5))
            assert tick.tick == 1
            assert service.bank.samples_seen == 2

    @pytest.mark.parametrize(
        "poison, reason",
        [(np.nan, "nan"), (np.inf, "inf"), (4.2, "out-of-range")],
    )
    def test_sanitize_repairs_bad_rows(self, poison, reason):
        with self._raw_service("sanitize") as service:
            before = self._positions(service)[4].copy()
            frame = np.full((10, 2), 0.5)
            frame[4, 0] = poison
            tick = service.feed_measurements(frame)
            assert tick.tick == 1
            assert service.rejected == {reason: 1}
            # The bad row kept its stored position; the rest applied.
            positions = self._positions(service)
            assert np.array_equal(positions[4], before)
            assert np.allclose(positions[5], 0.5)

    def test_wrong_shape_always_raises(self):
        for mode in ("strict", "sanitize"):
            with self._raw_service(mode) as service:
                with pytest.raises(DimensionMismatchError):
                    service.feed_measurements(np.full((4, 2), 0.5))
                assert service.rejected == {"dimension-mismatch": 1}

    def test_validation_mode_is_validated(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(validation="lenient")


class TestFramePathRejectionInlineShards(TestFramePathRejection):
    """The same frame contract on a 2-shard service; the sanitize repair
    gathers the stored rows back from the shards."""

    WORKERS = "inline"

    def _raw_service(self, validation):
        base = np.random.default_rng(1).random((10, 2))
        return ShardedService(
            base,
            ServiceConfig(r=0.05, tau=2, validation=validation),
            topology_shards=2,
            topology_workers=self.WORKERS,
            detector=DetectorSpec("step", {"max_step": 0.2}),
            detection="bank",
        )

    def _positions(self, service):
        return service._gather_current(service.n)


class TestFramePathRejectionProcessShards(TestFramePathRejectionInlineShards):
    WORKERS = "process"
