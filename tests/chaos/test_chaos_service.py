"""Service-plane chaos: frame corruption.

Corrupted measurement frames (NaN / inf / out-of-range cells) never
reach the detector bank: strict validation rejects the frame
atomically, sanitize repairs the bad rows — both count every reason.
Dispatch faults against shard processes live in
``test_chaos_sharded.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.detection.banks import DetectorSpec
from repro.online import OnlineCharacterizationService, ServiceConfig
from repro.robust.chaos import FaultPlan, inject


def _raw_service(n=24, d=2, seed=0, validation="strict"):
    rng = np.random.default_rng(seed)
    base = rng.random((n, d))
    service = OnlineCharacterizationService(
        base,
        ServiceConfig(r=0.05, tau=2, validation=validation),
        detector=DetectorSpec("step", {"max_step": 0.2}),
        detection="bank",
    )
    return service, base


def _drift(rng, base, sigma=0.01):
    return np.clip(base + rng.normal(0, sigma, base.shape), 0, 1)


class TestFrameCorruption:
    @pytest.mark.parametrize(
        "field, reason",
        [
            ("frame_nan_at", "nan"),
            ("frame_inf_at", "inf"),
            ("frame_oob_at", "out-of-range"),
        ],
    )
    def test_strict_rejects_before_the_bank_observes(self, field, reason):
        service, base = _raw_service()
        try:
            rng = np.random.default_rng(1)
            service.feed_measurements(_drift(rng, base))
            seen = service.bank.samples_seen
            # Tick 2's frame is corrupted in flight.
            with inject(FaultPlan(**{field: {2: [3, 5]}})) as injector:
                with pytest.raises(ConfigurationError):
                    service.feed_measurements(_drift(rng, base))
            assert injector.injected.get(f"frame_{reason[:3]}", 0) + \
                injector.injected.get("frame_oob", 0) >= 1
            assert service.rejected.get(reason) == 2
            # The bank never saw the poisoned frame.
            assert service.bank.samples_seen == seen
            # A clean frame afterwards goes through untouched.
            service.feed_measurements(_drift(rng, base))
            assert service.bank.samples_seen == seen + 1
        finally:
            service.close()

    def test_sanitize_repairs_and_continues(self):
        service, base = _raw_service(validation="sanitize")
        try:
            rng = np.random.default_rng(2)
            service.feed_measurements(_drift(rng, base))
            plan = FaultPlan(frame_nan_at={2: [0]}, frame_inf_at={2: [1]})
            with inject(plan):
                tick = service.feed_measurements(_drift(rng, base))
            assert tick.tick == 2
            assert service.rejected == {"nan": 1, "inf": 1}
            # The repaired rows kept their stored positions: state is
            # still finite and in the unit cube.
            positions = service.store.current_positions()
            assert np.isfinite(positions).all()
            assert ((positions >= 0) & (positions <= 1)).all()
        finally:
            service.close()

    def test_chaos_off_means_no_copy_no_rejects(self):
        service, base = _raw_service()
        try:
            rng = np.random.default_rng(3)
            for _ in range(3):
                service.feed_measurements(_drift(rng, base))
            assert service.rejected == {}
        finally:
            service.close()
