"""Sharded-topology chaos: shard processes under fire, poisoned frames.

Two contracts:

* killing a shard's child process mid-stream degrades that shard to
  supervised retries — never to wrong answers: the sharded service
  still emits the exact verdict stream of a fault-free single service
  fed the same updates;
* corrupted measurement frames are handled by the sharded front door
  exactly like the single service's: strict validation refuses the
  frame atomically, sanitize repairs the bad rows and the tick goes on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.detection.banks import DetectorSpec
from repro.online import (
    OnlineCharacterizationService,
    QosUpdate,
    ServiceConfig,
    ShardedService,
)
from repro.robust.chaos import FaultPlan, inject

CFG = ServiceConfig(r=0.05, tau=2)


def _history(service, base, ticks, seed):
    """Drive a seeded random stream; return the verdict history."""
    n, d = base.shape
    rng = np.random.default_rng(seed)
    positions = base.copy()
    history = []
    for _ in range(ticks):
        movers = rng.choice(n, size=max(1, n // 4), replace=False)
        for j in movers:
            j = int(j)
            sigma = 0.1 if rng.random() < 0.3 else 0.01
            positions[j] = np.clip(
                positions[j] + rng.normal(0, sigma, d), 0, 1
            )
            service.ingest(
                QosUpdate(j, tuple(positions[j]), bool(rng.random() < 0.5))
            )
        tick = service.end_tick()
        history.append(
            {
                j: (v.anomaly_type, v.rule, v.witness)
                for j, v in tick.verdicts.items()
            }
        )
    return history


class TestProcessShardKill:
    """Chaos against the process topology's own supervision plane.

    The kill strikes the *shard child process*: the front door must
    respawn it against the surviving shm planes — or degrade it to an
    in-parent serial worker when retries run out — and keep the verdict
    stream bit-identical to a fault-free single service.
    """

    def test_probabilistic_kills_respawn_never_diverge(self):
        base = np.random.default_rng(20).random((60, 2))
        cfg = ServiceConfig(
            r=0.05, tau=2, dispatch_deadline=5.0, dispatch_retries=3
        )

        with OnlineCharacterizationService(base.copy(), cfg) as single:
            clean = _history(single, base, ticks=6, seed=88)

        sharded = ShardedService(
            base.copy(), cfg, topology_shards=4,
            topology_workers="process",
        )
        plan = FaultPlan(seed=13, kill_probability=0.15, drop_probability=0.1)
        try:
            with inject(plan) as injector:
                chaotic = _history(sharded, base, ticks=6, seed=88)
            assert sum(injector.injected.values()) > 0
            assert chaotic == clean
            assert sum(
                h.respawns for h in sharded.handles
                if hasattr(h, "respawns")
            ) > 0
        finally:
            sharded.close()

    def test_exhausted_retries_degrade_to_inline_not_divergent(self):
        from repro.online.procshard import _InlineShardHandle

        base = np.random.default_rng(30).random((48, 2))
        cfg = ServiceConfig(
            r=0.05, tau=2, dispatch_deadline=5.0, dispatch_retries=0
        )

        with OnlineCharacterizationService(base.copy(), cfg) as single:
            clean = _history(single, base, ticks=5, seed=55)

        sharded = ShardedService(
            base.copy(), cfg, topology_shards=2,
            topology_workers="process",
        )
        plan = FaultPlan(kill_at={2: 1})
        try:
            with inject(plan) as injector:
                chaotic = _history(sharded, base, ticks=5, seed=55)
            assert injector.injected.get("kill") == 1
            degraded = [
                h for h in sharded.handles
                if isinstance(h, _InlineShardHandle)
            ]
            assert len(degraded) == 1
            assert degraded[0].shard == 1
            gauge = sharded.tracer.registry.gauge(
                "repro_topology_degraded_shards"
            )
            assert gauge.value == 1
            assert chaotic == clean
        finally:
            sharded.close()


class TestShardedFrameCorruption:
    #: Where the shards run; the process twin below reruns every test.
    WORKERS = "inline"

    def _raw(self, validation, n=24, seed=0):
        rng = np.random.default_rng(seed)
        base = rng.random((n, 2))
        service = ShardedService(
            base,
            ServiceConfig(r=0.05, tau=2, validation=validation),
            topology_shards=4,
            topology_workers=self.WORKERS,
            detector=DetectorSpec("step", {"max_step": 0.2}),
            detection="bank",
        )
        return service, base

    def test_strict_rejects_the_frame_atomically(self):
        service, base = self._raw("strict")
        try:
            rng = np.random.default_rng(1)
            drift = np.clip(base + rng.normal(0, 0.01, base.shape), 0, 1)
            service.feed_measurements(drift)
            seen = service.bank.samples_seen
            with inject(FaultPlan(frame_nan_at={2: [3, 5]})):
                with pytest.raises(ConfigurationError):
                    service.feed_measurements(drift)
            assert service.rejected.get("nan") == 2
            assert service.bank.samples_seen == seen
            assert service.current_tick == 1
            # A clean frame afterwards goes through untouched.
            out = service.feed_measurements(drift)
            assert out.tick == 2
        finally:
            service.close()

    def test_sanitize_repairs_rows_and_continues(self):
        service, base = self._raw("sanitize")
        try:
            rng = np.random.default_rng(2)
            drift = np.clip(base + rng.normal(0, 0.01, base.shape), 0, 1)
            service.feed_measurements(drift)
            plan = FaultPlan(frame_nan_at={2: [0]}, frame_oob_at={2: [1]})
            with inject(plan):
                tick = service.feed_measurements(drift)
            assert tick.tick == 2
            assert service.rejected == {"nan": 1, "out-of-range": 1}
            for store_state, _, _ in service.shard_states():
                positions = np.asarray(store_state["cur"])
                assert np.isfinite(positions).all()
                assert ((positions >= 0) & (positions <= 1)).all()
        finally:
            service.close()


class TestShardedFrameCorruptionProcess(TestShardedFrameCorruption):
    WORKERS = "process"
