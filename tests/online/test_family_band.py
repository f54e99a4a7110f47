"""The motion carry's family band comes from the dirty-region fan-out.

:meth:`DirtyRegionTracker.finish_tick` computes one cell-ring distance
per flagged row and records both bands from it: the affected rows
(``rings``) it returns and the family-dirty rows (``family_rings``) the
verdict stage's motion carry reads.  The family band must equal a
separate ``rows_near_cells`` fan-out at ``family_rings`` and lie inside
the affected set; an incremental service with the carry must stay
verdict-identical to full recomputation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.online import (
    DeviceStateStore,
    OnlineCharacterizationService,
    QosUpdate,
    ServiceConfig,
)
from repro.online.dirty import DirtyRegionTracker

R = 0.03


def _decisions(verdicts):
    # Cost counters differ by design: carried families are not expanded.
    return {j: (c.anomaly_type, c.rule, c.witness) for j, c in verdicts.items()}


@pytest.mark.parametrize("seed", range(6))
def test_family_band_equals_a_separate_fan_out(seed):
    rng = np.random.default_rng(seed)
    n = 200
    store = DeviceStateStore(rng.random((n, 2)), cell=2 * R)
    tracker = DirtyRegionTracker(cell=2 * R, influence_radius=4 * R)
    for _ in range(8):
        for device in rng.choice(n, 25, replace=False).tolist():
            was = store.is_flagged(device)
            step = rng.normal(0.0, R, 2) if rng.random() < 0.7 else 0.0
            pos = np.clip(store.position(device) + step, 0.0, 1.0)
            applied = store.apply(device, pos, bool(rng.random() < 0.4))
            tracker.mark(applied, was_relevant=was)
        dirty, affected = tracker.finish_tick(store)
        want = set(
            store.index.rows_near_cells(
                store.flagged_rows(), dirty, tracker.family_rings
            ).tolist()
        )
        assert tracker.family_dirty == want
        assert tracker.family_dirty <= affected
        store.advance_tick()


def test_carry_stays_verdict_identical_to_full_recompute():
    rng = np.random.default_rng(3)
    n = 400
    base = rng.random((n, 2))
    services = [
        OnlineCharacterizationService(
            base, ServiceConfig(r=R, tau=2, incremental=incremental)
        )
        for incremental in (True, False)
    ]
    pos = base.copy()
    flagged = set(rng.choice(n, 40, replace=False).tolist())
    reused = 0
    for _ in range(10):
        batch = []
        for device in rng.choice(n, 30, replace=False).tolist():
            pos[device] = np.clip(pos[device] + rng.normal(0.0, R / 2, 2), 0, 1)
            if rng.random() < 0.2:
                flagged ^= {device}
            batch.append(QosUpdate(device, tuple(pos[device]), device in flagged))
        ticks = []
        for service in services:
            service.ingest_many(batch)
            ticks.append(service.end_tick())
        incremental, full = ticks
        assert _decisions(incremental.verdicts) == _decisions(full.verdicts)
        reused += incremental.families_reused
    assert reused > 0
