"""An engine pass costs O(flagged), not O(n).

On a 100k-device transition with ~50 flagged devices, most of them
lone, the engine must never build the full ``(n, 2d)`` combined plane,
must query 4r knowledge balls only for devices that can have a dense
motion (``|N(j)| > tau``), and must leave every other ball to the
per-device memoized query, which still answers correctly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.characterize import Characterizer
from repro.core.transition import Transition
from repro.core.types import DecisionRule
from repro.engine import CharacterizationEngine

N = 100_000
R = 0.004
TAU = 2


@pytest.fixture(scope="module")
def fleet():
    rng = np.random.default_rng(2024)
    prev = rng.random((N, 2))
    cur = prev.copy()
    lone = rng.choice(N, 40, replace=False)
    cur[lone] = rng.random((40, 2))
    # Two coordinated groups of five: massive, so they read their balls.
    groups = []
    for center in ((0.3, 0.3), (0.7, 0.6)):
        members = rng.choice(np.setdiff1d(np.arange(N), lone), 5, replace=False)
        prev[members] = np.asarray(center) + rng.normal(0, R / 4, (5, 2))
        cur[members] = prev[members] + 0.05
        groups.extend(members.tolist())
    flagged = sorted(set(lone.tolist()) | set(groups))
    return prev, cur, flagged, sorted(groups)


def _transition(fleet):
    prev, cur, flagged, _ = fleet
    return Transition.from_views(prev, cur, flagged, R, TAU)


def _ball(fleet, device, rho):
    """Brute force: flagged devices within ``rho`` at both times."""
    prev, cur, flagged, _ = fleet
    ids = np.asarray(flagged)
    near = (np.abs(prev[ids] - prev[device]).max(axis=1) <= rho + 1e-12) & (
        np.abs(cur[ids] - cur[device]).max(axis=1) <= rho + 1e-12
    )
    return tuple(int(j) for j in ids[near])


def test_engine_pass_is_o_flagged(fleet, monkeypatch):
    _, _, flagged, groups = fleet
    t = _transition(fleet)

    def full_plane(self):
        raise AssertionError("the full (n, 2d) combined plane was built")

    monkeypatch.setattr(Transition, "combined", property(full_plane))
    verdicts = CharacterizationEngine().characterize(t)
    assert sorted(verdicts) == flagged

    lone = [j for j in flagged if t.neighborhood(j) == (j,)]
    assert len(lone) >= 35  # "most of them lone"
    assert all(verdicts[j].rule is DecisionRule.THEOREM_5 for j in lone)
    assert all(verdicts[j].rule is DecisionRule.THEOREM_6 for j in groups)

    # The 4r memo holds exactly the devices that could read it.
    balls = {j for (j, factor) in t._neighborhood_cache if factor == 4.0}
    assert balls == {j for j in flagged if len(t.neighborhood(j)) > TAU}
    assert balls == set(groups)

    # Any other device's ball is still served, and right.
    for j in flagged:
        assert t.knowledge_ball(j) == _ball(fleet, j, 4.0 * R)


def test_verdicts_equal_per_device_path(fleet):
    want = Characterizer(_transition(fleet)).characterize_all()
    got = CharacterizationEngine().characterize(_transition(fleet))
    assert {j: (v.anomaly_type, v.rule, v.witness, v.cost) for j, v in got.items()} == {
        j: (v.anomaly_type, v.rule, v.witness, v.cost) for j, v in want.items()
    }
