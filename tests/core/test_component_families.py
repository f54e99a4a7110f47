"""Component-shared motion work equals the per-device anchored path.

:class:`MotionCache` enumerates each 2r-connected component of the
flagged set once and derives a member's family as the motions that
contain it; the verdict filters the component's table of
dense motion subsets into each member's Theorem 7 pool.  Both must be
exact: families equal :func:`motion_family` on every transition — random
ones, ones whose component exceeds the sharing bound (per-device
fallback), and shard-like ones truncated at a cut line — and the shared
pool equals the definitional pool (every dense consistent subset of the
``4r`` ball that avoids ``j``, meets ``D_k(j)`` and is inconsistent with
``j``), down to the order that fixes ``tested_collections`` and the
witness.
"""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from repro.core.characterize import Characterizer, _Verdicts
from repro.core.motions import enumerate_maximal_motions, motion_family
from repro.core.neighborhood import (
    _COMPONENT_LIMIT,
    MotionCache,
    MotionComponent,
)
from repro.core.transition import Snapshot, Transition
from repro.core.types import DecisionRule


def _groups_transition(rng, *, groups=3, size=8, loners=10, r=0.04, tau=2):
    """Coordinated groups (a shared shift, small noise) plus loners."""
    prev = []
    cur = []
    for _ in range(groups):
        home = rng.uniform(0.15, 0.85, 2)
        shift = rng.uniform(-0.1, 0.1, 2)
        pts = home + rng.normal(0, r * 0.8, (size, 2))
        prev.append(pts)
        cur.append(pts + shift + rng.normal(0, r / 4, (size, 2)))
    prev.append(rng.random((loners, 2)))
    cur.append(rng.random((loners, 2)))
    prev = np.clip(np.vstack(prev), 0, 1)
    cur = np.clip(np.vstack(cur), 0, 1)
    return Transition(Snapshot(prev), Snapshot(cur), range(len(prev)), r, tau)


def _assert_families_match(transition, devices=None):
    cache = MotionCache(transition)
    for j in devices if devices is not None else transition.flagged_sorted:
        got = cache.family(j)
        want = motion_family(transition, j)
        assert got.motions == want.motions, j
        assert got.dense == want.dense, j
    return cache


class TestComponentFamilies:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_transitions(self, seed):
        rng = np.random.default_rng(seed)
        t = _groups_transition(
            rng,
            groups=int(rng.integers(1, 4)),
            size=int(rng.integers(3, 11)),
            r=float(rng.uniform(0.02, 0.06)),
            tau=int(rng.integers(1, 4)),
        )
        cache = _assert_families_match(t)
        assert any(cache.component(j) is not None for j in t.flagged_sorted)

    def test_component_members_share_one_enumeration(self):
        t = _groups_transition(np.random.default_rng(3), groups=1, size=8, loners=0)
        cache = MotionCache(t)
        component = cache.component(0)
        assert component is not None
        for j in component.devices:
            assert cache.component(j) is component
            assert cache.family(j).window_steps == component.window_steps
        assert cache.expansions == len(component.devices)

    def test_component_above_the_bound_falls_back(self):
        # An all-flagged grid with spacing < 2r is one 2r-connected
        # component far larger than the sharing bound.
        side = 10
        axis = np.linspace(0.2, 0.6, side)
        prev = np.array([(x, y) for x in axis for y in axis])
        rng = np.random.default_rng(1)
        cur = np.clip(prev + rng.normal(0, 0.005, prev.shape), 0, 1)
        t = Transition(Snapshot(prev), Snapshot(cur), range(len(prev)), 0.03, 2)
        assert len(prev) > _COMPONENT_LIMIT
        cache = _assert_families_match(t, devices=range(0, len(prev), 7))
        assert all(cache.component(j) is None for j in range(len(prev)))

    def test_shard_like_truncation(self):
        # A shard sees only the flagged devices left of its cut line; a
        # component crossing the cut is truncated at the edge.  Families
        # stay exact on the truncated transition, and a device whose N(j)
        # lies inside the shard keeps its full-transition family.
        rng = np.random.default_rng(8)
        full = _groups_transition(rng, groups=3, size=8, loners=12)
        cut = float(np.median(full.current.positions[:, 0]))
        kept = [j for j in full.flagged_sorted if full.current.positions[j, 0] < cut]
        shard = Transition(full.previous, full.current, kept, full.r, full.tau)
        _assert_families_match(shard)
        full_cache = MotionCache(full)
        shard_cache = MotionCache(shard)
        interior = [
            j for j in kept if set(full.neighborhood(j)) <= set(kept)
        ]
        assert interior
        for j in interior:
            assert shard_cache.family(j).motions == full_cache.family(j).motions


class TestSharedTheorem7Pool:
    def _theorem7_transition(self):
        for seed in range(40):
            t = _groups_transition(
                np.random.default_rng(seed), groups=2, size=9, loners=4, r=0.03
            )
            verdicts = Characterizer(t).characterize_all()
            deep = [
                j
                for j, v in verdicts.items()
                if v.rule in (DecisionRule.THEOREM_7, DecisionRule.COROLLARY_8)
            ]
            if any(verdicts[j].rule is DecisionRule.COROLLARY_8 for j in deep):
                return t, deep
        pytest.fail("no seed reached Corollary 8")

    @staticmethod
    def _definitional_pool(t, j, d):
        """Dense subsets of the maximal motions of ``ball \\ {j}`` that
        meet ``d`` and are inconsistent with ``j``, canonically ordered.
        Every consistent set lies in some maximal motion."""
        region = [x for x in t.knowledge_ball(j) if x != j]
        pool = set()
        for motion in enumerate_maximal_motions(t, region)[0]:
            for size in range(t.tau + 1, len(motion) + 1):
                for subset in combinations(sorted(motion), size):
                    if d & set(subset) and not t.is_consistent_motion(
                        subset + (j,)
                    ):
                        pool.add(frozenset(subset))
        return sorted(pool, key=lambda b: (-len(b), sorted(b)))

    def test_pool_verdicts_and_costs_match_the_ball_path(self):
        t, deep = self._theorem7_transition()
        fast = Characterizer(t)
        ball = Characterizer(Transition(t.previous, t.current, t.flagged, t.r, t.tau))
        for j in deep:
            component = fast.cache.component(j)
            got = fast.characterize(j)
            # The per-device ball path, with families from the component.
            with mock.patch.object(MotionComponent, "split", lambda self, tau: None):
                want = ball.characterize(j)
            assert component in fast._pool_tables  # the shared pool ran
            assert got.rule == want.rule
            assert got.witness == want.witness
            assert got.cost.tested_collections == want.cost.tested_collections
            assert got.cost.as_dict() == want.cost.as_dict()
        # The pools themselves, in order, built in one batch for every
        # deep device: the shared table filter decoded against the
        # component equals the definitional pool.
        pending = [fast._settle(j, _Verdicts(None)) for j in deep]
        fast._shared_pools(pending)
        for j, record in zip(deep, pending):
            component = record.component
            d = fast.cache.family(j).neighborhood
            assert record.d_mask == component.universe.mask_of(d)
            shared = [component.universe.devices_of(c) for c in record.pool.tolist()]
            assert shared == self._definitional_pool(t, j, d)
