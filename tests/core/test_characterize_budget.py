"""Characterizer budget paths: downgrade, pool cap, and propagation.

The Figure 5 configuration is the canonical scenario where Theorem 6 is
insufficient and every device needs the Theorem 7 search — exactly the
code path the budgets guard.

``characterize_many`` is batch-first (Theorems 5/6 for every device,
then every pool at once, then the searches in input order); on seeded
transitions it must equal a device-by-device loop of ``characterize``,
cost counters included, under small ``pool_cap`` and
``collection_budget``, and without ``budget_fallback`` it must raise
what that loop raises first.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core.characterize import Characterizer
from repro.core.errors import (
    ConfigurationError,
    ReproError,
    SearchBudgetExceeded,
    UnknownDeviceError,
)
from repro.core.neighborhood import MotionCache, MotionComponent
from repro.core.transition import Snapshot, Transition
from repro.core.types import AnomalyType, DecisionRule


class TestCollectionBudget:
    def test_propagates_when_fallback_off(self, figure5_transition):
        characterizer = Characterizer(figure5_transition, collection_budget=1)
        with pytest.raises(SearchBudgetExceeded):
            characterizer.characterize(0)

    def test_fallback_downgrades_to_algorithm_3(self, figure5_transition):
        characterizer = Characterizer(
            figure5_transition, collection_budget=1, budget_fallback=True
        )
        verdict = characterizer.characterize(0)
        assert verdict.anomaly_type is AnomalyType.UNRESOLVED
        assert verdict.rule is DecisionRule.ALGORITHM_3

    def test_generous_budget_reaches_theorem_7(self, figure5_transition):
        characterizer = Characterizer(
            figure5_transition, collection_budget=1_000_000
        )
        verdict = characterizer.characterize(0)
        assert verdict.anomaly_type is AnomalyType.MASSIVE
        assert verdict.rule is DecisionRule.THEOREM_7

    def test_fallback_sweep_covers_all_devices(self, figure5_transition):
        # budget_fallback must let a whole-transition pass complete even
        # when every device trips the budget.
        results = Characterizer(
            figure5_transition, collection_budget=1, budget_fallback=True
        ).characterize_all()
        assert set(results) == set(figure5_transition.flagged_sorted)
        assert all(
            v.rule is DecisionRule.ALGORITHM_3 for v in results.values()
        )


class TestPoolCap:
    def test_pool_cap_trip_raises(self, figure5_transition):
        # Figure 5 maximal motions have 4 members; a cap of 4 forbids the
        # 2^4-subset enumeration of a single maximal motion.
        characterizer = Characterizer(figure5_transition, pool_cap=4)
        with pytest.raises(SearchBudgetExceeded, match="candidate pool"):
            characterizer.characterize(0)

    def test_pool_cap_trip_with_fallback(self, figure5_transition):
        verdict = Characterizer(
            figure5_transition, pool_cap=4, budget_fallback=True
        ).characterize(0)
        assert verdict.anomaly_type is AnomalyType.UNRESOLVED
        assert verdict.rule is DecisionRule.ALGORITHM_3


class TestCheapPathUnaffected:
    def test_theorem_5_and_6_ignore_budgets(self, single_blob_transition):
        # Devices settled by the cheap theorems never reach the search, so
        # even a zero-ish budget cannot disturb them.
        results = Characterizer(
            single_blob_transition, collection_budget=1
        ).characterize_all()
        assert all(v.is_massive for v in results.values())
        assert all(
            v.rule is DecisionRule.THEOREM_6 for v in results.values()
        )

    def test_scattered_isolated_ignore_budgets(self, scattered_transition):
        results = Characterizer(
            scattered_transition, collection_budget=1, pool_cap=1
        ).characterize_all()
        assert all(v.is_isolated for v in results.values())


class TestSharedCache:
    def test_external_cache_is_used(self, figure5_transition):
        cache = MotionCache(figure5_transition)
        characterizer = Characterizer(figure5_transition, cache=cache)
        characterizer.characterize(0)
        assert characterizer.cache is cache
        assert len(cache) > 0

    def test_cache_shared_across_characterizers(self, figure5_transition):
        cache = MotionCache(figure5_transition)
        Characterizer(figure5_transition, cache=cache).characterize(0)
        expansions = cache.expansions
        # A second characterizer on the same cache pays nothing for the
        # families the first one already expanded.
        Characterizer(figure5_transition, cache=cache).characterize(0)
        assert cache.expansions == expansions

    def test_cache_transition_mismatch_rejected(
        self, figure5_transition, single_blob_transition
    ):
        cache = MotionCache(single_blob_transition)
        with pytest.raises(ConfigurationError):
            Characterizer(figure5_transition, cache=cache)


def _groups_transition(seed, *, r=0.03, tau=2, loners=4):
    """Two or three coordinated groups of 6-12 (a shared shift, small
    noise) plus loners: Theorems 5, 6 and Corollary 8 all fire, with
    Theorem 7 pools of a few dozen to a few hundred candidates."""
    rng = np.random.default_rng(seed)
    prev, cur = [], []
    for _ in range(int(rng.integers(2, 4))):
        size = int(rng.integers(6, 13))
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


def _canonical(verdict):
    return (
        verdict.device,
        verdict.anomaly_type,
        verdict.rule,
        verdict.witness,
        verdict.cost.as_dict(),
    )


def _one_by_one(transition, devices, **kwargs):
    """``characterize`` per device on one characterizer, in order,
    stopping at the first raise: the reference for the batch."""
    characterizer = Characterizer(transition, **kwargs)
    verdicts = {}
    for device in devices:
        try:
            verdicts[device] = characterizer.characterize(device)
        except ReproError as exc:
            return verdicts, exc
    return verdicts, None


def _batched(transition, devices, **kwargs):
    try:
        return Characterizer(transition, **kwargs).characterize_many(devices), None
    except ReproError as exc:
        return None, exc


def _orders(transition, seed):
    """The flagged set sorted, reversed and shuffled."""
    devices = list(transition.flagged_sorted)
    shuffled = list(np.random.default_rng(seed).permutation(devices))
    return [devices, devices[::-1], [int(j) for j in shuffled]]


#: Small caps that trip some, not all, Theorem 7 devices of the seeded
#: transitions (the pool-size cap, the per-motion guard and the search
#: budget each fire on some seed).
_BUDGETS = [
    {},
    {"pool_cap": 64},
    {"pool_cap": 256},
    {"collection_budget": 100},
    {"collection_budget": 1000},
    {"pool_cap": 64, "collection_budget": 100},
]


class TestBatchEqualsPerDevice:
    @pytest.mark.parametrize("budgets", _BUDGETS)
    @pytest.mark.parametrize("seed", range(8))
    def test_with_fallback(self, seed, budgets):
        transition = _groups_transition(seed)
        for devices in _orders(transition, seed):
            want, error = _one_by_one(
                transition, devices, budget_fallback=True, **budgets
            )
            assert error is None
            got, error = _batched(transition, devices, budget_fallback=True, **budgets)
            assert error is None
            assert list(got) == list(want)
            assert [_canonical(v) for v in got.values()] == [
                _canonical(v) for v in want.values()
            ]

    @pytest.mark.parametrize("budgets", _BUDGETS)
    @pytest.mark.parametrize("seed", range(8))
    def test_without_fallback_raises_the_first_failure(self, seed, budgets):
        transition = _groups_transition(seed)
        for devices in _orders(transition, seed):
            want, want_error = _one_by_one(transition, devices, **budgets)
            got, got_error = _batched(transition, devices, **budgets)
            if want_error is None:
                assert got_error is None
                assert [_canonical(v) for v in got.values()] == [
                    _canonical(v) for v in want.values()
                ]
            else:
                assert type(got_error) is type(want_error)
                assert str(got_error) == str(want_error)

    @pytest.mark.parametrize("seed", range(4))
    def test_ball_path_batch(self, seed):
        # Every device on the per-device ball path, pools built per
        # device in the batch's second pass.
        transition = _groups_transition(seed)
        with mock.patch.object(MotionComponent, "split", lambda self, tau: None):
            for budgets in ({}, {"pool_cap": 64}, {"collection_budget": 100}):
                for devices in _orders(transition, seed):
                    want, want_error = _one_by_one(transition, devices, **budgets)
                    got, got_error = _batched(transition, devices, **budgets)
                    assert str(got_error) == str(want_error)
                    if want_error is None:
                        assert [_canonical(v) for v in got.values()] == [
                            _canonical(v) for v in want.values()
                        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_pool_build_cut_into_runs(self, seed):
        # A batch above the entry bound is cut into runs (here one
        # component, then one pool, per run); the verdicts are the
        # one-step batch's.
        transition = _groups_transition(seed)
        devices = list(transition.flagged_sorted)
        want = Characterizer(transition).characterize_many(devices)
        with mock.patch("repro.core.characterize._BATCH_ENTRIES", 1):
            got = Characterizer(transition).characterize_many(devices)
        assert sum(1 for v in got.values() if v.cost.tested_collections) > 1
        assert [_canonical(v) for v in got.values()] == [
            _canonical(v) for v in want.values()
        ]

    def test_the_budgets_trip_some_devices_and_spare_others(self):
        """The caps above are small enough to matter: across the seeds
        the pool-size cap, the per-motion guard and the search budget
        each trip some device, and each cap lets some search finish."""
        tripped = set()
        spared = set()
        for seed in range(8):
            transition = _groups_transition(seed)
            for budgets in _BUDGETS[1:]:
                characterizer = Characterizer(transition, **budgets)
                for device in transition.flagged_sorted:
                    try:
                        verdict = characterizer.characterize(device)
                    except SearchBudgetExceeded as exc:
                        message = str(exc)
                        if "2^" in message:
                            tripped.add("guard")
                        elif message.startswith("candidate pool"):
                            tripped.add("pool")
                        else:
                            tripped.add("budget")
                    else:
                        if verdict.cost.tested_collections:
                            spared.update(budgets)
        assert tripped == {"guard", "pool", "budget"}
        assert spared == {"pool_cap", "collection_budget"}


class TestFailureOrder:
    def _failing_device(self, transition):
        for device in transition.flagged_sorted:
            try:
                Characterizer(transition, collection_budget=1).characterize(device)
            except SearchBudgetExceeded:
                return device
        pytest.fail("no device blew a budget of 1")

    def test_an_earlier_search_failure_beats_a_later_unknown_device(self):
        transition = _groups_transition(0, loners=0)
        device = self._failing_device(transition)
        unknown = max(transition.flagged_sorted) + 1
        characterizer = Characterizer(transition, collection_budget=1)
        with pytest.raises(SearchBudgetExceeded):
            characterizer.characterize_many([device, unknown])
        with pytest.raises(UnknownDeviceError):
            Characterizer(transition, collection_budget=1).characterize_many(
                [unknown, device]
            )

    def test_characterize_is_the_one_device_batch(self, figure5_transition):
        many = Characterizer(figure5_transition).characterize_many([0])
        one = Characterizer(figure5_transition).characterize(0)
        assert _canonical(many[0]) == _canonical(one)
        with pytest.raises(UnknownDeviceError):
            Characterizer(figure5_transition).characterize(10_000)
