"""The O(flagged) verdict path is exact.

Four shortcuts keep a tick's verdict work proportional to the flagged
set: a *lone* device (``N(j) == (j,)``) settles in one Theorem 5 step
(its family, if ever asked for, is built without the window sweep), the
engine queries 4r knowledge balls only for devices with
``|N(j)| > tau``, combined coordinates are gathered per row instead of
joined for the whole fleet, and verdicts are built once in the caller's
ids (``key_of``).  Each must be invisible in the results:

* a lone device's family equals a direct sweep of ``[j]``, down to
  ``window_steps == 2 * dim``;
* ``combined_of(idx)`` equals the rows of the full ``prev ++ cur`` plane;
* the engine's verdicts, witnesses, cost counters and stats equal those
  of a fresh per-device :class:`Characterizer`, also in mapped ids and on
  a second call (which expands nothing);
* the batch raises at its first unflagged device, in input order;
* a one-shard service whose store reuses a freed row for a new id
  reports witnesses in global ids;
* the verdicts match the omniscient oracle on small cases.

Coordinates are drawn on a 1/32 grid with ``r`` a multiple of 1/32, so
coincident points and points exactly ``2r`` apart are common and the
boundary arithmetic is exact.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterize import Characterizer
from repro.core.errors import UnknownDeviceError
from repro.core.motions import (
    _MaskWindowEnumerator,
    all_maximal_motions,
    brute_force_maximal_motions,
    motion_family,
)
from repro.core.oracle import oracle_classify
from repro.core.transition import Snapshot, Transition
from repro.core.types import DecisionRule
from repro.engine import CharacterizationEngine
from repro.online import OnlineCharacterizationService, QosUpdate, ServiceConfig

GRID = 32


@st.composite
def grid_transitions(draw, max_n=24):
    """A transition on the 1/32 grid; d, tau in 1..3, r in {1,2,3}/32."""
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, 3))
    tau = draw(st.integers(1, min(3, n - 1)))
    r = draw(st.sampled_from((1, 2, 3))) / GRID
    cells = st.lists(
        st.lists(st.integers(0, GRID), min_size=d, max_size=d),
        min_size=n,
        max_size=n,
    )
    prev = np.array(draw(cells), dtype=float) / GRID
    shift = np.array(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
    # Half the devices move as a group by one common shift (dense motions
    # appear), the rest jump to fresh grid cells.
    cur = np.array(draw(cells), dtype=float) / GRID
    movers = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for i, moved in enumerate(movers):
        if moved:
            cur[i] = np.clip(prev[i] + shift / GRID, 0.0, 1.0)
    flagged = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    return Transition(Snapshot(prev), Snapshot(cur), flagged, r, tau)


def _fresh(transition):
    """A cache-free copy of ``transition``."""
    return Transition(
        Snapshot(transition.previous.positions.copy()),
        Snapshot(transition.current.positions.copy()),
        transition.flagged,
        transition.r,
        transition.tau,
    )


def _lone(transition):
    return [
        j for j in transition.flagged_sorted if transition.neighborhood(j) == (j,)
    ]


class TestLoneFamily:
    @given(grid_transitions())
    @settings(max_examples=150, deadline=None)
    def test_lone_family_equals_direct_sweep(self, transition):
        width = 2.0 * transition.r
        for j in _lone(transition):
            coords = transition.combined_of([j])
            masks = _MaskWindowEnumerator(coords, width, 0)
            assert masks.run() == [1]
            family = motion_family(transition, j)
            assert family.motions == (frozenset({j}),)
            assert family.dense == ()
            assert family.window_steps == masks.steps
            assert family.window_steps == 2 * transition.dim

    @given(grid_transitions(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_all_maximal_motions_match_brute_force(self, transition):
        assert all_maximal_motions(transition) == brute_force_maximal_motions(
            transition, transition.flagged_sorted
        )

    def test_coincident_and_exactly_2r_apart_are_not_lone(self):
        # 0 and 1 coincide; 2 sits exactly 2r from 0 in every coordinate
        # at both times; 3 is just past 2r from everyone.
        r = 2 / GRID
        prev = np.array([[8, 8], [8, 8], [12, 12], [17, 17]], dtype=float) / GRID
        t = Transition(Snapshot(prev), Snapshot(prev.copy()), range(4), r, 1)
        assert t.neighborhood(0) == (0, 1, 2)
        assert t.neighborhood(3) == (3,)
        assert _lone(t) == [3]
        assert motion_family(t, 0).motions == (frozenset({0, 1, 2}),)
        assert motion_family(t, 3).window_steps == 4


class TestCombinedOf:
    @given(
        grid_transitions(),
        st.lists(st.integers(0, 10**6), max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_gather_equals_full_plane_rows(self, transition, raw):
        idx = [i % transition.n for i in raw]  # unsorted, repeats, maybe empty
        plane = np.hstack(
            [transition.previous.positions, transition.current.positions]
        )
        got = transition.combined_of(idx)
        assert got.shape == (len(idx), 2 * transition.dim)
        assert got.dtype == plane.dtype
        assert np.array_equal(got, plane[idx])

    def test_empty_and_reversed(self):
        t = Transition.from_arrays(
            np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
            np.array([[0.7, 0.8], [0.9, 1.0], [0.0, 0.1]]),
            range(3),
            0.05,
            1,
        )
        assert t.combined_of([]).shape == (0, 4)
        assert np.array_equal(t.combined_of([2, 0, 2]), t.combined[[2, 0, 2]])


def _verdict_view(verdicts):
    return {
        j: (c.anomaly_type, c.rule, c.witness, c.cost) for j, c in verdicts.items()
    }


class TestEngineEqualsPerDevicePath:
    @given(grid_transitions())
    @settings(max_examples=120, deadline=None)
    def test_engine_equals_fresh_characterizer(self, transition):
        reference = Characterizer(_fresh(transition))
        want = reference.characterize_all()
        engine = CharacterizationEngine()
        got = engine.characterize(transition)
        assert _verdict_view(got) == _verdict_view(want)
        assert engine.stats.as_dict() == {
            "transitions": 1,
            "devices_characterized": len(want),
            "batch_neighborhood_passes": 1,
            "cache_expansions": reference.cache.expansions,
        }
        # The 4r memo holds exactly the devices that could read it.
        balls = {j for (j, factor) in transition._neighborhood_cache if factor == 4.0}
        assert balls == {
            j
            for j in transition.flagged_sorted
            if len(transition.neighborhood(j)) > transition.tau
        }

    def test_tau3_small_neighbourhoods_stop_at_theorem5(self):
        # tau = 3: a coordinated pair and a coordinated triple have
        # |N(j)| in {2, 3} and no dense motion, so they stop at
        # Theorem 5 without a 4r ball.  A coordinated group of five
        # (|N(j)| = 5) is massive and does read its ball.
        r = 2 / GRID
        groups = ([4, 4], [4, 4.5]), ([12, 12], [12, 12.5], [13, 12]), (
            [22, 22],
            [22, 23],
            [23, 22],
            [23, 23],
            [22.5, 22.5],
        )
        prev = np.array([p for group in groups for p in group]) / GRID
        cur = np.clip(prev + 3 / GRID, 0.0, 1.0)
        t = Transition(Snapshot(prev), Snapshot(cur), range(len(prev)), r, 3)
        want = Characterizer(_fresh(t)).characterize_all()
        got = CharacterizationEngine().characterize(t)
        assert _verdict_view(got) == _verdict_view(want)
        for j in range(5):
            assert len(t.neighborhood(j)) in (2, 3)
            assert got[j].rule is DecisionRule.THEOREM_5
            assert (j, 4.0) not in t._neighborhood_cache
        for j in range(5, 10):
            assert got[j].rule is DecisionRule.THEOREM_6
            assert (j, 4.0) in t._neighborhood_cache


@st.composite
def id_maps(draw, n):
    """A strictly increasing map of ``0..n-1`` that is not the identity
    (it starts at 1 or above), as a shard's rank build is."""
    steps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    base = draw(st.integers(0, 50))
    return (base + np.cumsum(steps)).tolist()


def _mapped(witness, key_of):
    if witness is None:
        return None
    return tuple(frozenset(key_of[x] for x in motion) for motion in witness)


def _assert_mapped_run(run, want, devices, key_of):
    """``run`` (mapped ids) against per-device verdicts ``want``."""
    assert list(run.verdicts) == [key_of[j] for j in devices]
    for j in devices:
        got = run.verdicts[key_of[j]]
        assert got.device == key_of[j]
        assert (got.anomaly_type, got.rule) == (want[j].anomaly_type, want[j].rule)
        assert got.witness == _mapped(want[j].witness, key_of)
        assert got.cost.as_dict() == want[j].cost.as_dict()


class TestVerdictsInCallerIds:
    @given(grid_transitions(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mapped_batch_equals_fresh_per_device_characterizer(
        self, transition, data
    ):
        key_of = data.draw(id_maps(transition.n))
        order = data.draw(st.permutations(transition.flagged_sorted))
        devices = order[: data.draw(st.integers(1, len(order)))]
        # The reference builds every device's family, lone ones included:
        # the lone step must give the costs and count that path gives.
        reference = Characterizer(_fresh(transition))
        with mock.patch.object(Transition, "is_lone", return_value=False):
            want = {j: reference.characterize(j) for j in devices}
        assert reference.cache.expansions == len(reference.cache)
        engine = CharacterizationEngine()
        run = engine.characterize_run(transition, devices, key_of=key_of)
        _assert_mapped_run(run, want, devices, key_of)
        assert run.families_recomputed == reference.cache.expansions
        assert engine.stats.cache_expansions == reference.cache.expansions
        cache = engine._cache_for(transition)
        assert all(j in cache for j in devices)
        # The same batch again on the same transition: nothing to expand
        # (so no cost counts a neighbour expansion), the same verdicts.
        again = engine.characterize_run(transition, devices, key_of=key_of)
        assert again.families_recomputed == 0
        assert engine.stats.cache_expansions == reference.cache.expansions
        for key, verdict in again.verdicts.items():
            first = run.verdicts[key]
            assert (verdict.device, verdict.rule, verdict.witness) == (
                first.device,
                first.rule,
                first.witness,
            )
            assert verdict.cost.neighbor_expansions == 0

    def _mixed(self):
        """Figure 3 (Theorem 6 and Corollary 8 witnesses) plus three lone
        devices and one unflagged device (8)."""
        pairs = [
            (0.30, 0.30),
            (0.32, 0.32),
            (0.35, 0.35),
            (0.38, 0.38),
            (0.42, 0.42),
            (0.90, 0.10),
            (0.10, 0.90),
            (0.70, 0.70),
            (0.60, 0.20),
        ]
        return Transition.from_trajectories_1d(pairs, range(8), r=0.05, tau=3)

    def test_mixed_batch_carries_every_witness_kind_in_mapped_ids(self):
        t = self._mixed()
        key_of = [10 * j + 3 for j in range(t.n)]
        devices = [5, 0, 6, 1, 4, 7, 2, 3]
        reference = Characterizer(self._mixed())
        want = {j: reference.characterize(j) for j in devices}
        rules = {want[j].rule for j in devices}
        assert rules == {
            DecisionRule.THEOREM_5,
            DecisionRule.THEOREM_6,
            DecisionRule.COROLLARY_8,
        }
        engine = CharacterizationEngine()
        run = engine.characterize_run(t, devices, key_of=key_of)
        _assert_mapped_run(run, want, devices, key_of)
        assert run.verdicts[3].witness == (frozenset({13, 23, 33, 43}),)
        for j in (5, 6, 7):
            assert t.is_lone(j)
            cost = run.verdicts[key_of[j]].cost.as_dict()
            assert cost["maximal_motions"] == 1
            assert cost["window_steps"] == 2 * t.dim
        # Lone families are counted, not built, until someone asks.
        cache = engine._cache_for(t)
        assert 5 in cache
        assert cache.family(5) == motion_family(t, 5)
        assert cache.expansions == reference.cache.expansions
        assert engine.characterize_run(t, devices).families_recomputed == 0

    @pytest.mark.parametrize("via", ["engine", "characterizer"])
    def test_unflagged_device_mid_batch_raises_in_input_order(self, via):
        t = self._mixed()
        batch = [5, 1, 8, 6, 99]
        if via == "engine":
            with pytest.raises(UnknownDeviceError, match="device 8 "):
                CharacterizationEngine().characterize_run(t, batch, key_of=range(9))
            return
        characterizer = Characterizer(t)
        with pytest.raises(UnknownDeviceError, match="device 8 "):
            characterizer.characterize_many(batch, key_of=list(range(9)))
        # The devices before the failure were settled, the one after not.
        cache = characterizer.cache
        assert 5 in cache and 1 in cache and 6 not in cache


class TestOneShardChurnWitnesses:
    """A join takes the row its predecessor freed, so the one shard's
    store rows differ from the global ids; the witnesses still carry
    global ids."""

    def test_witness_of_a_row_reusing_join_is_in_global_ids(self):
        r = 0.05
        rng = np.random.default_rng(5)
        positions = rng.random((12, 2)) * 0.4 + 0.55  # far from the group
        positions[:3] = [(0.20, 0.20), (0.21, 0.20), (0.20, 0.21)]
        service = OnlineCharacterizationService(positions, ServiceConfig(r=r, tau=2))
        try:
            service.leave(3)
            service.join(100, (0.21, 0.21))
            service.end_tick()
            assert service.store.row_of(100) == 3
            group = [0, 1, 2, 100]
            moved = {0: (0.30, 0.30), 1: (0.31, 0.30), 2: (0.30, 0.31), 100: (0.31, 0.31)}
            loner = 7
            service.ingest_many(
                [QosUpdate(j, moved[j], True) for j in group]
                + [QosUpdate(loner, (0.05, 0.95), True)]
            )
            tick = service.end_tick()
        finally:
            service.close()
        assert set(tick.verdicts) == {0, 1, 2, 100, loner}
        for j in group:
            verdict = tick.verdicts[j]
            assert verdict.device == j
            assert verdict.rule is DecisionRule.THEOREM_6
            assert verdict.witness == (frozenset(group),)
        assert tick.verdicts[loner].rule is DecisionRule.THEOREM_5
        assert tick.verdicts[loner].device == loner


class TestOracle:
    @given(grid_transitions(max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_engine_matches_oracle(self, transition):
        got = CharacterizationEngine().characterize(transition)
        oracle = oracle_classify(_fresh(transition))
        for j in transition.flagged_sorted:
            assert got[j].anomaly_type is oracle.type_of(j), j
