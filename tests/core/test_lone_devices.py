"""The O(flagged) verdict path is exact.

Three shortcuts keep a tick's verdict work proportional to the flagged
set: a *lone* device (``N(j) == (j,)``) takes its family without the
window sweep, the engine queries 4r knowledge balls only for devices
with ``|N(j)| > tau``, and combined coordinates are gathered per row
instead of joined for the whole fleet.  Each must be invisible in the
results:

* a lone device's family equals a direct sweep of ``[j]``, down to
  ``window_steps == 2 * dim``;
* ``combined_of(idx)`` equals the rows of the full ``prev ++ cur`` plane;
* the engine's verdicts, witnesses, cost counters and stats equal those
  of a fresh per-device :class:`Characterizer`;
* the verdicts match the omniscient oracle on small cases.

Coordinates are drawn on a 1/32 grid with ``r`` a multiple of 1/32, so
coincident points and points exactly ``2r`` apart are common and the
boundary arithmetic is exact.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterize import Characterizer
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
        assert engine.motion_cache.expansions == reference.cache.expansions
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


class TestOracle:
    @given(grid_transitions(max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_engine_matches_oracle(self, transition):
        got = CharacterizationEngine().characterize(transition)
        oracle = oracle_classify(_fresh(transition))
        for j in transition.flagged_sorted:
            assert got[j].anomaly_type is oracle.type_of(j), j
