"""Tests for the Algorithm 2 motion enumerator (:mod:`repro.core.motions`)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import UnknownDeviceError
from repro.core.motions import (
    all_maximal_motions,
    brute_force_maximal_motions,
    enumerate_maximal_motions,
    largest_motion_size,
    maximal_motions_containing,
    motion_family,
)
from repro.core.transition import Transition
from tests.conftest import (
    FIGURE3_PAIRS,
    FIGURE3_R,
    FIGURE3_TAU,
    make_transition_1d,
    random_clustered_pairs,
)


def canonical(motions):
    """Order-insensitive canonical form of a motion family."""
    return sorted(tuple(sorted(m)) for m in motions)


class TestBasicEnumeration:
    def test_empty_candidates(self):
        t = make_transition_1d([(0.5, 0.5)], r=0.05, tau=1)
        motions, steps = enumerate_maximal_motions(t, [])
        assert motions == []
        assert steps == 0

    def test_singleton(self):
        t = make_transition_1d([(0.5, 0.5)], r=0.05, tau=1)
        motions, _ = enumerate_maximal_motions(t, [0])
        assert canonical(motions) == [(0,)]

    def test_two_separate_points(self):
        t = make_transition_1d([(0.1, 0.1), (0.9, 0.9)], r=0.05, tau=1)
        motions, _ = enumerate_maximal_motions(t, [0, 1])
        assert canonical(motions) == [(0,), (1,)]

    def test_one_blob(self):
        t = make_transition_1d([(0.5, 0.5)] * 4, r=0.05, tau=1)
        motions, _ = enumerate_maximal_motions(t, range(4))
        assert canonical(motions) == [(0, 1, 2, 3)]

    def test_figure1_overlapping_maximal_sets(self):
        # Mirror of the paper's Figure 1 idea in motion form: device 0 sits
        # in two distinct maximal motions.
        pairs = [
            (0.30, 0.30),  # 0: shared
            (0.31, 0.31),  # 1: shared
            (0.25, 0.25),  # 2: left group
            (0.39, 0.39),  # 3: right group
        ]
        t = make_transition_1d(pairs, r=0.05, tau=1)
        motions, _ = enumerate_maximal_motions(t, range(4), anchor=0)
        assert canonical(motions) == [(0, 1, 2), (0, 1, 3)]

    def test_figure3_maximal_motions(self):
        t = make_transition_1d(FIGURE3_PAIRS, r=FIGURE3_R, tau=FIGURE3_TAU)
        motions = all_maximal_motions(t)
        assert canonical(motions) == [(0, 1, 2, 3), (1, 2, 3, 4)]

    def test_anchor_must_be_candidate(self):
        t = make_transition_1d([(0.5, 0.5), (0.6, 0.6)], r=0.05, tau=1)
        with pytest.raises(UnknownDeviceError):
            enumerate_maximal_motions(t, [0], anchor=1)

    def test_duplicate_candidates_ignored(self):
        t = make_transition_1d([(0.5, 0.5), (0.51, 0.51)], r=0.05, tau=1)
        motions, _ = enumerate_maximal_motions(t, [0, 0, 1, 1])
        assert canonical(motions) == [(0, 1)]


class TestMotionSemantics:
    def test_motion_requires_consistency_at_both_times(self):
        # 0 and 1 close at k-1 only; 0 and 2 close at both.
        pairs = [(0.50, 0.50), (0.52, 0.90), (0.53, 0.53)]
        t = make_transition_1d(pairs, r=0.05, tau=1)
        motions, _ = enumerate_maximal_motions(t, range(3), anchor=0)
        assert canonical(motions) == [(0, 2)]

    def test_all_returned_sets_are_consistent_motions(self):
        rng = random.Random(5)
        pairs = random_clustered_pairs(rng, 12, 0.05)
        t = make_transition_1d(pairs, r=0.05, tau=2)
        for motion in all_maximal_motions(t):
            assert t.is_consistent_motion(motion)

    @pytest.mark.parametrize("enumerator", ["bitset", "frozenset"])
    def test_sliver_extent_rounds_like_is_consistent_motion(self, enumerator):
        # 2r + atol rounds to 0.187500000001.  The pair's extent rounds
        # just under it at k-1 and just over it at k: not a motion.
        # "bitset" is the sliding-window enumerator; "frozenset" is the
        # brute-force reference, which tests every frozenset subset.
        pairs = [
            (0.2812499999995, 0.3124999999995),
            (0.4687500000005, 0.5000000000005),
        ]
        t = make_transition_1d(pairs, r=3 / 32, tau=1)
        assert not t.is_consistent_motion([0, 1])
        for anchor in (None, 0, 1):
            if enumerator == "bitset":
                motions, _ = enumerate_maximal_motions(t, range(2), anchor=anchor)
            else:
                motions = brute_force_maximal_motions(t, range(2), anchor)
            want = [(0,), (1,)] if anchor is None else [(anchor,)]
            assert canonical(motions) == want

    def test_returned_sets_are_maximal(self):
        rng = random.Random(9)
        pairs = random_clustered_pairs(rng, 10, 0.06)
        t = make_transition_1d(pairs, r=0.06, tau=2)
        motions = all_maximal_motions(t)
        for motion in motions:
            for extra in t.flagged - motion:
                assert not t.is_consistent_motion(motion | {extra})

    def test_every_flagged_device_in_some_motion(self):
        rng = random.Random(11)
        pairs = random_clustered_pairs(rng, 15, 0.04)
        t = make_transition_1d(pairs, r=0.04, tau=2)
        covered = set()
        for motion in all_maximal_motions(t):
            covered |= motion
        assert covered == t.flagged

    def test_anchored_motions_all_contain_anchor(self):
        rng = random.Random(13)
        pairs = random_clustered_pairs(rng, 12, 0.05)
        t = make_transition_1d(pairs, r=0.05, tau=2)
        for j in range(12):
            motions, _ = maximal_motions_containing(t, j)
            assert motions, "every device belongs to at least its singleton motion"
            for motion in motions:
                assert j in motion


class TestBruteForceCrosscheck:
    @pytest.mark.parametrize("seed", range(12))
    def test_anchored_matches_bruteforce_1d(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        r = rng.uniform(0.02, 0.15)
        pairs = random_clustered_pairs(rng, n, r)
        t = make_transition_1d(pairs, r=r, tau=1)
        for j in range(n):
            fast, _ = enumerate_maximal_motions(t, range(n), anchor=j)
            slow = brute_force_maximal_motions(t, range(n), anchor=j)
            assert canonical(fast) == canonical(slow)

    @pytest.mark.parametrize("seed", range(8))
    def test_unanchored_matches_bruteforce_2d(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        r = float(rng.uniform(0.05, 0.2))
        prev = rng.random((n, 2))
        cur = np.clip(prev + rng.normal(0, 1.5 * r, (n, 2)), 0, 1)
        t = Transition.from_arrays(prev, cur, range(n), r, 1)
        fast, _ = enumerate_maximal_motions(t, range(n))
        slow = brute_force_maximal_motions(t, range(n))
        assert canonical(fast) == canonical(slow)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_fuzz(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        r = rng.uniform(0.02, 0.2)
        pairs = random_clustered_pairs(rng, n, r)
        t = make_transition_1d(pairs, r=r, tau=1)
        fast, _ = enumerate_maximal_motions(t, range(n))
        slow = brute_force_maximal_motions(t, range(n))
        assert canonical(fast) == canonical(slow)


class TestMotionFamily:
    def test_dense_filtering(self):
        pairs = [(0.5, 0.5)] * 4 + [(0.9, 0.9)]
        t = make_transition_1d(pairs, r=0.03, tau=3)
        fam = motion_family(t, 0)
        assert canonical(fam.motions) == [(0, 1, 2, 3)]
        assert canonical(fam.dense) == [(0, 1, 2, 3)]
        assert fam.has_dense_motion
        assert fam.neighborhood == frozenset({0, 1, 2, 3})

    def test_sparse_family(self):
        pairs = [(0.5, 0.5)] * 3 + [(0.9, 0.1)]
        t = make_transition_1d(pairs, r=0.03, tau=3, flagged=[0, 1, 2])
        fam = motion_family(t, 0)
        assert not fam.has_dense_motion
        assert fam.neighborhood == frozenset()

    def test_window_steps_counted(self):
        pairs = [(0.5, 0.5), (0.52, 0.52), (0.9, 0.9)]
        t = make_transition_1d(pairs, r=0.05, tau=1)
        fam = motion_family(t, 0)
        assert fam.window_steps >= 1


class TestLargestMotionSize:
    def test_empty(self):
        t = make_transition_1d([(0.5, 0.5)], r=0.05, tau=1)
        assert largest_motion_size(t, []) == 0

    def test_blob(self):
        t = make_transition_1d([(0.5, 0.5)] * 5 + [(0.9, 0.9)], r=0.05, tau=1)
        assert largest_motion_size(t, range(6)) == 5
