"""Unit tests for :mod:`repro.core.transition`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    UnknownDeviceError,
)
from repro.core.transition import Snapshot, Transition
from tests.conftest import make_transition_1d


class TestSnapshot:
    def test_shape_accessors(self):
        snap = Snapshot(np.zeros((5, 3)))
        assert snap.n == 5
        assert snap.dim == 3

    def test_position_lookup(self):
        snap = Snapshot(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert snap.position(1).tolist() == [0.3, 0.4]

    def test_position_out_of_range(self):
        snap = Snapshot(np.zeros((2, 2)))
        with pytest.raises(UnknownDeviceError):
            snap.position(2)

    def test_rejects_out_of_cube(self):
        with pytest.raises(ConfigurationError):
            Snapshot(np.array([[1.5, 0.0]]))

    def test_rejects_1d(self):
        with pytest.raises(DimensionMismatchError):
            Snapshot(np.array([0.1, 0.2]))


class TestTransitionConstruction:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Transition(
                Snapshot(np.zeros((3, 2))), Snapshot(np.zeros((4, 2))), [0], 0.03, 1
            )

    @pytest.mark.parametrize("tau", [0, -1, 10, 2.5])
    def test_bad_tau(self, tau):
        with pytest.raises(ConfigurationError):
            Transition(
                Snapshot(np.zeros((5, 2))), Snapshot(np.zeros((5, 2))), [0], 0.03, tau
            )

    def test_bad_radius(self):
        with pytest.raises(ConfigurationError):
            Transition(
                Snapshot(np.zeros((5, 2))), Snapshot(np.zeros((5, 2))), [0], 0.3, 2
            )

    def test_unknown_flagged_device(self):
        with pytest.raises(UnknownDeviceError):
            Transition(
                Snapshot(np.zeros((3, 2))), Snapshot(np.zeros((3, 2))), [5], 0.03, 1
            )

    def test_combined_embedding_shape(self):
        t = Transition.from_arrays(
            np.zeros((4, 2)), np.ones((4, 2)) * 0.5, [0, 1], 0.03, 2
        )
        assert t.combined.shape == (4, 4)
        assert t.dim == 2
        assert t.n == 4

    def test_from_trajectories_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatchError):
            Transition.from_trajectories_1d([(0.1, 0.2, 0.3)], r=0.03, tau=1)


class TestNeighborhood:
    def test_neighborhood_contains_self(self):
        t = make_transition_1d([(0.5, 0.5), (0.52, 0.52), (0.9, 0.9)], r=0.05, tau=1)
        assert 0 in t.neighborhood(0)

    def test_neighborhood_requires_both_times(self):
        # Device 1 is near device 0 at k-1 but far at k: not a neighbour.
        t = make_transition_1d([(0.5, 0.5), (0.52, 0.9)], r=0.05, tau=1)
        assert t.neighborhood(0) == (0,)

    def test_neighborhood_radius_2r(self):
        # Exactly 2r away at both times: inside N(j).
        t = make_transition_1d([(0.5, 0.5), (0.6, 0.6)], r=0.05, tau=1)
        assert t.neighborhood(0) == (0, 1)

    def test_neighborhood_excludes_unflagged(self):
        t = make_transition_1d(
            [(0.5, 0.5), (0.51, 0.51), (0.52, 0.52)], r=0.05, tau=1, flagged=[0, 2]
        )
        assert t.neighborhood(0) == (0, 2)

    def test_neighborhood_of_unflagged_device_rejected(self):
        t = make_transition_1d([(0.5, 0.5), (0.6, 0.6)], r=0.05, tau=1, flagged=[0])
        with pytest.raises(UnknownDeviceError):
            t.neighborhood(1)

    def test_knowledge_ball_is_superset(self):
        pairs = [(0.5, 0.5), (0.58, 0.58), (0.66, 0.66), (0.9, 0.9)]
        t = make_transition_1d(pairs, r=0.05, tau=1)
        n2 = set(t.neighborhood(0))
        n4 = set(t.knowledge_ball(0))
        assert n2 <= n4
        assert 2 in n4 and 2 not in n2

    def test_neighborhood_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        prev = rng.random((60, 2))
        cur = rng.random((60, 2))
        t = Transition.from_arrays(prev, cur, range(60), 0.04, 3)
        for j in [0, 17, 42]:
            expected = tuple(
                sorted(
                    i
                    for i in range(60)
                    if np.max(np.abs(prev[i] - prev[j])) <= 2 * 0.04 + 1e-12
                    and np.max(np.abs(cur[i] - cur[j])) <= 2 * 0.04 + 1e-12
                )
            )
            assert t.neighborhood(j) == expected


class TestConsistencyPredicates:
    def test_singleton_and_empty_consistent(self):
        t = make_transition_1d([(0.1, 0.1), (0.9, 0.9)], r=0.03, tau=1)
        assert t.is_consistent_motion([])
        assert t.is_consistent_motion([0])

    def test_motion_requires_both_times(self):
        # Close at k-1, far at k.
        t = make_transition_1d([(0.5, 0.1), (0.52, 0.9)], r=0.05, tau=1)
        assert not t.is_consistent_motion([0, 1])

    def test_dense_predicates(self):
        t = make_transition_1d([(0.5, 0.5)] * 5, r=0.05, tau=3)
        assert not t.is_dense([0, 1, 2])
        assert t.is_dense([0, 1, 2, 3])
        assert t.is_dense_motion([0, 1, 2, 3])

    def test_dense_motion_needs_consistency(self):
        pairs = [(0.1, 0.1), (0.1, 0.1), (0.1, 0.1), (0.9, 0.9)]
        t = make_transition_1d(pairs, r=0.03, tau=2)
        assert not t.is_dense_motion([0, 1, 2, 3])
