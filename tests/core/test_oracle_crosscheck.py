"""Property-based validation: local theorems == omniscient oracle.

The central correctness claim of the paper (and of this implementation) is
that the locally computable conditions of Theorems 5 and 7 and Corollary 8
classify every device exactly as the omniscient observer would.  These
tests enumerate all admissible anomaly partitions on random small
configurations and compare, and check every Theorem 6 and Corollary 8
witness against the definitions with the oracle harness's checker
(``tests/online/test_oracle_matrix.py``).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterize import Characterizer
from repro.core.oracle import oracle_classify
from repro.core.partition import enumerate_anomaly_partitions
from repro.core.transition import Snapshot, Transition
from repro.core.types import AnomalyType
from tests.conftest import make_transition_1d, random_clustered_pairs
from tests.online.test_oracle_matrix import check_witness


def _random_transition(seed: int):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    tau = rng.randint(1, max(1, n - 1))
    r = rng.uniform(0.02, 0.2)
    pairs = random_clustered_pairs(rng, n, r)
    return make_transition_1d(pairs, r=r, tau=tau)


class TestLocalEqualsOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_classification_matches(self, seed):
        t = _random_transition(seed)
        local = Characterizer(t).characterize_all()
        oracle = oracle_classify(t)
        for device in t.flagged_sorted:
            assert local[device].anomaly_type is oracle.type_of(device), (
                f"seed={seed} device={device}"
            )
            check_witness(t, device, local[device])

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_classification_matches_fuzz(self, seed):
        t = _random_transition(seed)
        local = Characterizer(t).characterize_all()
        oracle = oracle_classify(t)
        for device in t.flagged_sorted:
            assert local[device].anomaly_type is oracle.type_of(device)
            check_witness(t, device, local[device])

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_theorem6_never_contradicts_oracle(self, seed):
        """Theorem 6 is only sufficient, but must never *mis*classify."""
        t = _random_transition(seed)
        cheap = Characterizer(t, full_nsc=False).characterize_all()
        oracle = oracle_classify(t)
        for device in t.flagged_sorted:
            verdict = cheap[device]
            if verdict.anomaly_type is AnomalyType.MASSIVE:
                assert oracle.type_of(device) is AnomalyType.MASSIVE
            elif verdict.anomaly_type is AnomalyType.ISOLATED:
                assert oracle.type_of(device) is AnomalyType.ISOLATED
            # UNRESOLVED in cheap mode can be anything except isolated:
            # Theorem 5 is exact, so a cheap-unresolved device is truly
            # massive or truly unresolved.
            else:
                assert oracle.type_of(device) is not AnomalyType.ISOLATED


def _coordinated_transition(seed: int, sizes, loners: int, r=0.05, tau=2):
    """The ``massive-10k`` shape at oracle scale: each group's homes fill
    a ~2.4r box and shift by one common offset beyond ``4r`` per
    coordinate (plus small noise); loners jump to uniform points."""
    rng = np.random.default_rng(seed)
    prev, cur = [], []
    for size in sizes:
        home = rng.uniform(0.2, 0.8, 2)
        pts = home + rng.uniform(-1.2 * r, 1.2 * r, (size, 2))
        shift = rng.uniform(4 * r, 6 * r, 2) * rng.choice([-1, 1], 2)
        prev.append(pts)
        cur.append(pts + shift + rng.normal(0, r / 4, (size, 2)))
    prev.append(rng.random((loners, 2)))
    cur.append(rng.random((loners, 2)))
    prev = np.clip(np.vstack(prev), 0, 1)
    cur = np.clip(np.vstack(cur), 0, 1)
    return Transition(Snapshot(prev), Snapshot(cur), range(len(prev)), r, tau)


class TestCoordinatedGroupsEqualOracle:
    """One or two coordinated groups of 4-8: the verdicts come from each
    group's shared component (one motion enumeration, one subset table)
    and must still agree with the omniscient oracle device by device."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize(
        "sizes,loners",
        [((4,), 1), ((5,), 1), ((6,), 1), ((7,), 1), ((8,), 0), ((4, 4), 0), ((4, 5), 0)],
    )
    def test_classification_matches(self, sizes, loners, seed):
        t = _coordinated_transition(seed, sizes, loners)
        characterizer = Characterizer(t)
        local = characterizer.characterize_all()
        oracle = oracle_classify(t)
        for device in t.flagged_sorted:
            assert local[device].anomaly_type is oracle.type_of(device), (
                f"sizes={sizes} seed={seed} device={device}"
            )
            check_witness(t, device, local[device])
        cache = characterizer.cache
        assert any(cache.component(j) is not None for j in range(sum(sizes)))


class TestLemma2:
    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_at_least_one_partition_exists(self, seed):
        t = _random_transition(seed)
        assert enumerate_anomaly_partitions(t)


class TestRelaxedAcpContainments:
    """Problem 2: M_k ⊆ M_P and I_k ⊆ I_P for every partition P."""

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_containments(self, seed):
        t = _random_transition(seed)
        oracle = oracle_classify(t)
        tau = t.tau
        for partition in oracle.partitions:
            dense = frozenset(
                x for block in partition if len(block) > tau for x in block
            )
            sparse = t.flagged - dense
            assert oracle.massive <= dense
            assert oracle.isolated <= sparse

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_three_sets_partition_flagged(self, seed):
        t = _random_transition(seed)
        oracle = oracle_classify(t)
        union = oracle.isolated | oracle.massive | oracle.unresolved
        assert union == t.flagged
        assert not oracle.isolated & oracle.massive
        assert not oracle.isolated & oracle.unresolved
        assert not oracle.massive & oracle.unresolved


class TestDecisionRuleSoundness:
    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_rules_report_correct_type(self, seed):
        t = _random_transition(seed)
        for device, verdict in Characterizer(t).characterize_all().items():
            check_witness(t, device, verdict)
