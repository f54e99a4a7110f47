"""The bitmask verdict kernel against definitional references.

Every set the verdict path touches is an ``int`` over a
:class:`LocalUniverse`.  These tests pin the universe's algebra, the
window sweep and the ``(D, J, L)`` split against brute-force families,
the verdicts and witnesses against the omniscient oracle (through the
oracle harness's reference and witness checker), and the Theorem 7
guards: a blown ``collection_budget`` raises, or resolves to
``UNRESOLVED`` / ``ALGORITHM_3`` under ``budget_fallback``, and the
per-motion ``2^m`` ``pool_cap`` guard fires.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import LocalUniverse, iter_bits, popcount
from repro.core.characterize import Characterizer
from repro.core.errors import SearchBudgetExceeded
from repro.core.motions import (
    brute_force_maximal_motions,
    enumerate_maximal_motions,
    motion_family,
)
from repro.core.neighborhood import MotionCache, split_neighborhood
from repro.core.transition import Snapshot, Transition
from repro.core.types import AnomalyType, DecisionRule
from tests.online.test_oracle_matrix import check_witness, dense_family, oracle_types


#: Largest ``4r`` ball the oracle classifies here (Bell(7) = 877
#: candidate partitions); larger balls are skipped.
ORACLE_LIMIT = 7


def random_transition(rng, *, max_n=16, cluster=True):
    """A seeded random transition with an optional coherent cluster."""
    n = int(rng.integers(4, max_n + 1))
    d = int(rng.integers(1, 3))
    r = float(rng.uniform(0.02, 0.15))
    tau = int(rng.integers(1, max(2, n // 2)))
    prev = np.clip(rng.random((n, d)) * 0.5 + 0.2, 0.0, 1.0)
    k = int(rng.integers(0, n // 2 + 1)) if cluster else 0
    if k:
        center = rng.random(d) * 0.5 + 0.2
        prev[:k] = np.clip(center + rng.normal(0, r / 3, (k, d)), 0.0, 1.0)
    cur = np.clip(prev + rng.normal(0, r / 2, (n, d)), 0.0, 1.0)
    return Transition(Snapshot(prev), Snapshot(cur), range(n), r, tau)


def canonical(motions):
    return sorted(map(sorted, motions))


class TestLocalUniverse:
    def test_roundtrip_and_determinism(self):
        uni = LocalUniverse([3, 7, 11])
        mask = uni.mask_of({11, 3})
        assert uni.devices_of(mask) == frozenset({3, 11})
        assert popcount(mask) == 2
        # Unseen ids register in sorted order regardless of input order.
        a = LocalUniverse()
        b = LocalUniverse()
        assert a.mask_of([9, 2, 5]) == b.mask_of([5, 9, 2])
        assert a.devices == b.devices == (2, 5, 9)

    def test_widens_past_64_devices(self):
        uni = LocalUniverse(range(0, 200, 2))
        assert len(uni) == 100
        mask = uni.mask_of(range(0, 200, 2))
        assert popcount(mask) == 100
        assert mask.bit_length() == 100  # multi-word int, all identities hold
        assert uni.devices_of(mask) == frozenset(range(0, 200, 2))
        # Masks minted before a widening stay valid after it.
        early = uni.mask_of([0, 2])
        uni.bit(999)
        assert uni.devices_of(early) == frozenset({0, 2})

    def test_iter_bits(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []


class TestEnumerator:
    def test_randomized_motions_match_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            t = random_transition(rng, max_n=12)
            n = t.n
            anchor = int(rng.integers(0, n)) if rng.random() < 0.5 else None
            motions, steps = enumerate_maximal_motions(t, range(n), anchor)
            brute = brute_force_maximal_motions(t, range(n), anchor)
            assert canonical(motions) == canonical(brute)
            assert steps > 0
            # Canonical order: larger first, ties lexicographic on members.
            assert motions == sorted(motions, key=lambda m: (-len(m), sorted(m)))

    def test_families_match_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            t = random_transition(rng)
            for j in t.flagged_sorted:
                family = motion_family(t, j)
                brute = brute_force_maximal_motions(t, t.neighborhood(j), j)
                assert canonical(family.motions) == canonical(brute)
                assert family.dense == tuple(
                    m for m in family.motions if len(m) > t.tau
                )


class TestCharacterizer:
    def test_split_neighborhood_matches_brute_force(self):
        """``D_k(j)`` is the union of ``j``'s maximal dense motions;
        ``J_k(j)`` the members of ``D_k(j)`` all of whose maximal dense
        motions contain ``j`` (families by brute force)."""
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(20):
            t = random_transition(rng, max_n=10)
            cache = MotionCache(t)
            for j in t.flagged_sorted:
                family = dense_family(t, j)
                if not family:
                    continue
                d = frozenset().union(*family)
                always = frozenset(
                    x for x in d if all(j in m for m in dense_family(t, x))
                )
                split = split_neighborhood(cache, j)
                assert split.dense_neighborhood == d
                assert split.always_with_j == always
                assert split.sometimes_without_j == d - always
                checked += 1
        assert checked > 20

    def test_randomized_verdicts_match_oracle(self):
        """Verdicts against the oracle, witnesses against the definitions."""
        rng = np.random.default_rng(42)
        rules_seen = set()
        checked = 0
        for _ in range(40):
            t = random_transition(rng)
            want = oracle_types(t, limit=ORACLE_LIMIT)
            for j, verdict in Characterizer(t).characterize_all().items():
                if want[j] is not None:
                    assert verdict.anomaly_type is want[j], j
                    checked += 1
                check_witness(t, j, verdict)
                rules_seen.add(verdict.rule)
        # The sweep must actually exercise the interesting paths.
        assert DecisionRule.THEOREM_5 in rules_seen
        assert DecisionRule.THEOREM_6 in rules_seen
        assert {DecisionRule.THEOREM_7, DecisionRule.COROLLARY_8} & rules_seen
        assert checked > 100

    @staticmethod
    def _overlapping_blobs(seed):
        """Two overlapping blobs of six: Theorem 6 stays inconclusive, so
        the expensive search runs."""
        rng = np.random.default_rng(seed)
        prev = np.clip(0.5 + rng.normal(0, 0.005, (12, 2)), 0, 1)
        cur = np.clip(prev + rng.normal(0, 0.005, (12, 2)), 0, 1)
        prev[6:] += 0.04
        cur[6:] += 0.045
        return lambda: Transition(Snapshot(prev), Snapshot(cur), range(12), 0.03, 2)

    def test_blown_budget_raises_then_falls_back(self):
        make = self._overlapping_blobs(9)
        kwargs = dict(collection_budget=3, pool_cap=None)
        chars = Characterizer(make(), **kwargs)
        blown = []
        for j in range(12):
            try:
                chars.characterize(j)
            except SearchBudgetExceeded:
                blown.append(j)
        assert blown, "scenario must actually exceed the budget"
        # budget_fallback resolves the same devices to ALGORITHM_3.
        results = Characterizer(make(), budget_fallback=True, **kwargs).characterize_all()
        for j in blown:
            assert results[j].anomaly_type is AnomalyType.UNRESOLVED
            assert results[j].rule is DecisionRule.ALGORITHM_3
        for j in set(range(12)) - set(blown):
            assert results[j].rule is not DecisionRule.ALGORITHM_3

    def test_pool_cap_guard_fires(self):
        """The per-motion ``2^m`` pool guard raises before enumerating."""
        chars = Characterizer(self._overlapping_blobs(13)(), pool_cap=8)
        blown = []
        for j in range(12):
            try:
                chars.characterize(j)
            except SearchBudgetExceeded as exc:
                assert "(cap 8)" in str(exc)
                blown.append(j)
        assert blown, "scenario must actually exceed the pool cap"


@st.composite
def transitions(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    d = draw(st.integers(min_value=1, max_value=2))
    coords = draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, width=32),
                min_size=2 * d,
                max_size=2 * d,
            ),
            min_size=n,
            max_size=n,
        )
    )
    arr = np.asarray(coords, dtype=float)
    r = draw(st.sampled_from([0.02, 0.05, 0.1, 0.2]))
    tau = draw(st.integers(min_value=1, max_value=max(1, n - 1)))
    return Transition(
        Snapshot(arr[:, :d]), Snapshot(arr[:, d:]), range(n), r, tau
    )


@settings(max_examples=40, deadline=None)
@given(transitions())
def test_property_verdicts_match_oracle(t):
    want = oracle_types(t, limit=ORACLE_LIMIT)
    for j, verdict in Characterizer(t).characterize_all().items():
        if want[j] is not None:
            assert verdict.anomaly_type is want[j], j
        check_witness(t, j, verdict)


@settings(max_examples=60, deadline=None)
@given(transitions())
def test_property_enumerator_matches_brute_force(t):
    n = t.n
    fast, _ = enumerate_maximal_motions(t, range(n))
    brute = brute_force_maximal_motions(t, range(n))
    assert canonical(fast) == canonical(brute)
