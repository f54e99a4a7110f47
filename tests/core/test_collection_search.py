"""The array Theorem 7 search visits the ``int``-list search's nodes.

:class:`_ArrayCollectionSearch` runs the counterexample DFS over a
``uint64`` candidate array; :class:`_MaskCollectionSearch` over a list
of Python ``int`` masks.  The collections the search tests are the
paper's cost measure (Table III), so the two must agree node for node:
the same ``tested`` and ``work`` counts, the same counterexample (or
none), and under a budget the same node at which
:class:`SearchBudgetExceeded` is raised.  Pools here are seeded random
ones, canonically ordered like the real pools (larger candidates first),
with bit 63 in play; a universe wider than 64 bits stays on the ``int``
path, and so does a pool shorter than ``_ARRAY_SEARCH_MIN_POOL``
candidates, where the list search is faster.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitset import popcount
from repro.core.characterize import (
    _ARRAY_SEARCH_MIN_POOL,
    _ArrayCollectionSearch,
    _collection_search,
    _MaskCollectionSearch,
)
from repro.core.errors import SearchBudgetExceeded


def _random_subset(rng, bits, low, high):
    size = int(rng.integers(low, min(high, len(bits)) + 1))
    return sum(1 << int(b) for b in rng.choice(bits, size=size, replace=False))


def _random_instance(seed, width=None):
    """Dense motions of ``j`` and a candidate pool over one universe.

    Candidates are drawn mostly from the motions' members, so that they
    starve them and the DFS branches, plus a few strays; the pool is
    deduplicated and sorted larger-first, ties by the mask (the
    canonical pool order)."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(6, 65)) if width is None else width
    tau = int(rng.integers(1, 4))
    universe = np.arange(width)
    hot = rng.choice(universe, size=min(width, tau + 12), replace=False)
    motions = [
        _random_subset(rng, hot, tau + 1, tau + 8)
        for _ in range(int(rng.integers(1, 5)))
    ]
    pool = set()
    for _ in range(int(rng.integers(1, 120))):
        bits = hot if rng.random() < 0.85 else universe
        pool.add(_random_subset(rng, bits, tau + 1, tau + 2))
    candidates = sorted(pool, key=lambda c: (-popcount(c), c))
    return motions, candidates, width, tau


def _sized_instance(seed, size):
    """A 64-bit :func:`_random_instance` whose pool holds exactly
    ``size`` candidates: cut to its ``size`` largest, or padded with
    candidates that miss every motion of ``j`` (they never starve one,
    so the outcome stays the instance's, but every node scans them)."""
    motions, candidates, width, tau = _random_instance(seed, width=64)
    rng = np.random.default_rng(seed + 1000)
    members = 0
    for motion in motions:
        members |= motion
    free = np.array([b for b in range(width) if not members >> b & 1])
    pool = set(candidates[:size])
    while len(pool) < size:
        pool.add(_random_subset(rng, free, tau + 1, tau + 3))
    return motions, sorted(pool, key=lambda c: (-popcount(c), c)), width, tau


def _run(search):
    try:
        outcome = ("found", search.find_counterexample())
    except SearchBudgetExceeded as exc:
        outcome = ("raised", str(exc))
    return outcome, search.tested, search.work


@pytest.mark.parametrize("seed", range(150))
def test_array_search_matches_the_int_search(seed):
    motions, candidates, width, tau = _random_instance(seed)
    array = _ArrayCollectionSearch(
        motions, np.array(candidates, dtype=np.uint64), tau, None
    )
    listed = _MaskCollectionSearch(motions, candidates, tau, None)
    got, want = _run(array), _run(listed)
    assert got == want
    counterexample = got[0][1]
    if counterexample is not None:
        assert all(type(mask) is int for mask in counterexample)


def test_the_instances_exercise_both_outcomes_and_deep_searches():
    outcomes = []
    for seed in range(150):
        motions, candidates, width, tau = _random_instance(seed)
        search = _MaskCollectionSearch(motions, candidates, tau, None)
        outcomes.append((search.find_counterexample() is None, search.tested))
    assert {found for found, _ in outcomes} == {True, False}
    assert max(tested for _, tested in outcomes) >= 20


@pytest.mark.parametrize("seed", range(40))
def test_budgets_raise_at_the_same_node(seed):
    motions, candidates, width, tau = _random_instance(seed)
    full = _MaskCollectionSearch(motions, candidates, tau, None)
    full.find_counterexample()
    # Budgets below, at and above the full search's work.
    for budget in {1, full.work // 3, full.work - 1, full.work, full.work + 1}:
        if budget < 1:
            continue
        array = _ArrayCollectionSearch(motions, candidates, tau, budget)
        listed = _MaskCollectionSearch(motions, candidates, tau, budget)
        got, want = _run(array), _run(listed)
        assert got == want
        assert (got[0][0] == "raised") == (budget < full.work)


def test_width_picks_the_search():
    motions, candidates, _, tau = _sized_instance(3, _ARRAY_SEARCH_MIN_POOL)
    assert type(_collection_search(motions, candidates, 64, tau, None)) is (
        _ArrayCollectionSearch
    )
    assert type(_collection_search(motions, candidates, 65, tau, None)) is (
        _MaskCollectionSearch
    )


CUT = _ARRAY_SEARCH_MIN_POOL


@pytest.mark.parametrize("size", [1, 3, CUT // 2, CUT - 1, CUT, CUT + 1, 2 * CUT, 300])
@pytest.mark.parametrize("seed", range(60))
def test_pool_length_picks_the_search_and_both_sides_agree(seed, size):
    # Pools arrive as the shared path builds them, a uint64 array; a
    # short one runs the int-list search, a long one the array search,
    # and either visits the list search's nodes.
    motions, candidates, width, tau = _sized_instance(seed, size)
    search = _collection_search(
        motions, np.array(candidates, dtype=np.uint64), width, tau, None
    )
    assert type(search) is (
        _ArrayCollectionSearch if size >= CUT else _MaskCollectionSearch
    )
    got = _run(search)
    assert got == _run(_MaskCollectionSearch(motions, candidates, tau, None))
    counterexample = got[0][1]
    if counterexample is not None:
        assert all(type(mask) is int for mask in counterexample)


def test_crossover_instances_search_deep_and_find_both_outcomes():
    outcomes = set()
    deepest = 0
    for seed in range(60):
        for size in (CUT - 1, CUT):
            motions, candidates, _, tau = _sized_instance(seed, size)
            search = _MaskCollectionSearch(motions, candidates, tau, None)
            outcomes.add(search.find_counterexample() is None)
            deepest = max(deepest, search.tested)
    assert outcomes == {True, False}
    assert deepest >= 20


@pytest.mark.parametrize("seed", range(10))
def test_a_pool_wider_than_64_bits_stays_on_the_int_path(seed):
    # Shift a 64-bit instance up by 40 bits: masks up to bit 103.
    motions, candidates, _, tau = _random_instance(seed, width=64)
    motions = [m << 40 for m in motions]
    candidates = [c << 40 for c in candidates]
    search = _collection_search(motions, candidates, 104, tau, None)
    assert type(search) is _MaskCollectionSearch
    narrow = _collection_search(
        [m >> 40 for m in motions], [c >> 40 for c in candidates], 64, tau, None
    )
    (kind, wide_hit), tested, work = _run(search)
    (narrow_kind, narrow_hit), narrow_tested, narrow_work = _run(narrow)
    assert (kind, tested, work) == (narrow_kind, narrow_tested, narrow_work)
    if wide_hit is not None:
        assert [c >> 40 for c in wide_hit] == list(narrow_hit)
