"""The two-sort subset tables equal the three-key ``lexsort`` tables.

:func:`_subset_tables` orders every dense subset of a batch of
components by component, then canonical order (descending popcount,
then descending bit-reversed mask), and drops each component's
duplicates.  It sorts twice: an unstable sort on the reversed masks,
then a stable sort on one small integer key.  The reference below is
the definitional ``lexsort`` on the three keys; the tables must be
identical, array for array, on seeded batches of random components
(overlapping motions, so duplicates are common) of one or many
components, tau 1 to 3.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitset import iter_bits
from repro.core.characterize import _deposit, _dense_locals, _subset_tables
from repro.core.neighborhood import MotionCache
from repro.core.transition import Snapshot, Transition


def _lexsort_tables(components, tau):
    """The subset tables, ordered by one ``lexsort`` on (component,
    descending popcount, descending reversed mask)."""
    masks, reversed_masks, counts, owners = [], [], [], []
    one = np.uint64(1)
    for owner, component in enumerate(components):
        top = len(component.devices) - 1
        for motion_mask in component.masks:
            rows = list(iter_bits(motion_mask))
            if len(rows) <= tau:
                continue
            dense, count = _dense_locals(len(rows), tau)
            row_bits = np.array([rows], dtype=np.uint64)
            flipped = np.uint64(top) - row_bits
            masks.append(_deposit(one << row_bits)[0, dense])
            reversed_masks.append(_deposit(one << flipped)[0, dense])
            counts.append(count)
            owners.append(np.full(len(dense), owner, dtype=np.int64))
    if not masks:
        return [np.empty(0, dtype=np.uint64) for _ in components]
    masks, reversed_masks, counts, owners = (
        np.concatenate(p) for p in (masks, reversed_masks, counts, owners)
    )
    order = np.lexsort((~reversed_masks, -counts, owners))
    masks, owners = masks[order], owners[order]
    fresh = np.ones(len(masks), dtype=bool)
    fresh[1:] = (masks[1:] != masks[:-1]) | (owners[1:] != owners[:-1])
    bounds = np.searchsorted(owners[fresh], np.arange(len(components) + 1))
    masks = masks[fresh]
    return [masks[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _components(seed):
    """The shareable components of a random clustered transition: a few
    groups of 3-12 devices moving together with jitter, plus loners."""
    rng = np.random.default_rng(seed)
    r = 0.02
    tau = int(rng.integers(1, 4))
    prev, cur = [], []
    for _ in range(int(rng.integers(1, 6))):
        size = int(rng.integers(3, 13))
        center = rng.random(2) * 0.8 + 0.1
        shift = rng.normal(0, 0.05, 2)
        points = center + rng.normal(0, r * 0.8, (size, 2))
        prev.append(points)
        cur.append(points + shift + rng.normal(0, r * 0.5, (size, 2)))
    loners = rng.random((int(rng.integers(1, 10)), 2))
    prev.append(loners)
    cur.append(loners)
    prev = np.clip(np.concatenate(prev), 0.0, 1.0)
    cur = np.clip(np.concatenate(cur), 0.0, 1.0)
    t = Transition(Snapshot(prev), Snapshot(cur), range(len(prev)), r, tau)
    cache = MotionCache(t)
    found = []
    for j in t.flagged_sorted:
        component = cache.component(j)
        if component is not None and component not in found:
            if component.split(tau).subsets <= 1 << 17:
                found.append(component)
    return found, tau


@pytest.mark.parametrize("seed", range(60))
def test_tables_equal_the_lexsort_reference(seed):
    components, tau = _components(seed)
    got = _subset_tables(components, tau)
    want = _lexsort_tables(components, tau)
    assert len(got) == len(want) == len(components)
    for table, reference in zip(got, want):
        assert table.dtype == reference.dtype == np.uint64
        assert np.array_equal(table, reference)


def test_the_batches_hold_duplicates_and_several_components():
    """The seeds exercise what the sort must get right: batches of more
    than one component, and overlapping motions whose common subsets are
    dropped."""
    multi = overlapping = 0
    for seed in range(60):
        components, tau = _components(seed)
        multi += len(components) > 1
        for component in components:
            dense = [m for m in component.masks if bin(m).count("1") > tau]
            overlapping += any(a & b for i, a in enumerate(dense) for b in dense[i + 1 :])
    assert multi >= 10
    assert overlapping >= 10
