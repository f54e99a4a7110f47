"""The component-granular verdict path is exact.

Two shortcuts share setup work across a tick's flagged set:

* a small batch of range queries (``q * m`` at most
  ``_SCAN_CROSSOVER``) is answered by a direct Chebyshev scan instead of
  the sorted-code grid,
  and both sides must equal the definitional predicate
  ``all(|p - c| <= rho + atol)`` — ``atol`` sliver included (the cell
  ring distances of the dirty-region fan-out likewise, on the stencil
  search and on its direct fallback);
* a 2r-connected component computes the ``(D, J, L)`` split of all its
  members at once (:class:`ComponentSplit`), and each member's split must
  equal the per-device :func:`split_masks`.

Verdicts, rules, witnesses and cost counters must equal those of the
per-device ball path (:func:`split_masks` plus the per-device candidate
pool), forced here while families still come from the component, on
components of exactly 64 members (shared) and of 65 (the ball path
itself).  Verdicts must also match the omniscient oracle on every device
whose ``4r`` ball it can classify, and every witness must satisfy the
definitions (the oracle harness's reference and witness checker).
Coordinates are drawn on a 1/32 grid, optionally nudged by fractions of
``atol``, so coincident points, points exactly ``rho`` apart and points
in the sliver past ``rho`` are all common.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import geometry
from repro.core.bitset import LocalUniverse
from repro.core.characterize import Characterizer
from repro.core.geometry import GridIndex
from repro.core.neighborhood import (
    _COMPONENT_LIMIT,
    MotionCache,
    MotionComponent,
    split_masks,
)
from repro.core.transition import Snapshot, Transition
from tests.online.test_oracle_matrix import check_witness, oracle_types

GRID = 32
ATOL = 1e-12
#: Nudges in units of ``atol``: inside, on and just past the sliver.
NUDGES = (-2.0, -0.5, 0.0, 0.2, 0.5, 1.0, 1.5)

#: Largest ``4r`` ball the oracle classifies here (Bell(7) = 877
#: candidate partitions); larger balls are skipped.
ORACLE_LIMIT = 7

#: Crossover settings forcing each side of the batch-query dispatch.
SIDES = {"scan": 1 << 62, "grid": 0}


def _side(name):
    return mock.patch.object(geometry, "_SCAN_CROSSOVER", SIDES[name])


def _definitional(points, center, rho):
    """Row indices with ``|p - c| <= rho + atol`` in every coordinate."""
    if len(points) == 0:
        return []
    return np.flatnonzero(
        np.all(np.abs(points - center) <= rho + ATOL, axis=1)
    ).tolist()


@st.composite
def nudged_points(draw, count, d):
    """``count`` points on the 1/32 grid, some nudged by fractions of atol."""
    coords = draw(
        st.lists(
            st.lists(st.integers(0, GRID), min_size=d, max_size=d),
            min_size=count,
            max_size=count,
        )
    )
    nudges = draw(
        st.lists(
            st.lists(st.sampled_from(NUDGES), min_size=d, max_size=d),
            min_size=count,
            max_size=count,
        )
    )
    pts = np.array(coords, dtype=float).reshape(count, d) / GRID
    pts += np.array(nudges, dtype=float).reshape(count, d) * ATOL
    return pts


@st.composite
def query_cases(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(0, 30))
    pts = draw(nudged_points(m, d))
    if m and draw(st.booleans()):
        # Duplicate points.
        pts = np.vstack([pts, pts[: draw(st.integers(1, m))]])
    centers = draw(nudged_points(draw(st.integers(0, 12)), d))
    cell = draw(st.sampled_from((1, 2, 3))) / GRID
    rho = draw(st.sampled_from((0, 1, 2, 3))) / GRID
    return pts, centers, cell, rho


class TestRangeQueries:
    @pytest.mark.parametrize("side", sorted(SIDES))
    @given(case=query_cases())
    @settings(max_examples=200, deadline=None)
    def test_both_sides_equal_the_definition(self, side, case):
        pts, centers, cell, rho = case
        want = [_definitional(pts, c, rho) for c in centers]
        with _side(side):
            index = GridIndex(pts, cell)
            assert index.query_batch(centers, rho) == want
            assert [index.query(c, rho) for c in centers] == want
            query_of, rows = index.query_batch_flat(centers, rho)
        assert query_of.dtype == rows.dtype == np.int64
        assert list(zip(query_of.tolist(), rows.tolist())) == [
            (q, row) for q, hits in enumerate(want) for row in hits
        ]

    @pytest.mark.parametrize("side", sorted(SIDES))
    def test_sliver_point_across_a_cell_boundary(self, side):
        # |p - c| = rho + 7e-13 <= rho + atol, but c + rho lies in the
        # cell below p's: the candidate cells must span the full reach.
        rho = cell = 0.02
        c = 0.04 - 5e-13 - 0.02
        p = 0.04 + 2e-13
        with _side(side):
            index = GridIndex(np.array([[p, 0.5]]), cell)
            assert index.query([c, 0.5], rho) == [0]
            assert index.query([2 * p - c, 0.5], rho) == [0]
            assert index.query([c - 2e-12, 0.5], rho) == []

    def test_unlinearizable_index_scans_at_any_size(self):
        rng = np.random.default_rng(5)
        pts = rng.random((40, 4))
        centers = np.vstack([pts[:5], rng.random((5, 4))])
        rho = 1.5e-6
        want = [_definitional(pts, c, rho) for c in centers]
        for side in SIDES:
            with _side(side):
                index = GridIndex(pts, 1e-6)
                assert not index._linearizable
                assert index.query_batch(centers, rho) == want

    def test_scan_skips_the_sorted_code_build(self):
        pts = np.random.default_rng(1).random((50, 2))
        index = GridIndex(pts, 0.05)
        index.query_batch(pts, 0.05)
        assert index._sorted_codes is None
        with _side("grid"):
            index.query_batch(pts, 0.05)
        assert index._sorted_codes is not None

    def test_crossover_counts_queries_times_points(self):
        side = int(np.sqrt(geometry._SCAN_CROSSOVER))
        rng = np.random.default_rng(2)
        small = GridIndex(rng.random((side, 2)), 0.02)
        small.query_batch_flat(small.points, 0.02)
        assert small._sorted_codes is None
        # One query scans whatever the index size; a batch whose q * m
        # exceeds the crossover builds the grid.
        large = GridIndex(rng.random((side + 1, 2)), 0.02)
        large.query_batch_flat(large.points[:1], 0.02)
        assert large._sorted_codes is None
        large.query_batch_flat(large.points, 0.02)
        assert large._sorted_codes is not None


@st.composite
def ring_cases(draw):
    dim = draw(st.integers(1, 3))
    top = draw(st.sampled_from([0, 1, 7, 40]))
    key = st.lists(st.integers(0, top), min_size=dim, max_size=dim)
    probes = draw(st.lists(key, max_size=25))
    cells = draw(st.lists(key, max_size=25))
    return dim, probes, cells, draw(st.integers(0, 4))


class TestRingDistance:
    # A code limit of 0 sends every key box to the direct fallback.
    @pytest.mark.parametrize("code_limit", (1 << 62, 0), ids=("stencil", "direct"))
    @given(case=ring_cases())
    @settings(max_examples=150, deadline=None)
    def test_both_sides_equal_brute_force(self, code_limit, case):
        dim, probes, cells, rings = case
        want = [
            min(
                [max(abs(a - b) for a, b in zip(probe, cell)) for cell in cells]
                + [rings + 1]
            )
            for probe in probes
        ]
        keys = np.asarray(probes, dtype=np.int64).reshape(len(probes), dim)
        listed = np.asarray(cells, dtype=np.int64).reshape(len(cells), dim)
        with mock.patch.object(geometry, "_CODE_LIMIT", code_limit):
            got = geometry.cells_ring_distance(keys, listed, rings)
            near = geometry.cells_within_rings(keys, listed, rings)
        assert got.tolist() == want
        assert near.tolist() == [w <= rings for w in want]


@st.composite
def grid_transitions(draw, max_n=24):
    """A transition on the 1/32 grid; d, tau in 1..3, r in {1,2,3}/32."""
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, 3))
    tau = draw(st.integers(1, min(3, n - 1)))
    r = draw(st.sampled_from((1, 2, 3))) / GRID
    prev = np.clip(draw(nudged_points(n, d)), 0.0, 1.0)
    shift = np.array(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
    # Half the devices move as a group by one common shift (dense motions
    # appear), the rest jump to fresh grid cells.
    cur = np.clip(draw(nudged_points(n, d)), 0.0, 1.0)
    movers = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for i, moved in enumerate(movers):
        if moved:
            cur[i] = np.clip(prev[i] + shift / GRID, 0.0, 1.0)
    flagged = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    return Transition(Snapshot(prev), Snapshot(cur), flagged, r, tau)


def _fresh(transition):
    return Transition(
        Snapshot(transition.previous.positions.copy()),
        Snapshot(transition.current.positions.copy()),
        transition.flagged,
        transition.r,
        transition.tau,
    )


class TestNeighborhoodsBatch:
    @pytest.mark.parametrize("side", sorted(SIDES))
    @pytest.mark.parametrize("factor", (2.0, 4.0))
    @given(transition=grid_transitions())
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_per_device(self, side, factor, transition):
        rho = factor * transition.r
        flagged = list(transition.flagged_sorted)
        prev = transition.previous.positions[flagged]
        cur = transition.current.positions[flagged]
        want = {
            j: tuple(
                flagged[i]
                for i in sorted(
                    set(_definitional(prev, prev[k], rho))
                    & set(_definitional(cur, cur[k], rho))
                )
            )
            for k, j in enumerate(flagged)
        }
        per_device = _fresh(transition)
        with _side(side):
            got = transition.neighborhoods_batch(radius_factor=factor)
            assert {
                j: per_device.neighborhood(j, radius_factor=factor)
                for j in flagged
            } == want
        assert got == want
        assert all(type(near) is tuple for near in got.values())


def _verdict_view(verdicts):
    return {
        j: (c.anomaly_type, c.rule, c.witness, c.cost.as_dict())
        for j, c in verdicts.items()
    }


def _ball_path():
    """Send every dense verdict down the per-device ball path.

    Without a component split the verdict takes :func:`split_masks` and
    the per-device candidate pool; families still come from the
    component, so ``window_steps`` — hence ``cost.as_dict()`` — stays
    comparable with the component path.
    """
    return mock.patch.object(MotionComponent, "split", lambda self, tau: None)


def _assert_equals_ball_path_and_oracle(transition):
    """Component path == forced ball path (verdicts, witnesses, costs,
    expansions); types == the oracle where it can classify; witnesses
    satisfy the definitions.  Returns the verdicts."""
    got = Characterizer(transition)
    got_verdicts = got.characterize_all()
    want = Characterizer(_fresh(transition))
    with _ball_path():
        want_verdicts = want.characterize_all()
    assert _verdict_view(got_verdicts) == _verdict_view(want_verdicts)
    assert got.cache.expansions == want.cache.expansions
    oracle = oracle_types(_fresh(transition), limit=ORACLE_LIMIT)
    for j, verdict in got_verdicts.items():
        if oracle[j] is not None:
            assert verdict.anomaly_type is oracle[j], j
        check_witness(transition, j, verdict)
    return got_verdicts


def _assert_component_splits_match(transition):
    cache = MotionCache(transition)
    checked = 0
    for j in transition.flagged_sorted:
        component = cache.component(j)
        if component is None or not cache.family(j).dense:
            continue
        split = component.split(transition.tau)
        row = component.rows[j]
        got = (split.d[row], split.j[row], split.d[row] & ~split.j[row])
        # Over the component's own universe the masks are bit-identical.
        assert split_masks(cache, j, LocalUniverse(component.devices)) == got
        # Over the per-device ball universe they name the same devices.
        ball = LocalUniverse(transition.knowledge_ball(j))
        want = split_masks(cache, j, ball)
        universe = component.universe
        assert [ball.devices_of(mask) for mask in want] == [
            universe.devices_of(mask) for mask in got
        ]
        assert tuple(
            component.motions[k] for k in split.dense[row]
        ) == cache.family(j).dense
        checked += 1
    return checked


def _chain(size, *, r=0.005, tau=1, seed=0):
    """``size`` flagged devices on a line, one 2r-connected component.

    Neighbours sit ``2r / (tau + 0.6)`` apart, so runs of ``tau + 1``
    consecutive devices fit a ``2r`` box and every member has dense
    motions, while the component has exactly ``size`` members.
    """
    rng = np.random.default_rng(seed)
    x = 0.1 + 2 * r / (tau + 0.6) * np.arange(size)
    y = 0.5 + rng.uniform(-0.1, 0.1, size) * r
    prev = np.column_stack([x, y])
    cur = prev + np.array([0.02, -0.01]) + rng.uniform(-0.1, 0.1, (size, 2)) * r
    return Transition(Snapshot(prev), Snapshot(cur), range(size), r, tau)


class TestComponentSplit:
    @given(transition=grid_transitions())
    @settings(max_examples=150, deadline=None)
    def test_component_split_equals_split_masks(self, transition):
        _assert_component_splits_match(transition)

    @pytest.mark.parametrize("size", (_COMPONENT_LIMIT, _COMPONENT_LIMIT + 1))
    def test_chain_components_at_the_sharing_bound(self, size):
        transition = _chain(size)
        cache = MotionCache(transition)
        component = cache.component(0)
        if size <= _COMPONENT_LIMIT:
            assert component is not None
            assert len(component.devices) == size
            assert _assert_component_splits_match(transition) == size
        else:
            assert component is None

    @given(transition=grid_transitions())
    @settings(max_examples=150, deadline=None)
    def test_verdicts_and_costs_equal_the_ball_path(self, transition):
        _assert_equals_ball_path_and_oracle(transition)

    @pytest.mark.parametrize("size", (_COMPONENT_LIMIT, _COMPONENT_LIMIT + 1))
    @pytest.mark.parametrize("tau", (1, 2))
    def test_chain_verdicts_equal_the_ball_path(self, size, tau):
        transition = _chain(size, tau=tau, seed=size + tau)
        verdicts = _assert_equals_ball_path_and_oracle(transition)
        assert any(c.cost.dense_motions for c in verdicts.values())
