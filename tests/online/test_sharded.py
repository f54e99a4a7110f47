"""Sharded topology: the cross-shard verdict-identity contract.

A :class:`~repro.online.sharded.ShardedService` may partition the
population spatially, exchange halos, migrate movers and merge partial
verdict maps — but tick for tick its output must equal one big
:class:`~repro.online.sharded.OnlineCharacterizationService` fed the
same stream: same flagged tuple, same verdict types, rules and
witnesses.  The suites below check that contract on adversarial
streams (boundary-ring clusters, corner cells shared by four shards,
movers crossing shards mid-tick, churn with id recycling) plus the
:class:`~repro.online.sharded.ShardMap` tiling algebra and the
sharded checkpoint round trip.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
)
from repro.online import (
    OnlineCharacterizationService,
    QosUpdate,
    ServiceConfig,
    ShardMap,
    CheckpointWriter,
    ShardedService,
    checkpoint_path,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    restore_sharded_service,
    save_checkpoint,
)

CFG = ServiceConfig(r=0.05, tau=2)

#: Both places a shard pipeline can run; the identity contract is the same.
TOPOLOGIES = ("inline", "process")


def make_pair(positions, cfg=CFG, *, shards=4, workers="inline"):
    """One big service and its sharded twin over the same population."""
    single = OnlineCharacterizationService(positions.copy(), cfg)
    sharded = ShardedService(
        positions.copy(), cfg, topology_shards=shards,
        topology_workers=workers,
    )
    return single, sharded


def assert_same_tick(single_out, sharded_out):
    """Verdict identity: flagged set, types, rules and witnesses."""
    assert sharded_out.tick == single_out.tick
    assert sharded_out.flagged == single_out.flagged
    assert set(sharded_out.verdicts) == set(single_out.verdicts)
    for device, want in single_out.verdicts.items():
        got = sharded_out.verdicts[device]
        assert got.anomaly_type == want.anomaly_type, device
        assert got.rule == want.rule, device
        assert got.witness == want.witness, device


def drive_twins(single, sharded, stream):
    """Feed identical per-tick event lists to both; verify every tick."""
    for events in stream:
        for device, pos, flagged in events:
            update = QosUpdate(int(device), tuple(pos), bool(flagged))
            single.ingest(update)
            sharded.ingest(update)
        assert_same_tick(single.end_tick(), sharded.end_tick())


def run_halo_stall_past_deadline():
    """Two process shards; shard 0 stalls its tick-2 ``halo`` reply 1.5 s
    past a 1 s dispatch deadline.  Every tick is checked against the
    single service; returns the (closed) sharded service."""
    from repro.robust.chaos import FaultPlan, inject

    rng = np.random.default_rng(17)
    positions = rng.random((48, 2))
    cfg = ServiceConfig(r=0.05, tau=2, dispatch_deadline=1.0)
    single, sharded = make_pair(positions, cfg, shards=2, workers="process")
    stream = random_stream(
        rng, positions, np.zeros(48, dtype=bool), 4, flag_p=0.5, jump_p=0.1
    )
    try:
        with inject(FaultPlan(halo_delay_at={2: 0}, delay_seconds=1.5)) as injector:
            drive_twins(single, sharded, stream)
        assert injector.injected.get("halo_delay") == 1
    finally:
        sharded.close()
    return sharded


def random_stream(rng, positions, flags, ticks, *, flag_p, jump_p):
    """Random-walk event stream mutating the caller's mirrors in place."""
    n, d = positions.shape
    out = []
    for _ in range(ticks):
        events = []
        movers = rng.choice(n, size=max(1, n // 3), replace=False)
        for j in movers:
            j = int(j)
            sigma = 0.3 if rng.random() < jump_p else 0.01
            positions[j] = np.clip(
                positions[j] + rng.normal(0, sigma, d), 0, 1
            )
            flags[j] = rng.random() < flag_p
            events.append((j, positions[j].copy(), flags[j]))
        out.append(events)
    return out


class TestShardMap:
    def test_grid_factorization_is_near_square(self):
        for shards, want in [(1, (1, 1)), (2, (2, 1)), (4, (2, 2)),
                             (6, (3, 2)), (8, (4, 2)), (9, (3, 3)),
                             (12, (4, 3)), (7, (7, 1))]:
            m = ShardMap(shards, cell=0.05, dim=2, halo_rings=4)
            assert m.grid == want
            assert int(np.prod(m.grid)) == shards

    def test_dim1_tiles_single_axis(self):
        m = ShardMap(4, cell=0.1, dim=1, halo_rings=2)
        assert m.grid == (4,)
        boxes = [m.box(s) for s in range(4)]
        cells = [c for ((lo, hi),) in boxes for c in range(lo, hi + 1)]
        assert cells == list(range(m.cells_per_axis))

    def test_boxes_partition_the_cell_grid(self):
        m = ShardMap(6, cell=0.07, dim=2, halo_rings=4)
        K = m.cells_per_axis
        grid_x, grid_y = np.meshgrid(np.arange(K), np.arange(K))
        keys = np.stack([grid_x.ravel(), grid_y.ravel()], axis=1)
        owner = m.shard_of_keys(keys)
        # Every cell has exactly one owner, all shards are non-empty,
        # and ownership agrees with the box intervals.
        assert owner.min() >= 0 and owner.max() < 6
        assert len(np.unique(owner)) == 6
        for s in range(6):
            box = m.box(s)
            inside = np.ones(len(keys), dtype=bool)
            for axis, (lo, hi) in enumerate(box):
                inside &= (keys[:, axis] >= lo) & (keys[:, axis] <= hi)
            assert np.array_equal(inside, owner == s)

    def test_out_of_range_keys_clip_to_edge_shards(self):
        m = ShardMap(4, cell=0.1, dim=2, halo_rings=2)
        keys = np.array([[-3, -3], [99, 99]], dtype=np.int64)
        owner = m.shard_of_keys(keys)
        assert owner[0] == 0
        assert owner[1] == m.n_shards - 1

    def test_box_distance_zero_inside_positive_outside(self):
        m = ShardMap(4, cell=0.1, dim=2, halo_rings=2)
        (lo0, hi0), (lo1, hi1) = m.box(0)
        inside = np.array([[lo0, lo1], [hi0, hi1]], dtype=np.int64)
        assert np.array_equal(m.box_distance(inside, 0), [0, 0])
        outside = np.array(
            [[hi0 + 1, lo1], [hi0 + 3, hi1 + 2]], dtype=np.int64
        )
        assert np.array_equal(m.box_distance(outside, 0), [1, 3])

    def test_boundary_mask_matches_slack_definition(self):
        m = ShardMap(4, cell=0.05, dim=2, halo_rings=3)
        K = m.cells_per_axis
        grid_x, grid_y = np.meshgrid(np.arange(K), np.arange(K))
        keys = np.stack([grid_x.ravel(), grid_y.ravel()], axis=1)
        for s in range(4):
            own = m.box_distance(keys, s) == 0
            mask = m.boundary_mask(keys[own], s)
            slack = np.full(int(own.sum()), np.iinfo(np.int64).max)
            for axis, (lo, hi) in enumerate(m.box(s)):
                col = keys[own][:, axis]
                slack = np.minimum(slack, np.minimum(col - lo, hi - col))
            assert np.array_equal(mask, slack < m.halo_rings)

    def test_too_many_shards_for_coarse_cell_raises(self):
        with pytest.raises(ConfigurationError):
            ShardMap(64, cell=0.5, dim=2, halo_rings=1)

    @pytest.mark.parametrize("bad", [{"shards": 0}, {"dim": 0},
                                     {"halo_rings": 0}])
    def test_invalid_parameters_raise(self, bad):
        kwargs = dict(shards=4, cell=0.1, dim=2, halo_rings=2)
        kwargs.update(bad)
        shards = kwargs.pop("shards")
        with pytest.raises(ConfigurationError):
            ShardMap(shards, **kwargs)


class TestShardedIdentity:
    @pytest.mark.parametrize("workers", TOPOLOGIES)
    def test_random_walk_identity_serial(self, workers):
        rng = np.random.default_rng(11)
        positions = rng.random((60, 2))
        single, sharded = make_pair(positions, workers=workers)
        flags = np.zeros(60, dtype=bool)
        stream = random_stream(
            rng, positions, flags, 10, flag_p=0.5, jump_p=0.15
        )
        try:
            drive_twins(single, sharded, stream)
        finally:
            sharded.close()

    @pytest.mark.parametrize("workers", TOPOLOGIES)
    def test_shard_crossing_teleports_identity(self, workers):
        """Movers that jump across shard boxes every tick still match."""
        rng = np.random.default_rng(5)
        positions = rng.random((50, 2))
        single, sharded = make_pair(positions, workers=workers)
        flags = np.zeros(50, dtype=bool)
        try:
            for _ in range(8):
                for j in rng.choice(50, size=20, replace=False):
                    j = int(j)
                    positions[j] = rng.random(2)  # anywhere in the cube
                    flags[j] = rng.random() < 0.5
                    update = QosUpdate(
                        j, tuple(positions[j]), bool(flags[j])
                    )
                    single.ingest(update)
                    sharded.ingest(update)
                assert_same_tick(single.end_tick(), sharded.end_tick())
        finally:
            sharded.close()

    @pytest.mark.parametrize("workers", TOPOLOGIES)
    def test_churn_identity(self, workers):
        """Join/leave churn mixed into the stream still matches.

        Freed ids are recycled LIFO: the single service's transition is
        row-indexed, so a flagged id must stay below the row count, and
        the store hands freed rows back LIFO — the harness mirrors that
        order so recycled ids land on recycled rows.  The sharded
        service has no such constraint (its ids are global keys), but
        the twin drive needs a stream both sides accept."""
        rng = np.random.default_rng(7)
        n = 48
        positions = rng.random((n, 2))
        single, sharded = make_pair(positions, workers=workers)
        flags = {j: False for j in range(n)}
        pos = {j: positions[j].copy() for j in range(n)}
        free_ids: list = []
        try:
            for _ in range(10):
                alive = sorted(pos)
                gone = int(rng.choice(alive))
                single.leave(gone)
                sharded.leave(gone)
                del pos[gone], flags[gone]
                free_ids.append(gone)
                if rng.random() < 0.8:
                    j = free_ids.pop()
                    p = rng.random(2)
                    f = bool(rng.random() < 0.5)
                    single.join(j, p, f)
                    sharded.join(j, tuple(p), f)
                    pos[j] = p
                    flags[j] = f
                for j in rng.choice(sorted(pos), size=12, replace=False):
                    j = int(j)
                    pos[j] = np.clip(
                        pos[j] + rng.normal(0, 0.03, 2), 0, 1
                    )
                    flags[j] = rng.random() < 0.5
                    update = QosUpdate(j, tuple(pos[j]), bool(flags[j]))
                    single.ingest(update)
                    sharded.ingest(update)
                assert_same_tick(single.end_tick(), sharded.end_tick())
                assert sharded.n == single.store.n
                # Owner map stays consistent with the stores.
                for j in pos:
                    s = sharded.shard_of(j)
                    if workers == "inline":
                        assert sharded.handles[s].inner.store.row_of(j) >= 0
                assert sorted(sharded.flagged_devices()) == sorted(
                    single.store.flagged_devices()
                )
        finally:
            sharded.close()

    @pytest.mark.parametrize("workers", TOPOLOGIES)
    def test_feed_snapshot_identity(self, workers):
        rng = np.random.default_rng(13)
        positions = rng.random((40, 2))
        single, sharded = make_pair(positions, workers=workers)
        try:
            for _ in range(6):
                positions = np.clip(
                    positions + rng.normal(0, 0.02, positions.shape), 0, 1
                )
                flags = rng.random(40) < 0.4
                assert_same_tick(
                    single.feed_snapshot(positions, flags),
                    sharded.feed_snapshot(positions, flags),
                )
        finally:
            sharded.close()

    def test_calm_stream_reuses_cached_verdicts(self):
        """On a calm stream the sharded service reuses verdicts too —
        and the recompute/reuse split matches the single service (both
        key their caches by global device id)."""
        rng = np.random.default_rng(3)
        positions = rng.random((60, 2))
        single, sharded = make_pair(positions)
        flags = np.zeros(60, dtype=bool)
        flags[rng.choice(60, size=25, replace=False)] = True
        reused_total = 0
        try:
            out_s = single.feed_snapshot(positions, flags)
            out_h = sharded.feed_snapshot(positions, flags)
            assert_same_tick(out_s, out_h)
            for _ in range(5):
                movers = rng.choice(60, size=4, replace=False)
                positions[movers] = np.clip(
                    positions[movers] + rng.normal(0, 0.01, (4, 2)), 0, 1
                )
                out_s = single.feed_snapshot(positions, flags)
                out_h = sharded.feed_snapshot(positions, flags)
                assert_same_tick(out_s, out_h)
                assert sorted(out_h.recomputed) == sorted(out_s.recomputed)
                assert sorted(out_h.reused) == sorted(out_s.reused)
                reused_total += len(out_h.reused)
            assert reused_total > 0
        finally:
            sharded.close()


# Cells per axis at cell = r * 4/3: internal boundaries sit at
# multiples of 1/grid-axis in cell space; the cluster strategies below
# aim device clouds at those seams and the centre corner.
@st.composite
def boundary_scenario(draw):
    """A population hugging shard seams plus cross-seam move vectors."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n_clusters = draw(st.integers(min_value=2, max_value=4))
    ticks = draw(st.integers(min_value=3, max_value=5))
    return seed, n_clusters, ticks


class TestHaloCorrectness:
    """Hypothesis sweep of the halo-exchange soundness argument.

    Devices are planted in tight clusters straddling the internal shard
    seams of a 2x2 tiling — including the centre corner cell region
    shared by all four shards — and then random-walked across the seams
    with occasional teleports.  If the halo band were one ring too thin
    or the boundary filter dropped a needed row, a verdict near a seam
    would diverge from the single-service reference.
    """

    @settings(max_examples=12, deadline=None)
    @given(boundary_scenario())
    def test_seam_clusters_and_crossers_match_single_service(self, scn):
        seed, n_clusters, ticks = scn
        rng = np.random.default_rng(seed)
        # Seams of the 2x2 tiling over [0,1]^2: x=0.5, y=0.5; the
        # centre (0.5, 0.5) is the corner shared by all four shards.
        anchors = [(0.5, 0.5)]  # corner cell cluster, always present
        for _ in range(n_clusters - 1):
            t = rng.random()
            anchors.append(
                (0.5, t) if rng.random() < 0.5 else (t, 0.5)
            )
        chunks = []
        for ax, ay in anchors:
            pts = np.array([ax, ay]) + rng.normal(0, 0.06, (12, 2))
            chunks.append(np.clip(pts, 0, 1))
        positions = np.concatenate(chunks)
        n = len(positions)
        single, sharded = make_pair(positions.copy(), shards=4)
        flags = np.zeros(n, dtype=bool)
        try:
            for _ in range(ticks):
                movers = rng.choice(n, size=n // 2, replace=False)
                for j in movers:
                    j = int(j)
                    if rng.random() < 0.2:
                        # Teleport across the seam: reflect about 0.5
                        # on one axis so the device changes shards.
                        axis = int(rng.random() < 0.5)
                        positions[j, axis] = np.clip(
                            1.0 - positions[j, axis]
                            + rng.normal(0, 0.02),
                            0,
                            1,
                        )
                    else:
                        positions[j] = np.clip(
                            positions[j] + rng.normal(0, 0.02, 2), 0, 1
                        )
                    flags[j] = rng.random() < 0.6
                    update = QosUpdate(
                        j, tuple(positions[j]), bool(flags[j])
                    )
                    single.ingest(update)
                    sharded.ingest(update)
                assert_same_tick(single.end_tick(), sharded.end_tick())
        finally:
            sharded.close()


class TestHaloBandTolerance:
    """The halo band is the tracker's ``rings`` and needs no spare ring.

    With ``r = 1/32`` (cell ``1/16``, exact in binary) two shards split
    the 17 cells per axis at cell 9.  Device 0 sits in cell 8, the last
    of shard 0's box; device 3 sits exactly ``rings = 3`` cells away in
    shard 1, at Chebyshev distance ``4r + 0.5e-12`` — beyond ``4r`` but
    inside the indexes' ``1e-12`` query tolerance.  Devices 1 and 2 sit
    ``2r`` from device 0, so ``{1, 2, 3}`` is a consistent motion that
    turns device 0's verdict from massive to unresolved: the shard
    owning device 0 must see device 3 through its halo.
    """

    R = 1.0 / 32
    EPS = 0.5e-12

    def _positions(self, with_far):
        x0 = 0.5625 - self.EPS  # cell 8; the seam is at 9/16
        offsets = [0.0, 2 * self.R, 2 * self.R]
        if with_far:
            offsets.append(4 * self.R + self.EPS)  # cell 11
        fleet = [(x0 + dx, 0.3) for dx in offsets]
        filler = [(0.1, 0.9), (0.9, 0.9), (0.1, 0.1), (0.9, 0.1)]
        return np.array(fleet + filler), len(fleet)

    def _tick(self, service, positions, movers):
        # The cluster moves as one and raises its flags.
        for device in range(movers):
            moved = positions[device] + np.array([0.0, 0.2])
            service.ingest(QosUpdate(device, tuple(moved), True))
        return service.end_tick()

    @pytest.mark.parametrize("workers", TOPOLOGIES)
    def test_device_at_4r_plus_tolerance_across_the_seam(self, workers):
        cfg = ServiceConfig(r=self.R, tau=2)
        positions, movers = self._positions(with_far=True)
        x = positions[:movers, 0]
        assert int(np.floor(x[0] / cfg.cell)) == 8
        assert int(np.floor(x[3] / cfg.cell)) == 11
        assert 4 * self.R < x[3] - x[0] <= 4 * self.R + 1e-12
        single, sharded = make_pair(positions, cfg, shards=2, workers=workers)
        try:
            assert sharded._map.halo_rings == 3
            want = self._tick(single, positions, movers)
            assert want.verdicts[0].anomaly_type.name == "UNRESOLVED"
            assert_same_tick(want, self._tick(sharded, positions, movers))
        finally:
            sharded.close()
        # Without device 3, device 0 is massive: the far device decides.
        positions, movers = self._positions(with_far=False)
        alone = OnlineCharacterizationService(positions, cfg)
        verdict = self._tick(alone, positions, movers).verdicts[0]
        assert verdict.anomaly_type.name == "MASSIVE"


class TestDirtyRegionCut:
    """Each shard's ``verdict`` command carries the dirty union cut to
    the boxes within ``halo_rings`` cells of its box.

    The layout of :class:`TestHaloBandTolerance`: two shards split the
    17 cells per axis at cell 9, and ``halo_rings`` is 3.  Device 0 sits
    in cell 8, the last of shard 0's box.  Device 1 sits in cell 11,
    just inside shard 0's reach (key distance 3, Chebyshev distance
    ``4r + 0.5e-12`` from device 0); device 2 in cell 12, just outside
    (key distance 4).  Both walk along ``y`` with their flags raised, so
    each tick dirties their cells: shard 0's cut must hold cell 11 and
    not cell 12, and device 0's verdict is recomputed every tick, as in
    the single service.
    """

    R = 1.0 / 32
    EPS = 0.5e-12

    def _positions(self):
        x0 = 0.5625 - self.EPS  # cell 8; the seam is at 9/16
        fleet = [(x0, 0.3), (x0 + 4 * self.R + self.EPS, 0.3), (0.75, 0.3)]
        filler = [(0.1, 0.9), (0.9, 0.9), (0.1, 0.1), (0.9, 0.1)]
        return np.array(fleet + filler)

    def _tick(self, service, positions, step):
        service.ingest(QosUpdate(0, tuple(positions[0]), True))
        for device in (1, 2):
            moved = positions[device] + np.array([0.0, 0.01 * step])
            service.ingest(QosUpdate(device, tuple(moved), True))
        return service.end_tick()

    @pytest.mark.parametrize("workers", TOPOLOGIES)
    def test_boxes_just_inside_reach_are_sent_and_just_outside_are_not(
        self, workers
    ):
        cfg = ServiceConfig(r=self.R, tau=2)
        positions = self._positions()
        cells = np.floor(positions[:3] / cfg.cell).astype(int)[:, 0].tolist()
        assert cells == [8, 11, 12]
        single, sharded = make_pair(positions, cfg, shards=2, workers=workers)
        sent = []
        phase = sharded._phase

        def spy(commands, **kwargs):
            sent.extend(c for c in commands if c[0] == "verdict")
            return phase(commands, **kwargs)

        sharded._phase = spy
        try:
            assert sharded._map.halo_rings == 3
            for step in range(1, 5):
                want = self._tick(single, positions, step)
                got = self._tick(sharded, positions, step)
                assert_same_tick(want, got)
                assert got.recomputed == want.recomputed
                assert 0 in got.recomputed
                assert got.dirty_cells == want.dirty_cells
        finally:
            sharded.close()
        assert len(sent) == 8  # two shards, four ticks
        for shard, (_, _, payload) in zip([0, 1] * 4, sent):
            columns = set(payload["dirty"].keys[:, 0].tolist())
            cell_columns = set(payload["dirty"].cells[:, 0].tolist())
            if shard == 0:
                assert 11 in columns and 12 not in columns
                assert 11 in cell_columns and 12 not in cell_columns
            else:
                assert {11, 12} <= columns and {11, 12} <= cell_columns


class TestHaloBand:
    """A shard's ``halo`` reply: its flagged rows within reach of a peer,
    with global ids, cell keys and both endpoints copied out."""

    def _moved(self, service, positions):
        """Move every device a little and raise every flag, one tick."""
        moved = np.clip(positions + 0.01, 0.0, 1.0 - 1e-9)
        service.ingest_many(
            QosUpdate(j, tuple(pos), True) for j, pos in enumerate(moved)
        )
        service.end_tick()
        return moved

    def test_lone_shard_band_is_empty(self):
        positions = np.random.default_rng(3).random((32, 2))
        service = OnlineCharacterizationService(positions.copy(), CFG)
        self._moved(service, positions)
        (handle,) = service.handles
        band = handle.inner.halo_band(service.topology)
        assert band["ids"].shape == (0,)
        assert band["keys"].shape == (0, 2)
        assert band["prev"].shape == band["cur"].shape == (0, 2)

    def test_band_is_flagged_boundary_rows_with_both_endpoints(self):
        # A fine cell, so each box is far wider than its boundary band.
        cfg = ServiceConfig(r=0.01, tau=2)
        positions = np.random.default_rng(4).random((96, 2))
        with ShardedService(
            positions.copy(), cfg, topology_shards=4
        ) as service:
            moved = self._moved(service, positions)
            shard_map = service.topology
            keys = np.floor(moved / cfg.cell).astype(np.int64)
            owner = shard_map.shard_of_keys(keys)
            banded = 0
            for handle in service.handles:
                band = handle.inner.halo_band(shard_map)
                owned = np.flatnonzero(owner == handle.shard)
                want = owned[shard_map.boundary_mask(keys[owned], handle.shard)]
                order = np.argsort(band["ids"])
                ids = band["ids"][order]
                assert ids.tolist() == want.tolist()
                assert np.array_equal(band["keys"][order], keys[ids])
                assert np.array_equal(band["prev"][order], positions[ids])
                assert np.array_equal(band["cur"][order], moved[ids])
                banded += ids.size
            assert 0 < banded < len(positions)


class TestShardedServiceSurface:
    def test_partition_and_sizes(self):
        rng = np.random.default_rng(1)
        positions = rng.random((30, 2))
        with ShardedService(positions, CFG, topology_shards=4) as svc:
            assert svc.n == 30
            assert svc.dim == 2
            assert svc.n_shards == 4
            assert sum(svc.shard_sizes()) == 30
            for j in range(30):
                s = svc.shard_of(j)
                assert 0 <= s < 4
                assert svc.handles[s].inner.store.row_of(j) >= 0

    def test_empty_shards_are_harmless(self):
        # All devices in one corner: three of four shards stay empty.
        positions = np.full((10, 2), 0.05) + np.arange(10)[:, None] * 1e-3
        with ShardedService(positions, CFG, topology_shards=4) as svc:
            sizes = svc.shard_sizes()
            assert sum(sizes) == 10
            assert sizes.count(0) == 3
            flags = np.ones(10, dtype=bool)
            out = svc.feed_snapshot(positions, flags)
            assert out.flagged == tuple(range(10))
            assert set(out.verdicts) == set(range(10))

    def test_migration_keeps_owner_map_consistent(self):
        rng = np.random.default_rng(2)
        positions = rng.random((20, 2))
        with ShardedService(positions, CFG, topology_shards=4) as svc:
            before = [svc.shard_of(j) for j in range(20)]
            # Teleport everyone; most change shards.
            moved = 1.0 - positions
            svc.feed_snapshot(moved, np.zeros(20, dtype=bool))
            changed = 0
            for j in range(20):
                s = svc.shard_of(j)
                assert svc.handles[s].inner.store.row_of(j) >= 0
                changed += s != before[j]
            assert changed > 0
            assert sum(svc.shard_sizes()) == 20

    def test_stage_seconds_covers_shard_stages(self):
        rng = np.random.default_rng(4)
        positions = rng.random((30, 2))
        with ShardedService(positions, CFG, topology_shards=2) as svc:
            flags = np.ones(30, dtype=bool)
            out = svc.feed_snapshot(positions, flags)
            for stage in ("index-update", "shard-migrate", "dirty-region",
                          "halo-exchange", "transition-build", "verdict",
                          "sinks"):
                assert stage in out.stage_seconds, stage

    def test_shard_metrics_are_labelled_per_shard(self):
        rng = np.random.default_rng(6)
        positions = rng.random((24, 2))
        with ShardedService(positions, CFG, topology_shards=4) as svc:
            svc.feed_snapshot(positions, np.ones(24, dtype=bool))
            from repro.obs.export import render_prometheus

            text = render_prometheus(svc.tracer.registry)
            assert "repro_shard_devices" in text
            assert 'shard="0"' in text and 'shard="3"' in text
            assert "repro_shard_stage_seconds" in text
            # In-parent shards are the topology here, not a degradation.
            degraded = svc.tracer.registry.gauge(
                "repro_topology_degraded_shards"
            )
            assert degraded.value == 0

    def test_snapshot_frame_validation(self):
        rng = np.random.default_rng(8)
        positions = rng.random((10, 2))
        with ShardedService(positions, CFG, topology_shards=2) as svc:
            with pytest.raises(DimensionMismatchError):
                svc.feed_snapshot(
                    rng.random((10, 3)), np.zeros(10, dtype=bool)
                )
            with pytest.raises(DimensionMismatchError):
                svc.feed_snapshot(
                    rng.random((10, 2)), np.zeros(9, dtype=bool)
                )

    def test_duplicate_join_and_unknown_leave_raise(self):
        positions = np.random.default_rng(9).random((6, 2))
        with ShardedService(positions, CFG, topology_shards=2) as svc:
            with pytest.raises(ConfigurationError):
                svc.join(3, (0.5, 0.5))
            with pytest.raises(ConfigurationError):
                svc.shard_of(99)


class TestShardedRecovery:
    #: Where the shards run; the process twin below reruns every test.
    WORKERS = "inline"

    def _service(self, positions, shards):
        return ShardedService(
            positions, CFG, topology_shards=shards,
            topology_workers=self.WORKERS,
        )

    def _run_stream(self, svc, rng, positions, flags, ticks):
        outs = []
        for _ in range(ticks):
            movers = rng.choice(len(positions), size=10, replace=False)
            positions[movers] = np.clip(
                positions[movers]
                + rng.normal(0, 0.02, (len(movers), 2)),
                0,
                1,
            )
            flags[movers] = rng.random(len(movers)) < 0.5
            outs.append(svc.feed_snapshot(positions, flags))
        return outs

    def test_kill_and_restore_resumes_verdict_identically(self, tmp_path):
        rng = np.random.default_rng(21)
        base = rng.random((40, 2))
        flags0 = np.zeros(40, dtype=bool)

        # Reference: one uninterrupted sharded run, recording a
        # replayable stream (seeded, so both runs see the same frames).
        def stream(seed, positions, flags, svc, ticks):
            r = np.random.default_rng(seed)
            return self._run_stream(svc, r, positions, flags, ticks)

        ref_pos, ref_flags = base.copy(), flags0.copy()
        with self._service(ref_pos.copy(), 4) as ref:
            ref_out = stream(99, ref_pos, ref_flags, ref, 8)

        # Interrupted run: checkpoint every 2 ticks, "crash" after 5.
        pos, flags = base.copy(), flags0.copy()
        svc = self._service(pos.copy(), 4)
        writer = CheckpointWriter(svc, tmp_path, every=2, keep=3)
        svc.add_sink(writer)
        r = np.random.default_rng(99)
        first = self._run_stream(svc, r, pos, flags, 5)
        svc.close()
        for want, got in zip(ref_out[:5], first):
            assert_same_tick(want, got)

        latest = latest_checkpoint(tmp_path)
        assert latest is not None
        restored = restore_sharded_service(
            latest, topology_workers=self.WORKERS
        )
        try:
            assert restored.current_tick == 4
            # Replay tick 5 (lost after the checkpoint), then continue.
            pos2, flags2 = base.copy(), flags0.copy()
            r2 = np.random.default_rng(99)
            replayed = []
            for tick in range(8):
                movers = r2.choice(40, size=10, replace=False)
                pos2[movers] = np.clip(
                    pos2[movers] + r2.normal(0, 0.02, (10, 2)), 0, 1
                )
                flags2[movers] = r2.random(10) < 0.5
                if tick >= 4:
                    replayed.append(
                        restored.feed_snapshot(pos2, flags2)
                    )
            for want, got in zip(ref_out[4:], replayed):
                assert_same_tick(want, got)
        finally:
            restored.close()

    def test_checkpoint_round_trip_preserves_state(self, tmp_path):
        rng = np.random.default_rng(31)
        positions = rng.random((24, 2))
        flags = np.zeros(24, dtype=bool)
        with self._service(positions.copy(), 4) as svc:
            self._run_stream(svc, rng, positions, flags, 3)
            path = svc.checkpoint(tmp_path / "ck.npz")
            want_verdicts = svc.verdicts
            want_sizes = svc.shard_sizes()
        ckpt = load_checkpoint(path)
        assert ckpt.tick == 3
        assert ckpt.topology == "sharded"
        assert len(ckpt.parts) == 4
        restored = restore_sharded_service(
            ckpt, topology_workers=self.WORKERS
        )
        try:
            assert restored.current_tick == 3
            assert restored.shard_sizes() == want_sizes
            assert set(restored.verdicts) == set(want_verdicts)
            for device, want in want_verdicts.items():
                got = restored.verdicts[device]
                assert got.anomaly_type == want.anomaly_type
                assert got.witness == want.witness
        finally:
            restored.close()

    def test_list_latest_and_prune(self, tmp_path):
        rng = np.random.default_rng(51)
        positions = rng.random((12, 2))
        with self._service(positions.copy(), 2) as svc:
            flags = np.zeros(12, dtype=bool)
            for _ in range(4):
                svc.feed_snapshot(positions, flags)
                save_checkpoint(
                    svc, checkpoint_path(tmp_path, svc.current_tick)
                )
        found = list_checkpoints(tmp_path)
        assert len(found) == 4
        assert latest_checkpoint(tmp_path) == found[-1]
        assert latest_checkpoint(tmp_path) == checkpoint_path(tmp_path, 4)
        removed = prune_checkpoints(tmp_path, keep=2)
        assert removed == 2
        # One file per checkpoint: nothing else is left behind.
        assert sorted(tmp_path.iterdir()) == found[2:]


class TestShardedRecoveryProcess(TestShardedRecovery):
    WORKERS = "process"


def membership_stream(initial, ticks, seed):
    """Per-tick ``(leaves, joins, events)`` over devices ``0..n-1`` at
    ``initial``, with id churn far past ``n``.

    Every odd tick one resident leaves and a device with an id from
    ``10**12`` up joins; ten live devices then report a small move.
    """
    rng = np.random.default_rng(seed)
    where = dict(enumerate(initial.copy()))
    fresh = 10**12
    out = []
    for tick in range(ticks):
        leaves, joins = [], []
        if tick % 2:
            gone = sorted(where)[int(rng.integers(len(where)))]
            del where[gone]
            leaves.append(gone)
            where[fresh] = rng.random(2)
            joins.append((fresh, tuple(where[fresh]), bool(rng.random() < 0.5)))
            fresh += 1
        events = []
        for j in rng.choice(sorted(where), size=10, replace=False).tolist():
            where[j] = np.clip(where[j] + rng.normal(0, 0.02, 2), 0, 1)
            events.append(QosUpdate(j, tuple(where[j]), bool(rng.random() < 0.4)))
        out.append((leaves, joins, events))
    return out


def apply_membership_tick(svc, tick):
    leaves, joins, events = tick
    for device in leaves:
        svc.leave(device)
    for device, position, flagged in joins:
        svc.join(device, position, flagged)
    svc.ingest_many(events)
    return svc.end_tick()


class TestOwnerColumns:
    """The front door's device→shard map: sorted id and shard columns."""

    WORKERS = "inline"

    def _service(self, positions, shards=2):
        return ShardedService(
            positions, CFG, topology_shards=shards, topology_workers=self.WORKERS
        )

    def test_huge_id_joins_leaves_and_joins_again(self):
        positions = np.random.default_rng(61).random((20, 2))
        big = 10**12
        with self._service(positions) as svc:
            tracemalloc.start()
            try:
                shard = svc.join(big, (0.9, 0.9), flagged=True)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # An id-indexed column would need terabytes.
            assert peak < 1 << 20
            assert svc.shard_of(big) == shard
            assert svc.n == 21
            svc.ingest(QosUpdate(big, (0.88, 0.9), True))
            assert big in svc.end_tick().flagged
            assert svc.leave(big) == shard
            with pytest.raises(ConfigurationError):
                svc.shard_of(big)
            svc.ingest(QosUpdate(big, (0.88, 0.9), True))
            assert big not in svc.end_tick().flagged
            assert svc.rejected == {"unknown-device": 1}
            again = svc.join(big, (0.1, 0.1))
            assert svc.shard_of(big) == again != shard
            with pytest.raises(ConfigurationError, match="already stored"):
                svc.join(big, (0.2, 0.2))
            assert svc.n == 21
            assert sum(svc.shard_sizes()) == 21

    def test_shard_of_agrees_with_shard_sizes_after_migrations(self):
        rng = np.random.default_rng(62)
        positions = rng.random((60, 2))
        flags = rng.random(60) < 0.3
        moved = 0
        with self._service(positions, shards=4) as svc:
            for _ in range(5):
                before = [svc.shard_of(j) for j in range(60)]
                positions = np.clip(positions + rng.normal(0, 0.15, positions.shape), 0, 1)
                svc.feed_snapshot(positions, flags)
                owners = [svc.shard_of(j) for j in range(60)]
                moved += sum(a != b for a, b in zip(before, owners))
                assert tuple(np.bincount(owners, minlength=4).tolist()) == svc.shard_sizes()
                keys = np.floor(positions / CFG.cell).astype(np.int64)
                assert owners == svc.topology.shard_of_keys(keys).tolist()
        assert moved > 0

    def test_event_fed_restore_routes_verdict_identically(self, tmp_path):
        # Dense enough around the shard seam for massive verdicts.
        initial = 0.35 + 0.3 * np.random.default_rng(63).random((40, 2))
        stream = membership_stream(initial, 8, seed=63)
        with self._service(initial.copy()) as reference:
            want = [apply_membership_tick(reference, tick) for tick in stream]
        with self._service(initial.copy()) as head:
            for tick in stream[:3]:
                apply_membership_tick(head, tick)
            path = head.checkpoint(tmp_path / "ck.npz")
        restored = restore_sharded_service(path, topology_workers=self.WORKERS)
        with restored:
            for tick, expected in zip(stream[3:], want[3:]):
                assert_same_tick(expected, apply_membership_tick(restored, tick))
                assert sum(restored.shard_sizes()) == restored.n


class TestOwnerColumnsProcess(TestOwnerColumns):
    WORKERS = "process"


class TestProcessTopology:
    """Contracts specific to per-shard processes over shm partitions."""

    @pytest.mark.parametrize("workers", TOPOLOGIES)
    def test_halo_delay_stalls_barrier_never_corrupts(self, workers):
        """Chaos-delaying one shard's ``halo`` reply slows the tick's
        barrier but every consumer still gets the right band —
        verdicts stay identical to the fault-free single service.  The
        fault is drawn once, where it takes effect, on either host."""
        from repro.robust.chaos import FaultPlan, inject

        rng = np.random.default_rng(17)
        positions = rng.random((48, 2))
        single, sharded = make_pair(positions, workers=workers)
        flags = np.zeros(48, dtype=bool)
        stream = random_stream(
            rng, positions, flags, 4, flag_p=0.5, jump_p=0.1
        )
        plan = FaultPlan(halo_delay_at={2: 0}, delay_seconds=0.2)
        try:
            with inject(plan) as injector:
                drive_twins(single, sharded, stream)
            assert injector.injected.get("halo_delay") == 1
        finally:
            sharded.close()

    def test_halo_stall_past_deadline_respawns_once(self):
        """The stall decorates only the ``halo`` command on the wire: the
        missed deadline respawns shard 0 once, and the resent command —
        the plain one — answers in time, so the shard is not degraded."""
        from repro.online.procshard import _ProcessShardHandle

        handles = run_halo_stall_past_deadline().handles
        assert all(isinstance(h, _ProcessShardHandle) for h in handles)
        assert [h.respawns for h in handles] == [1, 0]

    def test_kill_chaos_respawns_never_diverges(self):
        """Scheduled kills of shard children mid-verdict force respawns
        (and possibly degraded inline shards) — never wrong answers."""
        from repro.robust.chaos import FaultPlan, inject

        rng = np.random.default_rng(29)
        positions = rng.random((56, 2))
        cfg = ServiceConfig(
            r=0.05, tau=2, dispatch_deadline=5.0, dispatch_retries=2
        )
        single, sharded = make_pair(positions, cfg=cfg, workers="process")
        flags = np.zeros(56, dtype=bool)
        stream = random_stream(
            rng, positions, flags, 6, flag_p=0.5, jump_p=0.15
        )
        plan = FaultPlan(kill_at={2: 1}, kill_after_at={4: 3})
        try:
            with inject(plan) as injector:
                drive_twins(single, sharded, stream)
            assert injector.injected.get("kill") == 1
            assert injector.injected.get("kill_after") == 1
            # The pre-send kill guarantees at least one respawn; the
            # post-send kill races the child's reply and may be absorbed.
            assert sum(h.respawns for h in sharded.handles
                       if hasattr(h, "respawns")) >= 1
        finally:
            sharded.close()

    @pytest.mark.parametrize("retries", [0, 2])
    def test_killed_child_leaves_peer_segments_alive(self, retries):
        """A shard child killed between ticks takes only itself down.

        Every child must share the parent's resource tracker: a child
        with a tracker of its own has it unlink, on the kill, every
        segment the child had attached — the front door's frame board —
        and the respawn (or the degraded fallback) ticks into a missing
        segment.  Runs in a fresh interpreter, because a
        tracker some earlier test started would hide the defect."""
        script = """
import sys
import numpy as np
from repro.online import OnlineCharacterizationService, ServiceConfig
from repro.online import ShardedService
from repro.online.procshard import _InlineShardHandle

retries = int(sys.argv[1])
cfg = ServiceConfig(r=0.05, tau=2, dispatch_deadline=5.0,
                    dispatch_retries=retries)
rng = np.random.default_rng(43)
positions = rng.random((40, 2))
single = OnlineCharacterizationService(positions.copy(), cfg)
sharded = ShardedService(positions.copy(), cfg, topology_shards=2,
                         topology_workers="process")

def view(tick):
    return tick.flagged, {
        j: (v.anomaly_type, v.rule, v.witness)
        for j, v in tick.verdicts.items()
    }

try:
    for tick in range(6):
        if tick == 2:
            sharded.handles[0].terminate_child()
        positions = np.clip(
            positions + rng.normal(0, 0.02, positions.shape), 0, 1
        )
        flags = rng.random(40) < 0.5
        want = view(single.feed_snapshot(positions, flags))
        assert view(sharded.feed_snapshot(positions, flags)) == want, tick
    handle = sharded.handles[0]
    if retries:
        assert handle.respawns == 1
    else:
        assert isinstance(handle, _InlineShardHandle)
finally:
    sharded.close()
print("identical")
"""
        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        done = subprocess.run(
            [sys.executable, "-c", script, str(retries)],
            cwd=str(repo_root),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "identical"

    def test_min_shard_devices_collapses_and_warns(self):
        positions = np.random.default_rng(33).random((16, 2))
        with pytest.warns(RuntimeWarning, match="collaps"):
            svc = ShardedService(
                positions, CFG, topology_shards=4,
                min_shard_devices=8,
            )
        try:
            assert svc.n_shards == 2
            assert svc.n == 16
        finally:
            svc.close()
        # Large-enough fleets keep the requested shard count, silently.
        big = np.random.default_rng(34).random((64, 2))
        with ShardedService(big, CFG, topology_shards=4,
                            min_shard_devices=8) as svc:
            assert svc.n_shards == 4

    def test_process_checkpoint_restores_under_either_topology(
        self, tmp_path
    ):
        rng = np.random.default_rng(37)
        positions = rng.random((40, 2))
        flags = np.zeros(40, dtype=bool)
        svc = ShardedService(
            positions.copy(), CFG, topology_shards=4,
            topology_workers="process",
        )
        history = []
        pos = positions.copy()
        try:
            for _ in range(3):
                movers = rng.choice(40, size=10, replace=False)
                pos[movers] = np.clip(
                    pos[movers] + rng.normal(0, 0.02, (10, 2)), 0, 1
                )
                flags[movers] = rng.random(10) < 0.5
                history.append(svc.feed_snapshot(pos, flags))
            path = svc.checkpoint(tmp_path / "ck.npz")
            want = svc.verdicts
            sizes = svc.shard_sizes()
        finally:
            svc.close()
        for workers in TOPOLOGIES:
            restored = restore_sharded_service(
                path, topology_workers=workers
            )
            try:
                assert restored.topology_workers == workers
                assert restored.current_tick == 3
                assert restored.shard_sizes() == sizes
                got = restored.verdicts
                assert set(got) == set(want)
                for device, v in want.items():
                    assert got[device].anomaly_type == v.anomaly_type
                    assert got[device].witness == v.witness
                # And the restored service keeps ticking identically.
                nxt = np.clip(pos + 0.005, 0, 1)
                out = restored.feed_snapshot(nxt, flags)
                assert out.tick == 4
            finally:
                restored.close()
