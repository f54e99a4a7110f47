"""The per-tick frame path: column folds equal the row-wise reductions.

Every full-frame pass on the tick path — frame validation, the snapshot
diff and the detector bank's raise count — folds one column at a time
(or takes a min/max fast path) instead of reducing along ``axis=1``.
The row-wise reductions are kept here as the oracle: on random frames
seeded with NaN, ±inf, signed zeros, the cube's edges and the first
float past 1, the folds must give the same masks, the same rejection
counts, the same repaired store rows, the same diffs and the same flags.

Also here: the unit-cube check refuses NaN, and ``feed_snapshot``
honours ``ServiceConfig.validation`` on every service topology.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, UnknownDeviceError
from repro.core.transition import Snapshot
from repro.detection.banks import FAMILIES, DetectorSpec
from repro.obs.metrics import _reset_global_registry
from repro.online import (
    OnlineCharacterizationService,
    QosUpdate,
    ServiceConfig,
    ShardedService,
)
from repro.online.replay import diff_rows
from repro.online.service import row_faults
from repro.online.store import DeviceStateStore

#: Cell values the random frames are salted with.
SPECIALS = np.array(
    [
        np.nan,
        np.inf,
        -np.inf,
        -0.0,
        0.0,
        1.0,
        np.nextafter(1.0, 2.0),
        -np.nextafter(0.0, 1.0),
        4.2,
    ]
)


@pytest.fixture(autouse=True)
def fresh_registry():
    _reset_global_registry()
    yield
    _reset_global_registry()


def oracle_faults(arr):
    """The row-wise classification the folds replaced."""
    nan = np.isnan(arr).any(axis=1)
    inf = np.isinf(arr).any(axis=1)
    finite = ~(nan | inf)
    outside = finite & ((arr < 0.0).any(axis=1) | (arr > 1.0).any(axis=1))
    return nan, inf, outside


def salted_frame(rng, n, d, rate):
    """A random ``(n, d)`` frame with ~``rate`` of its cells special."""
    frame = rng.random((n, d))
    hit = rng.random((n, d)) < rate
    frame[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return frame


def oracle_counts(arr):
    nan, inf, outside = oracle_faults(arr)
    counts = {
        "nan": int(nan.sum()),
        "inf": int(inf.sum()),
        "out-of-range": int(outside.sum()),
    }
    return {reason: c for reason, c in counts.items() if c}


class TestRowFaults:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rate", [0.0, 0.01, 0.2, 0.7])
    def test_masks_equal_the_row_wise_oracle(self, d, rate):
        rng = np.random.default_rng(100 * d + int(rate * 100))
        for _ in range(20):
            frame = salted_frame(rng, 64, d, rate)
            nan, inf, outside = oracle_faults(frame)
            faults = row_faults(frame)
            if faults is None:
                assert not (nan | inf | outside).any()
                continue
            assert np.array_equal(faults.nan, nan)
            assert np.array_equal(faults.inf, inf)
            assert np.array_equal(faults.out_of_range, outside)
            assert np.array_equal(faults.bad, nan | inf | outside)

    def test_row_with_nan_and_inf_counts_under_both(self):
        frame = np.array([[np.nan, np.inf], [0.5, 0.5], [-np.inf, 7.0]])
        faults = row_faults(frame)
        seen = {}
        bad = faults.tally(lambda reason, c: seen.update({reason: c}))
        assert seen == {"nan": 1, "inf": 2, "out-of-range": 0}
        assert bad.tolist() == [True, False, True]

    @pytest.mark.parametrize(
        "frame",
        [
            np.empty((0, 2)),
            np.array([[0.0, 1.0], [-0.0, 0.5]]),
            np.full((5, 3), 0.5),
        ],
    )
    def test_clean_frames_take_the_fast_path(self, frame):
        assert row_faults(frame) is None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.5, -1e-12])
    def test_one_bad_cell_leaves_the_fast_path(self, value):
        frame = np.full((6, 2), 0.5)
        frame[2, 1] = value
        assert row_faults(frame).bad.tolist() == [
            False, False, True, False, False, False
        ]


def _raw_single(base, validation):
    return OnlineCharacterizationService(
        base,
        ServiceConfig(r=0.05, tau=2, validation=validation),
        detector=DetectorSpec("step", {"max_step": 0.2}),
    )


class TestServiceFramePathMatchesOracle:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sanitize_counts_and_repairs_like_the_oracle(self, d):
        rng = np.random.default_rng(7 + d)
        base = rng.random((40, d))
        with _raw_single(base, "sanitize") as service:
            want_rejected = {}
            for _ in range(6):
                frame = salted_frame(rng, 40, d, 0.05)
                nan, inf, outside = oracle_faults(frame)
                bad = nan | inf | outside
                before = service.store.current_positions(copy=True)
                service.feed_measurements(frame)
                for reason, c in oracle_counts(frame).items():
                    want_rejected[reason] = want_rejected.get(reason, 0) + c
                assert service.rejected == want_rejected
                want = frame.copy()
                want[bad] = before[bad]
                assert np.array_equal(
                    service.store.current_positions(), want
                )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_strict_counts_like_the_oracle(self, d):
        rng = np.random.default_rng(17 + d)
        with _raw_single(rng.random((40, d)), "strict") as service:
            want_rejected = {}
            for _ in range(6):
                frame = salted_frame(rng, 40, d, 0.02)
                counts = oracle_counts(frame)
                if counts:
                    with pytest.raises(ConfigurationError, match="strict"):
                        service.feed_measurements(frame)
                else:
                    service.feed_measurements(frame)
                for reason, c in counts.items():
                    want_rejected[reason] = want_rejected.get(reason, 0) + c
                assert service.rejected == want_rejected

    @pytest.mark.parametrize("shards", [0, 2])
    def test_ingest_batches_drop_the_oracle_rows(self, shards):
        rng = np.random.default_rng(3)
        base = rng.random((30, 2))
        cfg = ServiceConfig(r=0.05, tau=2)
        service = (
            ShardedService(base, cfg, topology_shards=shards)
            if shards
            else OnlineCharacterizationService(base, cfg)
        )
        with service:
            frame = salted_frame(rng, 30, 2, 0.1)
            flags = rng.random(30) < 0.2
            service.ingest_many(
                QosUpdate(j, tuple(frame[j]), bool(flags[j]))
                for j in range(30)
            )
            tick = service.end_tick()
            nan, inf, outside = oracle_faults(frame)
            assert service.rejected == oracle_counts(frame)
            assert tick.applied == int((~(nan | inf | outside)).sum())


class TestDiffRows:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_any_over_rows(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            prev = salted_frame(rng, 50, d, 0.1)
            cur = prev.copy()
            moved = rng.random((50, d)) < 0.2
            cur[moved] = salted_frame(rng, 50, d, 0.1)[moved]
            prev_flags = rng.random(50) < 0.3
            cur_flags = prev_flags.copy()
            for flags_change in (False, True):
                if flags_change:
                    cur_flags = rng.random(50) < 0.3
                rows, positions, flags = diff_rows(
                    prev, cur, prev_flags, cur_flags
                )
                want = np.nonzero(
                    np.any(prev != cur, axis=1) | (prev_flags != cur_flags)
                )[0]
                assert np.array_equal(rows, want)
                assert np.array_equal(positions, cur[want], equal_nan=True)
                assert np.array_equal(flags, cur_flags[want])

    def test_nan_cells_always_differ(self):
        prev = np.array([[np.nan, 0.5], [0.5, 0.5], [0.1, 0.2]])
        cur = prev.copy()
        flags = np.zeros(3, dtype=bool)
        rows, _, _ = diff_rows(prev, cur, flags, flags)
        assert rows.tolist() == [0]


#: One spec per array family, warm-ups short and thresholds tight enough
#: that several services of one device raise together.
BANK_SPECS = {
    "step": DetectorSpec("step", {"max_step": 0.08, "warmup": 2}),
    "band": DetectorSpec("band", {"low": 0.3, "high": 0.9, "warmup": 1}),
    "ewma": DetectorSpec("ewma", {"alpha": 0.3, "nsigma": 2.0, "warmup": 4}),
    "shewhart": DetectorSpec(
        "shewhart", {"window": 6, "nsigma": 1.8, "warmup": 3}
    ),
    "cusum": DetectorSpec(
        "cusum", {"threshold": 0.1, "drift": 0.005, "warmup": 5}
    ),
    "holt-winters": DetectorSpec(
        "holt-winters",
        {"alpha": 0.4, "beta": 0.2, "gamma": 0.3, "band": 2.0, "warmup": 4},
    ),
    "kalman": DetectorSpec("kalman", {"nsigma": 1.5, "warmup": 3}),
}


def test_bank_specs_cover_every_family():
    assert set(BANK_SPECS) == set(FAMILIES)


class TestBankRaiseCount:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_flags_equal_count_nonzero(self, family, d):
        rng = np.random.default_rng(d)
        spec = BANK_SPECS[family]
        for k in range(1, d + 1):
            bank = spec.bank(30, d, min_abnormal_services=k)
            multi = 0
            level = np.full((30, d), 0.5)
            for step in range(30):
                frame = np.clip(
                    level + rng.normal(0.0, 0.05, (30, d)), 0.0, 1.0
                )
                if step % 5 == 4:
                    jump = rng.random((30, d)) < 0.4
                    frame[jump] = rng.random(int(jump.sum()))
                out = bank.observe_batch(frame)
                raised = np.count_nonzero(out.abnormal, axis=1)
                assert np.array_equal(out.flags, raised >= k), (family, k)
                multi += int((raised >= 2).sum())
            if d > 1:
                assert multi, f"{family} never raised two services at once"

    @pytest.mark.parametrize("value", [np.nan, -1e-6, 1.0 + 1e-6, np.inf])
    def test_sample_check_refuses_bad_values(self, value):
        bank = BANK_SPECS["step"].bank(4, 2)
        frame = np.full((4, 2), 0.5)
        frame[1, 1] = value
        with pytest.raises(ConfigurationError):
            bank.observe_batch(frame)

    def test_sample_check_keeps_its_tolerance(self):
        bank = BANK_SPECS["step"].bank(2, 2)
        bank.observe_batch(np.array([[0.0, 1.0 + 1e-10], [0.5, 0.5]]))
        assert bank.samples_seen == 1


class TestUnitCubeRefusesNaN:
    def test_apply_rows_with_nan_and_seven_raises_unchanged(self):
        base = np.random.default_rng(0).random((8, 2))
        store = DeviceStateStore(base, cell=0.1)
        before = store.current_positions(copy=True)
        flags_before = np.array(store.flag_vector())
        with pytest.raises(ConfigurationError):
            store.apply_rows(
                np.array([2, 5]),
                np.array([[np.nan, 0.5], [0.5, 7.0]]),
                np.array([True, True]),
            )
        assert np.array_equal(store.current_positions(), before)
        assert np.array_equal(store.flag_vector(), flags_before)

    def test_snapshot_refuses_nan(self):
        with pytest.raises(ConfigurationError):
            Snapshot(np.array([[0.5, np.nan], [0.2, 0.3]]))

    def test_initial_positions_refuse_nan(self):
        base = np.random.default_rng(1).random((6, 2))
        base[3, 0] = np.nan
        with pytest.raises(ConfigurationError):
            DeviceStateStore(base, cell=0.1)
        with pytest.raises(ConfigurationError):
            OnlineCharacterizationService(base, ServiceConfig(r=0.05))


#: Every service topology the snapshot path runs on.
TOPOLOGIES = ("single", "inline", "process")


def _service(topology, base, validation):
    cfg = ServiceConfig(r=0.05, tau=2, validation=validation)
    if topology == "single":
        return OnlineCharacterizationService(base, cfg)
    return ShardedService(
        base, cfg, topology_shards=2, topology_workers=topology
    )


def stored_positions(service):
    """The service's current positions, indexed by device id."""
    if isinstance(service, ShardedService):
        return service._gather_current(service.n)
    return service.store.current_positions(copy=True)


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestFeedSnapshotValidation:
    def _poisoned(self, base):
        frame = base.copy()
        frame[:, 0] = np.clip(frame[:, 0] + 0.001, 0.0, 1.0)
        frame[3, 0] = np.nan
        frame[4, 1] = 7.0
        return frame

    def test_strict_counts_and_refuses_atomically(self, topology):
        base = np.random.default_rng(5).random((50, 2))
        with _service(topology, base, "strict") as service:
            flags = np.zeros(50, dtype=bool)
            flags[3] = True
            with pytest.raises(ConfigurationError, match="strict"):
                service.feed_snapshot(self._poisoned(base), flags)
            assert service.rejected == {"nan": 1, "out-of-range": 1}
            assert service.current_tick == 0
            assert np.array_equal(stored_positions(service), base)
            assert service.stats.updates_applied == 0

    def test_sanitize_repairs_and_keeps_serving(self, topology):
        base = np.random.default_rng(6).random((50, 2))
        with _service(topology, base, "sanitize") as service:
            flags = np.zeros(50, dtype=bool)
            flags[[3, 4, 10]] = True
            frame = self._poisoned(base)
            tick = service.feed_snapshot(frame, flags)
            assert tick.tick == 1
            assert service.rejected == {"nan": 1, "out-of-range": 1}
            want = frame.copy()
            want[[3, 4]] = base[[3, 4]]
            assert np.array_equal(stored_positions(service), want)
            assert tick.flagged == (3, 4, 10)
            # The next flagged tick characterizes every flagged device.
            frame2 = want.copy()
            frame2[10] = np.clip(frame2[10] + 0.3, 0.0, 1.0)
            try:
                tick2 = service.feed_snapshot(frame2, flags)
            except UnknownDeviceError as exc:  # pragma: no cover - the bug
                pytest.fail(f"stored NaN leaked into a verdict: {exc}")
            assert set(tick2.verdicts) == {3, 4, 10}
