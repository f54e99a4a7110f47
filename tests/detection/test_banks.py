"""Equivalence contract of the vectorized detector banks.

Every ``<Family>Bank`` must be *bit-exact* equivalent to ``n x d``
independent scalar detectors of the same family: flags, per-service
verdicts, scores, forecasts and residuals all match exactly (NaN in the
arrays maps to the scalar ``None`` during warm-up).  Enforced three
ways:

* seeded randomized streams through every family (bank vs the
  :class:`ScalarDetectorBank` reference plane);
* hypothesis property tests per family, sweeping series shape, warm-up
  boundaries, constant series and parameter corners;
* heterogeneous per-device parameter arrays against individually
  configured scalar detectors, for every parameter shape that
  broadcasts to ``(n, d)`` (kept compact, never materialized);
* pickling mid-stream: a restored bank and its last detection continue
  bit-identically to the original.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, DimensionMismatchError
from repro.detection import (
    CusumDetector,
    EwmaDetector,
    ShewhartDetector,
)
from repro.detection.banks import (
    DetectorSpec,
    FAMILIES,
    PLANES,
    ScalarDetectorBank,
    as_bank,
    default_detector_spec,
    resolve_family,
    resolve_plane,
)

# Family -> spec used by the randomized sweeps (warmups short enough
# that post-warm-up behaviour is exercised, thresholds tight enough
# that abnormal verdicts actually occur).
SPECS = {
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


def assert_equivalent_steps(spec, series, *, min_abnormal_services=1):
    """Feed one series through both planes; every output must match."""
    steps, n, d = series.shape
    bank = spec.bank(n, d, min_abnormal_services=min_abnormal_services)
    ref = spec.bank(
        n, d, plane="scalar", min_abnormal_services=min_abnormal_services
    )
    raised = 0
    for k in range(steps):
        got = bank.observe_batch(series[k])
        want = ref.observe_batch(series[k])
        assert np.array_equal(got.abnormal, want.abnormal), (spec.family, k)
        assert np.array_equal(got.flags, want.flags), (spec.family, k)
        assert np.array_equal(got.scores, want.scores), (spec.family, k)
        assert np.array_equal(
            got.forecasts, want.forecasts, equal_nan=True
        ), (spec.family, k)
        assert np.array_equal(
            got.residuals, want.residuals, equal_nan=True
        ), (spec.family, k)
        raised += int(np.count_nonzero(got.abnormal))
    return raised


@pytest.mark.parametrize("family", FAMILIES)
class TestRandomizedEquivalence:
    def test_noisy_stream(self, family):
        rng = np.random.default_rng(hash(family) % 2**32)
        series = np.clip(rng.normal(0.7, 0.12, (40, 6, 2)), 0.0, 1.0)
        assert_equivalent_steps(SPECS[family], series)

    def test_stream_with_jumps_raises_somewhere(self, family):
        rng = np.random.default_rng(1 + hash(family) % 2**32)
        series = np.clip(rng.normal(0.8, 0.03, (30, 5, 2)), 0.0, 1.0)
        # Deep drops mid-stream so every family has something to flag.
        series[15:18, 1, 0] = 0.05
        series[20:24, 3, :] = 0.2
        raised = assert_equivalent_steps(SPECS[family], series)
        assert raised > 0, f"{family} never flagged the injected drops"

    def test_constant_series(self, family):
        series = np.full((25, 4, 2), 0.75)
        assert_equivalent_steps(SPECS[family], series)

    def test_min_abnormal_services(self, family):
        rng = np.random.default_rng(2 + hash(family) % 2**32)
        series = np.clip(rng.normal(0.7, 0.15, (25, 4, 3)), 0.0, 1.0)
        assert_equivalent_steps(
            SPECS[family], series, min_abnormal_services=2
        )

    def test_nan_sample_rejected_by_both_planes(self, family):
        spec = SPECS[family]
        bad = np.full((3, 2), 0.5)
        bad[1, 1] = np.nan
        for plane in PLANES:
            bank = spec.bank(3, 2, plane=plane)
            with pytest.raises(ConfigurationError):
                bank.observe_batch(bad)
            # The rejected snapshot must not count as consumed.
            assert bank.samples_seen == 0

    def test_out_of_range_sample_rejected(self, family):
        spec = SPECS[family]
        bank = spec.bank(2, 2)
        with pytest.raises(ConfigurationError):
            bank.observe_batch(np.array([[0.5, 1.2], [0.5, 0.5]]))
        with pytest.raises(ConfigurationError):
            bank.observe_batch(np.array([[0.5, -0.1], [0.5, 0.5]]))

    def test_reset_restarts_warmup(self, family):
        spec = SPECS[family]
        rng = np.random.default_rng(3)
        series = np.clip(rng.normal(0.7, 0.1, (12, 3, 2)), 0.0, 1.0)
        bank = spec.bank(3, 2)
        ref = spec.bank(3, 2)
        for k in range(12):
            bank.observe_batch(series[k])
        bank.reset()
        assert bank.samples_seen == 0
        for k in range(12):
            got = bank.observe_batch(series[k])
            want = ref.observe_batch(series[k])
            assert np.array_equal(got.flags, want.flags)
            assert np.array_equal(got.scores, want.scores)


# ----------------------------------------------------------------------
# Hypothesis property tests: series shape x warm-up boundary sweeps
# ----------------------------------------------------------------------
qos_values = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


def series_strategy(max_steps=14, max_n=3, max_d=2):
    """Random (steps, n, d) QoS tensors as nested lists."""
    return st.tuples(
        st.integers(2, max_steps), st.integers(1, max_n), st.integers(1, max_d)
    ).flatmap(
        lambda shape: st.lists(
            st.lists(
                st.lists(qos_values, min_size=shape[2], max_size=shape[2]),
                min_size=shape[1],
                max_size=shape[1],
            ),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(), warmup=st.integers(0, 12))
def test_step_property(series, warmup):
    arr = np.asarray(series)
    spec = DetectorSpec("step", {"max_step": 0.05, "warmup": warmup})
    assert_equivalent_steps(spec, arr)


@settings(max_examples=40, deadline=None)
@given(
    series=series_strategy(),
    warmup=st.integers(0, 12),
    low=st.floats(0.0, 0.8),
)
def test_band_property(series, warmup, low):
    arr = np.asarray(series)
    spec = DetectorSpec("band", {"low": low, "high": 0.9, "warmup": warmup})
    assert_equivalent_steps(spec, arr)


@settings(max_examples=40, deadline=None)
@given(
    series=series_strategy(),
    warmup=st.integers(0, 12),
    alpha=st.floats(0.05, 1.0),
    nsigma=st.floats(0.5, 4.0),
)
def test_ewma_property(series, warmup, alpha, nsigma):
    arr = np.asarray(series)
    spec = DetectorSpec(
        "ewma", {"alpha": alpha, "nsigma": nsigma, "warmup": warmup}
    )
    assert_equivalent_steps(spec, arr)


@settings(max_examples=40, deadline=None)
@given(
    series=series_strategy(max_steps=18),
    warmup=st.integers(0, 12),
    window=st.integers(2, 7),
    nsigma=st.floats(0.5, 4.0),
)
def test_shewhart_property(series, warmup, window, nsigma):
    arr = np.asarray(series)
    spec = DetectorSpec(
        "shewhart", {"window": window, "nsigma": nsigma, "warmup": warmup}
    )
    assert_equivalent_steps(spec, arr)


@settings(max_examples=40, deadline=None)
@given(
    series=series_strategy(),
    warmup=st.integers(0, 12),
    threshold=st.floats(0.02, 0.5),
    drift=st.floats(0.0, 0.05),
    reset_on_alarm=st.booleans(),
)
def test_cusum_property(series, warmup, threshold, drift, reset_on_alarm):
    arr = np.asarray(series)
    spec = DetectorSpec(
        "cusum",
        {
            "threshold": threshold,
            "drift": drift,
            "warmup": warmup,
            "reset_on_alarm": reset_on_alarm,
        },
    )
    assert_equivalent_steps(spec, arr)


@settings(max_examples=40, deadline=None)
@given(
    series=series_strategy(),
    warmup=st.integers(0, 12),
    alpha=st.floats(0.05, 1.0),
    beta=st.floats(0.0, 1.0),
    band=st.floats(0.5, 4.0),
)
def test_holt_winters_property(series, warmup, alpha, beta, band):
    arr = np.asarray(series)
    spec = DetectorSpec(
        "holt-winters",
        {"alpha": alpha, "beta": beta, "band": band, "warmup": warmup},
    )
    assert_equivalent_steps(spec, arr)


@settings(max_examples=40, deadline=None)
@given(
    series=series_strategy(),
    warmup=st.integers(0, 12),
    nsigma=st.floats(0.5, 5.0),
    gate=st.booleans(),
)
def test_kalman_property(series, warmup, nsigma, gate):
    arr = np.asarray(series)
    spec = DetectorSpec(
        "kalman", {"nsigma": nsigma, "warmup": warmup, "gate_updates": gate}
    )
    assert_equivalent_steps(spec, arr)


# ----------------------------------------------------------------------
# Heterogeneous per-device parameters vs individually built scalars
# ----------------------------------------------------------------------
class TestHeterogeneousParameters:
    def _compare_elementwise(self, bank, scalars, series):
        steps, n, d = series.shape
        for k in range(steps):
            got = bank.observe_batch(series[k])
            for i in range(n):
                for j in range(d):
                    want = scalars[i][j].update(float(series[k, i, j]))
                    assert bool(got.abnormal[i, j]) == want.abnormal, (k, i, j)
                    assert got.scores[i, j] == want.score, (k, i, j)
                    forecast = got.forecasts[i, j]
                    if want.forecast is None:
                        assert np.isnan(forecast), (k, i, j)
                    else:
                        assert forecast == want.forecast, (k, i, j)

    def test_ewma_heterogeneous(self):
        rng = np.random.default_rng(11)
        n, d, steps = 5, 2, 25
        alpha = rng.uniform(0.1, 0.9, (n, d))
        nsigma = rng.uniform(1.0, 3.0, (n, d))
        warmup = rng.integers(0, 6, (n, d))
        bank = DetectorSpec(
            "ewma", {"alpha": alpha, "nsigma": nsigma, "warmup": warmup}
        ).bank(n, d)
        scalars = [
            [
                EwmaDetector(
                    alpha=float(alpha[i, j]),
                    nsigma=float(nsigma[i, j]),
                    warmup=int(warmup[i, j]),
                )
                for j in range(d)
            ]
            for i in range(n)
        ]
        series = np.clip(rng.normal(0.6, 0.15, (steps, n, d)), 0, 1)
        self._compare_elementwise(bank, scalars, series)

    def test_shewhart_heterogeneous_windows(self):
        rng = np.random.default_rng(12)
        n, d, steps = 4, 2, 30
        window = rng.integers(2, 9, (n, d))
        nsigma = rng.uniform(1.0, 3.0, (n, d))
        bank = DetectorSpec(
            "shewhart", {"window": window, "nsigma": nsigma, "warmup": 2}
        ).bank(n, d)
        scalars = [
            [
                ShewhartDetector(
                    window=int(window[i, j]),
                    nsigma=float(nsigma[i, j]),
                    warmup=2,
                )
                for j in range(d)
            ]
            for i in range(n)
        ]
        series = np.clip(rng.normal(0.6, 0.12, (steps, n, d)), 0, 1)
        self._compare_elementwise(bank, scalars, series)

    def test_cusum_heterogeneous_warmup_and_mu(self):
        rng = np.random.default_rng(13)
        n, d, steps = 4, 2, 25
        warmup = rng.integers(0, 8, (n, d))
        # Half the elements learn mu, half run a fixed reference level.
        mu = np.where(rng.random((n, d)) < 0.5, np.nan, 0.6)
        bank = DetectorSpec(
            "cusum",
            {"threshold": 0.08, "drift": 0.004, "warmup": warmup, "mu": mu},
        ).bank(n, d)
        scalars = [
            [
                CusumDetector(
                    threshold=0.08,
                    drift=0.004,
                    warmup=int(warmup[i, j]),
                    mu=None if np.isnan(mu[i, j]) else float(mu[i, j]),
                )
                for j in range(d)
            ]
            for i in range(n)
        ]
        series = np.clip(rng.normal(0.6, 0.1, (steps, n, d)), 0, 1)
        self._compare_elementwise(bank, scalars, series)


# ----------------------------------------------------------------------
# Registry, spec and validation plumbing
# ----------------------------------------------------------------------
class TestSpecAndRegistry:
    def test_resolve_plane(self):
        assert resolve_plane(None) == "bank"
        assert resolve_plane("scalar") == "scalar"
        with pytest.raises(ConfigurationError):
            resolve_plane("gpu")

    def test_resolve_family(self):
        assert resolve_family(None) == "step"
        with pytest.raises(ConfigurationError):
            resolve_family("arima")

    def test_default_spec_matches_monitor_default(self):
        spec = default_detector_spec(0.03)
        assert spec.family == "step"
        assert spec.params["max_step"] == pytest.approx(0.12)
        # 4r capped at 1.
        assert default_detector_spec(0.5).params["max_step"] == 1.0

    def test_spec_replace(self):
        spec = SPECS["ewma"].replace(nsigma=9.0)
        assert spec.params["nsigma"] == 9.0
        assert spec.params["alpha"] == SPECS["ewma"].params["alpha"]

    def test_scalar_plane_is_scalar_bank(self):
        bank = SPECS["step"].bank(3, 2, plane="scalar")
        assert isinstance(bank, ScalarDetectorBank)

    def test_as_bank_shape_checked(self):
        bank = SPECS["step"].bank(3, 2)
        assert as_bank(bank, 3, 2) is bank
        with pytest.raises(DimensionMismatchError):
            as_bank(bank, 4, 2)
        with pytest.raises(ConfigurationError):
            as_bank(object(), 3, 2)  # type: ignore[arg-type]

    def test_bank_shape_validation(self):
        bank = SPECS["step"].bank(3, 2)
        with pytest.raises(DimensionMismatchError):
            bank.observe_batch(np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            SPECS["step"].bank(0, 2)
        with pytest.raises(ConfigurationError):
            SPECS["step"].bank(3, 2, min_abnormal_services=5)

    def test_array_params_on_scalar_plane_rejected_cleanly(self):
        spec = DetectorSpec("step", {"max_step": np.full((2, 2), 0.1)})
        assert spec.bank(2, 2).shape == (2, 2)  # fine on the bank plane
        with pytest.raises(ConfigurationError):
            spec.bank(2, 2, plane="scalar")

    def test_missing_required_params_fail_identically_on_both_planes(self):
        # step/band have no safe default; a spec missing them must fail
        # as a ConfigurationError on *both* planes, not a raw TypeError
        # on one of them.
        for family in ("step", "band"):
            for plane in PLANES:
                with pytest.raises(ConfigurationError):
                    DetectorSpec(family).bank(2, 2, plane=plane)

    def test_elementwise_constructor_validation(self):
        bad_alpha = np.array([[0.5, 1.5]])
        with pytest.raises(ConfigurationError):
            DetectorSpec("ewma", {"alpha": bad_alpha}).bank(1, 2)
        with pytest.raises(ConfigurationError):
            DetectorSpec("step", {"max_step": 0.0}).bank(2, 2)
        with pytest.raises(ConfigurationError):
            DetectorSpec("band", {"low": 0.9, "high": 0.8}).bank(2, 2)

    def test_bank_detection_helpers(self):
        bank = SPECS["step"].bank(3, 2)
        bank.observe_batch(np.full((3, 2), 0.8))
        bank.observe_batch(np.full((3, 2), 0.8))  # past warmup=2
        snapshot = np.full((3, 2), 0.8)
        snapshot[1, 0] = 0.2
        detection = bank.observe_batch(snapshot)
        assert detection.flagged_devices() == [1]
        assert detection.abnormal_services(1) == (0,)
        assert detection.max_scores.shape == (3,)
        assert detection.max_scores[1] > 1.0


# ----------------------------------------------------------------------
# Compact parameters, lazy planes and pickling
# ----------------------------------------------------------------------
def _assert_same_detection(got, want, where):
    for name in ("positions", "abnormal", "flags"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), (
            where,
            name,
        )
    for name in ("forecasts", "residuals", "scores"):
        assert np.array_equal(
            getattr(got, name), getattr(want, name), equal_nan=True
        ), (where, name)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("plane", PLANES)
def test_pickled_bank_continues_bit_identically(family, plane):
    rng = np.random.default_rng(7 + hash(family) % 2**32)
    series = np.clip(rng.normal(0.7, 0.12, (24, 5, 2)), 0.0, 1.0)
    series[14:17, 2, 0] = 0.05  # something to flag after the cut
    bank = SPECS[family].bank(5, 2, plane=plane)
    for k in range(10):
        detection = bank.observe_batch(series[k])
    # A checkpoint pickles bank and last detection together.
    copy, copy_detection = pickle.loads(pickle.dumps((bank, detection)))
    _assert_same_detection(copy_detection, detection, "restored detection")
    assert copy.samples_seen == bank.samples_seen
    for k in range(10, 24):
        _assert_same_detection(
            copy.observe_batch(series[k]), bank.observe_batch(series[k]), k
        )


def test_pickled_detection_carries_the_recipe_not_the_planes():
    bank = SPECS["step"].bank(200, 2)
    bank.observe_batch(np.full((200, 2), 0.5))
    detection = bank.observe_batch(np.full((200, 2), 0.52))
    before = len(pickle.dumps(detection))
    detection.scores  # derive all three planes
    assert len(pickle.dumps(detection)) == before
    # The detection's snapshot is the bank's retained baseline.
    assert detection.positions is bank._last


class TestStepScratchPlane:
    """The step bank tests ``|values - last|`` in one private plane."""

    def _bank(self, n=100_000):
        bank = SPECS["step"].bank(n, 2)
        rng = np.random.default_rng(3)
        for _ in range(3):  # baseline, then the plane is allocated
            bank.observe_batch(rng.random((n, 2)))
        return bank, rng.random((n, 2))

    def test_steady_observe_allocates_one_float_plane(self):
        bank, frame = self._bank()
        tracemalloc.start()
        try:
            bank.observe_batch(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The retained baseline copy (1.6 MB) and the bool planes; each
        # further (n, d) float temporary would add 1.6 MB.
        assert peak < 2.5 * 2**20, peak

    def test_pickle_holds_no_scratch_plane(self):
        bank, frame = self._bank()
        blob = pickle.dumps(bank)
        # The baseline plane plus parameters: nothing fleet-sized else.
        assert len(blob) < bank._last.nbytes + 1024
        copy = pickle.loads(blob)
        assert copy._step is None and bank._step is not None
        _assert_same_detection(
            copy.observe_batch(frame), bank.observe_batch(frame), "after pickle"
        )


#: family -> (parameter swept heterogeneously, sampler of its values)
HETEROGENEOUS = {
    "step": ("max_step", lambda rng, shape: rng.uniform(0.02, 0.2, shape)),
    "band": ("low", lambda rng, shape: rng.uniform(0.1, 0.6, shape)),
    "ewma": ("alpha", lambda rng, shape: rng.uniform(0.1, 0.9, shape)),
    "shewhart": ("window", lambda rng, shape: rng.integers(2, 8, shape)),
    "cusum": ("threshold", lambda rng, shape: rng.uniform(0.04, 0.2, shape)),
    "holt-winters": ("band", lambda rng, shape: rng.uniform(1.0, 3.0, shape)),
    "kalman": ("nsigma", lambda rng, shape: rng.uniform(1.0, 3.0, shape)),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("shape", [(4, 3), (4, 1), (3,), ()])
def test_heterogeneous_parameter_shapes(family, shape):
    """Any broadcastable shape matches per-element scalar detectors and is
    kept at its given shape, not broadcast to ``(n, d)``."""
    n, d = 4, 3
    name, sample = HETEROGENEOUS[family]
    rng = np.random.default_rng(len(shape) + hash(family) % 2**32)
    value = sample(rng, shape)
    spec = SPECS[family].replace(**{name: value})
    bank = spec.bank(n, d)
    assert getattr(bank, "_" + name).shape == shape
    full = np.broadcast_to(value, (n, d))
    scalars = [
        [spec.replace(**{name: full[i, j].item()}).scalar() for j in range(d)]
        for i in range(n)
    ]
    series = np.clip(rng.normal(0.6, 0.15, (20, n, d)), 0.0, 1.0)
    series[12:14, 1, :] = 0.05
    for k in range(20):
        got = bank.observe_batch(series[k])
        for i in range(n):
            for j in range(d):
                want = scalars[i][j].update(float(series[k, i, j]))
                where = (k, i, j)
                assert bool(got.abnormal[i, j]) == want.abnormal, where
                assert got.scores[i, j] == want.score, where
                for plane, ref in (
                    (got.forecasts, want.forecast),
                    (got.residuals, want.residual),
                ):
                    if ref is None:
                        assert np.isnan(plane[i, j]), where
                    else:
                        assert plane[i, j] == ref, where


@pytest.mark.parametrize("shape", [(5, 3), (4, 2), (2, 4, 3), (1, 4, 3)])
def test_non_broadcastable_parameter_rejected(shape):
    with pytest.raises(ConfigurationError):
        DetectorSpec("step", {"max_step": np.full(shape, 0.1)}).bank(4, 3)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("plane", PLANES)
def test_renewed_rows_run_as_fresh_detectors(family, plane):
    """A renewed row runs as a fresh detector that observed its join
    position first; a row past the fleet grows the bank; every other row
    runs on as if nothing happened."""
    rng = np.random.default_rng(11 + FAMILIES.index(family))
    series = np.clip(rng.normal(0.6, 0.15, (18, 7, 2)), 0.0, 1.0)
    series[12:14, 2, 1] = 0.02  # something for the renewed row to flag
    joins = np.array([[0.6, 0.55], [0.3, 0.9]])
    spec = SPECS[family]
    bank = spec.bank(5, 2, plane=plane)
    untouched = spec.bank(5, 2, plane=plane)
    fresh = [spec.bank(1, 2, plane=plane) for _ in joins]
    for k in range(6):
        bank.observe_batch(series[k, :5])
        untouched.observe_batch(series[k, :5])
    bank.renew_rows(np.array([2, 6]), joins)
    assert bank.shape == (7, 2)
    for probe, join in zip(fresh, joins):
        probe.observe_batch(join[None, :])
    kept = [0, 1, 3, 4]
    for k in range(6, 18):
        got = bank.observe_batch(series[k])
        pairs = [(untouched.observe_batch(series[k, :5]), kept, kept)]
        pairs += [
            (probe.observe_batch(series[k, [row]]), [0], [row])
            for probe, row in zip(fresh, (2, 6))
        ]
        for want, want_rows, got_rows in pairs:
            for name in ("abnormal", "flags"):
                assert np.array_equal(
                    getattr(got, name)[got_rows], getattr(want, name)[want_rows]
                ), (k, got_rows, name)
            for name in ("forecasts", "residuals", "scores"):
                assert np.array_equal(
                    getattr(got, name)[got_rows],
                    getattr(want, name)[want_rows],
                    equal_nan=True,
                ), (k, got_rows, name)


def test_renewal_keeps_per_device_parameters_and_refuses_growth():
    """A renewed row of a per-device bank runs on its own parameters; a
    row past the fleet, which has none, is refused before any change."""
    alpha = np.array([[0.2], [0.7], [0.4]])
    series = np.clip(np.random.default_rng(5).normal(0.6, 0.1, (12, 3, 2)), 0, 1)
    bank = DetectorSpec("ewma", {"alpha": alpha, "warmup": 2}).bank(3, 2)
    for k in range(4):
        bank.observe_batch(series[k])
    with pytest.raises(ConfigurationError, match="per-device"):
        bank.check_renewal(np.array([3]))
    with pytest.raises(ConfigurationError, match="per-device"):
        bank.renew_rows(np.array([3]), np.full((1, 2), 0.4))
    assert bank.devices == 3
    bank.renew_rows(np.array([1]), np.full((1, 2), 0.4))
    fresh = DetectorSpec("ewma", {"alpha": 0.7, "warmup": 2}).bank(1, 2)
    fresh.observe_batch(np.full((1, 2), 0.4))
    for k in range(4, 12):
        got = bank.observe_batch(series[k])
        want = fresh.observe_batch(series[k, [1]])
        assert np.array_equal(got.scores[[1]], want.scores, equal_nan=True), k
        assert np.array_equal(got.abnormal[[1]], want.abnormal), k
