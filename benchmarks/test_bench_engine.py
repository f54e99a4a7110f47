"""Engine benchmarks: batch neighbourhoods and simulated-step verdicts.

Quantifies the two tentpole claims of the engine layer:

* ``Transition.neighborhoods_batch`` (vectorized cell-code queries) beats
  the per-device ``neighborhood()`` loop on flagged-heavy transitions at
  ``n ∈ {1k, 10k}`` — asserted, not just timed;
* the engine characterizes every flagged device of a simulated step at
  ``n ∈ {1k, 10k}``, with timings reported.

Every timing uses fresh transitions (the neighbourhood memo would
otherwise hand later rounds the answer for free).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.transition import Transition
from repro.engine import CharacterizationEngine, EngineConfig
from repro.simulation import SimulationConfig, Simulator

#: (n, flagged) grid: flagged-heavy relative to the paper's ~100 devices.
NEIGHBORHOOD_SCALES = [(1_000, 1_000), (10_000, 2_000)]


def _flagged_heavy_transition(n: int, n_flagged: int, seed: int = 0) -> Transition:
    rng = np.random.default_rng(seed)
    prev = rng.random((n, 2))
    cur = np.clip(prev + rng.normal(0.0, 0.01, prev.shape), 0.0, 1.0)
    flagged = rng.choice(n, size=n_flagged, replace=False)
    transition = Transition.from_arrays(prev, cur, flagged, r=0.03, tau=3)
    transition._indexes()  # index build is common to both paths
    return transition


def _time_best_of(fn, make_arg, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        arg = make_arg()
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Batch vs per-device neighbourhood computation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,n_flagged", NEIGHBORHOOD_SCALES)
def test_bench_neighborhoods_batch(benchmark, n, n_flagged):
    result = benchmark.pedantic(
        lambda t: t.neighborhoods_batch(),
        setup=lambda: ((_flagged_heavy_transition(n, n_flagged),), {}),
        rounds=2,
    )
    assert len(result) == n_flagged


@pytest.mark.parametrize("n,n_flagged", NEIGHBORHOOD_SCALES)
def test_bench_neighborhoods_per_device(benchmark, n, n_flagged):
    def per_device_loop(transition):
        return {j: transition.neighborhood(j) for j in transition.flagged_sorted}

    result = benchmark.pedantic(
        per_device_loop,
        setup=lambda: ((_flagged_heavy_transition(n, n_flagged),), {}),
        rounds=2,
    )
    assert len(result) == n_flagged


@pytest.mark.parametrize("n,n_flagged", NEIGHBORHOOD_SCALES)
def test_batch_beats_per_device_loop(n, n_flagged):
    """The acceptance assertion: vectorized batch wins at both scales."""
    loop_time = _time_best_of(
        lambda t: [t.neighborhood(j) for j in t.flagged_sorted],
        lambda: _flagged_heavy_transition(n, n_flagged),
    )
    batch_time = _time_best_of(
        lambda t: t.neighborhoods_batch(),
        lambda: _flagged_heavy_transition(n, n_flagged),
    )
    # Measured ~8-12x on CI-class hardware; 1.5x keeps the gate sturdy
    # against noisy neighbours.
    assert batch_time * 1.5 < loop_time, (
        f"batch {batch_time * 1e3:.1f}ms not faster than "
        f"per-device loop {loop_time * 1e3:.1f}ms at n={n}, |A_k|={n_flagged}"
    )


def test_batch_results_match_loop_at_scale():
    transition = _flagged_heavy_transition(10_000, 2_000)
    fresh = _flagged_heavy_transition(10_000, 2_000)
    batch = transition.neighborhoods_batch()
    for j in fresh.flagged_sorted[::97]:  # spot-check across the id range
        assert batch[j] == fresh.neighborhood(j)


# ----------------------------------------------------------------------
# The engine on simulated steps.
#
# ``r`` is dimensioned with ``n`` so the *local* density (devices per
# r-ball) stays at the paper's operating point as the system grows —
# which is the paper's own Figure 6 dimensioning argument, and what
# keeps per-device cost bounded at n = 10k.  The search budgets mirror
# the experiment runner's.  Verdict identity is asserted in
# tests/engine/.
# ----------------------------------------------------------------------
BACKEND_SCALES = {
    1_000: dict(n=1_000, r=0.03, errors_per_step=20),
    10_000: dict(n=10_000, r=0.01, errors_per_step=100),
}


@pytest.fixture(scope="module", params=sorted(BACKEND_SCALES), ids=["n1k", "n10k"])
def simulated_step(request):
    config = SimulationConfig(
        isolated_probability=0.1, seed=123, **BACKEND_SCALES[request.param]
    )
    return Simulator(config).step()


def _engine() -> CharacterizationEngine:
    return CharacterizationEngine(
        EngineConfig(
            budget_fallback=True,
            collection_budget=200_000,
            pool_cap=50_000,
        )
    )


def test_bench_engine_serial(benchmark, simulated_step):
    engine = _engine()
    results = benchmark.pedantic(
        lambda: engine.characterize(simulated_step.transition), rounds=2
    )
    assert set(results) == set(simulated_step.transition.flagged_sorted)
