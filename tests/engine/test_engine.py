"""Engine layer: config validation, verdict equivalence, cache sharing.

The load-bearing property is *verdict identity*: the engine, with and
without batch precomputation, must reproduce the per-device seed path
(`Characterizer(t).characterize_all()`) exactly on seeded simulations.
"""

from __future__ import annotations

import pytest

from repro.core.characterize import Characterizer
from repro.engine import CharacterizationEngine, EngineConfig
from repro.simulation import SimulationConfig, Simulator


def _seed_verdicts(transition):
    return Characterizer(transition).characterize_all()


def _assert_same_verdicts(got, expected):
    assert set(got) == set(expected)
    for device in expected:
        assert got[device].anomaly_type == expected[device].anomaly_type, device
        assert got[device].rule == expected[device].rule, device
        assert got[device].witness == expected[device].witness, device


@pytest.fixture(scope="module")
def simulated_steps():
    config = SimulationConfig(n=400, errors_per_step=12, seed=5)
    return Simulator(config).run(3)


class TestEngineConfig:
    def test_defaults_are_serial(self):
        config = EngineConfig()
        assert config.precompute_neighborhoods is True
        assert config.budget_fallback is False

    def test_characterizer_kwargs_roundtrip(self):
        config = EngineConfig(collection_budget=123, budget_fallback=True)
        kwargs = config.characterizer_kwargs()
        assert kwargs["collection_budget"] == 123
        assert kwargs["budget_fallback"] is True

    def test_engine_rejects_config_plus_overrides(self):
        with pytest.raises(TypeError):
            CharacterizationEngine(EngineConfig(), full_nsc=False)


class TestSerialEquivalence:
    def test_verdicts_identical_to_seed_path(self, simulated_steps):
        engine = CharacterizationEngine()
        for step in simulated_steps:
            _assert_same_verdicts(
                engine.characterize(step.transition),
                _seed_verdicts(step.transition),
            )

    def test_without_precompute(self, simulated_steps):
        engine = CharacterizationEngine(
            EngineConfig(precompute_neighborhoods=False)
        )
        step = simulated_steps[0]
        _assert_same_verdicts(
            engine.characterize(step.transition),
            _seed_verdicts(step.transition),
        )

    def test_subset_characterization(self, simulated_steps):
        step = simulated_steps[0]
        expected = _seed_verdicts(step.transition)
        subset = step.transition.flagged_sorted[::2]
        got = CharacterizationEngine().characterize(step.transition, subset)
        assert set(got) == set(subset)
        for device in subset:
            assert got[device].anomaly_type == expected[device].anomaly_type

    def test_classify_matches_classify_sets(self, simulated_steps):
        from repro.core.characterize import classify_sets

        step = simulated_steps[0]
        engine = CharacterizationEngine()
        assert engine.classify(step.transition) == classify_sets(
            _seed_verdicts(step.transition)
        )


class TestEngineStatsAndCache:
    def test_stats_accumulate_across_transitions(self, simulated_steps):
        engine = CharacterizationEngine()
        total = 0
        for step in simulated_steps:
            total += len(engine.characterize(step.transition))
        assert engine.stats.transitions == len(simulated_steps)
        assert engine.stats.devices_characterized == total
        assert engine.stats.batch_neighborhood_passes == len(simulated_steps)
        assert engine.stats.cache_expansions > 0

    def test_cache_survives_repeat_calls_on_same_transition(
        self, simulated_steps
    ):
        step = simulated_steps[0]
        engine = CharacterizationEngine()
        engine.characterize(step.transition)
        expansions = engine.stats.cache_expansions
        # The second pass over the same transition reuses every family.
        engine.characterize(step.transition)
        assert engine.stats.cache_expansions == expansions

    def test_fresh_transition_gets_fresh_cache(self, simulated_steps):
        engine = CharacterizationEngine()
        engine.characterize(simulated_steps[0].transition)
        first = engine.stats.cache_expansions
        engine.characterize(simulated_steps[1].transition)
        assert engine.stats.cache_expansions > first


class TestDriverIntegration:
    def test_simulation_step_routes_through_engine(self, simulated_steps):
        step = simulated_steps[0]
        engine = CharacterizationEngine()
        _assert_same_verdicts(
            step.characterize(engine=engine), _seed_verdicts(step.transition)
        )
        assert engine.stats.transitions == 1

    def test_simulation_step_kwargs_build_engine(self, simulated_steps):
        step = simulated_steps[0]
        verdicts = step.characterize(budget_fallback=True)
        _assert_same_verdicts(verdicts, _seed_verdicts(step.transition))

    def test_simulation_step_rejects_engine_plus_kwargs(self, simulated_steps):
        with pytest.raises(TypeError):
            simulated_steps[0].characterize(
                engine=CharacterizationEngine(), budget_fallback=True
            )

    def test_run_characterized_shares_one_engine(self):
        simulator = Simulator(SimulationConfig(n=200, errors_per_step=6, seed=9))
        outcomes = simulator.run_characterized(2)
        assert len(outcomes) == 2
        assert simulator.engine.stats.transitions == 2
        for step, verdicts in outcomes:
            _assert_same_verdicts(verdicts, _seed_verdicts(step.transition))

    def test_runner_rejects_engine_plus_knobs(self):
        from repro.experiments.runner import simulate_and_accumulate

        with pytest.raises(TypeError, match="engine plus"):
            simulate_and_accumulate(
                SimulationConfig(n=100, errors_per_step=2),
                steps=1,
                seeds=(0,),
                engine=CharacterizationEngine(),
                count_all_collections=True,
            )

    def test_runner_accepts_shared_engine(self):
        from repro.experiments.runner import simulate_and_accumulate

        engine = CharacterizationEngine()
        accumulator = simulate_and_accumulate(
            SimulationConfig(n=100, errors_per_step=2),
            steps=1,
            seeds=(0,),
            engine=engine,
        )
        assert engine.stats.transitions == 1
        assert accumulator.mean_flagged > 0
