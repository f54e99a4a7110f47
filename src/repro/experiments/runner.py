"""Shared machinery for the experiment modules.

Each experiment module exposes ``run(...) -> ExperimentResult`` with
keyword knobs for scale (steps, seeds) and a ``main()`` that prints the
rendered table — so ``python -m repro.experiments.table2`` regenerates
the paper artifact from the command line while the benchmark suite calls
``run`` with reduced scale.

All simulated experiments characterize through one shared
:class:`~repro.engine.CharacterizationEngine` per accumulation run: the
engine batch-computes neighbourhoods and keeps its motion cache alive
across the consecutive transitions of the run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import MetricAccumulator
from repro.engine import CharacterizationEngine, EngineConfig
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulator

__all__ = ["simulate_and_accumulate", "sweep"]


def simulate_and_accumulate(
    config: SimulationConfig,
    *,
    steps: int,
    seeds: Sequence[int],
    count_all_collections: bool = False,
    collection_count_cap: Optional[int] = 100_000,
    collection_budget: Optional[int] = 2_000_000,
    pool_cap: Optional[int] = 100_000,
    with_truth: bool = True,
    engine: Optional[CharacterizationEngine] = None,
) -> MetricAccumulator:
    """Run ``len(seeds)`` independent simulations and fold their metrics.

    Every seed gets a fresh :class:`Simulator` (fresh initial state); each
    contributes ``steps`` characterized intervals to one shared
    :class:`MetricAccumulator`.  One engine serves the whole call (or the
    caller's ``engine``, letting several calls of a sweep share it — but
    then the engine's own config wins, so combining ``engine`` with any
    other engine knob is rejected rather than silently ignored); it runs
    with a generous search budget and falls back to an explicit
    "undecided" (counted as unresolved) on pathological devices rather
    than aborting a sweep.
    """
    if engine is None:
        engine = CharacterizationEngine(
            EngineConfig(
                count_all_collections=count_all_collections,
                collection_count_cap=collection_count_cap,
                collection_budget=collection_budget,
                pool_cap=pool_cap,
                budget_fallback=True,
            )
        )
    else:
        overridden = {
            "count_all_collections": count_all_collections is not False,
            "collection_count_cap": collection_count_cap != 100_000,
            "collection_budget": collection_budget != 2_000_000,
            "pool_cap": pool_cap != 100_000,
        }
        conflicts = sorted(name for name, hit in overridden.items() if hit)
        if conflicts:
            raise TypeError(
                "pass either an engine or engine knobs, not both; "
                f"got engine plus {conflicts}"
            )
    accumulator = MetricAccumulator()
    for seed in seeds:
        simulator = Simulator(config.with_overrides(seed=seed), engine=engine)
        for step in simulator.run(steps):
            results = step.characterize(engine=engine)
            truly_massive = (
                step.truth.truly_massive(config.tau) if with_truth else None
            )
            accumulator.add_step(results, truly_massive)
    return accumulator


def sweep(
    base: SimulationConfig,
    cells: Iterable[Dict],
    *,
    steps: int,
    seeds: Sequence[int],
    **kwargs,
) -> List[Tuple[Dict, MetricAccumulator]]:
    """Run one accumulator per parameter cell (dict of config overrides)."""
    out: List[Tuple[Dict, MetricAccumulator]] = []
    for overrides in cells:
        config = base.with_overrides(**overrides)
        out.append(
            (dict(overrides), simulate_and_accumulate(config, steps=steps, seeds=seeds, **kwargs))
        )
    return out
