"""Figure 8: missed detections when Restriction R3 does not hold.

A *missed detection* is a device the model claims massive (it sits in a
tau-dense motion) although the error that really hit it was isolated
(impacted at most ``tau`` devices).  Paper settings: ``n = 1000``,
``b = 0.005``, same ``A`` / ``G`` sweep as Figure 7, generator relaxed so
R3 can fail.  Published shape: the proportion stays **below ~10% and
roughly flat in A**.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.figure7 import PAPER_A_VALUES, PAPER_G_VALUES
from repro.experiments.runner import simulate_and_accumulate
from repro.io.records import ExperimentResult
from repro.io.render import render_series, render_table
from repro.simulation.config import SimulationConfig

__all__ = ["run", "main"]


def run(
    *,
    steps: int = 3,
    seeds: Sequence[int] = (0, 1),
    a_values: Sequence[int] = PAPER_A_VALUES,
    g_values: Sequence[float] = PAPER_G_VALUES,
    n: int = 1000,
    r: float = 0.03,
    tau: int = 3,
    correlated_error_probability: float = 0.15,
) -> ExperimentResult:
    """Reproduce Figure 8 (missed-detection rate, R3 relaxed)."""
    result = ExperimentResult(
        experiment_id="figure8",
        title="Missed detection rate vs A and G when R3 does not hold (Fig. 8)",
        parameters={
            "n": n,
            "r": r,
            "tau": tau,
            "A": list(a_values),
            "G": list(g_values),
            "steps": steps,
            "seeds": list(seeds),
            "correlated_error_probability": correlated_error_probability,
        },
    )
    for g in g_values:
        for a in a_values:
            config = SimulationConfig(
                n=n,
                r=r,
                tau=tau,
                errors_per_step=a,
                isolated_probability=g,
            ).relaxed_r3(correlated_error_probability)
            accumulator = simulate_and_accumulate(
                config, steps=steps, seeds=seeds
            )
            result.add_row(
                G=g,
                A=a,
                missed_detection_percent=100.0 * accumulator.fraction("false_massive"),
                mean_flagged=accumulator.mean_flagged,
            )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    print(render_series(result, x="A", y="missed_detection_percent", group="G"))
    print()
    print(render_table(result))


if __name__ == "__main__":  # pragma: no cover
    main()
