"""Figure 7: unresolved ratio ``|U_k| / |A_k|`` vs errors ``A`` and mix ``G``.

Paper settings: ``n = 1000``, ``b = 0.005``, R3 holds; ``A`` swept over
``[1, 60]`` and ``G`` over ``{0, 0.3, 0.5, 0.7, 1}``.  Published shape:

* a single error (``A = 1``) yields **zero** unresolved configurations;
* the ratio grows with ``A``;
* massive-heavy mixes (small ``G``) sit highest — unresolved
  configurations come from the superposition of massive errors.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.runner import simulate_and_accumulate
from repro.io.records import ExperimentResult
from repro.io.render import render_series, render_table
from repro.simulation.config import SimulationConfig

__all__ = ["run", "main", "PAPER_A_VALUES", "PAPER_G_VALUES"]

PAPER_A_VALUES = (1, 10, 20, 30, 40, 50, 60)
PAPER_G_VALUES = (0.0, 0.3, 0.5, 0.7, 1.0)


def run(
    *,
    steps: int = 3,
    seeds: Sequence[int] = (0, 1),
    a_values: Sequence[int] = PAPER_A_VALUES,
    g_values: Sequence[float] = PAPER_G_VALUES,
    n: int = 1000,
    r: float = 0.03,
    tau: int = 3,
    enforce_r3: bool = True,
    experiment_id: str = "figure7",
) -> ExperimentResult:
    """Reproduce Figure 7 (or Figure 9 when ``enforce_r3`` is false)."""
    result = ExperimentResult(
        experiment_id=experiment_id,
        title="|U_k| / |A_k| as a function of A and G "
        + ("(Fig. 7, R3 holds)" if enforce_r3 else "(Fig. 9, R3 relaxed)"),
        parameters={
            "n": n,
            "r": r,
            "tau": tau,
            "A": list(a_values),
            "G": list(g_values),
            "steps": steps,
            "seeds": list(seeds),
            "enforce_r3": enforce_r3,
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
            )
            if not enforce_r3:
                config = config.relaxed_r3()
            accumulator = simulate_and_accumulate(
                config,
                steps=steps,
                seeds=seeds,
                with_truth=False,
            )
            result.add_row(
                G=g,
                A=a,
                unresolved_ratio_percent=100.0 * accumulator.fraction("unresolved"),
                mean_flagged=accumulator.mean_flagged,
            )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    print(render_series(result, x="A", y="unresolved_ratio_percent", group="G"))
    print()
    print(render_table(result))


if __name__ == "__main__":  # pragma: no cover
    main()
