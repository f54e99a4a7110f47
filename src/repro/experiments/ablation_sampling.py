"""Ablation A4: sampling faster shrinks the unresolved set (§VII-C).

The paper: "devices can afford to increase the frequency at which they
sample their neighbourhood, decreasing accordingly the number of
concomitant errors and thus the number of unresolved configurations".

Operationalization: a fixed incident load of ``A_total`` errors arrives
during one steady-state period.  A device sampling ``k`` times faster
splits that load into ``k`` intervals of ``A_total / k`` errors each.
We sweep the multiplier ``k`` and report the unresolved ratio aggregated
over the sub-intervals — expected shape: monotone decrease toward 0
(``k = A_total`` approaches the single-error-per-interval regime, which
Figure 7 shows is unresolved-free).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.runner import simulate_and_accumulate
from repro.io.records import ExperimentResult
from repro.io.render import render_table
from repro.simulation.config import SimulationConfig

__all__ = ["run", "main"]


def run(
    *,
    a_total: int = 40,
    multipliers: Sequence[int] = (1, 2, 4, 8),
    steps: int = 2,
    seeds: Sequence[int] = (0, 1),
    isolated_probability: float = 0.2,
    n: int = 1000,
    r: float = 0.03,
    tau: int = 3,
) -> ExperimentResult:
    """Sweep the sampling multiplier at a fixed incident load."""
    result = ExperimentResult(
        experiment_id="ablation-sampling",
        title="Unresolved ratio vs sampling multiplier at fixed load (A4)",
        parameters={
            "A_total": a_total,
            "multipliers": list(multipliers),
            "n": n,
            "r": r,
            "tau": tau,
            "G": isolated_probability,
            "steps": steps,
            "seeds": list(seeds),
        },
    )
    for k in multipliers:
        per_interval = max(1, a_total // k)
        config = SimulationConfig(
            n=n,
            r=r,
            tau=tau,
            errors_per_step=per_interval,
            isolated_probability=isolated_probability,
        )
        accumulator = simulate_and_accumulate(
            config,
            steps=steps * k,  # same wall-clock load: k intervals per period
            seeds=seeds,
            with_truth=False,
        )
        result.add_row(
            multiplier=k,
            errors_per_interval=per_interval,
            unresolved_ratio_percent=100.0 * accumulator.fraction("unresolved"),
            mean_flagged=accumulator.mean_flagged,
        )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(render_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
