"""Table II: repartition of ``A_k`` into ``I_k``, ``M_k`` and ``U_k``.

Paper settings: ``A = 20`` errors per interval, ``n = 1000``,
``r = 0.03``, ``tau = 3``, massive-heavy mix (``G`` set to a small
constant), R3 enforced.  Paper values (averages over runs):

    ========================  =======
    I_k  (Theorem 5)           2.54%
    M_k  (Theorem 6)          88.34%
    U_k  (Corollary 8)         8.72%
    M_k  extra via Theorem 7   0.40%
    ========================  =======

with ``|A_k| = 95.7`` on average.  The reproduction reports the same four
fractions plus the mean ``|A_k|``.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.runner import simulate_and_accumulate
from repro.io.records import ExperimentResult
from repro.io.render import render_table
from repro.simulation.config import SimulationConfig

__all__ = ["run", "main", "PAPER_VALUES"]

#: The published Table II row, as fractions of ``|A_k|``.
PAPER_VALUES = {
    "isolated": 0.0254,
    "massive_theorem6": 0.8834,
    "unresolved": 0.0872,
    "massive_theorem7": 0.004,
    "mean_flagged": 95.7,
}


def run(
    *,
    steps: int = 5,
    seeds: Sequence[int] = (0, 1, 2, 3),
    errors_per_step: int = 20,
    isolated_probability: float = 0.05,
    n: int = 1000,
    r: float = 0.03,
    tau: int = 3,
) -> ExperimentResult:
    """Reproduce Table II (fractions of ``A_k`` per decision rule)."""
    config = SimulationConfig(
        n=n,
        r=r,
        tau=tau,
        errors_per_step=errors_per_step,
        isolated_probability=isolated_probability,
    )
    accumulator = simulate_and_accumulate(
        config, steps=steps, seeds=seeds
    )
    result = ExperimentResult(
        experiment_id="table2",
        title="Average repartition of A_k into I_k, M_k, U_k (Table II)",
        parameters={
            "A": errors_per_step,
            "n": n,
            "r": r,
            "tau": tau,
            "G": isolated_probability,
            "steps": steps,
            "seeds": list(seeds),
        },
    )
    for key, label in (
        ("isolated", "I_k (Theorem 5)"),
        ("massive_theorem6", "M_k (Theorem 6)"),
        ("unresolved", "U_k (Corollary 8)"),
        ("massive_theorem7", "M_k extra (Theorem 7)"),
    ):
        result.add_row(
            set=label,
            measured_percent=100.0 * accumulator.fraction(key),
            paper_percent=100.0 * PAPER_VALUES[key],
        )
    result.add_row(
        set="mean |A_k|",
        measured_percent=accumulator.mean_flagged,
        paper_percent=PAPER_VALUES["mean_flagged"],
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(render_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
