"""Figure 9: unresolved ratio when Restriction R3 does not hold.

Same sweep as Figure 7 but with the relaxed generator.  The paper's
finding — and the reproduction target — is that the curves are
**indistinguishable from Figure 7's**: R3 violations do not change the
number of unresolved configurations, because those are driven by the
superposition of massive errors, not by stray isolated ones.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.figure7 import PAPER_A_VALUES, PAPER_G_VALUES, run as _run_fig7
from repro.io.records import ExperimentResult
from repro.io.render import render_series, render_table

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
) -> ExperimentResult:
    """Reproduce Figure 9 (Figure 7's sweep, R3 relaxed)."""
    return _run_fig7(
        steps=steps,
        seeds=seeds,
        a_values=a_values,
        g_values=g_values,
        n=n,
        r=r,
        tau=tau,
        enforce_r3=False,
        experiment_id="figure9",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    print(render_series(result, x="A", y="unresolved_ratio_percent", group="G"))
    print()
    print(render_table(result))


if __name__ == "__main__":  # pragma: no cover
    main()
