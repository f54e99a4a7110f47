"""Configuration for the characterization engine.

:class:`EngineConfig` bundles the engine's own batching knob with the
:class:`~repro.core.characterize.Characterizer` parameters (Theorem 7
budgets, fallback policy, collection counting), kept here
verbatim so every driver that routes through the engine speaks one
configuration vocabulary.  The defaults reproduce the characterizer's
own defaults exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of a :class:`~repro.engine.core.CharacterizationEngine`.

    Attributes
    ----------
    precompute_neighborhoods:
        When true (default) the engine batch-computes the ``2r``
        neighbourhoods of every target device, and the ``4r`` knowledge
        balls of those with ``|N(j)| > tau`` (the only ones a verdict
        can read), in vectorized passes before characterizing, warming
        the transition's memo.
    full_nsc, collection_budget, count_all_collections,
    collection_count_cap, pool_cap, budget_fallback:
        Forwarded verbatim to
        :class:`~repro.core.characterize.Characterizer`; see its docstring.
    """

    precompute_neighborhoods: bool = True
    full_nsc: bool = True
    collection_budget: Optional[int] = None
    count_all_collections: bool = False
    collection_count_cap: Optional[int] = 10_000_000
    pool_cap: Optional[int] = 1 << 22
    budget_fallback: bool = False

    def characterizer_kwargs(self) -> Dict[str, object]:
        """The :class:`Characterizer` keyword arguments this config encodes."""
        return {
            "full_nsc": self.full_nsc,
            "collection_budget": self.collection_budget,
            "count_all_collections": self.count_all_collections,
            "collection_count_cap": self.collection_count_cap,
            "pool_cap": self.pool_cap,
            "budget_fallback": self.budget_fallback,
        }
