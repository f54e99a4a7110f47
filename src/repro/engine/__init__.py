"""Batch-first characterization engine.

One :class:`CharacterizationEngine` serves every driver loop in the
repository (simulator, experiment runner, network monitor, streaming
pipeline): vectorized batch neighbourhood computation and a motion cache
shared across devices and across repeated calls on a transition.  See
DESIGN.md, section "Engine architecture".
"""

from repro.engine.config import EngineConfig
from repro.engine.core import CharacterizationEngine, EngineRun, EngineStats

__all__ = [
    "CharacterizationEngine",
    "EngineConfig",
    "EngineRun",
    "EngineStats",
]
