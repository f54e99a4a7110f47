"""Batch-first characterization engine with pluggable execution backends.

One :class:`CharacterizationEngine` serves every driver loop in the
repository (simulator, experiment runner, network monitor, streaming
pipeline): vectorized batch neighbourhood computation, a motion cache
shared across devices and across repeated calls on a transition, and a
choice of ``serial`` or persistent-pool ``process`` execution.  See
DESIGN.md, sections "Engine architecture" and "Persistent worker pool".
"""

from repro.engine.backends import (
    BackendRun,
    ExecutionBackend,
    SerialBackend,
    WorkerPoolBackend,
    make_backend,
)
from repro.engine.config import BACKENDS, EngineConfig
from repro.engine.core import CharacterizationEngine, EngineRun, EngineStats

__all__ = [
    "BACKENDS",
    "BackendRun",
    "CharacterizationEngine",
    "EngineConfig",
    "EngineRun",
    "EngineStats",
    "ExecutionBackend",
    "SerialBackend",
    "WorkerPoolBackend",
    "make_backend",
]
