"""Execution configuration for the characterization engine.

:class:`EngineConfig` bundles two orthogonal groups of knobs:

* *execution*: which backend runs the per-device characterizations
  (``serial`` in-process, or ``process`` fanning flagged-device chunks out
  to a :mod:`multiprocessing` pool), how many workers, and how devices are
  chunked;
* *algorithmic*: the :class:`~repro.core.characterize.Characterizer`
  parameters (Theorem 7 budgets, fallback policy, collection counting),
  kept here verbatim so every driver that routes through the engine speaks
  one configuration vocabulary.

The defaults reproduce the seed behaviour exactly: serial execution with
the characterizer's own defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.bitset import KERNELS
from repro.core.errors import ConfigurationError

__all__ = ["EngineConfig", "BACKENDS"]

#: Names of the available execution backends.  ``process`` is the
#: persistent shared-memory worker pool.
BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of a :class:`~repro.engine.core.CharacterizationEngine`.

    Attributes
    ----------
    backend:
        ``"serial"`` (default) characterizes in-process; ``"process"``
        routes devices to a *persistent* shared-memory worker pool
        (:class:`~repro.engine.backends.WorkerPoolBackend`) that lives
        until the engine is closed.
    workers:
        Worker-process count for the process backend; ``None`` lets
        the pool size itself to the machine (``os.cpu_count()``).
    chunk_size:
        The ``process`` pool's *target devices per engaged worker*
        (``None`` means 8): small ticks wake only as many workers as
        they can feed (each engaged worker pays a per-tick transition
        rebuild),
        while large batches engage the whole pool with stable
        ``device % workers`` routing so each device keeps hitting the
        same worker's motion cache.
    min_process_devices:
        Below this many devices the process backend silently degrades
        to serial execution — dispatch overhead would dominate the work.
        The serial fallback still consults the engine's shared motion
        cache, so cross-tick family reuse keeps working on small ticks.
    max_worker_tasks:
        Retire and respawn a persistent-pool worker after this many
        tasks (``None`` = unlimited) — the lifetime bound for always-on
        services.  A fresh worker starts without a motion cache and
        recomputes its first tick.
    worker_respawn:
        When true (default) a persistent-pool worker that dies mid-run
        is respawned and its task re-sent (without a cache carry); when
        false a dead worker raises instead.
    dispatch_deadline:
        Per-roundtrip deadline in seconds for a persistent-pool task.
        A worker that has not replied by the deadline is declared hung,
        killed and respawned, and its task re-sent (bounded by
        ``dispatch_retries``).  ``None`` (default) keeps the seed
        behaviour: wait forever.
    dispatch_retries:
        How many times a failed dispatch (worker died or hung) is
        retried against a respawned worker before the batch is routed
        to the quarantine path.
    retry_backoff:
        Base seconds slept before each dispatch retry; doubles per
        attempt (exponential backoff).
    poison_threshold:
        A batch that kills (or hangs) workers this many times is
        declared *poison* and quarantined: its devices run on the
        in-process serial path instead of taking the pool down with
        them, and the event is counted on
        ``repro_pool_poison_batches_total``.
    serial_fallback_after:
        Consecutive faulty runs (any hung/dead worker during the run)
        after which the pool health state machine degrades from
        ``degraded`` to ``serial-fallback``: runs execute serially
        until a recovery probe succeeds.
    recovery_probe_every:
        In ``serial-fallback``, every this-many runs one run is sent
        through the pool as a recovery probe; a clean probe promotes
        the pool back to ``degraded``.
    recovery_runs:
        Consecutive clean pool runs required to promote ``degraded``
        back to ``healthy``.
    precompute_neighborhoods:
        When true (default) the engine batch-computes the ``2r``
        neighbourhoods *and* the ``4r`` knowledge balls of every device in
        one vectorized pass before characterizing, warming the
        transition's memo (and, for the process backend, shipping the
        warmed memo to the workers instead of letting each recompute it).
    kernel:
        Set-algebra representation of the verdict hot path: ``"bitset"``
        (default, integer masks over per-device local universes) or
        ``"frozenset"`` (the original baseline).  Verdict-identical.
    full_nsc, collection_budget, count_all_collections,
    collection_count_cap, pool_cap, budget_fallback:
        Forwarded verbatim to
        :class:`~repro.core.characterize.Characterizer`; see its docstring.
    """

    backend: str = "serial"
    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    min_process_devices: int = 4
    max_worker_tasks: Optional[int] = None
    worker_respawn: bool = True
    dispatch_deadline: Optional[float] = None
    dispatch_retries: int = 2
    retry_backoff: float = 0.05
    poison_threshold: int = 3
    serial_fallback_after: int = 3
    recovery_probe_every: int = 8
    recovery_runs: int = 3
    precompute_neighborhoods: bool = True
    kernel: str = "bitset"
    full_nsc: bool = True
    collection_budget: Optional[int] = None
    count_all_collections: bool = False
    collection_count_cap: Optional[int] = 10_000_000
    pool_cap: Optional[int] = 1 << 22
    budget_fallback: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1 when given, got {self.workers!r}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1 when given, got {self.chunk_size!r}"
            )
        if self.min_process_devices < 1:
            raise ConfigurationError(
                "min_process_devices must be >= 1, got "
                f"{self.min_process_devices!r}"
            )
        if self.max_worker_tasks is not None and self.max_worker_tasks < 1:
            raise ConfigurationError(
                "max_worker_tasks must be >= 1 when given, got "
                f"{self.max_worker_tasks!r}"
            )
        if self.dispatch_deadline is not None and self.dispatch_deadline <= 0:
            raise ConfigurationError(
                "dispatch_deadline must be > 0 when given, got "
                f"{self.dispatch_deadline!r}"
            )
        if self.dispatch_retries < 0:
            raise ConfigurationError(
                f"dispatch_retries must be >= 0, got {self.dispatch_retries!r}"
            )
        if self.retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {self.retry_backoff!r}"
            )
        if self.poison_threshold < 1:
            raise ConfigurationError(
                f"poison_threshold must be >= 1, got {self.poison_threshold!r}"
            )
        if self.serial_fallback_after < 1:
            raise ConfigurationError(
                "serial_fallback_after must be >= 1, got "
                f"{self.serial_fallback_after!r}"
            )
        if self.recovery_probe_every < 1:
            raise ConfigurationError(
                "recovery_probe_every must be >= 1, got "
                f"{self.recovery_probe_every!r}"
            )
        if self.recovery_runs < 1:
            raise ConfigurationError(
                f"recovery_runs must be >= 1, got {self.recovery_runs!r}"
            )

    def characterizer_kwargs(self) -> Dict[str, object]:
        """The :class:`Characterizer` keyword arguments this config encodes."""
        return {
            "kernel": self.kernel,
            "full_nsc": self.full_nsc,
            "collection_budget": self.collection_budget,
            "count_all_collections": self.count_all_collections,
            "collection_count_cap": self.collection_count_cap,
            "pool_cap": self.pool_cap,
            "budget_fallback": self.budget_fallback,
        }
