"""The batch-first characterization engine.

Every driver in the repository — the discrete-time simulator, the
experiment runner, the network monitor's tick loop, the streaming
pipeline — used to rebuild a :class:`~repro.core.characterize.Characterizer`
per transition and walk the flagged set one device at a time.
:class:`CharacterizationEngine` replaces those duplicated loops with one
shared service:

* **Batch neighbourhoods.**  Before any per-device work, the engine
  computes the ``2r`` neighbourhoods of its target devices in one
  vectorized pass
  (:meth:`~repro.core.transition.Transition.neighborhoods_batch`, backed by
  :meth:`~repro.core.geometry.GridIndex.query_batch`), replacing one
  dict-walk per device with a handful of numpy operations, then the
  ``4r`` knowledge balls of only those with ``|N(j)| > tau`` — the only
  devices whose verdict can read one, so mostly-lone fleets skip most
  4r queries.
* **Shared motion cache.**  One
  :class:`~repro.core.neighborhood.MotionCache` serves every device of a
  transition and every repeated call on the *same* transition object
  (e.g. several subset passes over one interval pay each motion family
  once); run-level counters aggregate cache statistics across the
  consecutive transitions of a run.  Families never outlive their
  transition: the online service saves work across ticks at the
  verdict level instead, recomputing only the verdicts within ``4r``
  of a change (:mod:`repro.online.dirty`).

* **Batch verdicts.**  The verdicts are one serial
  :meth:`~repro.core.characterize.Characterizer.characterize_many` call,
  itself batch-first: Theorems 5 and 6 settle each device in input
  order, then the Theorem 7 candidate pools of every remaining device
  are built in one vectorized step (the subset tables and far rows of
  all their components together, one ragged filter for all the pools),
  and the searches run in input order over ``uint64`` candidate arrays
  (``int`` lists for short pools).
* **Lone devices in one step.**  A device with no other flagged device
  within ``2r`` at both times (``N(j) == (j,)``, read off the hit counts
  of the batch ``2r`` pass) has no dense motion, so Theorem 5 settles it
  at once: no component walk and no motion family, with the cost
  counters a built family would give (one motion, ``2d`` window steps)
  and its family counted once in ``families_recomputed``.  Most flagged
  devices of a sparse fleet are lone.
* **Verdicts in the caller's ids.**  ``characterize_run(..., key_of=...)``
  builds each verdict once with ``key_of[j]`` as its device and its
  witness motions mapped (once per call per motion), so a shard's
  rank-numbered transition yields global-id verdicts without a second
  object per verdict.

Parallelism lives one layer up, in the process shards of
:class:`~repro.online.sharded.ShardedService`, which split along the
same spatial locality the verdicts obey.  The engine is
verdict-identical to the per-device seed path by construction
(``Characterizer.characterize`` is the one-device batch, and the
batch keeps each device's verdict, witness and cost counters), which
the engine test-suite enforces on seeded simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.core.characterize import Characterizer, classify_sets
from repro.core.neighborhood import MotionCache
from repro.core.transition import Transition
from repro.core.types import Characterization
from repro.engine.config import EngineConfig

__all__ = ["CharacterizationEngine", "EngineRun", "EngineStats"]


@dataclass(frozen=True)
class EngineRun:
    """What one :meth:`CharacterizationEngine.characterize_run` produced.

    ``verdicts`` are keyed by the caller's ids (``key_of`` images, else
    transition ids), in input order.  ``families_recomputed`` counts the
    motion-cache work of this call: the families it expanded, a lone
    device's counted though never built.
    """

    verdicts: Dict[int, Characterization]
    families_recomputed: int = 0


@dataclass
class EngineStats:
    """Run-level counters aggregated across consecutive transitions."""

    transitions: int = 0
    devices_characterized: int = 0
    batch_neighborhood_passes: int = 0
    cache_expansions: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for logging and result serialization."""
        return {
            "transitions": self.transitions,
            "devices_characterized": self.devices_characterized,
            "batch_neighborhood_passes": self.batch_neighborhood_passes,
            "cache_expansions": self.cache_expansions,
        }


class CharacterizationEngine:
    """Shared batch-first characterization service for all drivers.

    Parameters
    ----------
    config:
        Batching and algorithmic knobs; defaults to the characterizer
        defaults (the exact seed behaviour).

    One engine instance is meant to live for a whole run (a simulation, an
    experiment sweep, a monitoring session): it re-uses its motion cache
    across repeated calls on the same transition and accumulates
    :class:`EngineStats` across transitions.
    """

    def __init__(self, config: Optional[EngineConfig] = None, **overrides) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config or keyword overrides, not both")
        self._config = config
        self._cache: Optional[MotionCache] = None
        self._folded_expansions = 0
        self.stats = EngineStats()

    @property
    def config(self) -> EngineConfig:
        """The engine configuration."""
        return self._config

    # ------------------------------------------------------------------
    def _cache_for(self, transition: Transition) -> MotionCache:
        """Return the motion cache bound to ``transition``.

        The cache survives consecutive :meth:`characterize` calls on the
        same transition object (the streaming drivers characterize
        changing subsets of one flagged set); when the run advances to a
        new transition the old cache's counters are folded into
        :attr:`stats` and a fresh cache takes over.
        """
        if self._cache is None or self._cache.transition is not transition:
            if self._cache is not None:
                self._folded_expansions += self._cache.expansions
            self._cache = MotionCache(transition)
        return self._cache

    def _warm_neighborhoods(
        self, transition: Transition, devices: Sequence[int]
    ) -> None:
        """Vectorized precomputation of the 2r balls of ``devices`` and
        of the 4r balls that a verdict can read.

        Only Theorems 6/7 read a device's 4r knowledge ball, and they
        run only for a device with a tau-dense motion — one that lies
        inside ``N(j)`` and has more than ``tau`` members.  A device
        with ``|N(j)| <= tau`` (every lone device among them) stops at
        Theorem 5, so its 4r ball is never queried; any other caller
        still gets it from the per-device memoized query.
        """
        near = transition.neighborhoods_batch(devices)
        tau = transition.tau
        dense_capable = [j for j in devices if len(near[j]) > tau]
        if dense_capable:
            transition.neighborhoods_batch(dense_capable, radius_factor=4.0)
        self.stats.batch_neighborhood_passes += 1

    # ------------------------------------------------------------------
    def characterize_run(
        self,
        transition: Transition,
        devices: Optional[Sequence[int]] = None,
        key_of: Optional[Sequence[int]] = None,
    ) -> EngineRun:
        """Classify ``devices`` and report the run's cache work.

        ``key_of`` maps a transition id to the caller's id (a shard's
        rank build to global ids, strictly increasing): the verdicts are
        built in those ids and keyed by them.  Without it they keep the
        transition's ids.
        """
        devs = (
            list(transition.flagged_sorted)
            if devices is None
            else [int(j) for j in devices]
        )
        if devs and self._config.precompute_neighborhoods:
            self._warm_neighborhoods(transition, devs)
        shared = self._cache_for(transition)
        expansions_before = shared.expansions
        verdicts = Characterizer(
            transition, cache=shared, **self._config.characterizer_kwargs()
        ).characterize_many(devs, key_of)
        self.stats.transitions += 1
        self.stats.devices_characterized += len(verdicts)
        self.stats.cache_expansions = self._folded_expansions + shared.expansions
        return EngineRun(
            verdicts=verdicts,
            families_recomputed=shared.expansions - expansions_before,
        )

    def characterize(
        self, transition: Transition, devices: Optional[Sequence[int]] = None
    ) -> Dict[int, Characterization]:
        """Classify ``devices`` (default: all of ``A_k``) of ``transition``.

        Returns the same ``device -> Characterization`` mapping as the
        per-device :meth:`Characterizer.characterize_all` seed path; see
        :meth:`characterize_run` for the variant that also reports the
        run's motion-family work.
        """
        return self.characterize_run(transition, devices).verdicts

    def classify(
        self, transition: Transition, devices: Optional[Sequence[int]] = None
    ) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
        """Characterize and split into the sets ``(I_k, M_k, U_k)``."""
        return classify_sets(self.characterize(transition, devices))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """End the engine's lifetime (a no-op: it holds no resources).

        Engines are context managers, and every driver that owns one
        (service, monitor, stream, CLI) forwards its own close here, so
        an engine handed to a driver stays its caller's to close.
        """

    def __enter__(self) -> "CharacterizationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CharacterizationEngine(transitions={self.stats.transitions})"
