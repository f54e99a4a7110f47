"""Shared value types for the core characterization machinery.

These small immutable types are the vocabulary the rest of the library
speaks: which class a device fell into (Definition 7 / Definition 8 of the
paper), which rule produced the decision, and how much work it took
(Table III instruments exactly these counters).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

__all__ = [
    "AnomalyType",
    "DecisionRule",
    "CostCounters",
    "Characterization",
    "MotionFamily",
]

DeviceId = int
Motion = FrozenSet[DeviceId]


class AnomalyType(enum.Enum):
    """Classification of an impacted device in the interval ``[k-1, k]``.

    ``ISOLATED``   — the device belongs to ``I_k``: in *every* admissible
                     anomaly partition its block has at most ``tau`` members
                     (Relation (2) of the paper).
    ``MASSIVE``    — the device belongs to ``M_k``: in every admissible
                     partition its block exceeds ``tau`` members
                     (Relation (3)).
    ``UNRESOLVED`` — the device belongs to ``U_k``: partitions of both kinds
                     exist (Definition 8); even an omniscient observer
                     cannot decide.
    """

    ISOLATED = "isolated"
    MASSIVE = "massive"
    UNRESOLVED = "unresolved"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class DecisionRule(enum.Enum):
    """Which result of the paper produced a classification."""

    THEOREM_5 = "theorem-5"          # NSC for I_k (empty dense family)
    THEOREM_6 = "theorem-6"          # sufficient condition for M_k (J_k split)
    THEOREM_7 = "theorem-7"          # NSC for M_k (collection search)
    COROLLARY_8 = "corollary-8"      # NSC for U_k (counterexample found)
    ALGORITHM_3 = "algorithm-3"      # cheap-path fallback (Th. 6 inconclusive)
    ORACLE = "oracle"                # exhaustive partition enumeration

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class CostCounters:
    """Operation counters mirroring the cost columns of Table III.

    Attributes
    ----------
    maximal_motions:
        Number of maximal r-consistent motions enumerated for the deciding
        device (the cost the paper reports for devices in ``I_k``).
    dense_motions:
        Number of maximal tau-dense motions the device belongs to (the cost
        reported for devices decided by Theorem 6).
    neighbor_expansions:
        Number of *other* devices whose maximal-motion family had to be
        computed (the ``L_k(j)`` / ``J_k(j)`` split of Algorithm 3).
    tested_collections:
        Collections of disjoint dense motions actually examined by the
        Theorem 7 search before reaching a verdict (third column of
        Table III).
    total_collections:
        Total number of admissible collections (fourth column of
        Table III); only populated when the caller asks for an exhaustive
        count because it can be astronomically larger than
        ``tested_collections``.
    window_steps:
        Sliding-window advances performed by the Algorithm 2 enumerator;
        a machine-independent proxy for its running time.  A device's
        family is derived from its 2r-connected component of flagged
        devices, so this counts the placements of that component's one
        unanchored sweep — the same value for every member.  Devices in
        a component above the sharing bound (64 members) count their
        own anchored sweep of ``N(j)``.  A lone device
        (``N(j) == (j,)``) counts ``2d`` placements, one per combined
        dimension — what a sweep of ``{j}`` makes, though none is run.
        A family carried across ticks keeps the count of the tick that
        computed it.
    """

    maximal_motions: int = 0
    dense_motions: int = 0
    neighbor_expansions: int = 0
    tested_collections: int = 0
    total_collections: Optional[int] = None
    window_steps: int = 0

    def merge(self, other: "CostCounters") -> None:
        """Accumulate another counter set into this one (for aggregation)."""
        self.maximal_motions += other.maximal_motions
        self.dense_motions += other.dense_motions
        self.neighbor_expansions += other.neighbor_expansions
        self.tested_collections += other.tested_collections
        self.window_steps += other.window_steps
        if other.total_collections is not None:
            self.total_collections = (self.total_collections or 0) + other.total_collections

    def as_dict(self) -> Dict[str, Optional[int]]:
        """Return a plain-dict view for result serialization."""
        return {
            "maximal_motions": self.maximal_motions,
            "dense_motions": self.dense_motions,
            "neighbor_expansions": self.neighbor_expansions,
            "tested_collections": self.tested_collections,
            "total_collections": self.total_collections,
            "window_steps": self.window_steps,
        }


@dataclass(frozen=True)
class Characterization:
    """Decision for one device: type, rule that fired, and cost.

    ``witness`` optionally carries evidence: for Theorem 6 a dense motion
    contained in ``J_k(j)``; for Corollary 8 a counterexample collection.
    """

    device: DeviceId
    anomaly_type: AnomalyType
    rule: DecisionRule
    cost: CostCounters = field(default_factory=CostCounters)
    witness: Optional[Tuple[Motion, ...]] = None

    @property
    def is_isolated(self) -> bool:
        """True iff the device was classified into ``I_k``."""
        return self.anomaly_type is AnomalyType.ISOLATED

    @property
    def is_massive(self) -> bool:
        """True iff the device was classified into ``M_k``."""
        return self.anomaly_type is AnomalyType.MASSIVE

    @property
    def is_unresolved(self) -> bool:
        """True iff the device was classified into ``U_k``."""
        return self.anomaly_type is AnomalyType.UNRESOLVED


@dataclass(frozen=True)
class MotionFamily:
    """The family of maximal r-consistent motions a device belongs to.

    This is ``M(j)`` from Algorithm 2 plus the derived dense family
    ``Wbar_k(j)`` (maximal tau-dense motions) and the neighbourhood
    ``D_k(j)`` (union of the dense family, Section V-B).

    A family is a pure *value*: it holds no reference to the transition
    it was computed on, which is what lets the online service carry
    families of undisturbed devices across consecutive transitions
    (:meth:`~repro.core.neighborhood.MotionCache.carry_from`) instead of
    re-enumerating them.
    """

    device: DeviceId
    motions: Tuple[Motion, ...]
    dense: Tuple[Motion, ...]
    window_steps: int = 0

    @property
    def neighborhood(self) -> Motion:
        """``D_k(j)``: every device sharing a maximal dense motion with j."""
        return frozenset().union(*self.dense) if self.dense else frozenset()

    @property
    def has_dense_motion(self) -> bool:
        """True iff ``Wbar_k(j)`` is non-empty (Theorem 5 gate)."""
        return bool(self.dense)
