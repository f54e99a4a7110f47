"""Core machinery: the paper's primary contribution.

Public surface:

* :class:`~repro.core.transition.Snapshot`, :class:`~repro.core.transition.Transition`
  — system states and one monitored interval;
* :func:`~repro.core.motions.maximal_motions_containing`,
  :func:`~repro.core.motions.all_maximal_motions` — Algorithm 2;
* :func:`~repro.core.partition.greedy_partition`,
  :func:`~repro.core.partition.is_anomaly_partition` — Algorithm 1 /
  Definition 6;
* :class:`~repro.core.characterize.Characterizer` — Algorithms 3–5
  (Theorems 5–7, Corollary 8);
* :func:`~repro.core.oracle.oracle_classify` — the omniscient observer.
"""

from repro.core.bitset import LocalUniverse
from repro.core.characterize import (
    Characterizer,
    characterize_transition,
    classify_sets,
)
from repro.core.errors import (
    ConfigurationError,
    DimensionMismatchError,
    PartitionError,
    QueueFullError,
    ReproError,
    SearchBudgetExceeded,
    TraceFormatError,
    UnknownDeviceError,
)
from repro.core.motions import (
    all_maximal_motions,
    enumerate_maximal_motions,
    maximal_motions_containing,
    motion_family,
)
from repro.core.neighborhood import MotionCache, NeighborhoodSplit, split_neighborhood
from repro.core.oracle import OracleVerdict, oracle_classify, oracle_characterizations
from repro.core.partition import (
    enumerate_anomaly_partitions,
    greedy_partition,
    is_anomaly_partition,
    massive_isolated_split,
    validate_anomaly_partition,
)
from repro.core.transition import Snapshot, Transition
from repro.core.types import (
    AnomalyType,
    Characterization,
    CostCounters,
    DecisionRule,
    MotionFamily,
)

__all__ = [
    "AnomalyType",
    "Characterization",
    "Characterizer",
    "ConfigurationError",
    "CostCounters",
    "DecisionRule",
    "DimensionMismatchError",
    "LocalUniverse",
    "MotionCache",
    "MotionFamily",
    "NeighborhoodSplit",
    "OracleVerdict",
    "PartitionError",
    "QueueFullError",
    "ReproError",
    "SearchBudgetExceeded",
    "Snapshot",
    "TraceFormatError",
    "Transition",
    "UnknownDeviceError",
    "all_maximal_motions",
    "characterize_transition",
    "classify_sets",
    "enumerate_anomaly_partitions",
    "enumerate_maximal_motions",
    "greedy_partition",
    "is_anomaly_partition",
    "massive_isolated_split",
    "maximal_motions_containing",
    "motion_family",
    "oracle_characterizations",
    "oracle_classify",
    "split_neighborhood",
    "validate_anomaly_partition",
]
