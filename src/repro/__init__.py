"""repro — reproduction of "Anomaly Characterization in Large Scale
Networks" (Anceaume, Busnel, Le Merrer, Ludinard, Marchand, Sericola;
IEEE/IFIP DSN 2014).

The library lets each monitored device decide, from trajectories within
``4r`` of its own QoS trajectory, whether the anomaly that hit it was
*isolated* (at most ``tau`` devices) or *massive* (more than ``tau``), or
whether the configuration is provably *unresolved* — a verdict as accurate
as an omniscient observer's.

Quick start::

    import numpy as np
    from repro import Transition, Characterizer

    prev = np.random.default_rng(1).random((100, 2))
    cur = prev.copy()
    cur[:8] = 0.9            # eight devices jump together: a massive anomaly
    flagged = range(8)
    t = Transition.from_arrays(prev, cur, flagged, r=0.03, tau=3)
    for device, verdict in Characterizer(t).characterize_all().items():
        print(device, verdict.anomaly_type, verdict.rule)

Subpackages
-----------
``repro.core``
    The paper's contribution: motions, partitions, Theorems 5–7,
    Corollary 8, and the omniscient oracle.
``repro.engine``
    Batch-first characterization engine: vectorized neighbourhoods and
    a motion cache shared across devices and transitions.
``repro.online``
    Event-driven characterization service: sharded device-state store
    with a cell-key column, dirty-region invalidation, and a
    replayable event pipeline with backpressure.
``repro.detection``
    Error detection functions ``a_k(j)`` (threshold, EWMA, CUSUM,
    Holt–Winters, Kalman).
``repro.simulation``
    The Section VII workload generator and discrete-time simulator.
``repro.network``
    Synthetic ISP/OTT network substrate (topology, faults, gateways).
``repro.baselines``
    Tessellation (FixMe-style) and centralized k-means baselines.
``repro.analysis``
    Dimensioning mathematics (Figure 6) and evaluation metrics.
``repro.experiments``
    One module per paper table/figure, plus ablations.
"""

from repro.core import (
    AnomalyType,
    Characterization,
    Characterizer,
    CostCounters,
    DecisionRule,
    Snapshot,
    Transition,
    characterize_transition,
    classify_sets,
    greedy_partition,
    is_anomaly_partition,
    oracle_classify,
)
from repro.engine import CharacterizationEngine, EngineConfig

__version__ = "1.1.0"

__all__ = [
    "AnomalyType",
    "Characterization",
    "CharacterizationEngine",
    "Characterizer",
    "CostCounters",
    "DecisionRule",
    "EngineConfig",
    "Snapshot",
    "Transition",
    "__version__",
    "characterize_transition",
    "classify_sets",
    "greedy_partition",
    "is_anomaly_partition",
    "oracle_classify",
]
