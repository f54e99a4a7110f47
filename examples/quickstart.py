#!/usr/bin/env python
"""Quickstart: characterize anomalies in two snapshots of a fleet.

Builds a 200-device fleet watching two services, injects one network-wide
event (12 devices' QoS collapses together) and one local fault (a single
device drifts off on its own), and asks each impacted device to decide —
from its 4r neighbourhood only — whether its anomaly was massive or
isolated.

Characterization goes through :class:`repro.CharacterizationEngine`, the
recommended entry point: it batch-computes every flagged device's
neighbourhood in one vectorized pass.  One engine instance is meant to be
kept for a whole run — it shares motion caches across devices and
aggregates statistics across transitions.  For fleets too large for one
process, the online ``ShardedService`` splits space into shards, each
with its own engine (see ``examples/sharded_serve.py``).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CharacterizationEngine, EngineConfig, Transition

RNG = np.random.default_rng(7)
N_DEVICES = 200
R = 0.03   # consistency impact radius
TAU = 3    # more than TAU co-moving devices = massive


def main() -> None:
    # Snapshot at time k-1: healthy fleet, QoS clustered near (0.9, 0.9).
    previous = np.clip(RNG.normal(0.9, 0.02, size=(N_DEVICES, 2)), 0, 1)
    current = previous.copy()

    # A network event degrades 12 devices identically (restriction R2:
    # same error, same trajectory).
    network_victims = list(range(12))
    current[network_victims] -= [0.45, 0.30]

    # A local fault hits a single device in a different way.
    local_victim = 77
    current[local_victim] = [0.2, 0.85]

    current = np.clip(current, 0, 1)
    flagged = network_victims + [local_victim]

    transition = Transition.from_arrays(previous, current, flagged, r=R, tau=TAU)
    engine = CharacterizationEngine(EngineConfig())
    verdicts = engine.characterize(transition)

    print(f"{'device':>6}  {'verdict':<10}  {'decided by':<12}")
    for device, verdict in sorted(verdicts.items()):
        print(
            f"{device:>6}  {str(verdict.anomaly_type):<10}  "
            f"{str(verdict.rule):<12}"
        )

    massive = [d for d, v in verdicts.items() if v.is_massive]
    isolated = [d for d, v in verdicts.items() if v.is_isolated]
    print()
    print(f"network-event devices (expected {sorted(network_victims)}): {sorted(massive)}")
    print(f"local-fault devices   (expected [{local_victim}]): {sorted(isolated)}")
    assert sorted(massive) == network_victims
    assert isolated == [local_victim]
    print("quickstart OK: verdicts match the injected ground truth")
    print(f"engine stats: {engine.stats.as_dict()}")


if __name__ == "__main__":
    main()
