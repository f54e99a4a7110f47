"""Shared-memory hygiene: halo bands never touch ``/dev/shm``.

Shared memory holds only a process shard's store planes and the front
door's frame board; halo bands travel in the shard command pipes.  So an
in-process topology links no segment at all, and a process shard killed
mid-tick strands none: its successor adopts its planes, and ``close``
unlinks them.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.online import QosUpdate, ServiceConfig, ShardedService
from tests.online.test_sharded import random_stream, run_halo_stall_past_deadline

pytestmark = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and os.path.isdir("/dev/shm")),
    reason="needs /dev/shm",
)


def _segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def test_inline_shards_link_no_segment_while_exchanging_halos():
    before = _segments()
    rng = np.random.default_rng(5)
    positions = rng.random((64, 2))
    stream = random_stream(
        rng, positions.copy(), np.zeros(64, dtype=bool), 5, flag_p=0.5, jump_p=0.1
    )
    halo_bytes = 0
    with ShardedService(
        positions, ServiceConfig(r=0.05, tau=2), topology_shards=4
    ) as service:
        for events in stream:
            service.ingest_many(
                QosUpdate(int(j), tuple(pos), bool(flag)) for j, pos, flag in events
            )
            halo_bytes += service.end_tick().halo_bytes
            assert _segments() - before == set()
    assert halo_bytes > 0


def test_halo_stall_past_deadline_leaves_no_segment_after_close():
    before = _segments()
    run_halo_stall_past_deadline()
    assert _segments() - before == set()
