"""Shared IPC primitives: the shm layer the process-sharded topology
stands on.

Covers the promoted helpers in isolation — the columnar
:class:`ShmPlanes` create/attach offset agreement, and the cached
:class:`SegmentReader` attach/evict discipline — so a regression here
fails fast instead of surfacing as a flaky cross-process identity test.
"""

from __future__ import annotations

import numpy as np

from repro.ipc import (
    SegmentReader,
    ShardDeadError,
    ShardRoundtripError,
    ShardTimeoutError,
    ShmPlanes,
    unlink_by_name,
)


class TestErrors:
    def test_roundtrip_hierarchy(self):
        assert issubclass(ShardDeadError, ShardRoundtripError)
        assert issubclass(ShardTimeoutError, ShardRoundtripError)


FIELDS = (
    ("pos", np.dtype(np.float64), (2,)),
    ("flag", np.dtype(np.bool_), ()),
    ("code", np.dtype(np.int8), ()),
)


class TestShmPlanes:
    def test_create_attach_offset_agreement(self):
        planes = ShmPlanes.create(8, FIELDS)
        try:
            planes.header[0] = 5
            planes.arrays["pos"][3] = (0.25, 0.75)
            planes.arrays["flag"][3] = True
            planes.arrays["code"][3] = -2
            other = ShmPlanes.attach(planes.name, 8, FIELDS)
            try:
                assert other.header[0] == 5
                assert tuple(other.arrays["pos"][3]) == (0.25, 0.75)
                assert bool(other.arrays["flag"][3])
                assert int(other.arrays["code"][3]) == -2
                # Writes flow the other way too: one segment, two maps.
                other.arrays["code"][3] = 7
                assert int(planes.arrays["code"][3]) == 7
            finally:
                other.arrays = {}
                other.header = None
                other.close()
        finally:
            planes.arrays = {}
            planes.header = None
            planes.unlink()

    def test_required_bytes_aligns_every_block(self):
        total = ShmPlanes.required_bytes(3, FIELDS)
        # header + pos (48B) + flag (3B -> 8B) + code (3B -> 8B)
        assert total == ShmPlanes.HEADER_SLOTS * 8 + 48 + 8 + 8


class TestUnlinkByName:
    def test_unlinks_a_segment_known_only_by_name(self):
        planes = ShmPlanes.create(2, FIELDS)
        planes.arrays = {}
        planes.header = None
        planes.close()
        assert unlink_by_name(planes.name)
        assert not unlink_by_name(planes.name)


class TestSegmentReader:
    def test_evict_except_drops_stale_attachments(self):
        a = ShmPlanes.create(4, FIELDS)
        b = ShmPlanes.create(4, FIELDS)
        reader = SegmentReader()
        try:
            arr_a = reader.array(a.name, np.int64, ShmPlanes.HEADER_SLOTS)
            reader.array(b.name, np.int64, ShmPlanes.HEADER_SLOTS)
            assert set(reader._segments) == {a.name, b.name}
            del arr_a
            reader.evict_except([b.name])
            assert set(reader._segments) == {b.name}
        finally:
            reader.close()
            a.arrays = {}
            a.header = None
            a.unlink()
            b.arrays = {}
            b.header = None
            b.unlink()
