"""Checkpoint–restore: verdict-identical resume, format safety, retention.

The acceptance bar: checkpoint a service mid-stream, kill it, restore
into a *fresh process*, and the resumed verdict / flag / stats streams
are identical to the uninterrupted run.  Plus the format contract (versioned, atomic, loud on
corruption) and the :class:`CheckpointWriter` cadence/retention sink.
"""

from __future__ import annotations

import copyreg
import functools
import json
import multiprocessing
import os
import pickle
import stat
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import CheckpointError, ConfigurationError
from repro.detection.banks import BankDetection, DetectorSpec
from repro.online import (
    CheckpointWriter,
    LoadGenerator,
    LoadProfile,
    OnlineCharacterizationService,
    ServiceConfig,
    ShardedService,
    checkpoint_path,
    drive_load,
    drive_load_measurements,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    restore_service,
    restore_sharded_service,
    save_checkpoint,
)

PROFILE = LoadProfile(devices=80, services=2, churn=0.1, flag_rate=0.3, seed=5)


def _verdict_stream(ticks):
    """The identity-relevant projection of a tick stream."""
    return [
        {
            "tick": t.tick,
            "flagged": sorted(t.flagged),
            "verdicts": {
                str(j): [
                    v.anomaly_type.name,
                    v.rule.name,
                    sorted(v.witness) if v.witness is not None else None,
                ]
                for j, v in sorted(t.verdicts.items())
            },
        }
        for t in ticks
    ]


def _fresh_service(config=None, **kwargs):
    generator = LoadGenerator(PROFILE)
    service = OnlineCharacterizationService(
        generator.initial_positions(),
        config or ServiceConfig(r=0.05, tau=2),
        **kwargs,
    )
    return service, generator


def _service_of_kind(kind):
    """A fresh ``single`` service, or a 2-shard ``inline``/``process`` one."""
    if kind == "single":
        return _fresh_service()
    generator = LoadGenerator(PROFILE)
    service = ShardedService(
        generator.initial_positions(),
        ServiceConfig(r=0.05, tau=2),
        topology_shards=2,
        topology_workers=kind,
    )
    return service, generator


def _restore_kind(kind, path):
    if kind == "single":
        return restore_service(path)
    return restore_sharded_service(path, topology_workers=kind)


def _member_data_span(path, name):
    """``(offset, size)`` of one zip member's stored bytes inside ``path``."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(name)
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        header = fh.read(30)
    # Local file header: 30 fixed bytes, then the name and extra field.
    name_len = int.from_bytes(header[26:28], "little")
    extra_len = int.from_bytes(header[28:30], "little")
    return info.header_offset + 30 + name_len + extra_len, info.compress_size


class TestRoundtrip:
    def test_kill_and_restore_is_verdict_identical(self, tmp_path):
        config = ServiceConfig(r=0.05, tau=2)
        # Uninterrupted reference: 9 ticks straight through.
        service, generator = _fresh_service(config)
        with service:
            full = _verdict_stream(drive_load(service, generator, 9).ticks)
            full_stats = service.stats.as_dict()
        # Interrupted run: 4 ticks, checkpoint, drop the service on the
        # floor (simulating a kill), restore and run the remaining 5.
        service, generator = _fresh_service(config)
        with service:
            head = _verdict_stream(drive_load(service, generator, 4).ticks)
            path = save_checkpoint(service, tmp_path / "ck.npz")
        restored = restore_service(path)
        with restored:
            assert restored.current_tick == 4
            generator2 = LoadGenerator(PROFILE)
            generator2.fast_forward(4)
            tail = _verdict_stream(drive_load(restored, generator2, 5).ticks)
            resumed_stats = restored.stats.as_dict()
        assert head + tail == full
        # The dirty regions travel exactly, so even the recompute/reuse
        # split of the resumed ticks matches the uninterrupted run.
        assert resumed_stats == full_stats

    def test_restore_into_fresh_process(self, tmp_path):
        # The real kill -9 scenario: the resuming interpreter shares no
        # state with the dead one.
        service, generator = _fresh_service()
        with service:
            head = _verdict_stream(drive_load(service, generator, 3).ticks)
            path = save_checkpoint(service, tmp_path / "ck.npz")
        service2, generator2 = _fresh_service()
        with service2:
            full = _verdict_stream(drive_load(service2, generator2, 6).ticks)
        script = r"""
import json, sys
from repro.online import LoadGenerator, LoadProfile, drive_load, restore_service

path, out = sys.argv[1], sys.argv[2]
profile = LoadProfile(devices=80, services=2, churn=0.1, flag_rate=0.3, seed=5)
service = restore_service(path)
generator = LoadGenerator(profile)
generator.fast_forward(service.current_tick)
with service:
    ticks = drive_load(service, generator, 3).ticks
    stream = [
        {
            "tick": t.tick,
            "flagged": sorted(t.flagged),
            "verdicts": {
                str(j): [
                    v.anomaly_type.name,
                    v.rule.name,
                    sorted(v.witness) if v.witness is not None else None,
                ]
                for j, v in sorted(t.verdicts.items())
            },
        }
        for t in ticks
    ]
with open(out, "w") as fh:
    json.dump(stream, fh)
"""
        out = tmp_path / "tail.json"
        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        subprocess.run(
            [sys.executable, "-c", script, str(path), str(out)],
            check=True,
            cwd=str(repo_root),
            env=env,
        )
        tail = json.loads(out.read_text())
        assert head + tail == full

    def test_pending_queue_travels(self, tmp_path):
        # Updates ingested but not yet drained must survive the restore
        # and drain into the same tick they would have.
        service, generator = _fresh_service()
        with service:
            drive_load(service, generator, 2)
            pending = generator.tick_updates()
            service.ingest_many(pending)
            path = save_checkpoint(service, tmp_path / "ck.npz")
            reference = _verdict_stream([service.end_tick()])
        restored = restore_service(path)
        with restored:
            assert len(restored._queue) == len(pending)
            assert _verdict_stream([restored.end_tick()]) == reference

    def test_raw_measurement_stream_resumes_with_bank(self, tmp_path):
        # The in-service detector bank's window state travels, so the
        # resumed run flags exactly what the uninterrupted one would.
        def build():
            generator = LoadGenerator(PROFILE)
            service = OnlineCharacterizationService(
                generator.initial_positions(),
                ServiceConfig(r=0.05, tau=2),
                detector=DetectorSpec("ewma", {}),
                detection="bank",
            )
            return service, generator

        service, generator = build()
        with service:
            full = _verdict_stream(
                drive_load_measurements(service, generator, 8).ticks
            )
        service, generator = build()
        with service:
            head = _verdict_stream(
                drive_load_measurements(service, generator, 4).ticks
            )
            path = save_checkpoint(service, tmp_path / "ck.npz")
        restored = restore_service(path)
        with restored:
            assert restored.bank is not None
            generator2 = LoadGenerator(PROFILE)
            generator2.fast_forward(4)
            tail = _verdict_stream(
                drive_load_measurements(restored, generator2, 4).ticks
            )
        assert head + tail == full

    def test_restore_with_config_override(self, tmp_path):
        # Incremental invalidation changes work, not verdicts, so a
        # checkpoint written with it on may resume with it off (and vice
        # versa).
        service, generator = _fresh_service()
        with service:
            drive_load(service, generator, 3)
            path = save_checkpoint(service, tmp_path / "ck.npz")
            service2, generator2 = _fresh_service()
            with service2:
                full = _verdict_stream(
                    drive_load(service2, generator2, 6).ticks
                )
        override = ServiceConfig(r=0.05, tau=2, incremental=False)
        restored = restore_service(path, config=override)
        with restored:
            assert restored.config.incremental is False
            generator3 = LoadGenerator(PROFILE)
            generator3.fast_forward(3)
            tail = _verdict_stream(drive_load(restored, generator3, 3).ticks)
        assert tail == full[3:]

    def test_rejected_tally_travels(self, tmp_path):
        service, _ = _fresh_service()
        with service:
            service._reject("nan", 3)
            path = save_checkpoint(service, tmp_path / "ck.npz")
        restored = restore_service(path)
        with restored:
            assert restored.rejected == {"nan": 3}


class TestFormat:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_retired_engine_knobs_in_config_still_load(self, tmp_path):
        # Version-2 checkpoints written before the engine's execution
        # knobs, the grid-index adoption switch and the cross-tick motion
        # carry were removed carry them in their service config, and the
        # adoption and carry counters in their stats.
        service, generator = _fresh_service()
        with service:
            full = _verdict_stream(drive_load(service, generator, 7).ticks)
        service, generator = _fresh_service()
        with service:
            drive_load(service, generator, 4)
            path = save_checkpoint(service, tmp_path / "ck.npz")
            stats = service.stats.as_dict()
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(arrays["meta_json"].tobytes().decode())
        meta["config"].update(
            backend="serial",
            workers=None,
            max_worker_tasks=None,
            reuse_indexes=True,
            reuse_motions=True,
        )
        meta["stats"]["index_reuses"] = 3
        meta["stats"]["families_reused"] = 5
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)
        ckpt = load_checkpoint(path)
        assert ckpt.config == service.config
        assert ckpt.stats == stats
        restored = restore_service(ckpt)
        with restored:
            assert restored.stats.as_dict() == stats
            generator2 = LoadGenerator(PROFILE)
            generator2.fast_forward(4)
            tail = _verdict_stream(drive_load(restored, generator2, 3).ticks)
        assert tail == full[4:]

    def test_version_mismatch_raises(self, tmp_path):
        service, _ = _fresh_service()
        with service:
            path = save_checkpoint(service, tmp_path / "ck.npz")
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(arrays["meta_json"].tobytes().decode())
        meta["version"] = 999
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError, match="format version 999"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["single", "inline"])
    def test_members_are_stored_uncompressed(self, tmp_path, kind):
        service, generator = _service_of_kind(kind)
        with service:
            drive_load(service, generator, 2)
            path = service.checkpoint(tmp_path / "ck.npz")
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert members
        assert {m.compress_type for m in members} == {zipfile.ZIP_STORED}

    @pytest.mark.parametrize("kind", ["single", "inline"])
    def test_deflated_checkpoint_still_restores(self, tmp_path, kind):
        # Version-2 checkpoints written before the archive went stored
        # are deflated; they must keep auto-resuming verdict-identically.
        service, generator = _service_of_kind(kind)
        with service:
            drive_load(service, generator, 4)
            path = service.checkpoint(tmp_path / "ck.npz")
            reference = _verdict_stream(drive_load(service, generator, 1).ticks)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        deflated = tmp_path / "deflated.npz"
        np.savez_compressed(deflated, **arrays)
        with zipfile.ZipFile(deflated) as archive:
            assert {m.compress_type for m in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }
        restored = _restore_kind(kind, deflated)
        with restored:
            assert restored.current_tick == 4
            generator2 = LoadGenerator(PROFILE)
            generator2.fast_forward(4)
            tail = _verdict_stream(drive_load(restored, generator2, 1).ticks)
        assert tail == reference

    def test_flipped_byte_fails_the_crc(self, tmp_path):
        # Stored members are not inflated on load, so the zip CRC-32 is
        # the only check on the array bytes.
        service, generator = _fresh_service()
        with service:
            drive_load(service, generator, 2)
            path = save_checkpoint(service, tmp_path / "ck.npz")
        offset, size = _member_data_span(path, "part0_store_cur.npy")
        raw = bytearray(path.read_bytes())
        raw[offset + size - 3] ^= 0xFF  # inside the float data, past the npy header
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unreadable.*CRC"):
            load_checkpoint(path)

    def test_truncated_file_raises(self, tmp_path):
        service, generator = _fresh_service()
        with service:
            drive_load(service, generator, 2)
            path = save_checkpoint(service, tmp_path / "ck.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        service, _ = _fresh_service()
        with service:
            save_checkpoint(service, tmp_path / "ck.npz")
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["ck.npz"]

    def test_publish_fsyncs_the_directory(self, tmp_path, monkeypatch):
        # Without the directory fsync a power loss can drop the rename
        # even though the file's data was fsynced.
        real_fsync = os.fsync
        synced_dirs = []

        def recording_fsync(fd):
            synced_dirs.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        service, _ = _fresh_service()
        with service:
            monkeypatch.setattr(os, "fsync", recording_fsync)
            save_checkpoint(service, tmp_path / "a.npz")
            save_checkpoint(service, tmp_path / "b.npz")
        assert synced_dirs == [False, True, False, True]

    def test_restore_service_rejects_a_sharded_checkpoint(self, tmp_path):
        service, _ = _service_of_kind("inline")
        with service:
            path = service.checkpoint(tmp_path / "ck.npz")
        with pytest.raises(CheckpointError, match="sharded"):
            restore_service(path)

    def test_restore_sharded_service_rejects_a_single_checkpoint(
        self, tmp_path
    ):
        service, _ = _fresh_service()
        with service:
            path = service.checkpoint(tmp_path / "ck.npz")
        with pytest.raises(CheckpointError, match="single"):
            restore_sharded_service(path)


_SHM = Path("/dev/shm")
_MAPS = Path("/proc/self/maps")


def _shm_names():
    """Every segment currently linked in ``/dev/shm``."""
    return set(os.listdir(_SHM))


def _mapped_shm():
    """The ``/dev/shm`` segments mapped into this process."""
    return {
        token
        for line in _MAPS.read_text().splitlines()
        for token in line.split()
        if token.startswith(str(_SHM) + "/")
    }


@pytest.mark.skipif(
    not (_SHM.is_dir() and _MAPS.exists()),
    reason="needs /dev/shm and /proc/self/maps",
)
class TestProcessRestoreHygiene:
    """A process restore leaves nothing behind: no segment, child or mapping."""

    def _checkpoint(self, tmp_path):
        service, generator = _service_of_kind("process")
        with service:
            drive_load(service, generator, 3)
            return save_checkpoint(service, tmp_path / "ck.npz")

    def test_restore_tick_checkpoint_close_leaves_nothing(self, tmp_path):
        path = self._checkpoint(tmp_path)
        segments, mapped = _shm_names(), _mapped_shm()
        restored = restore_sharded_service(path, topology_workers="process")
        with restored:
            generator = LoadGenerator(PROFILE)
            generator.fast_forward(restored.current_tick)
            drive_load(restored, generator, 1)
            # The checkpoint reads the children's planes from this process.
            restored.checkpoint(tmp_path / "again.npz")
            assert _mapped_shm() - mapped
        assert multiprocessing.active_children() == []
        assert _shm_names() == segments
        assert _mapped_shm() <= mapped

    def test_child_failing_before_ready_is_reaped_and_unlinked(self, tmp_path):
        ckpt = load_checkpoint(self._checkpoint(tmp_path))
        # One row short: shard 1's child allocates its planes, then fails
        # to fill them; shard 0's child comes up healthy.
        state = ckpt.parts[1].store_state
        state["prev"] = state["prev"][:-1]
        segments = _shm_names()
        with pytest.raises(ConfigurationError, match="shard 1 worker failed to start"):
            restore_sharded_service(ckpt, topology_workers="process")
        assert multiprocessing.active_children() == []
        assert _shm_names() == segments

    def test_shard_states_outlive_close(self, tmp_path):
        ckpt = load_checkpoint(self._checkpoint(tmp_path))
        restored = restore_sharded_service(ckpt, topology_workers="process")
        with restored:
            states = restored.shard_states()
        for (store_state, _, _), part in zip(states, ckpt.parts):
            for key, want in part.store_state.items():
                got = store_state[key]
                assert not isinstance(got, np.ndarray) or got.base is None
                np.testing.assert_array_equal(got, want)


#: The frame-fed services' detector, tight enough that the load raises flags.
STEP = DetectorSpec("step", {"max_step": 0.1})

DETECTION_FIELDS = (
    "positions", "abnormal", "flags", "scores", "forecasts", "residuals",
)


def _frame_fed(kind):
    """A ``single`` or process-sharded service that runs its own bank."""
    generator = LoadGenerator(PROFILE)
    cfg = ServiceConfig(r=0.05, tau=2)
    if kind == "single":
        service = OnlineCharacterizationService(
            generator.initial_positions(), cfg, detector=STEP
        )
    else:
        service = ShardedService(
            generator.initial_positions(),
            cfg,
            topology_shards=2,
            topology_workers=kind,
            detector=STEP,
        )
    return service, generator


def _assert_same_detection(got, want):
    for name in DETECTION_FIELDS:
        assert np.array_equal(
            getattr(got, name), getattr(want, name), equal_nan=True
        ), name


def _ndarrays(obj, seen):
    """Every ndarray reachable from ``obj`` (attributes, slots, containers,
    partial arguments), each once."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, functools.partial):
        children = [*obj.args, *obj.keywords.values()]
    else:
        children = list(getattr(obj, "__dict__", {}).values())
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if hasattr(obj, slot):
                    children.append(getattr(obj, slot))
    for child in children:
        yield from _ndarrays(child, seen)


class _LegacyDetection:
    """Pickles exactly like the frozen-dataclass ``BankDetection`` that
    version-2 checkpoints carried before its planes went lazy: a bare
    instance plus its six-field dict, every plane eager."""

    # The pickler emits NEWOBJ only for an object of the named class.
    __class__ = BankDetection

    def __init__(self, detection):
        self._fields = {
            name: np.array(getattr(detection, name))
            for name in DETECTION_FIELDS
        }

    def __reduce__(self):
        return (copyreg.__newobj__, (BankDetection,), self._fields)


def _rewrite_in_legacy_layout(path, legacy_path):
    """Copy a checkpoint, its detector planes in the older layout: every
    bank parameter a full ``(n, d)`` copy, the bank's baseline and the
    detection's positions separate arrays, the detection eager."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    aux = pickle.loads(arrays["aux_blob"].tobytes())
    bank = aux["bank"]
    for name, value in vars(bank).items():
        if isinstance(value, np.ndarray) and value.shape != bank.shape:
            setattr(bank, name, np.broadcast_to(value, bank.shape).copy())
    bank._last = bank._last.copy()
    aux["last_detection"] = _LegacyDetection(aux["last_detection"])
    arrays["aux_blob"] = np.frombuffer(
        pickle.dumps(aux, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
    )
    np.savez(legacy_path, **arrays)


class TestDetectorPlanes:
    """What a frame-fed checkpoint carries of the detection plane."""

    @pytest.mark.parametrize("kind", ["single", "process"])
    def test_restored_last_detection_equals_the_original(self, tmp_path, kind):
        service, generator = _frame_fed(kind)
        with service:
            ticks = drive_load_measurements(service, generator, 4).ticks
            assert any(t.flagged for t in ticks)
            path = service.checkpoint(tmp_path / "ck.npz")
            want = service.last_detection
            restored = _restore_kind(kind, path)
            with restored:
                got = restored.last_detection
                _assert_same_detection(got, want)
                # One plane serves as the bank's baseline and the
                # detection's positions, before and after the restore.
                assert got.positions is restored.bank._last

    def test_aux_blob_holds_at_most_two_position_planes(self, tmp_path):
        service, generator = _frame_fed("single")
        with service:
            drive_load_measurements(service, generator, 4)
            path = service.checkpoint(tmp_path / "ck.npz")
            shape = (service.n, service.dim)
        with np.load(path) as data:
            aux = pickle.loads(data["aux_blob"].tobytes())
        planes = [
            arr
            for arr in _ndarrays(aux, set())
            if arr.dtype.kind == "f" and arr.size >= shape[0] * shape[1]
        ]
        # The shared positions and the previous baseline the lazy planes
        # derive from; parameters stay 0-d, the planes are not pickled.
        assert len(planes) <= 2
        assert all(arr.shape == shape for arr in planes)

    @pytest.mark.parametrize("kind", ["single", "process"])
    def test_older_layout_resumes_verdict_identically(self, tmp_path, kind):
        service, generator = _frame_fed(kind)
        with service:
            drive_load_measurements(service, generator, 4)
            path = service.checkpoint(tmp_path / "ck.npz")
            reference = drive_load_measurements(service, generator, 3)
            want_stream = _verdict_stream(reference.ticks)
            want_detection = service.last_detection
        legacy = tmp_path / "legacy.npz"
        _rewrite_in_legacy_layout(path, legacy)
        ckpt = load_checkpoint(legacy)
        assert ckpt.bank._max_step.shape == (PROFILE.devices, 2)
        assert ckpt.last_detection.positions is not ckpt.bank._last
        restored = _restore_kind(kind, legacy)
        with restored:
            generator2 = LoadGenerator(PROFILE)
            generator2.fast_forward(4)
            resumed = drive_load_measurements(restored, generator2, 3)
            assert _verdict_stream(resumed.ticks) == want_stream
            _assert_same_detection(restored.last_detection, want_detection)


def _rewrite_with_cell_regions(path, cell_path):
    """Copy a checkpoint, its dirty regions as cell keys only — the way
    checkpoints were written before the tracker and the store recorded
    positions (``pending`` / ``carry`` / ``carry_next`` and the store's
    ``membership``).  Returns how many carry cells were written."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    carried = 0
    for key in [key for key in arrays if key.endswith("_keys")]:
        base = key[: -len("_keys")]
        keys = arrays.pop(key)
        del arrays[f"{base}_lo"]
        arrays.pop(f"{base}_hi", None)
        cells = np.unique(keys, axis=0) if len(keys) else np.empty((0, 0), np.int64)
        arrays[base] = cells
        if base.endswith("_tracker_carry"):
            carried += len(cells)
    np.savez(cell_path, **arrays)
    return carried


class TestCellRegions:
    """Checkpoints that record dirty regions as cells still resume."""

    @pytest.mark.parametrize("feed", ["events", "frames"])
    @pytest.mark.parametrize("kind", ["single", "process"])
    def test_cell_only_regions_resume_verdict_identically(self, tmp_path, kind, feed):
        if feed == "frames":
            service, generator = _frame_fed(kind)
            drive = drive_load_measurements
        else:
            service, generator = _service_of_kind(kind)
            drive = drive_load
        with service:
            drive(service, generator, 4)
            path = service.checkpoint(tmp_path / "ck.npz")
            want = drive(service, generator, 3).ticks
        cells = tmp_path / "cells.npz"
        assert _rewrite_with_cell_regions(path, cells) > 0
        for source, exact in ((path, True), (cells, False)):
            restored = _restore_kind(kind, source)
            with restored:
                generator2 = LoadGenerator(PROFILE)
                generator2.fast_forward(4)
                got = drive(restored, generator2, 3).ticks
            assert _verdict_stream(got) == _verdict_stream(want)
            # Boxes resume the exact recompute set; whole carry cells
            # recompute a superset of it on the first resumed tick.
            first, ref = set(got[0].recomputed), set(want[0].recomputed)
            assert first == ref if exact else first >= ref
            assert [t.recomputed for t in got[1:]] == [t.recomputed for t in want[1:]]


class TestWriterAndRetention:
    def test_writer_cadence_and_pruning(self, tmp_path):
        service, generator = _fresh_service()
        with service:
            writer = CheckpointWriter(
                service, tmp_path, every=2, keep=2
            )
            service.add_sink(writer)
            drive_load(service, generator, 9)
        # Ticks 2,4,6,8 were written; retention kept the newest 2.
        assert len(writer.written) == 4
        kept = [p.name for p in list_checkpoints(tmp_path)]
        assert kept == ["checkpoint-00000006.npz", "checkpoint-00000008.npz"]
        assert latest_checkpoint(tmp_path) == checkpoint_path(tmp_path, 8)

    def test_writer_validates_knobs(self, tmp_path):
        service, _ = _fresh_service()
        with service:
            with pytest.raises(ConfigurationError):
                CheckpointWriter(service, tmp_path, every=0)
            with pytest.raises(ConfigurationError):
                CheckpointWriter(service, tmp_path, keep=0)
        with pytest.raises(ConfigurationError):
            prune_checkpoints(tmp_path, keep=0)

    @pytest.mark.parametrize("kind", ["single", "inline", "process"])
    def test_stale_tmp_is_swept(self, tmp_path, kind):
        # A writer killed mid-write leaves its temp file behind; the next
        # completed write's pruning removes it.  (Not tick 1's name: the
        # write of tick 1 would replace that file itself.)
        stale = tmp_path / "checkpoint-00000007.npz.tmp"
        stale.write_bytes(b"torn")
        service, generator = _service_of_kind(kind)
        with service:
            service.add_sink(CheckpointWriter(service, tmp_path))
            drive_load(service, generator, 1)
        assert not stale.exists()
        assert load_checkpoint(latest_checkpoint(tmp_path)).tick == 1

    def test_latest_checkpoint_on_missing_dir(self, tmp_path):
        assert latest_checkpoint(tmp_path / "never-made") is None
        assert list_checkpoints(tmp_path / "never-made") == []
