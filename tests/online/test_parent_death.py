"""Process shards die with their parent: no orphans, no leaked segments.

A parent hosting a 2-process-shard :class:`ShardedService` is SIGKILLed
mid-serve.  Its shard children must notice (they poll for being
re-parented; a forked child's own copy of the parent's pipe end means
EOF never arrives), unlink the shared-memory segments they own and
exit, which in turn lets the shared resource tracker reclaim the
parent's segments and exit too.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and os.path.isdir("/dev/shm")),
    reason="needs /proc and /dev/shm",
)

_PARENT = r"""
import time

import numpy as np

from repro.online import QosUpdate, ServiceConfig, ShardedService

rng = np.random.default_rng(0)
service = ShardedService(
    rng.random((200, 2)),
    ServiceConfig(r=0.05, tau=2),
    topology_shards=2,
    topology_workers="process",
)
for tick in range(2):
    for dev in range(0, 200, 7):
        service.ingest(QosUpdate(dev, tuple(rng.random(2)), True))
    service.end_tick()
print("ready", flush=True)
time.sleep(600)
"""


def _segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _children(pid):
    """Pids whose parent is ``pid`` (shard children, resource tracker)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _alive(pid):
    """Running (a reaped or zombie process counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def test_sigkilled_parent_leaves_no_children_and_no_segments():
    before = _segments()
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    parent = subprocess.Popen(
        [sys.executable, "-c", _PARENT],
        cwd=str(repo_root),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    children = []
    try:
        assert parent.stdout.readline().strip() == "ready"
        children = _children(parent.pid)
        assert len(children) >= 2  # both shard children (plus the tracker)
        assert _segments() - before
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            survivors = [pid for pid in children if _alive(pid)]
            leaked = _segments() - before
            if not survivors and not leaked:
                break
            time.sleep(0.1)
        assert survivors == []
        assert leaked == set()
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in children:
            if not _alive(pid):
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
