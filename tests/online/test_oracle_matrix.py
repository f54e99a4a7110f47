"""Every serving configuration against the omniscient observer.

The paper's central claim is that the local conditions (Theorems 5-7 and
Corollary 8, reading only the ``4r`` knowledge ball) classify every
flagged device exactly as the omniscient observer does.  This harness
holds each way of serving the characterization to that claim, tick by
tick, on seeded small streams: ``n = 40`` devices in the unit square,
coordinated groups of 3-6 moving by a common shift, loners walking and
jumping, flags toggling in place, and leave/join churn whose joins reuse
the most recently freed id.

Each stream runs through the single service (motion carry on and off),
a 2-shard inline and a 2-shard process :class:`ShardedService`, a
mid-stream checkpoint and restore of the single and of the sharded
service, and process shards under a seeded ``FaultPlan`` of child kills.

The reference never reads service internals.  The test keeps its own
mirror of positions and flags, builds each tick's transition from it,
and classifies that transition once, shared by every configuration:

* with at most :data:`ORACLE_LIMIT` flagged devices, by
  :func:`~repro.core.oracle.oracle_classify` on the whole transition;
* otherwise device by device, by the oracle on the device's ``4r``
  ball, found by brute force here.  The ball holds everything the
  device's class depends on, so the oracle's verdict on it is exact.
  A device whose ball holds more than :data:`ORACLE_LIMIT` devices is
  skipped and counted; skips must stay at most 5% of checked verdicts.

Every witness is checked against the definitions
(:func:`check_witness`): a Theorem 6 witness is one of the device's
maximal dense motions, found by
:func:`~repro.core.motions.brute_force_maximal_motions`; a Corollary 8
witness is a counterexample collection.  Each configuration must reach
all four decisive rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.core.motions import brute_force_maximal_motions
from repro.core.oracle import oracle_classify
from repro.core.transition import Snapshot, Transition
from repro.core.types import AnomalyType, Characterization, DecisionRule
from repro.online import (
    OnlineCharacterizationService,
    QosUpdate,
    ServiceConfig,
    ShardedService,
)
from repro.robust.chaos import FaultPlan, inject

N = 40
R = 0.05
TAU = 2
TICKS = 7
STREAM_SEEDS = tuple(range(6))
#: Largest device set the exhaustive oracle classifies (Bell(8) = 4140
#: candidate partitions).
ORACLE_LIMIT = 8
#: Slack on the brute-force balls: a ball holding a little more than
#: ``4r`` still holds everything the device's class depends on.
BALL_SLACK = 1e-9
#: Half-width of a group's offsets from its home.
SPREAD = 1.2 * R

#: The decision rule each anomaly type may come from.
RULE_TYPES = {
    DecisionRule.THEOREM_5: AnomalyType.ISOLATED,
    DecisionRule.THEOREM_6: AnomalyType.MASSIVE,
    DecisionRule.THEOREM_7: AnomalyType.MASSIVE,
    DecisionRule.COROLLARY_8: AnomalyType.UNRESOLVED,
}
#: The rules whose verdicts carry a witness.
WITNESSED = (DecisionRule.THEOREM_6, DecisionRule.COROLLARY_8)


# ----------------------------------------------------------------------
# Definitional checks, shared with tests/core/test_oracle_crosscheck.py
# ----------------------------------------------------------------------
def within(transition: Transition, device: int, radius: float) -> List[int]:
    """Flagged devices within ``radius`` of ``device`` at both times
    (Chebyshev distance in the combined coordinates), by brute force."""
    flagged = transition.flagged_sorted
    pts = transition.combined_of(flagged)
    near = np.abs(pts - transition.combined_of([device])).max(axis=1)
    return [flagged[i] for i in np.flatnonzero(near <= radius + BALL_SLACK)]


def dense_family(transition: Transition, device: int) -> List[FrozenSet[int]]:
    """``Wbar_k(device)``: its maximal dense motions, by brute force over
    the devices within ``2r`` (every motion through it lies there)."""
    candidates = within(transition, device, 2.0 * transition.r)
    return [
        motion
        for motion in brute_force_maximal_motions(
            transition, candidates, anchor=device
        )
        if len(motion) > transition.tau
    ]


def check_witness(
    transition: Transition,
    device: int,
    verdict: Characterization,
    family: Optional[Sequence[FrozenSet[int]]] = None,
) -> None:
    """Assert that ``verdict``'s rule fits its type and its witness
    satisfies the definitions.

    ``family`` is ``device``'s maximal dense motions when the caller
    already has them (:func:`dense_family` otherwise).
    """
    rule = verdict.rule
    assert RULE_TYPES[rule] is verdict.anomaly_type, (device, rule)
    if rule not in WITNESSED:
        return
    if family is None:
        family = dense_family(transition, device)
    tau = transition.tau
    if rule is DecisionRule.THEOREM_6:
        (motion,) = verdict.witness
        assert motion in family, (device, sorted(motion))
        return
    union: set = set()
    for block in verdict.witness:
        assert len(block) > tau, (device, sorted(block))
        assert device not in block, (device, sorted(block))
        assert transition.is_consistent_motion(block), (device, sorted(block))
        assert not transition.is_consistent_motion(block | {device}), (
            device,
            sorted(block),
        )
        assert not union & block, (device, sorted(block))
        union |= block
    for motion in family:
        assert len(motion - union) <= tau, (device, sorted(motion))


def oracle_types(
    transition: Transition, limit: int = ORACLE_LIMIT
) -> Dict[int, Optional[AnomalyType]]:
    """The omniscient observer's class of every flagged device, or None
    for a device whose ``4r`` ball holds more than ``limit`` devices."""
    flagged = transition.flagged_sorted
    if len(flagged) <= limit:
        verdict = oracle_classify(transition)
        return {j: verdict.type_of(j) for j in flagged}
    by_ball: Dict[Tuple[int, ...], object] = {}
    out: Dict[int, Optional[AnomalyType]] = {}
    for j in flagged:
        ball = tuple(within(transition, j, 4.0 * transition.r))
        if len(ball) > limit:
            out[j] = None
            continue
        verdict = by_ball.get(ball)
        if verdict is None:
            local = Transition(
                transition.previous,
                transition.current,
                ball,
                transition.r,
                transition.tau,
            )
            verdict = by_ball[ball] = oracle_classify(local)
        out[j] = verdict.type_of(j)
    return out


# ----------------------------------------------------------------------
# Streams and their references
# ----------------------------------------------------------------------
@dataclass
class StreamTick:
    """One tick's input: leaves, then joins, then queued updates."""

    leaves: List[int] = field(default_factory=list)
    joins: List[Tuple[int, Tuple[float, float], bool]] = field(default_factory=list)
    updates: List[QosUpdate] = field(default_factory=list)


@dataclass
class TickReference:
    """The test's own view of one tick: its transition and the oracle's
    classes (None: skipped), plus the brute-force dense families."""

    transition: Transition
    types: Dict[int, Optional[AnomalyType]]
    families: Dict[int, List[FrozenSet[int]]] = field(default_factory=dict)

    def family(self, device: int) -> List[FrozenSet[int]]:
        if device not in self.families:
            self.families[device] = dense_family(self.transition, device)
        return self.families[device]


@dataclass
class Stream:
    initial: np.ndarray
    ticks: List[StreamTick]
    references: List[TickReference]


def _mirror_transition(prev, cur, flags) -> Transition:
    """A transition over ids ``0..max``; absent ids sit unflagged at 0."""
    size = max(cur) + 1
    prev_arr = np.zeros((size, 2))
    cur_arr = np.zeros((size, 2))
    for j, p in cur.items():
        prev_arr[j] = prev[j]
        cur_arr[j] = p
    flagged = [j for j, f in flags.items() if f]
    return Transition(Snapshot(prev_arr), Snapshot(cur_arr), flagged, R, TAU)


#: Figure 5's diamond at ``tau = 2``: pairs on two opposite vertices,
#: single devices on the other two; adjacent vertices ``1.5r`` apart,
#: opposite ones ``3r``.  Every edge is a dense motion and no device's
#: Theorem 6 test passes, so its members are massive by Theorem 7.
DIAMOND = [(0, -1.5), (0, -1.5), (1.5, 0), (0, 1.5), (0, 1.5), (-1.5, 0)]


#: The heights groups move along: far enough apart that two groups
#: never share a ``4r`` ball, which would outgrow the oracle.
BANDS = (0.15, 0.5, 0.85)


@dataclass
class Group:
    """Devices at fixed offsets from a home that moves as one."""

    home: np.ndarray
    offsets: Dict[int, np.ndarray]
    noise: float
    #: Chance that a member of the moving group reports flagged.
    flagging: float


def stream(seed: int) -> Stream:
    """A seeded stream, mirrored and classified once per tick.

    One group is :data:`DIAMOND`; one or two more hold 3-6 devices at
    random offsets spanning up to ``2.4r``, wider than one motion, so
    their maximal motions overlap and Corollary 8 has work to do.  An
    active group moves by a common shift with flags mostly raised; an
    idle one stays put and may report healthy.  A leaving group member
    leaves its group; a join takes the most recently freed id at a
    random point, stationary for its first tick.
    """
    rng = np.random.default_rng(seed)
    pos = {j: p for j, p in enumerate(rng.random((N, 2)))}
    flags = dict.fromkeys(range(N), False)
    members = rng.permutation(N).tolist()
    layouts = [np.array(DIAMOND) * R]
    for _ in range(int(rng.integers(1, 3))):
        size = int(rng.integers(3, 7))
        layouts.append(rng.uniform(-SPREAD, SPREAD, (size, 2)))
    groups: List[Group] = []
    for k, layout in enumerate(layouts):
        ids, members = members[: len(layout)], members[len(layout) :]
        home = np.array([rng.uniform(0.15, 0.85), BANDS[k]])
        if k == 0:
            group = Group(home, dict(zip(ids, layout)), noise=R / 40, flagging=1.0)
        else:
            group = Group(home, dict(zip(ids, layout)), noise=R / 6, flagging=0.9)
        for j, offset in group.offsets.items():
            pos[j] = np.clip(group.home + offset, 0, 1)
        groups.append(group)
    initial = np.array([pos[j] for j in range(N)])
    free: List[int] = []
    ticks: List[StreamTick] = []
    references: List[TickReference] = []
    for _ in range(TICKS):
        tick = StreamTick()
        prev = {j: p.copy() for j, p in pos.items()}
        for _ in range(int(rng.integers(0, 3))):
            gone = int(rng.choice(sorted(set(pos) - set(groups[0].offsets))))
            tick.leaves.append(gone)
            del pos[gone], flags[gone], prev[gone]
            for group in groups:
                group.offsets.pop(gone, None)
            free.append(gone)
        joined = set()
        while free and rng.random() < 0.6:
            j = free.pop()
            p = rng.random(2)
            f = bool(rng.random() < 0.5)
            tick.joins.append((j, tuple(p.tolist()), f))
            pos[j], prev[j], flags[j] = p, p.copy(), f
            joined.add(j)
        reports: Dict[int, bool] = {}
        for group in groups:
            if rng.random() < 0.75:
                group.home += rng.uniform(-4 * R, 4 * R, 2) * (1.0, 0.1)
                np.clip(group.home, 0.15, 0.85, out=group.home)
                for j, offset in group.offsets.items():
                    jitter = rng.normal(0, group.noise, 2)
                    pos[j] = np.clip(group.home + offset + jitter, 0, 1)
                    reports[j] = bool(rng.random() < group.flagging)
            elif rng.random() < 0.5:
                reports.update(dict.fromkeys(group.offsets, False))
        loners = [j for j in sorted(pos) if j not in reports and j not in joined]
        for j in rng.choice(loners, size=min(6, len(loners)), replace=False).tolist():
            step = rng.normal(0, 0.03 if rng.random() < 0.7 else 0.3, 2)
            pos[j] = np.clip(pos[j] + step, 0, 1)
            reports[j] = bool(rng.random() < 0.2)
        still = [j for j in sorted(pos) if j not in reports and j not in joined]
        for j in rng.choice(still, size=min(3, len(still)), replace=False).tolist():
            reports[j] = not flags[j]  # a flag toggle in place
        for j, f in reports.items():
            flags[j] = f
            tick.updates.append(QosUpdate(j, tuple(pos[j].tolist()), f))
        transition = _mirror_transition(prev, pos, flags)
        ticks.append(tick)
        references.append(TickReference(transition, oracle_types(transition)))
    return Stream(initial, ticks, references)


# ----------------------------------------------------------------------
# Serving configurations
# ----------------------------------------------------------------------
def _feed(service, tick: StreamTick, sharded: bool):
    for j in tick.leaves:
        service.leave(j) if sharded else service.store.leave(j)
    for j, p, f in tick.joins:
        service.join(j, p, f) if sharded else service.store.join(j, p, f)
    service.ingest_many(tick.updates)
    return service.end_tick()


def _run(make, sharded: bool, data: Stream, *, restore=None, path=None):
    """Feed ``data`` to ``make(initial)``; with ``restore``, checkpoint
    halfway and continue on ``restore(checkpoint)``."""
    service = make(data.initial.copy())
    out = []
    try:
        for k, tick in enumerate(data.ticks):
            if restore is not None and k == len(data.ticks) // 2:
                saved = service.checkpoint(path)
                service.close()
                service = restore(saved)
            out.append(_feed(service, tick, sharded).verdicts)
    finally:
        service.close()
    return out


CFG = ServiceConfig(r=R, tau=TAU)
CHAOS_CFG = ServiceConfig(r=R, tau=TAU, dispatch_deadline=5.0, dispatch_retries=3)


def _sharded(workers, cfg=CFG):
    return lambda pts: ShardedService(
        pts, cfg, topology_shards=2, topology_workers=workers
    )


def _single(carry):
    return lambda pts: OnlineCharacterizationService(
        pts, ServiceConfig(r=R, tau=TAU, reuse_motions=carry)
    )


def _chaos(data):
    plan = FaultPlan(seed=7, kill_probability=0.15)
    with inject(plan) as injector:
        out = _run(_sharded("process", CHAOS_CFG), True, data)
    assert sum(injector.injected.values()) > 0
    return out


#: name -> ``run(stream, tmp_path)``, the stream's verdict maps per tick.
CONFIGURATIONS = {
    "single-carry": lambda data, tmp: _run(_single(True), False, data),
    "single-no-carry": lambda data, tmp: _run(_single(False), False, data),
    "inline-shards": lambda data, tmp: _run(_sharded("inline"), True, data),
    "process-shards": lambda data, tmp: _run(_sharded("process"), True, data),
    "single-restored": lambda data, tmp: _run(
        _single(True),
        False,
        data,
        restore=OnlineCharacterizationService.restore,
        path=tmp / "single.npz",
    ),
    # Written by inline shards, resumed on process shards.
    "sharded-restored": lambda data, tmp: _run(
        _sharded("inline"),
        True,
        data,
        restore=lambda saved: ShardedService.restore(saved, topology_workers="process"),
        path=tmp / "sharded.npz",
    ),
    "process-shards-chaos": lambda data, tmp: _chaos(data),
}


@pytest.fixture(scope="module")
def streams() -> Dict[int, Stream]:
    """Every stream with its reference, built once for all configurations."""
    return {seed: stream(seed) for seed in STREAM_SEEDS}


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_every_tick_matches_the_oracle(name, streams, tmp_path):
    rules = set()
    checked = skipped = 0
    for seed, data in streams.items():
        history = CONFIGURATIONS[name](data, tmp_path)
        assert len(history) == len(data.references)
        for k, (verdicts, ref) in enumerate(zip(history, data.references)):
            where = f"seed={seed} tick={k + 1}"
            assert sorted(verdicts) == list(ref.transition.flagged_sorted), where
            for j, verdict in verdicts.items():
                want = ref.types[j]
                if want is None:
                    skipped += 1
                else:
                    checked += 1
                    assert verdict.anomaly_type is want, f"{where} device={j}"
                family = None
                if verdict.rule in WITNESSED:
                    family = ref.family(j)
                check_witness(ref.transition, j, verdict, family)
                rules.add(verdict.rule)
    assert rules == set(RULE_TYPES), sorted(rule.value for rule in rules)
    assert skipped <= 0.05 * checked, (skipped, checked)
