"""Persistent worker-pool backend: lifecycle, respawn, carry, results.

The pool's contract has four load-bearing pieces:

* verdicts are bit-identical to the serial seed path (equivalence);
* workers persist across ``run()`` calls and are respawned on death or
  after ``max_worker_tasks`` retirements;
* cross-tick family carry only engages when the invariant holds (the
  immediately previous run on the backend was a pool run of the same
  shape) — a serial-fallback tick in between voids it;
* all work counters travel in the returned :class:`BackendRun`, never
  through mutable backend attributes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.characterize import Characterizer
from repro.core.errors import ConfigurationError
from repro.core.transition import Snapshot, Transition
from repro.engine import (
    BackendRun,
    CharacterizationEngine,
    EngineConfig,
    WorkerPoolBackend,
)


def _transition(seed=0, n=80, r=0.05, tau=2, drift=0.01):
    rng = np.random.default_rng(seed)
    prev = rng.random((n, 2))
    cur = np.clip(prev + rng.normal(0, drift, (n, 2)), 0, 1)
    return Transition(Snapshot(prev), Snapshot(cur), range(n), r, tau)


def _same_verdicts(got, expected):
    assert set(got) == set(expected)
    for device in expected:
        assert got[device].anomaly_type == expected[device].anomaly_type, device
        assert got[device].rule == expected[device].rule, device
        assert got[device].witness == expected[device].witness, device


@pytest.fixture
def pool_config():
    return EngineConfig(backend="process", workers=2, min_process_devices=1)


class TestPoolLifecycle:
    def test_workers_start_lazily_and_persist(self, pool_config):
        backend = WorkerPoolBackend()
        try:
            assert backend.workers_alive == 0
            t = _transition(0)
            run1 = backend.run(t, t.flagged_sorted, pool_config)
            assert backend.workers_alive == 2
            pids = {w.process.pid for w in backend._state.workers}
            run2 = backend.run(t, t.flagged_sorted, pool_config)
            # Same processes served both runs — no per-call spawn.
            assert {w.process.pid for w in backend._state.workers} == pids
            _same_verdicts(run2.verdicts, run1.verdicts)
        finally:
            backend.close()
        assert backend.workers_alive == 0

    def test_close_is_idempotent_and_pool_restarts(self, pool_config):
        backend = WorkerPoolBackend()
        t = _transition(1)
        backend.run(t, t.flagged_sorted, pool_config)
        backend.close()
        backend.close()
        # A closed backend restarts lazily on the next run.
        run = backend.run(t, t.flagged_sorted, pool_config)
        assert backend.workers_alive == 2
        _same_verdicts(run.verdicts, Characterizer(t).characterize_all())
        backend.close()

    def test_engine_context_manager_closes_pool(self, pool_config):
        t = _transition(2)
        with CharacterizationEngine(pool_config) as engine:
            engine.characterize(t)
            assert engine.backend.workers_alive == 2
        assert engine.backend.workers_alive == 0

    def test_dead_worker_is_respawned(self, pool_config):
        backend = WorkerPoolBackend()
        try:
            t = _transition(3)
            expected = Characterizer(t).characterize_all()
            backend.run(t, t.flagged_sorted, pool_config)
            victim = backend._state.workers[0].process
            victim.terminate()
            victim.join(timeout=5.0)
            run = backend.run(t, t.flagged_sorted, pool_config)
            _same_verdicts(run.verdicts, expected)
            assert backend.workers_alive == 2
        finally:
            backend.close()

    def test_dead_worker_raises_when_respawn_disabled(self):
        config = EngineConfig(
            backend="process",
            workers=2,
            min_process_devices=1,
            worker_respawn=False,
        )
        backend = WorkerPoolBackend()
        try:
            t = _transition(4)
            backend.run(t, t.flagged_sorted, config)
            victim = backend._state.workers[0].process
            victim.terminate()
            victim.join(timeout=5.0)
            with pytest.raises(RuntimeError, match="worker_respawn is off"):
                backend.run(t, t.flagged_sorted, config)
        finally:
            backend.close()

    def test_max_worker_tasks_retires_workers(self):
        config = EngineConfig(
            backend="process",
            workers=2,
            min_process_devices=1,
            max_worker_tasks=1,
        )
        backend = WorkerPoolBackend()
        try:
            t = _transition(5)
            backend.run(t, t.flagged_sorted, config)
            first_pids = {w.process.pid for w in backend._state.workers}
            run = backend.run(t, t.flagged_sorted, config)
            second_pids = {w.process.pid for w in backend._state.workers}
            assert first_pids.isdisjoint(second_pids)
            _same_verdicts(run.verdicts, Characterizer(t).characterize_all())
        finally:
            backend.close()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(max_worker_tasks=0)


class TestPoolEquivalenceAndCarry:
    def test_verdicts_identical_across_backends(self):
        t = _transition(6, n=120)
        expected = Characterizer(t).characterize_all()
        for backend_name in ("serial", "process"):
            with CharacterizationEngine(
                EngineConfig(
                    backend=backend_name, workers=3, min_process_devices=1
                )
            ) as engine:
                _same_verdicts(engine.characterize(t), expected)

    def test_carry_clean_skips_recomputation(self, pool_config):
        t1 = _transition(7, n=100)
        t2 = Transition(
            Snapshot(t1.previous.positions.copy()),
            Snapshot(t1.current.positions.copy()),
            t1.flagged,
            t1.r,
            t1.tau,
        )
        with CharacterizationEngine(pool_config) as engine:
            engine.characterize(t1)
            run = engine.characterize_run(
                t2, carry_clean=t2.flagged_sorted
            )
            # Identical transition + full clean set: every family carried.
            assert run.families_recomputed == 0
            assert run.families_reused > 0
            _same_verdicts(
                run.verdicts, Characterizer(t2).characterize_all()
            )

    def test_serial_fallback_voids_worker_carry(self):
        config = EngineConfig(
            backend="process", workers=2, min_process_devices=10
        )
        t1 = _transition(8, n=60)
        t2 = Transition(
            Snapshot(t1.previous.positions.copy()),
            Snapshot(t1.current.positions.copy()),
            t1.flagged,
            t1.r,
            t1.tau,
        )
        with CharacterizationEngine(config) as engine:
            engine.characterize(t1)  # pool path (60 >= 10)
            # Tiny run degrades to serial: worker caches go stale.
            engine.characterize(t1, devices=t1.flagged_sorted[:2])
            run = engine.characterize_run(t2, carry_clean=t2.flagged_sorted)
            # The carry must NOT have been honoured by the workers.
            assert run.families_recomputed > 0

    def test_partially_engaged_worker_does_not_carry_stale_cache(self):
        # Regression: a small tick engages fewer workers than the pool
        # holds; an idled worker's cache is then MORE than one run old,
        # and the next run's one-step clean set is not valid for it.
        # The per-worker run-sequence gate must withhold the carry.
        config = EngineConfig(
            backend="process", workers=2, chunk_size=1, min_process_devices=1
        )
        quiet = np.array([[0.1, 0.1], [0.9, 0.9], [0.5, 0.1], [0.5, 0.9]])
        merged = np.array([[0.1, 0.1], [0.9, 0.9], [0.9, 0.9], [0.9, 0.9]])

        def stationary(points):
            return Transition(
                Snapshot(points.copy()), Snapshot(points.copy()),
                range(4), 0.05, 2,
            )

        backend = WorkerPoolBackend()
        try:
            # Run 1: everyone isolated; worker 1 caches families of {1, 3}.
            backend.run(stationary(quiet), range(4), config)
            # Run 2: a one-device tick — only worker 0 engages, worker 1
            # idles while devices 1..3 merge into one dense motion.
            backend.run(stationary(merged), [0], config)
            # Run 3: full tick with a clean set valid for run2 -> run3
            # (nothing moved between them).  Worker 1's cache is from
            # run 1, where device 1's family was empty — carrying it
            # would report 'isolated' instead of 'massive'.
            t3 = stationary(merged)
            run = backend.run(t3, range(4), config, carry_clean=range(4))
            _same_verdicts(run.verdicts, Characterizer(t3).characterize_all())
        finally:
            backend.close()

    def test_fallback_consults_shared_cache(self):
        # Below min_process_devices the pool degrades to serial and the
        # engine's shared cache (with its carry) does the caching.
        config = EngineConfig(
            backend="process", workers=2, min_process_devices=1_000
        )
        t = _transition(9, n=40)
        with CharacterizationEngine(config) as engine:
            engine.characterize(t)
            before = engine.stats.cache_expansions
            engine.characterize(t)  # same transition: shared cache hits
            assert engine.stats.cache_expansions == before
            assert engine.backend.workers_alive == 0  # never spawned


class TestBackendRunResults:
    def test_run_results_not_stored_on_backend(self, pool_config):
        # Work counters travel in the BackendRun value; a backend holds
        # no per-run mutable result state two engines could trample.
        backend = WorkerPoolBackend()
        try:
            assert not hasattr(backend, "last_expansions")
            t = _transition(10, n=40)
            run = backend.run(t, t.flagged_sorted, pool_config)
            assert isinstance(run, BackendRun)
            assert run.expansions is not None and run.expansions > 0
        finally:
            backend.close()

    def test_shared_backend_instance_keeps_engines_truthful(
        self, pool_config
    ):
        # Two engines interleaving runs on one backend each see their own
        # run's counters (the old attribute side-channel could leak a
        # stale count from the other engine's run).
        backend = WorkerPoolBackend()
        try:
            t_a = _transition(11, n=50)
            t_b = _transition(12, n=50, drift=0.002)
            run_a = backend.run(t_a, t_a.flagged_sorted, pool_config)
            run_b = backend.run(t_b, t_b.flagged_sorted, pool_config)
            again_a = backend.run(t_a, t_a.flagged_sorted, pool_config)
            _same_verdicts(again_a.verdicts, run_a.verdicts)
            assert run_b.expansions is not None
        finally:
            backend.close()

    def test_worker_error_propagates_with_traceback(self, pool_config):
        backend = WorkerPoolBackend()
        try:
            t = _transition(13, n=20)
            with pytest.raises(RuntimeError, match="pool worker"):
                # Device 10**6 does not exist: the worker raises, the
                # parent surfaces the worker traceback.
                backend.run(t, [10**6] + list(t.flagged_sorted), pool_config)
            # The pool survives a failed run and serves the next one.
            run = backend.run(t, t.flagged_sorted, pool_config)
            _same_verdicts(run.verdicts, Characterizer(t).characterize_all())
        finally:
            backend.close()

    def test_failed_run_does_not_strand_sibling_replies(self, pool_config):
        # Regression: scatter-then-gather sent every task before the
        # first 'err' reply raised; the healthy workers' replies stayed
        # queued in their pipes, and the *next* run consumed them —
        # silently merging the previous transition's verdicts.  The
        # failed run now restarts the pool, so a DIFFERENT transition
        # afterwards must come back exactly right.
        backend = WorkerPoolBackend()
        try:
            t_bad = _transition(14, n=24)
            with pytest.raises(RuntimeError, match="pool worker"):
                backend.run(
                    t_bad, [10**6] + list(t_bad.flagged_sorted), pool_config
                )
            t_next = _transition(15, n=24, drift=0.003)
            run = backend.run(t_next, t_next.flagged_sorted, pool_config)
            _same_verdicts(
                run.verdicts, Characterizer(t_next).characterize_all()
            )
        finally:
            backend.close()
