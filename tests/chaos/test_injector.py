"""The chaos injector itself: inert default, plans, replayability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.robust.chaos import ChaosInjector, FaultPlan, get_injector, inject


class TestInertDefault:
    def test_global_injector_is_inactive(self):
        injector = get_injector()
        assert not injector.active
        assert injector.dispatch(1, 0) is None

    def test_inactive_corrupt_frame_returns_input_unchanged(self):
        values = np.random.default_rng(0).random((4, 2))
        assert get_injector().corrupt_frame(1, values) is values


class TestInstall:
    def test_inject_installs_and_uninstalls(self):
        plan = FaultPlan(kill_at={1: 0})
        with inject(plan) as injector:
            assert get_injector() is injector
            assert injector.active
        assert get_injector() is not injector
        assert not get_injector().active

    def test_nested_installs_are_rejected(self):
        with inject(FaultPlan()):
            with pytest.raises(RuntimeError, match="already installed"):
                with inject(FaultPlan()):
                    pass

    def test_uninstall_survives_an_exception(self):
        with pytest.raises(ValueError):
            with inject(FaultPlan()):
                raise ValueError("boom")
        assert not get_injector().active


class TestScheduledFaults:
    def test_scheduled_actions_hit_their_target_only(self):
        injector = ChaosInjector(
            FaultPlan(
                kill_at={1: 0},
                drop_reply_at={2: 1},
                hang_at={3: 0},
                delay_at={4: 1},
                hang_seconds=0.25,
                delay_seconds=0.05,
            )
        )
        assert injector.dispatch(1, 0).kill
        assert injector.dispatch(1, 1) is None
        assert injector.dispatch(2, 1).drop_reply
        assert injector.dispatch(3, 0).hang == 0.25
        assert injector.dispatch(4, 1).delay == 0.05
        assert injector.dispatch(5, 0) is None
        assert injector.injected == {
            "kill": 1,
            "drop_reply": 1,
            "hang": 1,
            "delay": 1,
        }

    def test_probabilistic_schedule_replays_identically(self):
        def draw():
            injector = ChaosInjector(
                FaultPlan(seed=42, kill_probability=0.1, drop_probability=0.1)
            )
            return [
                (a.kill, a.drop_reply) if a else None
                for a in (
                    injector.dispatch(tick, shard)
                    for tick in range(1, 40)
                    for shard in range(2)
                )
            ]

        first, second = draw(), draw()
        assert first == second
        assert any(first)  # p=0.2 over 78 dispatches: faults did fire

    def test_kill_beats_drop_on_one_draw(self):
        injector = ChaosInjector(
            FaultPlan(seed=0, kill_probability=1.0, drop_probability=1.0)
        )
        action = injector.dispatch(1, 0)
        assert action.kill and not action.drop_reply


class TestFrameFaults:
    def test_corrupt_frame_copies_and_counts(self):
        injector = ChaosInjector(
            FaultPlan(
                frame_nan_at={3: [0]},
                frame_inf_at={3: [1]},
                frame_oob_at={4: [2]},
            )
        )
        values = np.random.default_rng(1).random((5, 2))
        out = injector.corrupt_frame(3, values)
        assert out is not values
        assert np.isfinite(values).all()  # caller's array untouched
        assert np.isnan(out[0, 0])
        assert np.isinf(out[1, 0])
        untouched = injector.corrupt_frame(2, values)
        assert untouched is values
        oob = injector.corrupt_frame(4, values)
        assert oob[2, 0] == 7.5
        assert injector.injected == {
            "frame_nan": 1,
            "frame_inf": 1,
            "frame_oob": 1,
        }
