"""Tests for repro.utils.faults — the deterministic chaos layer.

The executor- and service-side consequences of a plan (respawns,
degradation, byte-identity under kills) live in ``test_executor.py``,
``test_serving.py``, and the conformance matrix; this file pins the
plan's own mechanics: schedules are pure functions of the
configuration, counters advance per consumed slot, and the source
wrapper fails exactly the scheduled draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InjectedFaultError, InvalidParameterError
from repro.utils.faults import DELAY, KILL, FaultPlan


class TestFaultPlanSchedules:
    def test_kill_at_fires_once_per_index(self):
        plan = FaultPlan(kill_at=[1, 3])
        directives = plan.task_directives(5)
        assert [d is not None and d[0] == KILL for d in directives] == [
            False, True, False, True, False,
        ]
        # Later slots are past the scheduled indices: nothing re-fires.
        assert plan.task_directives(5) == [None] * 5
        assert plan.injected == {"kills": 2, "delays": 0, "alloc_failures": 0}
        assert plan.tasks_scheduled == 10

    def test_kill_every_with_limit(self):
        plan = FaultPlan(kill_every=2, kill_limit=2)
        directives = plan.task_directives(8)
        kills = [i for i, d in enumerate(directives) if d is not None]
        assert kills == [1, 3]  # indices 1, 3 fire; 5, 7 hit the cap
        assert plan.injected["kills"] == 2

    def test_kill_chance_is_seeded(self):
        first = FaultPlan(seed=42, kill_chance=0.5).task_directives(32)
        second = FaultPlan(seed=42, kill_chance=0.5).task_directives(32)
        assert first == second
        assert any(d is not None for d in first)
        assert any(d is None for d in first)

    def test_delay_directive_carries_duration(self):
        plan = FaultPlan(delay_at=[0], delay_s=0.25)
        (directive,) = plan.task_directives(1)
        assert directive == (DELAY, 0.25)
        assert plan.injected["delays"] == 1

    def test_kill_shadows_delay_on_same_index(self):
        plan = FaultPlan(kill_at=[0], delay_at=[0], delay_s=1.0)
        (directive,) = plan.task_directives(1)
        assert directive == (KILL,)

    def test_counter_spans_attempts(self):
        # A retried batch consumes fresh slots: the same one-shot kill
        # schedule cannot re-fire, which is what makes the executor's
        # respawn-then-succeed path reachable.
        plan = FaultPlan(kill_at=[0])
        assert plan.task_directives(3)[0] == (KILL,)
        assert plan.task_directives(3) == [None] * 3

    def test_alloc_schedule(self):
        plan = FaultPlan(fail_alloc_at=[0, 2])
        assert [plan.take_alloc() for _ in range(4)] == [
            True, False, True, False,
        ]
        assert plan.injected["alloc_failures"] == 2

    def test_zero_count_consumes_nothing(self):
        plan = FaultPlan(kill_at=[0])
        assert plan.task_directives(0) == []
        assert plan.tasks_scheduled == 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan(kill_every=0)
        with pytest.raises(InvalidParameterError):
            FaultPlan(kill_chance=1.5)
        with pytest.raises(InvalidParameterError):
            FaultPlan(kill_limit=-1)
        with pytest.raises(InvalidParameterError):
            FaultPlan(delay_s=-0.1)
        with pytest.raises(InvalidParameterError):
            FaultPlan(kill_at=[-1])


class _Recorder:
    """A stub source that records the sizes it was asked for."""

    def __init__(self) -> None:
        self.sizes: list[int] = []

    def sample(self, size, rng=None):
        self.sizes.append(size)
        return np.zeros(size, dtype=np.int64)


class TestFaultySource:
    def test_scheduled_draw_raises_before_delegating(self):
        inner = _Recorder()
        source = FaultPlan(fail_draw_at=[1]).wrap_source(inner)
        assert source.sample(4).shape == (4,)
        with pytest.raises(InjectedFaultError, match="draw 1"):
            source.sample(8)
        # The failed draw never reached the inner source — it is left
        # exactly one batch short, the way a real source dies.
        assert inner.sizes == [4]
        assert source.draws == 2

    def test_unscheduled_wrapper_is_transparent(self):
        inner = _Recorder()
        source = FaultPlan().wrap_source(inner)
        for size in (2, 3, 5):
            source.sample(size)
        assert inner.sizes == [2, 3, 5]
