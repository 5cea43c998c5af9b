"""Lockstep learn engine: byte-identity against looped references.

The lockstep contract: running any batch of greedy learns as one
round-synchronised pass — a single session learn, a session's
``learn_many`` grid, a fleet's members, or the full fleet x grid
product — produces *byte*-identical histograms, per-round priority
traces, and draw accounting to looping ``HistogramSession.learn`` with
the ``full`` reference engine.  Pinned here as a hypothesis lockstep
over random fleets and grids (mixed round budgets so early-converging
runs drop out of the active mask mid-batch), plus chaos cells where the
rescore fan's workers are killed or starved of slabs mid-round and must
heal bit-equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ArraySource,
    HistogramFleet,
    HistogramSession,
    ParallelExecutor,
    ShardPlan,
)
from repro.core.params import GreedyParams, greedy_rounds
from repro.distributions import families
from repro.utils.faults import FaultPlan

LEARN_PARAMS = GreedyParams(
    weight_sample_size=3_000, collision_sets=4, collision_set_size=1_500, rounds=2
)
# Round budgets q = k ln(1/eps) differ across this grid, so in any
# batched run the small-k points converge and leave the active mask
# while the large-k points are still committing rounds.
MIXED_GRID = [(2, 0.4), (6, 0.2), (3, 0.3)]


def _freeze(result):
    """Everything the byte-identity contract covers, hashable."""
    return (
        result.histogram.boundaries.tobytes(),
        result.histogram.values.tobytes(),
        result.filled_histogram.values.tobytes(),
        tuple(result.rounds),
        tuple(result.priority_histogram.pieces()),
        result.num_candidates,
    )


def _member_values(n, fleet_size, seed):
    """One pinned value array per member; wrap in a fresh
    :class:`ArraySource` per driver so both sides see identical data."""
    base = families.random_tiling_histogram(n, 4, rng=seed, min_piece=4)
    return [
        base.sample(12_000, np.random.default_rng(seed + 50 + f))
        for f in range(fleet_size)
    ]


def test_grid_round_budgets_really_differ():
    """Guard the premise of the drop-out coverage: the pinned grid mixes
    round budgets, so lockstep batches over it exercise the active-mask
    early-convergence path (not just equal-length runs)."""
    budgets = {greedy_rounds(k, epsilon) for k, epsilon in MIXED_GRID}
    assert len(budgets) > 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_session_lockstep_matches_full(seed):
    """Session-level lockstep — ``learn`` and the batched ``learn_many``
    — is byte-identical to the full reference engine, draw events
    included."""
    n = 96
    (values,) = _member_values(n, 1, seed)
    lock = HistogramSession(
        ArraySource(values, n),
        n,
        rng=seed,
        engine="lockstep",
        learn_budget=LEARN_PARAMS,
    )
    full = HistogramSession(
        ArraySource(values, n),
        n,
        rng=seed,
        engine="full",
        learn_budget=LEARN_PARAMS,
    )
    assert _freeze(lock.learn(3, 0.3)) == _freeze(full.learn(3, 0.3))
    lock_grid = lock.learn_many(MIXED_GRID)
    full_grid = full.learn_many(MIXED_GRID)
    assert [_freeze(r) for r in lock_grid] == [_freeze(r) for r in full_grid]
    assert lock.draw_events == full.draw_events
    assert lock.samples_drawn == full.samples_drawn


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fleet_size=st.integers(min_value=1, max_value=4),
)
def test_fleet_learn_many_matches_looped_sessions(seed, fleet_size):
    """Fleet lockstep over the full ``F x P`` batch — members with
    differing round budgets dropping out mid-lockstep — equals looping
    full-engine sessions point by point: histograms, round traces,
    priority histograms, and draw accounting."""
    n = 96
    member_values = _member_values(n, fleet_size, seed)
    seeds = [seed + 7 * f for f in range(fleet_size)]
    fleet = HistogramFleet(
        [ArraySource(values, n) for values in member_values],
        n,
        rngs=seeds,
        engine="lockstep",
        learn_budget=LEARN_PARAMS,
    )
    sessions = [
        HistogramSession(
            ArraySource(values, n),
            n,
            rng=s,
            engine="full",
            learn_budget=LEARN_PARAMS,
        )
        for values, s in zip(member_values, seeds)
    ]
    fleet_results = fleet.learn_many(MIXED_GRID)
    session_results = [session.learn_many(MIXED_GRID) for session in sessions]
    assert [
        [_freeze(r) for r in member] for member in fleet_results
    ] == [[_freeze(r) for r in member] for member in session_results]
    assert fleet.draw_events == [session.draw_events for session in sessions]
    # The batch planned its pools up front: one learn draw per member.
    assert all(events["learn"] == 1 for events in fleet.draw_events)


def test_fleet_learn_matches_looped_sessions_single_point():
    """``HistogramFleet.learn`` (the serving/maintainer entry point)
    holds the same contract on a single point, member subsets
    included."""
    n = 128
    member_values = _member_values(n, 5, 3)
    seeds = list(range(5))
    fleet = HistogramFleet(
        [ArraySource(values, n) for values in member_values],
        n,
        rngs=seeds,
        engine="lockstep",
        learn_budget=LEARN_PARAMS,
    )
    sessions = [
        HistogramSession(
            ArraySource(values, n),
            n,
            rng=s,
            engine="full",
            learn_budget=LEARN_PARAMS,
        )
        for values, s in zip(member_values, seeds)
    ]
    subset = [3, 1]
    fleet_results = fleet.learn(4, 0.25, members=subset)
    session_results = [sessions[f].learn(4, 0.25) for f in subset]
    assert [_freeze(r) for r in fleet_results] == [
        _freeze(r) for r in session_results
    ]


@pytest.mark.shm_guard
@pytest.mark.parametrize(
    "label,make_plan,max_respawns",
    [
        ("kill-mid-round", lambda: FaultPlan(kill_at=[0], kill_limit=2), 4),
        ("kill-until-inline", lambda: FaultPlan(kill_every=1), 1),
        ("slab-alloc-failures", lambda: FaultPlan(fail_alloc_at=[0, 1]), 2),
    ],
    ids=["kill-mid-round", "kill-until-inline", "slab-alloc-failures"],
)
def test_chaos_mid_learn_round_heals_bit_equal(label, make_plan, max_respawns):
    """With the rescore fan forced on (``learn_fan_min_candidates=1``),
    workers SIGKILLed mid learn-round, degraded all the way to inline,
    or denied scratch slabs (which drops the whole batch back to the
    serial lockstep path) all reproduce the no-executor reference bit
    for bit."""
    n = 96
    member_values = _member_values(n, 3, 1)
    seeds = [11, 22, 33]

    def run(executor):
        fleet = HistogramFleet(
            [ArraySource(values, n) for values in member_values],
            n,
            rngs=seeds,
            engine="lockstep",
            learn_budget=LEARN_PARAMS,
            executor=executor,
        )
        return fleet.learn_many(MIXED_GRID)

    reference = [[_freeze(r) for r in member] for member in run(None)]
    plan = make_plan()
    with ParallelExecutor(
        4,
        plan=ShardPlan(2),
        max_respawns=max_respawns,
        faults=plan,
        learn_fan_min_candidates=1,
    ) as executor:
        chaotic = [[_freeze(r) for r in member] for member in run(executor)]
        health = executor.health()
        injected = plan.injected
    assert chaotic == reference, label
    assert sum(injected.values()) > 0, label  # chaos really fired
    if injected["kills"]:
        assert health["worker_crashes"] >= 1
    if injected["alloc_failures"]:
        assert health["slab_fallbacks"] >= 1


def test_fan_and_serial_lockstep_agree():
    """The fanned rescore path (forced via ``learn_fan_min_candidates=1``)
    and the serial lockstep produce identical results and populate the
    per-phase timing buckets satellites surface in ``health()``."""
    n = 96
    member_values = _member_values(n, 2, 9)

    def run(executor):
        fleet = HistogramFleet(
            [ArraySource(values, n) for values in member_values],
            n,
            rngs=[1, 2],
            engine="lockstep",
            learn_budget=LEARN_PARAMS,
            executor=executor,
        )
        return fleet.learn_many(MIXED_GRID)

    serial = [[_freeze(r) for r in member] for member in run(None)]
    with ParallelExecutor(
        2, plan=ShardPlan(2), learn_fan_min_candidates=1
    ) as executor:
        fanned = [[_freeze(r) for r in member] for member in run(executor)]
        timings = executor.health()["timings"]
    assert fanned == serial
    assert timings["rescore"] > 0.0
    assert timings["argmin"] > 0.0
    assert timings["commit"] > 0.0
    assert timings["compile"] > 0.0
