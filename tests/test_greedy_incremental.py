"""Equivalence of the lockstep greedy engine against the full rescorer.

The lockstep engine (``engine="lockstep"``, the default) rescores only
the candidates whose span intersects the segments changed by the last
commit; ``engine="full"`` rescores every candidate every round through
the same scoring and commit code.  The contract is *byte*-identity:
same chosen intervals, same estimated costs, same traces — not just
statistical agreement.  These tests pin that contract on one-shot
learns, on session grids, and (the property at the heart of the design)
on the cached candidate totals themselves after every single round.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import HistogramFleet, HistogramSession
from repro.core.greedy import (
    _ARGMIN_BLOCK,
    _GreedyEngine,
    _median_of_planes,
    _removed_table,
    _repair_blocks,
    compile_greedy_sketches,
    draw_greedy_samples,
    learn_from_samples,
    learn_histogram,
)
from repro.core.lockstep import LockstepRun, _LockstepSlabs, _RunState
from repro.core.params import GreedyParams
from repro.distributions import families
from repro.errors import InvalidParameterError
from repro.streaming.maintainer import StreamingHistogramMaintainer

GRID = [(2, 0.3), (4, 0.25), (6, 0.2)]
PARAMS = GreedyParams(
    weight_sample_size=1_500, collision_sets=5, collision_set_size=600, rounds=6
)


def assert_results_identical(a, b):
    """Field-by-field byte-identity of two LearnResults."""
    assert a.histogram == b.histogram
    assert a.filled_histogram == b.filled_histogram
    assert a.priority_histogram.to_tiling() == b.priority_histogram.to_tiling()
    assert a.rounds == b.rounds  # exact float equality on costs/weights
    assert a.method == b.method
    assert a.num_candidates == b.num_candidates
    assert a.samples_used == b.samples_used


class TestLearnEquivalence:
    """One-shot learns: lockstep (the default) == full, bit for bit."""

    @pytest.mark.parametrize("method", ["fast", "exhaustive"])
    @pytest.mark.parametrize("seed", [1, 17, 92])
    def test_fresh_draw_equivalence(self, method, seed):
        dist = families.zipf(128, 1.0)
        lockstep = learn_histogram(
            dist, 128, 4, 0.25, method=method, scale=0.05, rng=seed
        )
        full = learn_histogram(
            dist, 128, 4, 0.25, method=method, engine="full", scale=0.05, rng=seed
        )
        assert_results_identical(lockstep, full)

    @pytest.mark.parametrize("method", ["fast", "exhaustive"])
    def test_structured_distribution(self, method):
        dist = families.random_tiling_histogram(96, 5, rng=3, min_piece=4)
        lockstep = learn_histogram(
            dist, 96, 5, 0.3, method=method, params=PARAMS, rng=11
        )
        full = learn_histogram(
            dist, 96, 5, 0.3, method=method, engine="full", params=PARAMS, rng=11
        )
        assert_results_identical(lockstep, full)

    def test_invalid_engine_rejected(self):
        with pytest.raises(InvalidParameterError):
            learn_histogram(
                families.uniform(16), 16, 2, 0.5, engine="magic", params=PARAMS, rng=1
            )


def _learn_from_samples_on(engine):
    samples = draw_greedy_samples(families.uniform(16), PARAMS, 1)
    learn_from_samples(samples, 16, 2, 0.5, params=PARAMS, engine=engine)


@pytest.mark.parametrize(
    "build",
    [
        lambda engine: HistogramSession(families.uniform(16), 16, engine=engine),
        lambda engine: HistogramFleet([families.uniform(16)], 16, engine=engine),
        lambda engine: StreamingHistogramMaintainer(16, 2, engine=engine),
        _learn_from_samples_on,
    ],
    ids=["session", "fleet", "maintainer", "learn_from_samples"],
)
def test_retired_incremental_engine_rejected(build):
    """The learner engine knob has two values, ``lockstep`` and ``full``;
    ``"incremental"`` is an unknown engine like any other."""
    with pytest.raises(InvalidParameterError, match="engine"):
        build("incremental")
    build("full")


class TestSessionEquivalence:
    """A (k, eps) grid through HistogramSession: engines agree per point."""

    @pytest.mark.parametrize("method", ["fast", "exhaustive"])
    def test_learn_many_grid(self, method):
        dist = families.zipf(128, 1.0)
        lockstep_session = HistogramSession(
            dist, 128, rng=5, method=method, learn_budget=PARAMS
        )
        full_session = HistogramSession(
            dist, 128, rng=5, method=method, engine="full", learn_budget=PARAMS
        )
        for a, b in zip(
            lockstep_session.learn_many(GRID), full_session.learn_many(GRID)
        ):
            assert_results_identical(a, b)

    def test_engine_override_per_call(self):
        dist = families.zipf(64, 1.0)
        session = HistogramSession(dist, 64, rng=2, learn_budget=PARAMS)
        a = session.learn(3, 0.3)
        b = session.learn(3, 0.3, engine="full")
        assert_results_identical(a, b)


def _stepped_engines(n, seed, method):
    """One lockstep run and one full engine over one compiled draw.

    The run is stepped by hand, one round at a time (:func:`_lockstep_round`),
    so its cached state can be compared with the full engine's between
    rounds.
    """
    dist = families.random_tiling_histogram(n, 3, rng=seed % 7 + 1, min_piece=2)
    params = GreedyParams(
        weight_sample_size=400, collision_sets=3, collision_set_size=300, rounds=8
    )
    samples = draw_greedy_samples(dist, params, seed)
    compiled = compile_greedy_sketches(samples, n, method=method)
    state = _RunState(
        0, LockstepRun(compiled=compiled, params=params, method=method, n=n)
    )
    _LockstepSlabs([state], None)  # carves the run's buffers, builds its engine
    full = _GreedyEngine(
        compiled.candidates,
        compiled.weight_prefix,
        compiled.weight_set.size,
        compiled.pair_prefix_cols,
        compiled.pairs_per_set,
        compiled.self_costs,
    )
    return state, full, params.rounds


def _lockstep_round(state):
    """One lockstep round of a single run, as ``lockstep_learn`` runs it."""
    state.prepare_round()
    state.rescore_serial()
    return state.engine.commit_best(state.rescored)


class TestCachedTotalsProperty:
    """After every round, cached candidate totals == full rescoring.

    This is the dirty-region invariant stated in README.md ("Incremental
    scoring"): a clean candidate's cached ``rel`` must be bitwise equal
    to what a from-scratch rescore would produce, round after round.
    """

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_cached_rel_matches_full_rescore(self, seed):
        n = 32 + seed % 3 * 16
        method = "exhaustive" if seed % 2 else "fast"
        state, full, rounds = _stepped_engines(n, seed, method)
        lockstep = state.engine
        for _ in range(rounds):
            a = _lockstep_round(state)
            b = full.run_round()
            # Identical commit and trace (rescored differs by design).
            assert a.candidate_index == b.candidate_index
            assert a.cost == b.cost
            assert a.weight_estimate == b.weight_estimate
            assert a.chosen == b.chosen
            assert a.value == b.value
            assert a.neighbours == b.neighbours
            assert np.array_equal(lockstep._rel, full._rel)
            assert lockstep._seg_lo == full._seg_lo
            assert lockstep._seg_hi == full._seg_hi
            assert lockstep._seg_cost == full._seg_cost
            # The lockstep engine never rescans more than the full one.
            assert a.rescored <= b.rescored

    def test_rescored_counts_shrink(self):
        """Steady-state rounds touch a strict subset of the candidates."""
        state, _, rounds = _stepped_engines(64, 5, "fast")
        reports = [_lockstep_round(state) for _ in range(rounds)]
        total = state.size
        assert reports[0].rescored == total
        assert min(r.rescored for r in reports[1:]) < total


# Kernel inputs are differences of non-negative prefix counts (or costs
# built from them), which are never -0.0; np.median's partition leaves
# the order of signed zeros unspecified, so they are outside the
# bit-identity contract.  A small pool of repeated values forces heavy
# ties; +-inf and NaN ride along.
_KERNEL_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 3.0, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True).filter(
        lambda v: not (v == 0 and math.copysign(1.0, v) < 0)
    ),
)


def _median_reference(columns: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.median(columns, axis=1)


def _median_network(columns: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return _median_of_planes(columns.T.copy())  # it overwrites its input


def _assert_same_floats(got: np.ndarray, expected: np.ndarray) -> None:
    """Bit-equal, except that NaN payloads are not compared: which input
    NaN a selection passes on is unspecified for either spelling."""
    nan = np.isnan(expected)
    assert got.shape == expected.shape
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


def _removed_reference(seg_costs: np.ndarray) -> np.ndarray:
    """The per-row accumulation the removed table replaces."""
    count = seg_costs.size
    removed = np.zeros((count, count))
    for a in range(count):
        removed[a, a:] = np.cumsum(seg_costs[a:])
    return removed


class TestKernelIdentity:
    """The vectorised scoring kernels equal their reference spellings
    bit for bit, so swapping them in moves no learned byte."""

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.integers(min_value=1, max_value=31),
        rows=st.sampled_from([0, 1, 2, 7, 40]),
        pool=st.lists(_KERNEL_VALUES, min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_median_network_matches_np_median(self, r, rows, pool, seed):
        """Columns drawn from a pool of at most eight values: heavy ties."""
        picks = np.random.default_rng(seed).integers(0, len(pool), (rows, r))
        columns = np.asarray(pool, dtype=np.float64)[picks]
        _assert_same_floats(_median_network(columns), _median_reference(columns))

    @pytest.mark.parametrize("r", range(1, 32))
    def test_median_network_every_r(self, r):
        """Every r from 1 to 31 on random, heavily tied and non-finite
        rows (each seeded run covers what hypothesis may not draw)."""
        rng = np.random.default_rng(r)
        columns = rng.random((300, r))
        columns[:100] = rng.integers(0, 3, (100, r))
        columns[100, 0] = np.inf
        columns[101, -1] = -np.inf
        columns[102, r // 2] = np.nan
        columns[103] = np.inf
        _assert_same_floats(_median_network(columns), _median_reference(columns))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_KERNEL_VALUES, min_size=1, max_size=40))
    def test_removed_table_matches_per_row_cumsum(self, costs):
        seg_costs = np.asarray(costs, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = _removed_reference(seg_costs)
            got = _removed_table(seg_costs)
        _assert_same_floats(got, expected)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_segment_tables_match_searchsorted(self, seed):
        """``ia`` / ``ib`` equal the per-grid-point ``searchsorted``
        lookups into the segment starts, round after round."""
        _, engine, rounds = _stepped_engines(32 + seed % 3 * 16, seed, "fast")
        grid = engine._grid
        for _ in range(rounds):
            ia, ib, _ = engine.round_tables(
                0, grid.size - 1, np.empty(grid.size), np.empty(grid.size)
            )
            starts = grid[np.asarray(engine._seg_lo)]
            assert np.array_equal(ia, np.searchsorted(starts, grid, side="right") - 1)
            assert np.array_equal(
                ib, np.searchsorted(starts, grid - 1, side="right") - 1
            )
            engine.run_round()

    @settings(max_examples=100, deadline=None)
    @given(
        num_blocks=st.integers(min_value=1, max_value=6),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_range_repair_matches_full_recompute(self, num_blocks, data, seed):
        size = num_blocks * _ARGMIN_BLOCK
        indices = np.asarray(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=size - 1),
                        min_size=1,
                        max_size=50,
                    )
                )
            ),
            dtype=np.int64,
        )
        rng = np.random.default_rng(seed)
        rel = rng.random(size)
        rel_blocks = rel.reshape(num_blocks, _ARGMIN_BLOCK)
        block_min = rel_blocks.min(axis=1)
        rel[indices] = rng.random(indices.size) * 2.0 - 0.5
        _repair_blocks(rel_blocks, block_min, indices)
        assert block_min.tobytes() == rel_blocks.min(axis=1).tobytes()
