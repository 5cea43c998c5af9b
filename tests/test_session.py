"""Tests for repro.api (HistogramSession, SampleSource, SketchBundle).

The contracts that make the facade the front door:

* a fresh session's first operation is seed-for-seed byte-identical to
  the reference composition of the pure halves (draw, then run on the
  drawn samples) at the same seed;
* batched operations share one sample draw per sketch family (asserted
  through a counting source);
* a refused operation draws nothing: arguments are checked before any
  pool grows, so ``samples_drawn`` and ``generation`` stay put.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    ArraySource,
    CountingSource,
    HistogramFleet,
    HistogramSession,
    SampleSource,
    as_sample_source,
)
from repro.core.greedy import draw_greedy_samples, learn_from_samples
from repro.core.params import GreedyParams, TesterParams
from repro.core.selection import select_min_k_on_sketch

# Alias the paper-named ``test*`` functions so pytest does not collect them.
from repro.core.tester import draw_tester_sets
from repro.core.tester import test_l1_on_sketch as l1_on_sketch
from repro.core.tester import test_l2_on_sketch as l2_on_sketch
from repro.distributions import families
from repro.errors import InvalidParameterError
from repro.samples.estimators import MultiSketch
from repro.streaming.reservoir import ReservoirSampler
from repro.utils.rng import as_rng

N = 128
DIST = families.random_tiling_histogram(N, 4, rng=7, min_piece=4)
TEST_PARAMS = TesterParams(num_sets=5, set_size=4_000)
LEARN_PARAMS = GreedyParams(
    weight_sample_size=2_000, collision_sets=5, collision_set_size=800, rounds=6
)


def assert_learn_results_equal(a, b):
    assert a.histogram == b.histogram
    assert a.filled_histogram == b.filled_histogram
    assert a.priority_histogram.to_tiling() == b.priority_histogram.to_tiling()
    assert a.rounds == b.rounds
    assert a.params == b.params
    assert a.method == b.method
    assert a.num_candidates == b.num_candidates
    assert a.samples_used == b.samples_used


class TestSampleSource:
    def test_distribution_satisfies_protocol(self):
        assert isinstance(DIST, SampleSource)
        assert as_sample_source(DIST) is DIST

    def test_reservoir_satisfies_protocol(self):
        reservoir = ReservoirSampler(16, rng=1)
        reservoir.update_many(np.arange(16))
        assert isinstance(reservoir, SampleSource)
        assert as_sample_source(reservoir) is reservoir

    def test_array_is_wrapped(self):
        source = as_sample_source(np.array([1, 5, 5, 9]))
        assert isinstance(source, ArraySource)
        assert source.n == 10
        draws = source.sample(1_000, rng=0)
        assert set(np.unique(draws)) <= {1, 5, 9}

    def test_array_source_respects_explicit_n(self):
        assert ArraySource(np.array([1, 2]), n=64).n == 64
        with pytest.raises(InvalidParameterError):
            ArraySource(np.array([1, 70]), n=64)

    def test_array_source_validation(self):
        with pytest.raises(InvalidParameterError):
            ArraySource(np.empty(0, dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            ArraySource(np.array([-1, 2]))
        with pytest.raises(InvalidParameterError):
            ArraySource(np.zeros((2, 2)))

    def test_unsupported_source_rejected(self):
        with pytest.raises(InvalidParameterError):
            as_sample_source(object())

    def test_counting_source_accounts_draws(self):
        counting = CountingSource(DIST)
        counting.sample(10, rng=0)
        counting.sample(5, rng=0)
        assert counting.calls == 2
        assert counting.samples_drawn == 15


def reference_learn(source, n, k, epsilon, *, params, rng, method="fast",
                    max_candidates=None):
    """Algorithm 1 as the pure halves compose it: draw, then learn."""
    generator = as_rng(rng)
    samples = draw_greedy_samples(source, params, generator)
    return learn_from_samples(
        samples, n, k, epsilon, params=params, method=method,
        max_candidates=max_candidates, rng=generator,
    )


def reference_sketch(source, n, params, rng):
    """Algorithm 2's draw, sketched: the input of every on-sketch half."""
    return MultiSketch.from_sample_sets(draw_tester_sets(source, params, rng), n)


def reference_test(norm, source, n, k, epsilon, *, params, rng):
    on_sketch = l2_on_sketch if norm == "l2" else l1_on_sketch
    return on_sketch(reference_sketch(source, n, params, rng), n, k, epsilon, params)


def reference_min_k(source, n, epsilon, *, max_k, params, rng, norm="l1"):
    return select_min_k_on_sketch(
        reference_sketch(source, n, params, rng), n, epsilon,
        max_k=max_k, norm=norm, params=params,
    )


class TestSeedEquivalence:
    """A fresh session's first operation is byte-identical to the
    reference composition of the pure halves (the PR-1 seed contract)."""

    @pytest.mark.parametrize("method", ["fast", "exhaustive"])
    def test_learn_matches_legacy(self, method):
        params = GreedyParams.from_paper(N, 4, 0.3, scale=0.05)
        legacy = reference_learn(DIST, N, 4, 0.3, params=params, rng=17, method=method)
        fresh = HistogramSession(DIST, N, rng=17, scale=0.05, method=method)
        assert_learn_results_equal(legacy, fresh.learn(4, 0.3))

    def test_learn_matches_legacy_with_params_and_cap(self):
        legacy = reference_learn(
            DIST, N, 3, 0.4, params=LEARN_PARAMS, max_candidates=200, rng=3
        )
        fresh = HistogramSession(DIST, N, rng=3, max_candidates=200)
        assert_learn_results_equal(legacy, fresh.learn(3, 0.4, params=LEARN_PARAMS))

    def test_test_l2_matches_legacy(self):
        legacy = reference_test("l2", DIST, N, 4, 0.3, params=TEST_PARAMS, rng=5)
        fresh = HistogramSession(DIST, N, rng=5)
        assert legacy == fresh.test_l2(4, 0.3, params=TEST_PARAMS)

    def test_test_l1_matches_legacy(self):
        legacy = reference_test("l1", DIST, N, 4, 0.3, params=TEST_PARAMS, rng=5)
        fresh = HistogramSession(DIST, N, rng=5)
        assert legacy == fresh.test_l1(4, 0.3, params=TEST_PARAMS)

    def test_min_k_matches_legacy(self):
        legacy = reference_min_k(DIST, N, 0.25, max_k=10, params=TEST_PARAMS, rng=9)
        fresh = HistogramSession(DIST, N, rng=9)
        assert legacy == fresh.min_k(0.25, max_k=10, params=TEST_PARAMS)

    def test_legacy_shims_stay_deterministic(self):
        """Same seed, same first operation — twice — gives identical results."""
        a = HistogramSession(DIST, N, rng=11, scale=0.05).learn(4, 0.3)
        b = HistogramSession(DIST, N, rng=11, scale=0.05).learn(4, 0.3)
        assert_learn_results_equal(a, b)
        assert HistogramSession(DIST, N, rng=11).test_l2(
            4, 0.3, params=TEST_PARAMS
        ) == HistogramSession(DIST, N, rng=11).test_l2(4, 0.3, params=TEST_PARAMS)


# The seed-contract fixture: a 3-piece histogram on a 64-element domain.
CONTRACT_N = 64
CONTRACT_DIST = families.random_tiling_histogram(CONTRACT_N, 3, rng=2, min_piece=8)
CONTRACT_LEARN_PARAMS = GreedyParams(
    weight_sample_size=800, collision_sets=3, collision_set_size=400, rounds=2
)
CONTRACT_TEST_PARAMS = TesterParams(num_sets=4, set_size=900)


@pytest.mark.parametrize("seed", [1, 7])
class TestSeedContract:
    """Every front-door operation, first on a fresh session, equals the
    draw + on-sketch composition at the same seed — histogram bytes,
    rounds, verdict, query log and partition."""

    def test_first_learn_matches_composition(self, seed):
        reference = reference_learn(
            CONTRACT_DIST, CONTRACT_N, 3, 0.3, params=CONTRACT_LEARN_PARAMS, rng=seed
        )
        fresh = HistogramSession(CONTRACT_DIST, CONTRACT_N, rng=seed).learn(
            3, 0.3, params=CONTRACT_LEARN_PARAMS
        )
        assert (
            fresh.histogram.boundaries.tobytes()
            == reference.histogram.boundaries.tobytes()
        )
        assert fresh.histogram.values.tobytes() == reference.histogram.values.tobytes()
        assert fresh.rounds == reference.rounds
        assert_learn_results_equal(reference, fresh)

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    def test_first_test_matches_composition(self, seed, norm):
        reference = reference_test(
            norm, CONTRACT_DIST, CONTRACT_N, 3, 0.3,
            params=CONTRACT_TEST_PARAMS, rng=seed,
        )
        session = HistogramSession(CONTRACT_DIST, CONTRACT_N, rng=seed)
        run = session.test_l2 if norm == "l2" else session.test_l1
        fresh = run(3, 0.3, params=CONTRACT_TEST_PARAMS)
        assert fresh.accepted == reference.accepted
        assert fresh.queries == reference.queries
        assert fresh.partition == reference.partition
        assert fresh == reference

    def test_first_min_k_matches_composition(self, seed):
        reference = reference_min_k(
            CONTRACT_DIST, CONTRACT_N, 0.3, max_k=5,
            params=CONTRACT_TEST_PARAMS, rng=seed,
        )
        fresh = HistogramSession(CONTRACT_DIST, CONTRACT_N, rng=seed).min_k(
            0.3, max_k=5, params=CONTRACT_TEST_PARAMS
        )
        assert fresh.k == reference.k
        assert fresh.partition == reference.partition
        assert fresh == reference


# Budgets small enough that a draw before a refusal is cheap to see.
REFUSE_LEARN = GreedyParams(
    weight_sample_size=100, collision_sets=3, collision_set_size=100, rounds=2
)
REFUSE_TEST = TesterParams(num_sets=3, set_size=100)

# Each call is refused; none may grow a pool first.  Valid for a session
# and for a fleet (whose ops take the same arguments).
REFUSED_CALLS = {
    "learn-k0": lambda op: op.learn(0, 0.3, params=REFUSE_LEARN),
    "learn-k-2": lambda op: op.learn(-2, 0.3, params=REFUSE_LEARN),
    "learn-k2.5": lambda op: op.learn(2.5, 0.3, params=REFUSE_LEARN),
    "learn-eps0": lambda op: op.learn(2, 0.0, params=REFUSE_LEARN),
    "learn-eps7.5": lambda op: op.learn(2, 7.5, params=REFUSE_LEARN),
    "learn-method": lambda op: op.learn(2, 0.3, method="x", params=REFUSE_LEARN),
    "learn-engine": lambda op: op.learn(2, 0.3, engine="x", params=REFUSE_LEARN),
    "learn-cap0": lambda op: op.learn(2, 0.3, max_candidates=0, params=REFUSE_LEARN),
    "learn_many-point": lambda op: op.learn_many(
        [(2, 0.3), (0, 0.3)], params=REFUSE_LEARN
    ),
    "learn_many-method": lambda op: op.learn_many(
        [(2, 0.3)], method="x", params=REFUSE_LEARN
    ),
    "test_l2-k0": lambda op: op.test_l2(0, 0.3, params=REFUSE_TEST),
    "test_l2-k17": lambda op: op.test_l2(17, 0.3, params=REFUSE_TEST),
    "test_l2-eps0": lambda op: op.test_l2(2, 0.0, params=REFUSE_TEST),
    "test_l1-k2.5": lambda op: op.test_l1(2.5, 0.3, params=REFUSE_TEST),
    "test_l1-eps1.5": lambda op: op.test_l1(2, 1.5, params=REFUSE_TEST),
    "test_many-engine": lambda op: op.test_many(
        [(2, 0.3)], params=REFUSE_TEST, engine="x"
    ),
    "test_many-point": lambda op: op.test_many(
        [(2, 0.3), (0, 0.3)], params=REFUSE_TEST
    ),
    "min_k-eps0": lambda op: op.min_k(0.0, max_k=4, params=REFUSE_TEST),
    "min_k-max_k2.5": lambda op: op.min_k(0.3, max_k=2.5, params=REFUSE_TEST),
}


class TestRefusedOperationsDrawNothing:
    """Arguments are checked before any pool grows: a refused call leaves
    ``samples_drawn`` and ``generation`` where they were, so a
    generation-keyed cache survives a failed request."""

    @pytest.mark.parametrize("call", REFUSED_CALLS.values(), ids=REFUSED_CALLS.keys())
    def test_session(self, call):
        session = HistogramSession(families.uniform(16), 16, rng=1)
        with pytest.raises(InvalidParameterError):
            call(session)
        assert session.samples_drawn == 0
        assert session.generation == 0

    @pytest.mark.parametrize("call", REFUSED_CALLS.values(), ids=REFUSED_CALLS.keys())
    def test_fleet(self, call):
        fleet = HistogramFleet([families.uniform(16)] * 2, 16, rngs=[1, 2])
        with pytest.raises(InvalidParameterError):
            call(fleet)
        assert fleet.samples_drawn == [0, 0]
        assert fleet.generations == [0, 0]

    def test_warm_session_keeps_its_state(self):
        session = HistogramSession(families.uniform(16), 16, rng=1)
        session.test_l2(2, 0.3, params=REFUSE_TEST)
        drawn, generation = session.samples_drawn, session.generation
        for call in REFUSED_CALLS.values():
            with pytest.raises(InvalidParameterError):
                call(session)
        assert session.samples_drawn == drawn
        assert session.generation == generation

    def test_k_above_n_still_learns(self):
        """``k > n`` is legal for the learner, as on the paper-budget path."""
        result = HistogramSession(families.uniform(16), 16, rng=1).learn(
            17, 0.3, params=REFUSE_LEARN
        )
        assert result.histogram.n == 16


class TestSampleReuse:
    """Batched operations issue one draw per sketch family."""

    GRID = [(2, 0.3), (3, 0.3), (4, 0.25), (5, 0.25)]

    def test_learn_many_single_draw_event(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1, scale=0.05)
        results = session.learn_many(self.GRID)
        assert len(results) == 4
        assert session.draw_events == {"learn": 1, "test": 0}
        # One call for the weight sample plus one per collision set, all
        # made while filling the pool once.
        largest = GreedyParams.from_paper(N, 5, 0.25, scale=0.05)
        assert counting.calls == 1 + largest.collision_sets

    def test_learn_many_with_shared_budget_reuses_everything(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1, learn_budget=LEARN_PARAMS)
        session.learn_many(self.GRID)
        calls_after_batch = counting.calls
        session.learn(3, 0.28)  # contained sizes: no new draws
        assert counting.calls == calls_after_batch

    def test_learn_budget_varies_rounds_only(self):
        session = HistogramSession(DIST, N, rng=2, learn_budget=LEARN_PARAMS)
        small, large = session.learn_many([(2, 0.5), (5, 0.25)])
        assert small.params.weight_sample_size == large.params.weight_sample_size
        assert len(small.rounds) < len(large.rounds)

    def test_test_many_single_draw_event(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1)
        verdicts = session.test_many(self.GRID, norm="l2", params=TEST_PARAMS)
        assert len(verdicts) == 4
        assert session.draw_events == {"learn": 0, "test": 1}
        assert counting.calls == TEST_PARAMS.num_sets

    def test_testers_and_min_k_share_one_pool(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1, test_budget=TEST_PARAMS)
        session.test_l2(4, 0.3)
        calls_after_first = counting.calls
        session.test_l1(3, 0.3)
        session.min_k(0.3, max_k=8)
        assert counting.calls == calls_after_first

    def test_pool_growth_draws_only_the_difference(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1)
        session.test_l2(4, 0.3, params=TesterParams(num_sets=5, set_size=1_000))
        drawn_small = counting.samples_drawn
        session.test_l2(4, 0.3, params=TesterParams(num_sets=5, set_size=1_500))
        # Each of the 5 sets grows by 500 samples; nothing is re-drawn.
        assert counting.samples_drawn - drawn_small == 5 * 500

    def test_pool_growth_skips_unused_sets(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1)
        session.test_l2(4, 0.3, params=TesterParams(num_sets=15, set_size=1_000))
        drawn_wide = counting.samples_drawn
        session.test_l2(4, 0.3, params=TesterParams(num_sets=5, set_size=3_000))
        # Only the 5 sets this call slices grow; the other 10 stay put.
        assert counting.samples_drawn - drawn_wide == 5 * 2_000

    def test_prefetch_learn_makes_later_learns_sample_free(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1, scale=0.05)
        session.prefetch_learn(self.GRID)
        drawn = counting.samples_drawn
        session.learn(5, 0.25)
        session.learn(2, 0.3)
        assert counting.samples_drawn == drawn
        assert session.draw_events["learn"] == 1

    def test_invalidate_forces_redraw(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1)
        session.test_l2(4, 0.3, params=TEST_PARAMS)
        session.invalidate()
        session.test_l2(4, 0.3, params=TEST_PARAMS)
        assert session.draw_events["test"] == 2
        assert counting.calls == 2 * TEST_PARAMS.num_sets

    def test_repeated_call_is_identical(self):
        """Cached sketches make repeat calls pure."""
        session = HistogramSession(DIST, N, rng=4, scale=0.05)
        assert session.test_l2(4, 0.3, params=TEST_PARAMS) == session.test_l2(
            4, 0.3, params=TEST_PARAMS
        )
        assert_learn_results_equal(session.learn(4, 0.3), session.learn(4, 0.3))


class TestSessionBehaviour:
    def test_samples_drawn_tracks_pool(self):
        session = HistogramSession(DIST, N, rng=1)
        session.test_l2(4, 0.3, params=TEST_PARAMS)
        assert session.samples_drawn == TEST_PARAMS.total_samples

    def test_learn_results_are_sensible(self):
        session = HistogramSession(DIST, N, rng=6, scale=0.05)
        result = session.learn(4, 0.3)
        assert result.histogram.n == N
        assert result.histogram.num_pieces >= 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            HistogramSession(DIST, 0)
        session = HistogramSession(DIST, N, rng=1)
        with pytest.raises(InvalidParameterError):
            session.test_many([(2, 0.3)], norm="tv")
        with pytest.raises(InvalidParameterError):
            session.min_k(0.3, max_k=0)
        with pytest.raises(InvalidParameterError):
            session.min_k(0.3, norm="tv")

    @pytest.mark.parametrize("cap", [0, -5, 2.5, True, "10"])
    def test_bad_max_candidates_rejected(self, cap):
        """A candidate cap must be an integer >= 1 (or None) on every learn
        route: per call and per session, at session and fleet."""
        session = HistogramSession(DIST, N, rng=1, learn_budget=LEARN_PARAMS)
        with pytest.raises(InvalidParameterError, match="max_candidates"):
            session.learn(3, 0.3, max_candidates=cap)
        capped = HistogramSession(
            DIST, N, rng=1, learn_budget=LEARN_PARAMS, max_candidates=cap
        )
        with pytest.raises(InvalidParameterError, match="max_candidates"):
            capped.learn(3, 0.3)
        fleet = HistogramFleet([DIST, DIST], N, rngs=[1, 2], learn_budget=LEARN_PARAMS)
        with pytest.raises(InvalidParameterError, match="max_candidates"):
            fleet.learn(3, 0.3, max_candidates=cap)
        with pytest.raises(InvalidParameterError, match="max_candidates"):
            fleet.learn_many([(3, 0.3)], max_candidates=cap)

    def test_integer_max_candidates_accepted(self):
        session = HistogramSession(DIST, N, rng=1, learn_budget=LEARN_PARAMS)
        result = session.learn(3, 0.3, max_candidates=np.int64(50))
        assert result.num_candidates == 50

    def test_empty_grids(self):
        session = HistogramSession(DIST, N, rng=1)
        assert session.learn_many([]) == []
        assert session.test_many([]) == []
        assert session.samples_drawn == 0

    def test_session_over_raw_array(self):
        values = DIST.sample(20_000, rng=0)
        session = HistogramSession(values, N, rng=1, scale=0.05)
        result = session.learn(4, 0.3)
        assert result.histogram.n == N


class TestGrowablePool:
    """Capacity-doubling pools: amortised growth, draw-only-the-deficit."""

    def test_fill_draws_only_deficit(self):
        from repro.api.sketches import _GrowablePool

        drawn = []

        def draw(count):
            drawn.append(count)
            return np.arange(count)

        pool = _GrowablePool()
        pool.fill_to(10, draw)
        pool.fill_to(10, draw)  # no-op
        pool.fill_to(25, draw)
        assert drawn == [10, 15]
        assert pool.length == 25
        assert list(pool.view(25)) == list(range(10)) + list(range(15))

    def test_views_are_read_only_and_zero_copy(self):
        from repro.api.sketches import _GrowablePool

        pool = _GrowablePool()
        pool.fill_to(8, lambda count: np.arange(count))
        view = pool.view(4)
        assert view.base is not None  # a view into the buffer, not a copy
        with pytest.raises(ValueError):
            view[0] = 99

    def test_capacity_doubles(self):
        from repro.api.sketches import _GrowablePool

        pool = _GrowablePool()
        pool.fill_to(4, lambda count: np.zeros(count, dtype=np.int64))
        pool.fill_to(5, lambda count: np.zeros(count, dtype=np.int64))
        assert pool.capacity >= 8  # doubled, not resized-to-fit
        pool.fill_to(6, lambda count: np.zeros(count, dtype=np.int64))
        assert pool.capacity >= 8

    def test_budget_bumps_keep_prefix(self):
        """Repeated learn budget bumps re-use the drawn prefix unchanged."""
        session = HistogramSession(DIST, N, rng=4)
        small = GreedyParams(
            weight_sample_size=500, collision_sets=3, collision_set_size=300, rounds=2
        )
        big = GreedyParams(
            weight_sample_size=900, collision_sets=4, collision_set_size=700, rounds=2
        )
        first = session._bundle.learn_samples(small)
        prefix = first.weight_samples.copy()
        second = session._bundle.learn_samples(big)
        assert np.array_equal(second.weight_samples[:500], prefix)
        assert session.draw_events == {"learn": 2, "test": 0}
