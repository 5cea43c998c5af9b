"""Equivalence of the compiled tester engine against the per-query path.

The compiled engine (``engine="compiled"``) answers Algorithm 2's
flatness queries from precomputed ``(n + 1, r)`` prefix gathers with a
verdict memo; ``engine="full"`` re-runs the per-set searches on every
probe.  The contract is *byte*-identity on verdicts **and query logs**
(``TestResult`` equality compares both), pinned here on fresh-session
testers, session grids, min-k sweeps, and a hypothesis lockstep over
random ``(n, k, eps)`` grids — plus the cache-lifetime rules
(memo-hit accounting, invalidation) the session relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CountingSource, HistogramSession
from repro.core.flatness import (
    CompiledTesterSketches,
    compile_tester_sketches,
    flatness_oracle,
)

# Alias the paper-named ``test*`` functions so pytest does not collect them.
from repro.core.flatness import test_flatness_l1 as flatness_l1
from repro.core.flatness import test_flatness_l2 as flatness_l2
from repro.core.params import TesterParams
from repro.distributions import families
from repro.errors import InvalidParameterError
from repro.samples.estimators import MultiSketch
from repro.streaming.maintainer import StreamingHistogramMaintainer

PARAMS = TesterParams(num_sets=9, set_size=8_000)

CASES = [
    ("4-hist", families.random_tiling_histogram(256, 4, rng=3, min_piece=8), 256),
    ("sawtooth", families.sawtooth(128), 128),
    ("spikes", families.spikes(256, 8), 256),
    ("zipf", families.zipf(192, 1.0), 192),
]


def make_multi(dist, n, rng):
    return MultiSketch.from_sample_sets(
        dist.sample_sets(PARAMS.num_sets, PARAMS.set_size, np.random.default_rng(rng)),
        n,
    )


class TestEngineEquivalence:
    """compiled == full, bit for bit, verdicts and query logs."""

    @pytest.mark.parametrize("name,dist,n", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("seed", [1, 23])
    def test_one_shot_l2(self, name, dist, n, seed):
        compiled = HistogramSession(dist, n, rng=seed).test_l2(4, 0.25, params=PARAMS)
        full = HistogramSession(dist, n, rng=seed).test_l2(4, 0.25, params=PARAMS, engine="full")
        assert compiled == full  # partition, queries, verdict — everything

    @pytest.mark.parametrize("name,dist,n", CASES, ids=[c[0] for c in CASES])
    def test_one_shot_l1(self, name, dist, n):
        compiled = HistogramSession(dist, n, rng=7).test_l1(4, 0.25, params=PARAMS)
        full = HistogramSession(dist, n, rng=7).test_l1(4, 0.25, params=PARAMS, engine="full")
        assert compiled == full

    def test_min_k_equivalence(self):
        dist = families.two_level(256, heavy_start=64, heavy_length=64)
        compiled = HistogramSession(dist, 256, rng=5).min_k(0.25, max_k=10, params=PARAMS)
        full = HistogramSession(dist, 256, rng=5).min_k(
            0.25, max_k=10, params=PARAMS, engine="full"
        )
        assert compiled == full

    def test_compiled_queries_match_per_query_oracle(self):
        """Every (start, stop) agrees with the legacy one-shot flatness tests."""
        dist = families.zipf(96, 1.0)
        multi = make_multi(dist, 96, 11)
        compiled = compile_tester_sketches(multi)
        l2 = compiled.oracle("l2", 0.3)
        l1 = compiled.oracle("l1", 0.3, scale=0.01)
        rng = np.random.default_rng(0)
        for _ in range(60):
            start = int(rng.integers(0, 95))
            stop = int(rng.integers(start + 1, 97))
            assert l2(start, stop) == flatness_l2(multi, start, stop, 0.3)
            assert l1(start, stop) == flatness_l1(
                multi, start, stop, 0.3, scale=0.01
            )

    def test_invalid_engine_rejected(self):
        with pytest.raises(InvalidParameterError):
            HistogramSession(families.uniform(16), 16, rng=1).test_l2(2, 0.3, engine="magic")
        with pytest.raises(InvalidParameterError):
            HistogramSession(families.uniform(16), 16, tester_engine="magic")


class TestSessionEquivalence:
    """A (k, eps) grid through HistogramSession: engines agree per point."""

    GRID = [(2, 0.3), (3, 0.3), (4, 0.25), (6, 0.25)]

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_test_many_grid(self, norm):
        dist = families.random_tiling_histogram(128, 4, rng=9, min_piece=4)
        compiled = HistogramSession(dist, 128, rng=3, test_budget=PARAMS)
        full = HistogramSession(
            dist, 128, rng=3, test_budget=PARAMS, tester_engine="full"
        )
        assert compiled.test_many(self.GRID, norm=norm) == full.test_many(
            self.GRID, norm=norm
        )

    def test_engine_override_per_call(self):
        dist = families.sawtooth(128)
        session = HistogramSession(dist, 128, rng=2, test_budget=PARAMS)
        assert session.test_l2(3, 0.3) == session.test_l2(3, 0.3, engine="full")
        assert session.min_k(0.3, max_k=6) == session.min_k(
            0.3, max_k=6, engine="full"
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lockstep_random_grids(seed):
    """Hypothesis lockstep: random (n, k, eps) grids, both engines.

    Verdicts and query logs must be identical point for point, and the
    shared compiled object's memo accounting must tally exactly: every
    probe is either a hit or a miss, and the misses are the distinct
    memo keys.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(32, 160))
    pieces = int(rng.integers(1, 6))
    dist = families.random_tiling_histogram(n, pieces, rng=seed % 13 + 1, min_piece=2)
    grid = [
        (int(rng.integers(1, n // 2 + 2)), float(rng.choice([0.2, 0.25, 0.3, 0.4])))
        for _ in range(3)
    ]
    params = TesterParams(num_sets=5, set_size=2_000)
    compiled_session = HistogramSession(dist, n, rng=seed, test_budget=params)
    full_session = HistogramSession(
        dist, n, rng=seed, test_budget=params, tester_engine="full"
    )
    norm = "l2" if seed % 2 else "l1"
    a = compiled_session.test_many(grid, norm=norm)
    b = full_session.test_many(grid, norm=norm)
    assert a == b
    # Memo accounting on the session's shared compiled object.
    sketches = compiled_session._bundle._tester_compiled_cache[
        (params.num_sets, params.set_size)
    ]
    total_queries = sum(len(r.queries) for r in a)
    assert sketches.memo_hits + sketches.memo_misses == total_queries
    assert sketches.memo_misses == sketches.memo_size
    assert sketches.memo_hits == total_queries - sketches.memo_size


class TestMemoSharing:
    """The verdict memo is shared where the design says it is."""

    def test_repeat_call_is_all_hits(self):
        dist = families.zipf(128, 1.0)
        session = HistogramSession(dist, 128, rng=1, test_budget=PARAMS)
        first = session.test_l2(4, 0.3)
        sketches = session._bundle._tester_compiled_cache[
            (PARAMS.num_sets, PARAMS.set_size)
        ]
        misses_after_first = sketches.memo_misses
        second = session.test_l2(4, 0.3)
        assert first == second
        assert sketches.memo_misses == misses_after_first  # zero new work

    def test_grid_points_share_verdicts(self):
        """k only caps the piece count: larger k replays smaller k's probes."""
        dist = families.random_tiling_histogram(128, 4, rng=5, min_piece=8)
        session = HistogramSession(dist, 128, rng=1, test_budget=PARAMS)
        session.test_l2(2, 0.3)
        sketches = session._bundle._tester_compiled_cache[
            (PARAMS.num_sets, PARAMS.set_size)
        ]
        misses_small_k = sketches.memo_misses
        session.test_l2(6, 0.3)
        hits = sketches.memo_hits
        assert hits >= misses_small_k  # the k=2 search replayed entirely
        session.min_k(0.3, max_k=6, norm="l2")
        assert sketches.memo_misses == sketches.memo_size

    def test_distinct_epsilons_do_not_collide(self):
        dist = families.uniform(64)
        multi = make_multi(dist, 64, 3)
        sketches = compile_tester_sketches(multi)
        a = sketches.oracle("l2", 0.3)(0, 64)
        b = sketches.oracle("l2", 0.5)(0, 64)
        assert sketches.memo_misses == 2  # same interval, two keys
        assert a == flatness_l2(multi, 0, 64, 0.3)
        assert b == flatness_l2(multi, 0, 64, 0.5)


class TestCacheLifetime:
    """Compile-once semantics and invalidation through the session."""

    def test_one_compile_per_budget(self):
        counting = CountingSource(families.zipf(96, 1.0))
        session = HistogramSession(counting, 96, rng=1, test_budget=PARAMS)
        session.test_l2(3, 0.3)
        sketches_first = session._bundle._tester_compiled_cache[
            (PARAMS.num_sets, PARAMS.set_size)
        ]
        session.test_l1(4, 0.25)
        session.min_k(0.3, max_k=5)
        cache = session._bundle._tester_compiled_cache
        assert len(cache) == 1
        assert cache[(PARAMS.num_sets, PARAMS.set_size)] is sketches_first

    def test_invalidate_drops_tester_compile_cache(self):
        session = HistogramSession(
            families.zipf(96, 1.0), 96, rng=1, test_budget=PARAMS
        )
        session.test_l2(3, 0.3)
        assert session._bundle._tester_compiled_cache
        session.invalidate()
        assert session._bundle._tester_compiled_cache == {}
        session.test_l2(3, 0.3)  # recompiles from the fresh pool
        assert len(session._bundle._tester_compiled_cache) == 1

    def test_validation_happens_once_not_per_query(self):
        """Bad parameters fail at oracle creation, before any probe."""
        multi = make_multi(families.uniform(64), 64, 1)
        sketches = compile_tester_sketches(multi)
        with pytest.raises(InvalidParameterError):
            sketches.oracle("l2", 0.0)
        with pytest.raises(InvalidParameterError):
            sketches.oracle("l1", 0.3, scale=0.0)
        with pytest.raises(InvalidParameterError):
            sketches.oracle("tv", 0.3)
        with pytest.raises(InvalidParameterError):
            flatness_oracle(multi, "l2", 1.5)
        assert sketches.memo_misses == 0  # nothing ran

    def test_compile_matches_batched_interval_prefixes(self):
        """Per-sketch compilation equals the one-sort batched pass."""
        from repro.samples.collision import batched_interval_prefixes

        dist = families.zipf(64, 1.0)
        sets = dist.sample_sets(3, 1_000, np.random.default_rng(2))
        compiled = compile_tester_sketches(MultiSketch.from_sample_sets(sets, 64))
        grid = np.arange(65, dtype=np.int64)
        count_rows, pair_rows = batched_interval_prefixes(sets, 64, grid)
        assert np.array_equal(compiled._count_cols, count_rows.T)
        assert np.array_equal(compiled._pair_cols, pair_rows.T)
        assert compiled.set_size == 1_000

    def test_compiled_properties(self):
        multi = make_multi(families.uniform(64), 64, 1)
        sketches = compile_tester_sketches(multi)
        assert isinstance(sketches, CompiledTesterSketches)
        assert sketches.n == 64
        assert sketches.num_sets == PARAMS.num_sets
        assert sketches.set_size == PARAMS.set_size


class TestMaintainerPassthrough:
    """The streaming maintainer forwards both engines and can test."""

    def _fed(self, **kwargs):
        dist = families.random_tiling_histogram(64, 3, rng=4, min_piece=8)
        maintainer = StreamingHistogramMaintainer(
            64, 3, refresh_every=1_000, reservoir_capacity=1_000, rng=8, **kwargs
        )
        maintainer.update_many(dist.sample(4_000, np.random.default_rng(9)))
        return maintainer

    def test_test_defaults_to_own_shape(self):
        maintainer = self._fed()
        result = maintainer.test()
        assert result.k == 3
        assert result.epsilon == 0.25
        assert result.norm == "l2"

    def test_engines_agree_over_the_reservoir(self):
        compiled = self._fed()
        full = self._fed(tester_engine="full")
        assert compiled.test(4, 0.3) == full.test(4, 0.3)
        assert compiled.min_k(0.3, max_k=8) == full.min_k(0.3, max_k=8)

    def test_probes_share_session_budget(self):
        maintainer = self._fed()
        maintainer.test()
        drawn = maintainer._session.samples_drawn
        maintainer.min_k(max_k=8)  # same budget: no new draws
        assert maintainer._session.samples_drawn == drawn

    def test_update_invalidates_before_next_probe(self):
        maintainer = self._fed()
        maintainer.test()
        events = maintainer._session.draw_events["test"]
        maintainer.update(5)
        maintainer.test()
        assert maintainer._session.draw_events["test"] == events + 1

    def test_empty_reservoir_raises(self):
        maintainer = StreamingHistogramMaintainer(64, 2, rng=1)
        with pytest.raises(InvalidParameterError):
            maintainer.test()
        with pytest.raises(InvalidParameterError):
            maintainer.min_k()
