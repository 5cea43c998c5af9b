"""Cross-module integration tests: the pipelines a user actually runs."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.params import TesterParams
from repro.datasets import sensor_readings_column
from repro.distributions import families
from repro.distributions.distances import l2_distance_squared
from repro.histograms.compact import compact
from repro.queries import SelectivityEstimator, evaluate_estimator, mixed_workload


class TestLearnCompactQueryPipeline:
    """learn -> compact to k -> answer range queries."""

    def test_pipeline(self, rng):
        n, k = 256, 4
        dist = families.random_tiling_histogram(n, k, 3, min_piece=16)
        learned = repro.HistogramSession(dist, n, rng=1, scale=0.05).learn(k, 0.25)
        squeezed = compact(learned.filled_histogram, k)
        assert squeezed.num_pieces <= k

        estimator = SelectivityEstimator(squeezed)
        report = evaluate_estimator(estimator, dist, mixed_workload(n, 100, rng))
        assert report.mean_absolute < 0.05
        assert report.summary_size <= k

    def test_compaction_cost_is_modest(self):
        """Squeezing O(k log 1/eps) pieces to k stays within the theorem
        regime on histogram inputs."""
        n, k = 256, 4
        dist = families.random_tiling_histogram(n, k, 5, min_piece=16)
        learned = repro.HistogramSession(dist, n, rng=2, scale=0.05).learn(k, 0.25)
        before = l2_distance_squared(dist, learned.filled_histogram)
        after = l2_distance_squared(dist, compact(learned.filled_histogram, k))
        assert after <= before + 8 * 0.25


class TestSelectThenLearnPipeline:
    """min_k -> learn at that k (the model-selection example)."""

    def test_pipeline(self):
        values, n = sensor_readings_column(100_000, rng=3)
        column = repro.EmpiricalDistribution(values, n)
        params = TesterParams(num_sets=15, set_size=30_000)
        selection = repro.HistogramSession(column, n, rng=4).min_k(0.25, max_k=10, params=params)
        assert selection.k is not None
        # 4 true bands; sampling noise may split a band near the flatness
        # threshold, so allow modest overshoot.
        assert selection.k <= 8

        learned = repro.HistogramSession(column, n, rng=5, scale=0.05).learn(selection.k, 0.25)
        assert repro.l1_distance(column, learned.filled_histogram) < 0.5


class TestTestThenTrustPipeline:
    """Use the tester as a guard before committing to a small summary."""

    def test_accepted_distribution_compresses_well(self):
        n, k = 256, 4
        dist = families.random_tiling_histogram(n, k, 7, min_piece=16)
        params = TesterParams(num_sets=11, set_size=20_000)
        verdict = repro.HistogramSession(dist, n, rng=6).test_l1(k, 0.25, params=params)
        assert verdict.accepted
        # The tester's own partition is already a usable summary skeleton.
        assert verdict.partition[-1].stop == n
        from repro.histograms.fit import best_fit_values
        from repro.histograms.tiling import TilingHistogram

        boundaries = [0] + [piece.stop for piece in verdict.partition]
        values = best_fit_values(dist.pmf, np.array(boundaries), norm="l2")
        rebuilt = TilingHistogram(n, boundaries, values)
        assert repro.l2_distance(dist, rebuilt) < 0.05

    def test_rejected_distribution_would_compress_badly(self):
        n, k = 256, 4
        saw = families.sawtooth(n)
        params = TesterParams(num_sets=11, set_size=20_000)
        verdict = repro.HistogramSession(saw, n, rng=7).test_l1(k, 0.25, params=params)
        assert not verdict.accepted
        assert repro.distance_to_k_histogram(saw, k, norm="l1") > 0.25


class TestStreamToQueriesPipeline:
    """stream -> maintainer -> selectivity answers."""

    def test_pipeline(self, rng):
        from repro.streaming import StreamingHistogramMaintainer

        n = 256
        dist = families.two_level(n, heavy_start=64, heavy_length=32)
        maintainer = StreamingHistogramMaintainer(
            n, 4, refresh_every=2_000, reservoir_capacity=2_000, rng=8
        )
        maintainer.update_many(dist.sample(6_000, rng))
        report = evaluate_estimator(
            SelectivityEstimator(maintainer.histogram),
            dist,
            mixed_workload(n, 100, rng),
        )
        assert report.mean_absolute < 0.05


class TestLearnerMatchesTesterSemantics:
    """A distribution the tester accepts at k is learnable to small error
    with budget k — the two primitives agree on what 'is a k-histogram'
    means."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_agreement(self, seed):
        n, k = 128, 3
        dist = families.random_tiling_histogram(n, k, seed, min_piece=8)
        params = TesterParams(num_sets=11, set_size=20_000)
        verdict = repro.HistogramSession(dist, n, rng=seed).test_l1(k, 0.3, params=params)
        learned = repro.HistogramSession(dist, n, rng=seed, scale=0.05).learn(k, 0.3)
        err = l2_distance_squared(dist, learned.histogram)
        assert verdict.accepted
        assert err < 0.05
