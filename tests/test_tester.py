"""Tests for repro.core.tester (Algorithm 2 / Theorems 3 and 4)."""

from __future__ import annotations

import pytest

from repro.api import HistogramSession
from repro.core.flatness import FlatnessResult
from repro.core.params import TesterParams
from repro.core.tester import count_rejections, flat_partition
from repro.distributions import families
from repro.errors import InvalidParameterError

L2_ARGS = dict(scale=0.02)
L1_PARAMS = TesterParams(num_sets=21, set_size=40_000)


def oracle_from_pmf(dist):
    """An exact flatness oracle (ground truth) for partition-logic tests."""

    def oracle(start, stop):
        from repro.histograms.intervals import Interval

        flat = dist.is_flat(Interval(start, stop))
        return FlatnessResult(flat, "exact", None, None)

    return oracle


class TestFlatPartitionLogic:
    """Algorithm 2's binary-search control flow with an exact oracle."""

    def test_exact_histogram_recovered(self):
        dist = families.random_tiling_histogram(64, 4, rng=3, min_piece=4)
        partition, _ = flat_partition(64, 4, oracle_from_pmf(dist))
        assert partition[-1].stop == 64
        assert len(partition) <= 4
        # Every recovered interval must be genuinely flat.
        for interval in partition:
            assert dist.is_flat(interval)

    def test_partition_is_contiguous(self):
        dist = families.random_tiling_histogram(64, 5, rng=4)
        partition, _ = flat_partition(64, 5, oracle_from_pmf(dist))
        cursor = 0
        for interval in partition:
            assert interval.start == cursor
            cursor = interval.stop

    def test_too_few_pieces_fail(self):
        dist = families.random_tiling_histogram(64, 6, rng=8, min_piece=8)
        # The distribution has 6 genuinely distinct pieces whp; 2 pieces
        # cannot cover it.
        partition, _ = flat_partition(64, 2, oracle_from_pmf(dist))
        assert partition[-1].stop < 64

    def test_uniform_needs_one_piece(self):
        partition, queries = flat_partition(64, 1, oracle_from_pmf(families.uniform(64)))
        assert partition == [partition[0]]
        assert partition[0].start == 0 and partition[0].stop == 64

    def test_query_count_logarithmic(self):
        """Each interval costs O(log n) flatness queries."""
        dist = families.random_tiling_histogram(1024, 4, rng=5, min_piece=32)
        _, queries = flat_partition(1024, 4, oracle_from_pmf(dist))
        assert len(queries) <= 4 * 11 + 4

    def test_invalid_max_pieces(self):
        with pytest.raises(InvalidParameterError):
            flat_partition(64, 0, oracle_from_pmf(families.uniform(64)))


class TestTesterL2:
    def test_accepts_k_histogram(self):
        dist = families.random_tiling_histogram(256, 4, rng=3, min_piece=8)
        result = HistogramSession(dist, 256, rng=31, **L2_ARGS).test_l2(4, 0.25)
        assert result.accepted

    def test_accepts_uniform_for_k1(self):
        result = HistogramSession(families.uniform(256), 256, rng=32, **L2_ARGS).test_l2(1, 0.25)
        assert result.accepted

    def test_rejects_l2_far_spikes(self):
        spiky = families.spikes(256, 8)
        result = HistogramSession(spiky, 256, rng=33, **L2_ARGS).test_l2(4, 0.25)
        assert not result.accepted
        assert count_rejections(result) > 0

    def test_accepts_with_larger_k(self):
        """spikes(n, 8) is a 17-histogram; k=17 must accept."""
        spiky = families.spikes(256, 8)
        result = HistogramSession(spiky, 256, rng=34, **L2_ARGS).test_l2(20, 0.25)
        assert result.accepted

    def test_partition_covers_on_accept(self):
        dist = families.random_tiling_histogram(256, 3, rng=6, min_piece=16)
        result = HistogramSession(dist, 256, rng=35, **L2_ARGS).test_l2(3, 0.25)
        assert result.accepted
        assert result.partition[-1].stop == 256

    def test_result_metadata(self):
        dist = families.uniform(128)
        result = HistogramSession(dist, 128, rng=36, **L2_ARGS).test_l2(2, 0.25)
        assert result.norm == "l2"
        assert result.k == 2
        assert result.epsilon == 0.25
        assert result.samples_used == result.params.total_samples
        assert result.num_flatness_queries == len(result.queries)

    def test_invalid_k_raises(self):
        with pytest.raises(InvalidParameterError):
            HistogramSession(families.uniform(16), 16).test_l2(0, 0.25)


class TestTesterL1:
    def test_accepts_k_histogram(self):
        dist = families.random_tiling_histogram(256, 4, rng=3, min_piece=8)
        result = HistogramSession(dist, 256, rng=41).test_l1(4, 0.25, params=L1_PARAMS)
        assert result.accepted

    def test_rejects_sawtooth(self):
        """The sawtooth is ~0.4-far in l1 from 4-histograms."""
        result = HistogramSession(families.sawtooth(256), 256, rng=42).test_l1(
            4, 0.25, params=L1_PARAMS
        )
        assert not result.accepted

    def test_rejects_lower_bound_no_instance(self):
        from repro.core.lower_bound import no_instance

        dist = no_instance(256, 4, rng=7)
        result = HistogramSession(dist, 256, rng=43).test_l1(4, 0.2, params=L1_PARAMS)
        assert not result.accepted

    def test_accepts_lower_bound_yes_instance(self):
        from repro.core.lower_bound import yes_instance

        dist = yes_instance(256, 4)
        result = HistogramSession(dist, 256, rng=44).test_l1(4, 0.2, params=L1_PARAMS)
        assert result.accepted

    def test_sawtooth_accepted_with_huge_k(self):
        """Every distribution is a tiling n-histogram."""
        result = HistogramSession(families.sawtooth(64), 64, rng=45).test_l1(
            64, 0.25, params=TesterParams(num_sets=11, set_size=20_000)
        )
        assert result.accepted

    def test_norm_recorded(self):
        result = HistogramSession(families.uniform(64), 64, rng=46).test_l1(
            1, 0.25, params=TesterParams(num_sets=5, set_size=5_000)
        )
        assert result.norm == "l1"


class TestStatisticalGuarantee:
    """The 2/3 success probability of the testers, over repeated runs."""

    def test_l2_acceptance_rate_on_members(self):
        dist = families.random_tiling_histogram(128, 3, rng=2, min_piece=8)
        accepts = sum(
            HistogramSession(dist, 128, rng=100 + i, scale=0.05).test_l2(3, 0.3).accepted
            for i in range(10)
        )
        assert accepts >= 7

    def test_l2_rejection_rate_on_far(self):
        spiky = families.spikes(128, 6)
        rejects = sum(
            not HistogramSession(spiky, 128, rng=200 + i, scale=0.05).test_l2(3, 0.3).accepted
            for i in range(10)
        )
        assert rejects >= 7

    def test_l1_acceptance_rate_on_members(self):
        dist = families.random_tiling_histogram(128, 3, rng=2, min_piece=8)
        params = TesterParams(num_sets=11, set_size=20_000)
        accepts = sum(
            HistogramSession(dist, 128, rng=300 + i).test_l1(3, 0.3, params=params).accepted
            for i in range(10)
        )
        assert accepts >= 7

    def test_l1_rejection_rate_on_far(self):
        saw = families.sawtooth(128)
        params = TesterParams(num_sets=11, set_size=20_000)
        rejects = sum(
            not HistogramSession(saw, 128, rng=400 + i).test_l1(3, 0.3, params=params).accepted
            for i in range(10)
        )
        assert rejects >= 7
