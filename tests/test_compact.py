"""Tests for repro.histograms.compact."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.histograms.compact import compact
from repro.histograms.tiling import TilingHistogram


def make_hist(values, widths):
    bounds = np.concatenate(([0], np.cumsum(widths)))
    return TilingHistogram(int(bounds[-1]), bounds, values)


class TestCompact:
    def test_noop_when_already_small(self):
        hist = TilingHistogram(8, [0, 4, 8], [0.1, 0.15])
        assert compact(hist, 2) is hist
        assert compact(hist, 5) is hist

    def test_merges_most_similar_pieces(self):
        hist = make_hist([0.1, 0.11, 0.5], [4, 4, 4])
        merged = compact(hist, 2)
        assert merged.num_pieces == 2
        assert list(merged.boundaries) == [0, 8, 12]

    def test_mass_preserved(self):
        hist = make_hist([0.05, 0.1, 0.02, 0.3], [4, 8, 2, 2])
        merged = compact(hist, 2)
        assert merged.total_mass() == pytest.approx(hist.total_mass())

    def test_boundaries_subset_of_input(self):
        hist = make_hist([0.2, 0.05, 0.4, 0.01, 0.3], [3, 5, 2, 6, 4])
        merged = compact(hist, 3)
        assert set(merged.boundaries).issubset(set(hist.boundaries))

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            compact(TilingHistogram.uniform(4), 0)

    def test_k1_is_global_mean(self):
        hist = make_hist([0.1, 0.3], [4, 4])
        merged = compact(hist, 1)
        assert merged.num_pieces == 1
        assert merged.values[0] == pytest.approx(0.2)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=3, max_size=7),
        st.integers(min_value=1, max_value=4),
    )
    def test_optimal_among_coarsenings(self, values, k):
        """The DP must beat every brute-force boundary subset."""
        widths = [2] * len(values)
        hist = make_hist(values, widths)
        k = min(k, hist.num_pieces)
        merged = compact(hist, k)
        dp_cost = float(((hist.to_pmf() - merged.to_pmf()) ** 2).sum())

        pmf = hist.to_pmf()
        internal = list(hist.boundaries[1:-1])
        best = np.inf
        for cuts in itertools.combinations(internal, k - 1):
            bounds = [0, *cuts, hist.n]
            cost = 0.0
            for a, b in zip(bounds[:-1], bounds[1:]):
                seg = pmf[a:b]
                cost += ((seg - seg.mean()) ** 2).sum()
            best = min(best, cost)
        assert dp_cost == pytest.approx(best, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1, allow_nan=False), min_size=3, max_size=10),
        st.integers(min_value=1, max_value=4),
    )
    def test_agrees_with_full_dp_on_exact_segments(self, weights, k):
        """compact(from_pmf(p), k) equals the element-level v-optimal DP:
        optimal l2 boundaries can always be placed at constant-run edges."""
        from repro.baselines.voptimal import voptimal_cost

        pmf = np.array(weights)
        pmf = pmf / pmf.sum()
        hist = TilingHistogram.from_pmf(pmf)
        k = min(k, len(weights))
        squeezed = compact(hist, k)
        compact_cost = float(((pmf - squeezed.to_pmf()) ** 2).sum())
        assert compact_cost == pytest.approx(
            voptimal_cost(pmf, k, norm="l2"), abs=1e-10
        )

    def test_learned_histogram_compaction(self):
        """End to end: compact a greedy output to exactly k pieces."""
        from repro.api import HistogramSession
        from repro.distributions import families
        from repro.distributions.distances import l2_distance_squared

        dist = families.random_tiling_histogram(128, 4, 7, min_piece=8)
        learned = HistogramSession(dist, 128, rng=1, scale=0.05).learn(4, 0.25)
        squeezed = compact(learned.filled_histogram, 4)
        assert squeezed.num_pieces <= 4
        # Compaction stays within the additive guarantee regime.
        assert l2_distance_squared(dist, squeezed) <= 8 * 0.25
