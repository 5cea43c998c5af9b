"""Tests of the top-level public API surface."""

from __future__ import annotations

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_exception_hierarchy(self):
        for exc in (
            repro.InvalidDistributionError,
            repro.InvalidHistogramError,
            repro.InvalidIntervalError,
            repro.InvalidParameterError,
            repro.InsufficientSamplesError,
        ):
            assert issubclass(exc, repro.ReproError)
        assert issubclass(repro.ReproError, Exception)

    def test_end_to_end_learn(self):
        """The README quickstart path, via top-level names only."""
        from repro.distributions import families

        dist = families.random_tiling_histogram(64, 3, rng=1)
        result = repro.HistogramSession(dist, 64, rng=2, scale=0.1).learn(3, 0.3)
        assert isinstance(result.histogram, repro.TilingHistogram)
        assert repro.l2_distance(dist, result.histogram) < 0.3 + 0.1

    def test_end_to_end_test(self):
        from repro.core.params import TesterParams
        from repro.distributions import families

        dist = families.uniform(64)
        verdict = repro.HistogramSession(dist, 64, rng=1).test_l1(
            1, 0.3, params=TesterParams(num_sets=5, set_size=5_000)
        )
        assert verdict.accepted

    def test_end_to_end_distance(self):
        from repro.distributions import families

        assert repro.distance_to_k_histogram(families.uniform(32), 1) == pytest.approx(0.0)
        assert repro.is_k_histogram(families.uniform(32), 1)

    def test_interval_exported(self):
        assert repro.Interval(0, 4).length == 4
