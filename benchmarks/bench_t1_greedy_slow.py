"""T1 — exhaustive greedy (Algorithm 1) vs the DP optimum."""

from __future__ import annotations

from conftest import emit

from repro.api import HistogramSession
from repro.distributions import families
from repro.experiments.learning import run_t1


def test_t1_table(benchmark, quick_config):
    """Regenerate the T1 table; assert every excess is within 5 eps."""
    result = benchmark.pedantic(run_t1, args=(quick_config,), rounds=1, iterations=1)
    emit(result)
    assert all(row[-1] for row in result.rows)


def test_exhaustive_greedy_kernel(benchmark):
    """Micro: one exhaustive learn on n=128 (the n^2-candidate regime)."""
    dist = families.random_tiling_histogram(128, 4, 11, min_piece=4)
    benchmark(
        lambda: HistogramSession(dist, 128, rng=1, scale=0.02).learn(
            4, 0.25, method="exhaustive"
        )
    )
