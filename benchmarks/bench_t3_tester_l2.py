"""T3 — the l2 tiling k-histogram tester (Theorem 3)."""

from __future__ import annotations

from conftest import emit

from repro.api import HistogramSession
from repro.distributions import families
from repro.experiments.testing import run_t3


def test_t3_table(benchmark, quick_config):
    """Regenerate T3; YES rows accept >= 2/3, NO rows accept <= 1/3."""
    result = benchmark.pedantic(run_t3, args=(quick_config,), rounds=1, iterations=1)
    emit(result)
    for row in result.rows:
        if row[1] == "YES":
            assert row[3] >= 2 / 3
        else:
            assert row[3] <= 1 / 3


def test_l2_tester_kernel(benchmark):
    """Micro: one l2 test run on n=256."""
    dist = families.random_tiling_histogram(256, 4, 21, min_piece=8)
    benchmark(
        lambda: HistogramSession(dist, 256, rng=1, scale=0.05).test_l2(4, 0.25)
    )
