"""T2 — fast greedy (Theorem 2) vs exhaustive.

The kernel benchmarks track the default lockstep learner and its
dirty-region rescoring (README.md, "Incremental scoring"):
``test_fast_greedy_kernel_large`` is the headline grid point — millions
of candidates over many rounds, where dirty-region rescoring pays — and
feeds ``BENCH_greedy.json`` (see ``benchmarks/record_greedy_bench.py``).
"""

from __future__ import annotations

from conftest import emit

from repro.api import HistogramSession
from repro.core.params import GreedyParams
from repro.distributions import families
from repro.experiments.learning import run_t2

LARGE_N = 8_192
LARGE_PARAMS = GreedyParams(
    weight_sample_size=2_500,
    collision_sets=9,
    collision_set_size=2_500,
    rounds=12,
)


def test_t2_table(benchmark, quick_config):
    """Regenerate the T2 table; fast excess must stay within 8 eps."""
    result = benchmark.pedantic(run_t2, args=(quick_config,), rounds=1, iterations=1)
    emit(result)
    for row in result.rows:
        assert row[2] <= row[4]  # excess fast <= bound 8 eps

def test_fast_greedy_kernel(benchmark):
    """Micro: one fast learn on n=512 (sample-endpoint candidates)."""
    dist = families.zipf(512, 1.0)
    benchmark(
        lambda: HistogramSession(dist, 512, rng=1, scale=0.02).learn(4, 0.25, method="fast")
    )


def test_fast_greedy_kernel_large(benchmark):
    """Macro: the largest grid point — ~2.4M candidates, 12 rounds."""
    dist = families.zipf(LARGE_N, 1.0)
    result = benchmark.pedantic(
        lambda: HistogramSession(dist, LARGE_N, rng=1).learn(
            8, 0.2, method="fast", params=LARGE_PARAMS
        ),
        rounds=1,
        iterations=1,
    )
    assert result.num_candidates > 1_000_000


def test_exhaustive_greedy_kernel(benchmark):
    """Macro: one exhaustive learn (Algorithm 1) on n=512, C(n+1, 2) candidates."""
    dist = families.zipf(512, 1.0)
    result = benchmark.pedantic(
        lambda: HistogramSession(dist, 512, rng=1, scale=0.02).learn(
            4, 0.25, method="exhaustive"
        ),
        rounds=1,
        iterations=1,
    )
    assert result.num_candidates == 512 * 513 // 2
