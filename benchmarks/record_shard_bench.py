"""Summarise shard-engine benchmark runs into ``BENCH_shard.json``.

``bench_t12_shard.py`` benchmarks every workload twice in one run —
``<kernel>`` through the parallel shard engine
(:class:`repro.api.ParallelExecutor`, ``workers=4``) and
``<kernel>_loop`` through the serial baseline (no executor; the
learn pairs' baseline is the same lockstep learner) — so a single
``pytest-benchmark`` json carries its own pairing.  Two modes:

* seed / refresh the checked-in record::

      python benchmarks/record_shard_bench.py \
          --run run.json --out BENCH_shard.json

* diff a fresh CI run against the checked-in record::

      python benchmarks/record_shard_bench.py \
          --run run.json --baseline BENCH_shard.json --out BENCH_shard.ci.json

Speedups use each kernel's *minimum* round time (the pairs run
interleaved on shared CI machines; the mean is also recorded).  The
acceptance bar for this suite: the 64-stream serving sweep at
``workers=4`` records >= 2x over the looped-session baseline.  The
learn pairs — the out-of-core lockstep grid and the 64-member fleet
``learn_many`` — record what the ``workers=4`` executor adds over
serial lockstep sessions; they carry no floor.  The reduction itself
is the shared paired recorder (``benchmarks/_recorder.py``).
"""

from __future__ import annotations

import sys

from _recorder import PairedBenchSpec, paired_main

SPEC = PairedBenchSpec(
    kernel_prefix="test_shard",
    pair_suffix="_loop",
    primary="shard",
    pair="loop",
    stat="min_s",
    extra="mean",
    suite="bench_t12_shard kernel pairs (each workload runs through the "
    "parallel shard engine at workers=4 and as its serial baseline in "
    "the same run; speedup = loop_s / shard_s over per-kernel minimum "
    "round times, cold compile included)",
)


def main(argv: list[str] | None = None) -> int:
    return paired_main(SPEC, __doc__, "BENCH_shard.json", argv)


if __name__ == "__main__":
    sys.exit(main())
