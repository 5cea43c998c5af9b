"""Production facade: sessions that reuse samples and sketches.

This package is the recommended front door to the library:

* :class:`HistogramSession` — draw a sample budget once, compile sketches
  once, answer many learn/test/min-k operations over it;
* :class:`HistogramFleet` — the same facade over many distributions
  sharing a domain: pooled draws, stacked sort-free compilation, and
  lockstep tester searches, byte-identical to a loop of sessions;
* :class:`SampleSource` — the formal protocol every algorithm consumes a
  distribution through, with :func:`as_sample_source`,
  :class:`ArraySource`, and :class:`CountingSource` adapters;
* :class:`SketchBundle` — the shared pools and caches behind a session;
* :class:`ShardPlan` / :class:`ParallelExecutor` — the parallel shard
  engine: sessions and fleets accept one via ``executor=`` and fan
  their sketch compiles (and big flatness-miss batches) across a
  process pool over shared-memory slabs, byte-identically to the
  single-buffer engine.

Sessions, fleets and the maintainers in :mod:`repro.streaming` are the
only front doors to the paper's algorithms.  The pure halves they
compose (``draw_*`` plus ``*_on_sketch`` in :mod:`repro.core`) are the
reference a fresh session's first operation is pinned against.
"""

from repro.api.fleet import HistogramFleet
from repro.api.session import HistogramSession
from repro.api.shard import ParallelExecutor, ShardPlan
from repro.api.sketches import SketchBundle
from repro.api.source import (
    ArraySource,
    CountingSource,
    SampleSource,
    as_sample_source,
)

__all__ = [
    "ArraySource",
    "CountingSource",
    "HistogramFleet",
    "HistogramSession",
    "ParallelExecutor",
    "SampleSource",
    "ShardPlan",
    "SketchBundle",
    "as_sample_source",
]
