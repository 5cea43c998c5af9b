"""The benchmark's three serving workloads and the services they run on.

Each workload is a seeded :class:`repro.serving.WorkloadConfig` trace plus
the way it is driven (closed loop with ``clients`` waiting callers, or
open loop at a fixed offered rate) and the service knobs it runs under.
Every workload runs one process with ``workers=1``: a fork pool on a
two-core machine competes with the event loop for the same cores, so it
would measure the scheduler rather than the program (``repro.api.shard``
is out of scope here).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.serving import HistogramService, ServiceConfig, WorkloadConfig, WorkloadGenerator

#: Admission windows may hold every request a workload keeps in flight,
#: and the queue never fills: an overload retry would re-admit a request
#: out of trace order, which the digest gate cannot allow.
MAX_BATCH = 160
MAX_QUEUE = 16_384
CACHE_CAPACITY = 8_192


@dataclass(frozen=True)
class Workload:
    """One named workload: trace shape, driver and service knobs."""

    name: str
    trace: WorkloadConfig
    clients: int = 0  # closed loop: concurrent callers
    rate_rps: float = 0.0  # open loop: mean offered rate
    checkpoint_every: int | None = None  # delta checkpoint cadence, windows
    segments: int = 1  # drained segments the timed phase is cut into

    @property
    def open_loop(self) -> bool:
        return self.rate_rps > 0


# Refresh storms over n=4096: ingest waves, then probe waves re-probing
# the same cohort.  No learn and no selectivity, so greedy learning does
# no work and the cache gets no hits — the workload a learn or cache
# change must leave unchanged.
STORM = Workload(
    name="storm",
    trace=WorkloadConfig(
        streams=64,
        requests=4_096,
        n=4_096,
        k=8,
        epsilon=0.3,
        mix=(
            ("ingest", 2.0),
            ("test", 1.5),
            ("min_k", 8.0),
            ("uniformity", 0.3),
            ("selectivity", 0.0),
            ("learn", 0.0),
        ),
        alpha=1.2,
        l1_fraction=0.0,
        chain_after_test=0.0,
        burst_every=160,
        burst_len=128,
        ingest_batch=48,
        warmup_batch=4_096,
    ),
    clients=160,
)

# Dashboard refreshes: mostly verbatim repeats of recent probes
# (requery_bias) against rarely-mutated streams, arriving on timers
# (open loop) rather than waiting on replies.  The cache answers most
# reads; selectivity reads on never-built streams trigger learn-on-read
# rebuilds that stall every request falling due meanwhile, which only an
# open loop counts.  800/s is below half the closed-loop capacity on a
# two-core x86 machine.  BENCHMARK.json does not declare this workload:
# its write tail depends on where the seed puts ~165 writes relative to
# those stalls (README.md).
REQUERY = Workload(
    name="requery",
    trace=WorkloadConfig(
        streams=64,
        requests=4_096,
        n=1_024,
        k=8,
        epsilon=0.3,
        mix=(
            ("ingest", 0.3),
            ("test", 1.5),
            ("min_k", 8.0),
            ("uniformity", 0.3),
            ("selectivity", 1.2),
            ("learn", 0.0),
        ),
        alpha=1.2,
        l1_fraction=0.0,
        chain_after_test=0.0,
        requery_bias=0.85,
        burst_every=1_024,
        burst_len=32,
        ingest_batch=48,
        warmup_batch=1_024,
    ),
    rate_rps=800.0,
)

# The default WorkloadConfig mix: test->learn chains, l1 probes,
# selectivity and explicit learns.  Greedy compile and lockstep rounds do
# most of the work, learn commits are writes beside reads, and delta
# checkpoints run every few windows — the only workload where the
# persist layer is on the request path.  The trace's op mix, and with it
# every figure, varies with the seed by about 1/sqrt(requests), so the
# trace holds 4096 requests (~600 learns).  The timed phase is cut into
# 16 drained segments of ~1 s, each timed between two host-speed probes.
RELEARN = Workload(
    name="relearn",
    trace=WorkloadConfig(streams=64, requests=4_096, n=1_024),
    clients=16,
    checkpoint_every=8,
    segments=16,
)

WORKLOADS = {workload.name: workload for workload in (STORM, REQUERY, RELEARN)}


def with_seed(workload: Workload, seed: int) -> Workload:
    """``workload`` with its trace (and so the service rng) seeded."""
    return dataclasses.replace(
        workload, trace=dataclasses.replace(workload.trace, seed=int(seed))
    )


def build_trace(workload: Workload) -> tuple[list, list]:
    """``(warmup, timed)`` event lists of the seeded trace.

    The warmup prefix is one ingest per stream; the timed events keep
    their generator timestamps in microseconds.
    """
    events = WorkloadGenerator(workload.trace).trace()
    streams = workload.trace.streams
    return events[:streams], events[streams:]


def build_service(
    workload: Workload,
    *,
    reference: bool = False,
    snapshot_dir: str | None = None,
) -> HistogramService:
    """A fresh service for ``workload``, one reservoir item per domain value.

    The reservoir capacity sets every learn and tester sample size, so a
    learn-on-read rebuild at n=1024 costs a quarter of one over a
    4096-item reservoir.  ``reference=True`` builds the request-at-a-time,
    cache-off service (``max_batch=1``, ``cache_capacity=0``) whose
    responses the digest gate compares against.
    """
    trace = workload.trace
    config = ServiceConfig(
        max_batch=1 if reference else MAX_BATCH,
        max_linger_us=500.0,
        max_queue=MAX_QUEUE,
        cache_capacity=0 if reference else CACHE_CAPACITY,
    )
    checkpoints = {}
    if snapshot_dir is not None:
        checkpoints = {
            "snapshot_dir": snapshot_dir,
            "checkpoint_every": workload.checkpoint_every,
            "checkpoint_mode": "delta",
        }
    return HistogramService(
        WorkloadGenerator(trace).stream_names,
        trace.n,
        trace.k,
        trace.epsilon,
        config=config,
        workers=1,
        reservoir_capacity=trace.n,
        rng=trace.seed,
        **checkpoints,
    )
