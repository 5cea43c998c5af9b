"""End-to-end serving benchmark for ``repro.serving.HistogramService``.

One run builds the seeded trace of the named workload and replays it
once through a request-at-a-time, cache-off reference service to get the
response digest.  It then replays the trace in rounds through fresh
coalescing services until ``--seconds`` of timed phase have passed.
Each round:

* set-up — construct the service in a fresh, empty snapshot directory
  (it must not warm-start) and serve the warmup prefix, one ingest per
  stream.  This is ``setup_s``; it is excluded from the timed phase;
* the timed phase — the rest of the trace, cut into the workload's
  segments, each driven to completion through the workload's
  closed-loop or open-loop driver before the next starts;
* close — drain, final checkpoint, and the snapshot directory deleted.

A fixed CPU probe runs before the set-up and after it and every
segment, and each timing is scaled to a nominal host speed by the
probes around it (:func:`probe`).  Every round's responses, warmup
included, must hash to the reference digest, or the run is incorrect.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics of the traced
rounds (per round) with the tracing overhead, and writes the traced
spans to ``.servebench/``.  Human-readable lines come first; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import resource
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass

import numpy as np

from drivers import Records, closed_loop, open_loop
from repro.serving import canonical, replay
from tracing import Tracer
from workloads import WORKLOADS, Workload, build_service, build_trace, with_seed

OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".servebench")

#: Set-ups measured per run at the least (extra ones skip the timed phase).
MIN_SETUPS = 21
#: Seconds :func:`probe` took on a shared two-core x86 VM in its slower
#: state; timings are reported at this host speed (see :func:`probe`).
PROBE_NOMINAL_S = 0.003
_PROBE_DATA = np.random.default_rng(0).random(2_000_000)
_PROBE_SORTED = np.empty(100_000)
#: An open-loop run whose answered rate falls below this share of the
#: offered rate is flagged as backlogged.
BACKLOG_SHARE = 0.97


def probe() -> float:
    """Seconds a fixed CPU task takes now: the median of seven repeats.

    The task, a sum and a max over a 16 MB array, an in-place sort of
    800 KB of it and a pure-Python loop, allocates nothing and does not
    touch the program under test.  A shared host's core
    speed and cache bandwidth swing between a fast state and one up to
    ~1.7x slower, for seconds to minutes at a time, and the program
    slows with them.  Timings are therefore scaled by
    ``PROBE_NOMINAL_S / probe()``, with the probe run just before and
    just after the interval they time.  The median leaves out the first
    repeat, which may find the array evicted by the program.
    """
    times = []
    for _ in range(7):
        started = time.perf_counter()
        _PROBE_DATA.sum()
        _PROBE_DATA.max()
        np.copyto(_PROBE_SORTED, _PROBE_DATA[: len(_PROBE_SORTED)])
        _PROBE_SORTED.sort()
        total = 0
        for value in range(15_000):
            total += value * value
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def host_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two probes to nominal speed."""
    return 2.0 * PROBE_NOMINAL_S / (before + after)


@dataclass
class Segment:
    """One drained segment of a round's timed phase, as measured."""

    span_s: float  # first submit (or due time) to last response
    reads: np.ndarray  # latency of each answered non-mutating request, us
    writes: np.ndarray  # of each answered mutating request, us
    scale: float = 1.0  # host_scale of the probes around the segment


@dataclass
class Round:
    """What one set-up + timed phase + close measured."""

    setup_s: float  # at nominal host speed
    segments: "list[Segment] | None" = None
    digest: str = ""  # of every response, warmup included, in trace order
    failed: int = 0  # error responses plus requests out of overload retries
    samples: int = 0  # HistogramFleet.samples_drawn increase, timed phase
    non_ingest: int = 0  # answered requests other than ingest
    stats: "dict | None" = None  # service counter increases, timed phase
    lag: "list | None" = None  # driver lateness per request, seconds
    retries: int = 0
    mean_latency: float = 0.0  # at nominal host speed

    @property
    def timed_s(self) -> float:
        """Wall seconds of the timed phase, as measured."""
        return sum(segment.span_s for segment in self.segments or ())


def digest(responses) -> str:
    """sha256 of the canonical responses, in trace order."""
    hasher = hashlib.sha256()
    for response in responses:
        hasher.update(repr(canonical(response)).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


async def reference_digest(workload: Workload, warm: list, timed: list) -> str:
    """Digest of the request-at-a-time, cache-off replay of the trace."""
    service = build_service(workload, reference=True)
    async with service:
        report = await replay(service, warm + timed, clients=1, collect=True)
    return digest(report.responses)


def segment(events: list, records, scale: float) -> Segment:
    """The span and the read and write latencies of one driven segment."""
    latency = records.latency * 1e6
    answered = np.array([response is not None for response in records.responses], dtype=bool)
    mutates = np.array([request.mutates for _, request in events], dtype=bool)
    return Segment(
        span_s=float(records.end.max() - records.start.min()),
        reads=latency[answered & ~mutates],
        writes=latency[answered & mutates],
        scale=scale,
    )


def split(events: list, parts: int) -> list[list]:
    """``events`` cut into ``parts`` consecutive runs of near-equal length."""
    bounds = np.linspace(0, len(events), min(parts, len(events)) + 1).astype(int)
    return [events[low:high] for low, high in zip(bounds[:-1], bounds[1:])]


async def run_round(
    workload: Workload,
    warm: list,
    timed: "list | None",
    tracer: Tracer | None = None,
) -> Round:
    """Set up a fresh service, drive ``timed`` through it, close it.

    ``timed=None`` measures set-up only.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    snapshot_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        before = probe()
        started = time.perf_counter()
        service = build_service(workload, snapshot_dir=snapshot_dir)
        if service.warm_started:
            raise RuntimeError(f"service warm-started from {service.restored_from}")
        try:
            if tracer is not None:
                tracer.install(service)
            async with service:
                warm_records = await closed_loop(service, warm, len(warm))
                setup_s = time.perf_counter() - started
                probes = [probe()]
                setup_s *= host_scale(before, probes[0])
                if timed is None:
                    return Round(setup_s)
                fleet = service.maintainer.fleet
                samples = sum(fleet.samples_drawn)
                stats = service.stats
                seed = workload.trace.seed
                parts, segments = [], []
                for events in split(timed, workload.segments):
                    if workload.open_loop:
                        part = await open_loop(service, events, workload.rate_rps, seed=seed)
                    else:
                        part = await closed_loop(service, events, workload.clients, seed=seed)
                    probes.append(probe())
                    scale = host_scale(probes[-2], probes[-1])
                    parts.append(part)
                    segments.append(segment(events, part, scale))
                records = Records.concat(parts)
                samples = sum(fleet.samples_drawn) - samples
                after = service.stats
        finally:
            if tracer is not None:
                tracer.remove()
        if tracer is not None:
            tracer.add_requests(records)
        return Round(
            setup_s,
            segments=segments,
            digest=digest(warm_records.responses + records.responses),
            failed=records.failed,
            samples=samples,
            non_ingest=sum(
                response is not None and request.op != "ingest"
                for (_, request), response in zip(timed, records.responses)
            ),
            stats={key: after[key] - stats[key] for key in after if isinstance(after[key], int)},
            lag=records.lag,
            retries=records.retries,
            mean_latency=float(
                np.mean([one.scale * part.latency.mean() for one, part in zip(segments, parts)])
            ),
        )
    finally:
        shutil.rmtree(snapshot_dir, ignore_errors=True)


def end_to_end(rounds: list[Round], setups: list[Round]) -> dict:
    """``name -> (value, unit, sample count)`` over the measured rounds.

    Every timing is at nominal host speed: each segment's span and
    latencies are scaled by the probes around it (:func:`probe`).
    Throughput is the answers of every round over their summed scaled
    spans; the percentiles are over every round's pooled scaled
    latencies; ``setup_s`` is the median over every set-up of the run.
    """
    segments = [part for one in rounds for part in one.segments]
    reads = np.concatenate([part.reads * part.scale for part in segments])
    writes = np.concatenate([part.writes * part.scale for part in segments])
    answered = len(reads) + len(writes)
    samples = sum(one.samples for one in rounds)
    non_ingest = sum(one.non_ingest for one in rounds)
    setup = [one.setup_s for one in rounds + setups]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled_s = sum(part.span_s * part.scale for part in segments)
    return {
        "setup_s": (float(np.median(setup)), "s", len(setup)),
        "throughput_rps": (answered / scaled_s, "1/s", answered),
        "read_p50_us": (percentile(reads, 50), "us", len(reads)),
        "read_p99_us": (percentile(reads, 99), "us", len(reads)),
        "write_p50_us": (percentile(writes, 50), "us", len(writes)),
        "write_p90_us": (percentile(writes, 90), "us", len(writes)),
        "samples_per_answer": (samples / max(non_ingest, 1), "samples", non_ingest),
        "peak_rss_mb": (rss, "MB", 1),
    }


def error_rate(rounds: list[Round], requests: int) -> tuple:
    """``(rate, unit, attempted)``: failed requests over attempted ones."""
    attempted = requests * len(rounds)
    return (sum(one.failed for one in rounds) / max(attempted, 1), "ratio", attempted)


def per_layer(tracer: Tracer, traced: list[Round], overhead: float) -> dict:
    """``name -> (value, unit[, samples or calls])``, per traced round."""
    table = tracer.layers()
    rounds = len(traced)

    def row(*names, key="busy_s"):
        return sum(table.get(name, {}).get(key, 0) for name in names) / rounds

    stats = {
        key: sum(one.stats[key] for one in traced)
        for key in ("served", "batches", "cache_hits", "cache_misses")
    }
    lookups = stats["cache_hits"] + stats["cache_misses"]
    fleet_ops = ("fleet.learn", "fleet.test", "fleet.min_k")
    lags = [lag for one in traced for lag in one.lag]
    metrics = {
        "service.batch_mean": (
            (stats["served"] - stats["cache_hits"]) / max(stats["batches"], 1),
            "requests",
            stats["batches"],
        ),
        "service.cache_hit_rate": (stats["cache_hits"] / max(lookups, 1), "ratio", lookups),
        "service.checkpoint_bytes": (row("service.checkpoint", key="bytes"), "bytes"),
        "reservoir.items": (row("reservoir.ingest", key="items"), "count"),
        "maintainer.rebuilds": (row("maintainer.rebuild", key="rebuilds"), "count"),
        "fleet.members_per_call": (
            row(*fleet_ops, key="members") / max(row(*fleet_ops, key="calls"), 1e-12),
            "members",
        ),
        "fleet.samples_drawn": (row(*fleet_ops, key="samples"), "samples"),
        "lockstep.members": (row("lockstep.learn", key="members"), "count"),
        "driver.lag_p99_us": (percentile(lags, 99) * 1e6, "us", len(lags)),
        "driver.retries": (sum(one.retries for one in traced) / rounds, "count"),
        "trace.overhead_pct": (overhead * 100.0, "%"),
    }
    for metric, name in (
        ("service.checkpoint_s", "service.checkpoint"),
        ("reservoir.ingest_s", "reservoir.ingest"),
        ("maintainer.rebuild_s", "maintainer.rebuild"),
        ("maintainer.probe_s", "maintainer.probe"),
        ("maintainer.learn_s", "maintainer.learn"),
        ("fleet.learn_s", "fleet.learn"),
        ("fleet.test_s", "fleet.test"),
        ("fleet.min_k_s", "fleet.min_k"),
        ("sketches.pool_s", "sketches.pool"),
        ("greedy.compile_s", "greedy.compile"),
        ("lockstep.learn_s", "lockstep.learn"),
        ("flatness.compile_s", "flatness.compile"),
        ("tester.search_s", "tester.search"),
        ("selection.min_k_s", "selection.min_k"),
    ):
        metrics[metric] = (row(name), "s", int(row(name, key="calls") * rounds))
    return dict(sorted(metrics.items()))


@dataclass
class Run:
    """Everything one benchmark run measured."""

    reference: str  # digest of the request-at-a-time, cache-off replay
    requests: int  # timed events in the trace
    rounds: list[Round]  # untraced rounds
    setups: list[Round]  # extra set-up-only rounds
    tracer: Tracer | None
    traced_rounds: list[Round]

    @property
    def mismatches(self) -> int:
        return sum(one.digest != self.reference for one in self.rounds + self.traced_rounds)


async def measure(workload: Workload, seconds: float, traced: bool) -> Run:
    """Reference digest, then rounds until ``seconds`` of timed phase.

    With ``traced`` the rounds alternate untraced and traced, starting
    untraced, and at least one of each runs; otherwise no wrapper is
    ever installed and set-up-only rounds top the set-up count up to
    :data:`MIN_SETUPS`.
    """
    warm, timed = build_trace(workload)
    reference = await reference_digest(workload, warm, timed)
    run = Run(reference, len(timed), [], [], Tracer() if traced else None, [])
    elapsed = 0.0
    while elapsed < seconds or not run.rounds or (traced and not run.traced_rounds):
        trace_this = traced and len(run.rounds) > len(run.traced_rounds)
        gc.collect()
        one = await run_round(workload, warm, timed, run.tracer if trace_this else None)
        (run.traced_rounds if trace_this else run.rounds).append(one)
        elapsed += one.timed_s
    for _ in range(0 if traced else MIN_SETUPS - len(run.rounds)):
        gc.collect()
        run.setups.append(await run_round(workload, warm, None))
    return run


def _print_report(workload: Workload, seed: int, run: Run, metrics: dict) -> None:
    """The human-readable lines: every metric with its unit and samples."""
    print(
        f"{workload.name} seed={seed}: {len(run.rounds)} untraced and "
        f"{len(run.traced_rounds)} traced rounds of {run.requests} requests, "
        f"{len(run.rounds) + len(run.setups)} set-ups, reference digest "
        f"{run.reference[:16]}, {run.mismatches} mismatching rounds"
    )
    segments = [part for one in run.rounds + run.traced_rounds for part in one.segments]
    scales = [part.scale for part in segments]
    answered = sum(len(part.reads) + len(part.writes) for part in segments)
    print(
        f"  host scale (nominal / probe) median {np.median(scales):.3f}, "
        f"range {min(scales):.3f}-{max(scales):.3f} over {len(scales)} segments; "
        f"unscaled throughput {answered / sum(part.span_s for part in segments):.6g} 1/s"
    )
    shown = dict(metrics)
    shown["error_rate"] = error_rate(run.rounds + run.traced_rounds, run.requests)
    for name, (value, unit, *samples) in shown.items():
        counted = f"  (n={samples[0]})" if samples else ""
        print(f"  {name:<26} {value:>16.6g} {unit}{counted}")
    if run.tracer is not None:
        per = len(run.traced_rounds)
        print("  spans per traced round:     calls     busy_s     self_s")
        for name, row in sorted(run.tracer.layers().items()):
            print(
                f"    {name:<22} {row['calls'] / per:>10.1f} "
                f"{row['busy_s'] / per:>10.4f} {row['self_s'] / per:>10.4f}"
            )
    if workload.open_loop and "throughput_rps" in metrics:
        answered = metrics["throughput_rps"][0]
        if answered < BACKLOG_SHARE * workload.rate_rps:
            print(f"  BACKLOG: answered {answered:.1f} rps < offered {workload.rate_rps:g} rps")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = with_seed(WORKLOADS[args.workload], args.seed)
    run = asyncio.run(measure(workload, args.seconds, bool(args.trace)))
    if args.trace:
        overhead = np.mean([one.mean_latency for one in run.traced_rounds]) / np.mean(
            [one.mean_latency for one in run.rounds]
        )
        metrics = per_layer(run.tracer, run.traced_rounds, float(overhead) - 1.0)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.json")
        with open(spans_path, "w") as handle:
            json.dump([asdict(span) for span in run.tracer.spans], handle)
    else:
        metrics = end_to_end(run.rounds, run.setups)
    _print_report(workload, args.seed, run, metrics)

    measured = run.rounds + run.traced_rounds
    result = {
        "correct": run.mismatches == 0,
        "attempted": run.requests * len(measured),
        "failed": sum(one.failed for one in measured),
        "metrics": {
            name: {"value": entry[0], "unit": entry[1]} for name, entry in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1
