"""Tiling k-histogram testers (Algorithm 2; Theorems 3 and 4).

Algorithm 2 tries to cover ``[0, n)`` with at most ``k`` flat intervals.
Starting from the left edge it binary-searches for the farthest endpoint
whose interval still passes the flatness test, commits that interval, and
repeats; it accepts iff ``k`` intervals suffice.

Accept-condition note (README.md, "Design notes"): the paper's pseudocode
accepts when ``previous = n`` (1-based), but the binary search leaves
``low = n + 1`` when the final interval is flat; the reachable condition —
implemented here — is ``previous >= n`` in 0-based half-open coordinates.

Like the learner, the module splits "draw samples" from "run the
algorithm": :func:`draw_tester_sets` touches the source,
:func:`test_l2_on_sketch` / :func:`test_l1_on_sketch` run Algorithm 2 on
an already-built :class:`~repro.samples.estimators.MultiSketch`.  Their
composition is the reference path; :class:`repro.api.HistogramSession`
is the sketch-reusing front door, and a fresh session's first test is
seed-for-seed identical to the composition.

Each flatness oracle comes in two engines (README.md, "Compiled tester
engine"): ``engine="compiled"`` (the default) answers queries from a
:class:`~repro.core.flatness.CompiledTesterSketches` — precompiled
prefix gathers plus a verdict memo — and ``engine="full"`` re-runs the
per-set searches on every probe.  The two are byte-identical on verdicts
*and query logs* (the equivalence contract the test suite asserts);
``BENCH_tester.json`` tracks the measured speedup.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.flatness import (
    REASON_REJECTED,
    CompiledTesterSketches,
    FlatnessOracle,
    FlatnessResult,
    FleetFlatnessOracle,
    FleetTesterSketches,
    compile_tester_sketches,
    flatness_oracle,
)
from repro.core.params import TesterParams, check_k
from repro.core.results import FlatnessQuery, TestResult
from repro.errors import InvalidParameterError
from repro.histograms.intervals import Interval
from repro.samples.estimators import MultiSketch
from repro.utils.rng import as_rng

TESTER_ENGINES = ("compiled", "full")


def flat_partition(
    n: int,
    max_pieces: int,
    oracle: FlatnessOracle,
) -> tuple[list[Interval], list[FlatnessQuery]]:
    """Algorithm 2's partition search, generic over the flatness oracle.

    Returns the flat intervals found (in order) and the full query log.
    The caller decides acceptance from whether the intervals cover the
    domain.  Every probe is logged, including ones a memoising oracle
    answers from cache — the log is engine-independent.
    """
    if max_pieces < 1:
        raise InvalidParameterError(f"max_pieces must be >= 1, got {max_pieces}")
    queries: list[FlatnessQuery] = []
    partition: list[Interval] = []

    def flat(start: int, stop: int) -> bool:
        result = oracle(start, stop)
        queries.append(
            FlatnessQuery(
                interval=Interval(start, stop),
                accepted=result.accepted,
                reason=result.reason,
                statistic=result.statistic,
                threshold=result.threshold,
            )
        )
        return result.accepted

    previous = 0
    for _ in range(max_pieces):
        low, high = previous, n - 1
        while high >= low:
            mid = low + (high - low) // 2
            if flat(previous, mid + 1):
                low = mid + 1
            else:
                high = mid - 1
        if low == previous:
            # A single element is always flat in exact arithmetic; this
            # branch is a defensive guard against a stuck search.
            break
        partition.append(Interval(previous, low))
        previous = low
        if previous >= n:
            break
    return partition, queries


class _FleetPartitionState:
    """One member's Algorithm 2 binary-search state, lockstep-steppable.

    A verbatim state-machine translation of :func:`flat_partition`'s
    nested loops: ``(previous, low, high, pieces)`` hold the sequential
    code's loop variables, and :meth:`advance` consumes one probe's
    verdict — logging it and updating the search — returning whether the
    member still has probes to make.  Driving every member through the
    same transitions the sequential code takes is what keeps a fleet
    run's per-member partitions *and query logs* byte-identical to a
    loop of single-member runs.
    """

    __slots__ = ("n", "max_pieces", "previous", "pieces", "low", "high",
                 "partition", "queries")

    def __init__(self, n: int, max_pieces: int) -> None:
        self.n = n
        self.max_pieces = max_pieces
        self.previous = 0
        self.pieces = 0
        self.low = 0
        self.high = n - 1
        self.partition: list[Interval] = []
        self.queries: list[FlatnessQuery] = []

    def advance(self, stop: int, result: FlatnessResult) -> bool:
        """Consume the pending probe's verdict; ``True`` while active."""
        self.queries.append(
            FlatnessQuery(
                interval=Interval(self.previous, stop),
                accepted=result.accepted,
                reason=result.reason,
                statistic=result.statistic,
                threshold=result.threshold,
            )
        )
        if result.accepted:
            self.low = stop  # == mid + 1
        else:
            self.high = stop - 2  # == mid - 1
        if self.high >= self.low:
            return True
        # Inner binary search finished for this piece.
        if self.low == self.previous:
            # Defensive guard against a stuck search (see flat_partition).
            return False
        self.partition.append(Interval(self.previous, self.low))
        self.previous = self.low
        self.pieces += 1
        if self.previous >= self.n or self.pieces >= self.max_pieces:
            return False
        self.low, self.high = self.previous, self.n - 1
        return True


def fleet_flat_partition(
    n: int,
    max_pieces: int,
    oracle: FleetFlatnessOracle,
    members: "list[int]",
) -> list[tuple[list[Interval], list[FlatnessQuery]]]:
    """Algorithm 2's partition search for many members, lockstep-batched.

    Every member runs exactly the probe sequence :func:`flat_partition`
    would run for it — memo-hit verdicts are consumed inline (members
    fast-forward independently, so a member replaying a cached search
    never stalls the batch), and each round gathers at most one fresh
    probe per member into a single vectorised
    :meth:`~repro.core.flatness.FleetFlatnessOracle.resolve` call.
    Returns each member's ``(partition, query log)`` in input order,
    byte-identical — partitions, logs, and per-member memo accounting —
    to looping the sequential search.

    The fast-forward loop reads each member's verdict memo directly
    (hit ticks are accumulated locally and flushed once at the end):
    at fleet scale the per-probe constant of this loop is the serving
    path's floor, so it stays free of per-probe method dispatch.
    """
    if max_pieces < 1:
        raise InvalidParameterError(f"max_pieces must be >= 1, got {max_pieces}")
    states = [_FleetPartitionState(n, max_pieces) for _ in members]
    memos = [oracle.member_memo(member) for member in members]
    hits = [0] * len(members)
    metric, epsilon, scale = oracle.suffix
    active = list(range(len(members)))
    while active:
        parked: list[int] = []
        stops: list[int] = []
        for i in active:
            # Fast-forward through memo hits with the state in locals —
            # the same transitions as _FleetPartitionState.advance, kept
            # free of per-probe attribute and method dispatch (this loop
            # is the serving path's floor; see the docstring).
            state = states[i]
            memo_get = memos[i].get
            queries_append = state.queries.append
            previous, low, high = state.previous, state.low, state.high
            pieces, partition = state.pieces, state.partition
            local_hits = 0
            while True:
                stop = low + (high - low) // 2 + 1
                cached = memo_get((previous, stop, metric, epsilon, scale))
                if cached is None:
                    state.previous, state.low, state.high = previous, low, high
                    state.pieces = pieces
                    parked.append(i)
                    stops.append(stop)
                    break
                local_hits += 1
                queries_append(
                    FlatnessQuery(
                        interval=Interval(previous, stop),
                        accepted=cached.accepted,
                        reason=cached.reason,
                        statistic=cached.statistic,
                        threshold=cached.threshold,
                    )
                )
                if cached.accepted:
                    low = stop
                else:
                    high = stop - 2
                if high >= low:
                    continue
                if low == previous:
                    state.previous, state.low, state.high = previous, low, high
                    state.pieces = pieces
                    break
                partition.append(Interval(previous, low))
                previous = low
                pieces += 1
                if previous >= n or pieces >= max_pieces:
                    state.previous, state.low, state.high = previous, low, high
                    state.pieces = pieces
                    break
                low, high = previous, n - 1
            hits[i] += local_hits
        if not parked:
            break
        results = oracle.resolve(
            np.asarray([members[i] for i in parked], dtype=np.int64),
            np.asarray([states[i].previous for i in parked], dtype=np.int64),
            np.asarray(stops, dtype=np.int64),
        )
        active = [
            i
            for i, stop, result in zip(parked, stops, results)
            if states[i].advance(stop, result)
        ]
    oracle.flush_hits(members, hits)
    return [(state.partition, state.queries) for state in states]


def fleet_test_on_sketches(
    fleet: FleetTesterSketches,
    n: int,
    k: int,
    epsilon: float,
    norm: str,
    params: TesterParams,
    members: "list[int] | None" = None,
) -> list[TestResult]:
    """One tester invocation across a compiled fleet (no source access).

    The fleet-axis counterpart of :func:`test_l2_on_sketch` /
    :func:`test_l1_on_sketch`: one validated oracle, one lockstep
    partition search, one :class:`TestResult` per member (in member
    order), each byte-identical to the single-sketch call on that
    member's compiled sketches.
    """
    check_k(k, n)
    if norm not in ("l1", "l2"):
        raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
    if members is None:
        members = list(range(fleet.fleet_size))
    scale = 1.0 if norm == "l2" else l1_effective_scale(n, k, epsilon, params)
    oracle = fleet.oracle(norm, epsilon, scale=scale)
    outcomes = fleet_flat_partition(n, k, oracle, members)
    return [
        _result_from_partition(n, k, epsilon, norm, params, partition, queries)
        for partition, queries in outcomes
    ]


def draw_tester_sets(
    source: object,
    params: TesterParams,
    rng: "int | None | np.random.Generator" = None,
) -> list[np.ndarray]:
    """Draw Algorithm 2's ``r`` sample sets (the only sampling step).

    Draw order is part of the public contract: ``params.num_sets``
    consecutive draws of ``params.set_size`` from one generator, so any
    caller reproducing the order (a fresh
    :class:`repro.api.HistogramSession` does) draws the same sets.
    """
    generator = as_rng(rng)
    return [
        np.asarray(source.sample(params.set_size, generator))
        for _ in range(params.num_sets)
    ]


def validate_tester_engine(engine: str) -> None:
    """Reject unknown tester engines."""
    if engine not in TESTER_ENGINES:
        raise InvalidParameterError(
            f"engine must be one of {TESTER_ENGINES}, got {engine!r}"
        )


def resolve_flatness_oracle(
    multi: MultiSketch | None,
    metric: str,
    epsilon: float,
    *,
    scale: float = 1.0,
    engine: str = "compiled",
    compiled: CompiledTesterSketches | None = None,
) -> FlatnessOracle:
    """The flatness oracle for one tester invocation, validated once.

    ``engine="compiled"`` uses ``compiled`` when given (the session cache
    path) or compiles ``multi`` on the spot; ``engine="full"`` answers
    every probe from the raw sketch (``compiled`` is ignored).  ``multi``
    may be ``None`` when ``compiled`` is supplied with the compiled
    engine — the fleet facade compiles its gather stacks without ever
    building per-member :class:`MultiSketch` objects.
    """
    validate_tester_engine(engine)
    if engine == "full":
        if multi is None:
            raise InvalidParameterError(
                "engine='full' needs the raw MultiSketch; only the compiled "
                "engine can run from precompiled sketches alone"
            )
        return flatness_oracle(multi, metric, epsilon, scale=scale)
    if compiled is None:
        if multi is None:
            raise InvalidParameterError(
                "engine='compiled' needs either a MultiSketch to compile or "
                "an already-compiled CompiledTesterSketches"
            )
        compiled = compile_tester_sketches(multi)
    return compiled.oracle(metric, epsilon, scale=scale)


def _result_from_partition(
    n: int,
    k: int,
    epsilon: float,
    norm: str,
    params: TesterParams,
    partition: "list[Interval]",
    queries: "list[FlatnessQuery]",
) -> TestResult:
    """Algorithm 2's acceptance rule, shared by every driver.

    Acceptance is coverage: the search committed flat intervals up to
    ``k`` pieces, so the domain is covered iff the last one reaches
    ``n``.  Single-sketch and fleet runs both read their verdicts
    through this one function (the byte-identity contract's anchor).
    """
    covered = partition[-1].stop if partition else 0
    return TestResult(
        accepted=covered >= n,
        norm=norm,
        k=k,
        epsilon=epsilon,
        partition=partition,
        queries=queries,
        params=params,
        samples_used=params.total_samples,
    )


def _run_on_sketch(
    multi: MultiSketch,
    n: int,
    k: int,
    epsilon: float,
    norm: str,
    params: TesterParams,
    oracle_factory: Callable[[MultiSketch], FlatnessOracle],
) -> TestResult:
    partition, queries = flat_partition(n, k, oracle_factory(multi))
    return _result_from_partition(n, k, epsilon, norm, params, partition, queries)


def test_l2_on_sketch(
    multi: MultiSketch | None,
    n: int,
    k: int,
    epsilon: float,
    params: TesterParams,
    *,
    engine: str = "compiled",
    compiled: CompiledTesterSketches | None = None,
) -> TestResult:
    """Theorem 3's tester on an already-built sketch (no source access).

    Pure in ``multi``: running it any number of times — or interleaved
    with other ``(k, epsilon)`` queries over the same sketch — returns
    identical results, which is what lets sessions share one draw.
    ``engine``/``compiled`` select the flatness engine (see module
    docstring); the verdict and query log are engine-independent.
    ``multi`` may be ``None`` on the compiled engine when ``compiled``
    is supplied (the fleet path never builds per-member sketches).
    """
    check_k(k, n)
    return _run_on_sketch(
        multi,
        n,
        k,
        epsilon,
        "l2",
        params,
        lambda m: resolve_flatness_oracle(
            m, "l2", epsilon, engine=engine, compiled=compiled
        ),
    )


def l1_effective_scale(n: int, k: int, epsilon: float, params: TesterParams) -> float:
    """Rescaling of ``testFlatness-l1``'s light-interval threshold.

    The threshold is an absolute hit count calibrated to the paper's
    ``m = 2^13 sqrt(kn) / eps^5``; running with ``params.set_size``
    samples per set requires scaling it proportionally so the same weight
    level is tested.
    """
    paper_set_size = (2**13) * np.sqrt(k * n) / epsilon**5
    return min(1.0, params.set_size / paper_set_size)


def test_l1_on_sketch(
    multi: MultiSketch | None,
    n: int,
    k: int,
    epsilon: float,
    params: TesterParams,
    *,
    engine: str = "compiled",
    compiled: CompiledTesterSketches | None = None,
) -> TestResult:
    """Theorem 4's tester on an already-built sketch (no source access).

    As with :func:`test_l2_on_sketch`, ``multi`` may be ``None`` on the
    compiled engine when ``compiled`` is supplied.
    """
    check_k(k, n)
    effective_scale = l1_effective_scale(n, k, epsilon, params)
    return _run_on_sketch(
        multi,
        n,
        k,
        epsilon,
        "l1",
        params,
        lambda m: resolve_flatness_oracle(
            m,
            "l1",
            epsilon,
            scale=effective_scale,
            engine=engine,
            compiled=compiled,
        ),
    )


def count_rejections(result: TestResult) -> int:
    """Number of rejected flatness queries in a test run (diagnostics)."""
    return sum(1 for q in result.queries if q.reason == REASON_REJECTED)
