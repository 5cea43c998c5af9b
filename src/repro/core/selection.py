"""Model selection: estimate the smallest credible ``k`` by testing.

The paper's testers decide membership for a *given* ``k``; iterating them
over increasing ``k`` turns them into a sub-linear model-selection
procedure (the smallest accepted ``k`` is a credible bucket count).  To
avoid paying the sample complexity once per candidate ``k``, the search
reuses one set of sample sets across all candidates — Algorithm 2 already
takes a union bound over all ``n^2`` intervals, so reuse is sound.

This module is an extension beyond the paper (README.md, "Design notes"):
the paper's machinery composes into it directly.
:func:`select_min_k_on_sketch` is the pure half operating on an
already-built sketch (drawn by :func:`repro.core.tester.draw_tester_sets`);
:meth:`repro.api.HistogramSession.min_k` is the sketch-reusing front
door.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.flatness import CompiledTesterSketches, FleetTesterSketches
from repro.core.params import TesterParams, check_k
from repro.core.tester import (
    flat_partition,
    fleet_flat_partition,
    l1_effective_scale,
    resolve_flatness_oracle,
)
from repro.errors import InvalidParameterError
from repro.histograms.intervals import Interval
from repro.samples.estimators import MultiSketch


@dataclass(frozen=True)
class SelectionResult:
    """Output of a min-k search (:meth:`repro.api.HistogramSession.min_k`).

    Attributes
    ----------
    k:
        The smallest candidate ``k`` whose partition search covered the
        domain, or ``None`` when none did.
    partition:
        The flat partition found at that ``k`` (its length can be below
        ``k``).
    tried:
        Every candidate ``k`` examined, with its verdict.
    samples_used:
        Total samples drawn (shared across all candidates).
    """

    k: "int | None"
    partition: list[Interval]
    tried: list[tuple[int, bool]]
    samples_used: int


def _checked_scale(
    n: int, epsilon: float, max_k: int, norm: str, params: TesterParams
) -> float:
    """Check a min-k search's bounds and norm; return its l1 threshold rescale."""
    check_k(max_k, n, name="max_k")
    if norm not in ("l1", "l2"):
        raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
    return 1.0 if norm == "l2" else l1_effective_scale(n, max_k, epsilon, params)


def select_min_k_on_sketch(
    multi: MultiSketch | None,
    n: int,
    epsilon: float,
    *,
    max_k: int,
    norm: str = "l1",
    params: TesterParams,
    engine: str = "compiled",
    compiled: CompiledTesterSketches | None = None,
) -> SelectionResult:
    """The min-k search on an already-built sketch (no source access).

    Pure in ``multi``; :meth:`repro.api.HistogramSession.min_k` delegates
    here.  Pass ``compiled`` (the session cache path) to reuse an existing
    :class:`~repro.core.flatness.CompiledTesterSketches` — its verdict memo
    then carries over from earlier tester calls, which matters here because
    the left-greedy sweep re-probes exactly the intervals those calls
    already certified.
    """
    effective_scale = _checked_scale(n, epsilon, max_k, norm, params)
    oracle = resolve_flatness_oracle(
        multi, norm, epsilon, scale=effective_scale, engine=engine, compiled=compiled
    )
    partition, _ = flat_partition(n, max_k, oracle)
    return _selection_from_partition(n, max_k, partition, params)


def _selection_from_partition(
    n: int,
    max_k: int,
    partition: "list[Interval]",
    params: TesterParams,
) -> SelectionResult:
    """Read the min-k answer off a left-greedy partition (shared logic)."""
    covered = partition[-1].stop if partition else 0
    found: int | None = len(partition) if covered >= n else None
    tried = [(k, found is not None and k >= found) for k in range(1, max_k + 1)]
    return SelectionResult(
        k=found,
        partition=partition,
        tried=tried,
        samples_used=params.total_samples,
    )


def select_min_k_on_fleet(
    fleet: FleetTesterSketches,
    n: int,
    epsilon: float,
    *,
    max_k: int,
    norm: str = "l1",
    params: TesterParams,
    members: "list[int] | None" = None,
) -> list[SelectionResult]:
    """The min-k search across a compiled fleet, lockstep-batched.

    The fleet-axis counterpart of :func:`select_min_k_on_sketch`: one
    validated oracle, one lockstep left-greedy sweep
    (:func:`repro.core.tester.fleet_flat_partition`), one
    :class:`SelectionResult` per member in member order — each
    byte-identical to the single-sketch search on that member's compiled
    sketches, memo accounting included.
    """
    effective_scale = _checked_scale(n, epsilon, max_k, norm, params)
    if members is None:
        members = list(range(fleet.fleet_size))
    oracle = fleet.oracle(norm, epsilon, scale=effective_scale)
    outcomes = fleet_flat_partition(n, max_k, oracle, members)
    return [
        _selection_from_partition(n, max_k, partition, params)
        for partition, _ in outcomes
    ]
