"""The greedy priority-histogram learner (Algorithm 1 / Theorem 2).

The algorithm draws

* one weight sample ``S`` of size ``ell`` giving ``y_I = |S_I| / ell``,
* ``r`` collision sets of size ``m`` giving
  ``z_I = median_i coll(S^i_I) / C(m, 2)`` (the absolute second-moment
  estimator of Lemma 1),

and runs ``q = k ln(1/eps)`` rounds.  Each round scores every candidate
interval ``J`` by the estimated squared-l2 cost of the histogram obtained
by painting ``J`` (with value ``y_J / |J|``) over the current one, then
commits the argmin.

Two faithfulness details (README.md, "Design notes"):

* the cost ``c_J`` sums ``z_I - y_I^2 / |I|`` over *all* segments of the
  flattened result, counting never-covered gaps as zero-valued pieces
  (``cost = z_I``), which is what makes costs comparable across ``J``;
* painting ``J`` truncates at most two existing pieces; their remainders
  are re-added with *re-estimated* weights (Algorithm 1's ``I_L, I_R``
  recomputation), so every visible piece always carries the weight
  estimate of its visible extent.  The engine therefore keeps the state
  eagerly flattened and reports the paper's priority log alongside.

Scoring decomposes (README.md, "Incremental scoring"): a candidate's
score is ``total + rel_J`` with

``rel_J = self_J - removed_J + left_J + right_J``

where ``self_J = z_J - y_J^2/|J|`` never changes across rounds (hoisted
into :class:`CompiledGreedySketches` at compile time, median included),
``removed_J`` is the summed cost of the segments the candidate covers,
and ``left_J``/``right_J`` are the truncated-remainder costs.  Because a
round repaints at most one interval and truncates at most two
neighbours, ``rel_J`` can only change for candidates whose span
intersects the segments changed by the last commit; everything else
shifts by the same global ``total`` delta, which preserves the argmin
order.  The fast path, ``engine="lockstep"`` (the default,
:mod:`repro.core.lockstep`), therefore rescores only the dirty region
each round and keeps candidate minima in a lazily-repaired block-argmin
structure.  Every median of ``r`` goes through :func:`_median_of_planes`,
a min/max network bit-equal to ``np.median``.  ``engine="full"``
(:class:`_GreedyEngine` on its own) rescores every candidate every round
through the same scoring and commit code, which is what makes the two
engines byte-identical (the equivalence the test suite asserts).

The module is split into three layers so samples can be reused across
calls (see :class:`repro.api.HistogramSession`):

* :func:`draw_greedy_samples` — the only part that touches the source;
* :func:`compile_greedy_sketches` — candidate grid + prefix compilation
  (one vectorised pass over all ``r`` collision sets) plus the
  round-invariant per-candidate self-costs;
* :func:`learn_from_samples` — the pure algorithm over those inputs.

Drawing then learning from the samples is the reference composition; a
fresh session's first ``learn`` is seed-for-seed identical to it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from repro.core.candidates import (
    CandidateSet,
    all_interval_candidates,
    sample_endpoint_candidates,
)
from repro.core.params import GreedyParams, is_integer
from repro.core.results import GreedyRound, LearnResult
from repro.errors import InvalidParameterError
from repro.histograms.intervals import Interval
from repro.histograms.priority import PriorityHistogram
from repro.histograms.tiling import TilingHistogram
from repro.utils.prefix import pairs_count
from repro.utils.rng import as_rng

_METHODS = ("fast", "exhaustive")
_ENGINES = ("full", "lockstep")
_SCORE_CHUNK = 200_000
_GATHER_CHUNK = 1_000_000
_ARGMIN_BLOCK = 2_048


def _score_gather(
    self_costs: np.ndarray,
    removed: np.ndarray,
    seg_a: np.ndarray,
    seg_b: np.ndarray,
    left_at: np.ndarray,
    right_at: np.ndarray,
) -> np.ndarray:
    """``rel = self - removed[a, b] + left + right`` over gathered operands.

    The one arithmetic spelling of the score decomposition, shared by
    both engines (and the lockstep rescore workers): the float op
    order here is part of the byte-identity contract, so nobody spells
    it twice.  ``removed`` is this round's :func:`_removed_table`;
    ``seg_a`` / ``seg_b`` are the candidates' first and last covered
    segments, read through one flat ``take``.
    """
    rel = self_costs - removed.ravel().take(seg_a * removed.shape[0] + seg_b)
    rel = rel + left_at
    rel = rel + right_at
    return rel


def _removed_table(seg_costs: np.ndarray) -> np.ndarray:
    """``removed[a, b]``: the summed cost of segments ``a..b``.

    Each row accumulates fresh from its own diagonal (never as a
    difference of running prefixes), so the value for an untouched
    segment range is bitwise round-stable.  One ``cumsum`` over the
    upper-triangular broadcast spells that for every row at once: the
    zeros left of the diagonal add exactly nothing, because a segment
    cost is never ``-0.0`` (it is a median of non-negative differences,
    minus a square, and ``x - x`` is ``+0.0``).  Entries below the
    diagonal are ``0.0``.
    """
    count = seg_costs.size
    return np.cumsum(np.triu(np.broadcast_to(seg_costs, (count, count))), axis=1)


def _repair_blocks(
    rel_blocks: np.ndarray, block_min: np.ndarray, indices: np.ndarray
) -> None:
    """Recompute block minima over the block range ``indices`` spans.

    ``indices`` ascends (``np.nonzero`` order), so the contiguous range
    ``[first, last]`` of argmin blocks it spans contains every block it
    touched; recomputing an untouched block in between yields the value
    already stored.  One slice ``min(axis=1)`` over the padded reshaped
    view — no fancy gather, no Python loop over blocks.
    """
    first = int(indices[0]) // _ARGMIN_BLOCK
    last = int(indices[-1]) // _ARGMIN_BLOCK
    block_min[first : last + 1] = rel_blocks[first : last + 1].min(axis=1)


@lru_cache(maxsize=None)
def _median_network(r: int) -> tuple[tuple[int, bool, bool], ...]:
    """The live compare-exchanges of ``r`` odd-even transposition passes.

    Each is ``(i, want_low, want_high)`` on planes ``i`` and ``i + 1``.
    Walking the passes backwards from the middle plane(s) drops every
    compare-exchange whose outputs nothing later reads, and keeps only
    the min or max output when just one is read: about 73% of the
    network's min/max calls remain for any ``r`` from 5 to 45.
    """
    mid = r // 2
    needed = {mid} if r % 2 else {mid - 1, mid}
    live = []
    for step in reversed(range(r)):
        for i in range(step % 2, r - 1, 2):
            want_low, want_high = i in needed, i + 1 in needed
            if want_low or want_high:
                live.append((i, want_low, want_high))
                needed.update((i, i + 1))
    return tuple(reversed(live))


def _median_of_planes(planes: np.ndarray) -> np.ndarray:
    """Median across the ``r`` planes of an ``(r, C)`` array, in place.

    An odd-even transposition network: ``r`` passes of elementwise
    ``np.minimum`` / ``np.maximum`` compare-exchanges between adjacent
    planes sort every column, then the middle plane is the median — for
    even ``r`` the two middle planes averaged as ``(a + b) / 2.0``,
    which is how ``np.median`` spells it.  Only the compare-exchanges
    that reach the middle run (:func:`_median_network`).  Bit-equal to
    ``np.median(planes.T, axis=1)``; min/max propagate NaN, so a column
    holding one comes out NaN as ``np.median``'s does.

    The network costs ``O(r^2)`` compare-exchanges per column where
    ``np.median``'s partition costs ``O(r)``, but each is one vectorised
    call instead of a per-row selection.  Over C=45k random columns on a
    2-core Xeon VM (numpy 2.4) it is about 12x faster than ``np.median``
    at r=5, 3.5x at r=17, 2.2x at r=25, 1.9x at r=31 and 1.1x at r=45.
    ``GreedyParams.from_paper``'s ``r`` (odd, ``>= ln(6 n^2)``) is 17 at
    n=1024, 25 at n=65536 and 31 at n=10^6; it reaches 45 only near
    n=10^9, where the ``O(n r)`` tester stacks no longer fit in memory.
    ``planes`` is overwritten.
    """
    r, width = planes.shape
    rows = list(planes)
    spare = np.empty(width, dtype=planes.dtype)
    for i, want_low, want_high in _median_network(r):
        low, high = rows[i], rows[i + 1]
        if want_low:
            np.minimum(low, high, out=spare)
        if want_high:
            np.maximum(low, high, out=high)
        if want_low:
            rows[i], spare = spare, low
    mid = r // 2
    if r % 2:
        return rows[mid]
    return (rows[mid - 1] + rows[mid]) / 2.0


def _piece_costs(
    grid: np.ndarray,
    weight_prefix: np.ndarray,
    weight_total: float,
    pair_prefix_planes: np.ndarray,
    pairs_per_set: float,
    lo: np.ndarray,
    hi: np.ndarray,
    assigned: np.ndarray | bool,
) -> np.ndarray:
    """``z_I - y_I^2 / |I|`` for assigned pieces, ``z_I`` for gaps.

    The one scoring expression shared by the compile-time self-cost pass,
    the per-round remainder scoring, and the cached segment costs.  A
    single code path is what makes a cached score bit-identical to a
    fresh rescore — the invariant the lockstep engine relies on.
    ``pair_prefix_planes`` is the ``(r, G)`` transpose of
    :attr:`CompiledGreedySketches.pair_prefix_cols`, so each set's
    gather is one contiguous plane for :func:`_median_of_planes`.
    """
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    lengths = (grid[hi] - grid[lo]).astype(np.float64)
    per_set = np.empty((pair_prefix_planes.shape[0],) + lo.shape)
    for plane, row in zip(pair_prefix_planes, per_set):
        np.subtract(plane.take(hi), plane.take(lo), out=row)
    per_set /= pairs_per_set
    z = _median_of_planes(per_set)
    y = (weight_prefix[hi] - weight_prefix[lo]) / weight_total
    fitted = z - y * y / np.maximum(lengths, 1.0)
    return np.where(np.asarray(assigned), fitted, z)


def _candidate_self_costs(
    candidates: CandidateSet,
    weight_prefix: np.ndarray,
    weight_total: float,
    pair_prefix_cols: np.ndarray,
    pairs_per_set: float,
    chunk_size: int = _SCORE_CHUNK,
) -> np.ndarray:
    """Round-invariant ``z_J - y_J^2/|J|`` for every candidate (chunked)."""
    planes = np.ascontiguousarray(pair_prefix_cols.T, dtype=np.float64)
    out = np.empty(candidates.size, dtype=np.float64)
    for start in range(0, candidates.size, chunk_size):
        sl = slice(start, min(start + chunk_size, candidates.size))
        out[sl] = _piece_costs(
            candidates.grid,
            weight_prefix,
            weight_total,
            planes,
            pairs_per_set,
            candidates.lo[sl],
            candidates.hi[sl],
            True,
        )
    return out


@dataclass(frozen=True)
class RoundReport:
    """What one committed greedy round did, trace-ready.

    ``neighbours`` holds the re-added truncated remainders of *assigned*
    pieces (Algorithm 1's ``I_L, I_R``) with their re-estimated values,
    in left-to-right order — exactly the pieces the priority log gains
    this round besides ``chosen`` itself.
    """

    candidate_index: int
    cost: float
    weight_estimate: float
    chosen: Interval
    value: float
    neighbours: list[tuple[Interval, float]]
    rescored: int


class _GreedyEngine:
    """Vectorised greedy rounds: the ``engine="full"`` reference.

    State per candidate: ``rel_J`` (score minus the shared ``total``
    term), valid as of the last round that touched it.  State per
    segment: grid-index endpoints, assignedness, and the cached piece
    cost.  :meth:`run_round` rescans every candidate every round; the
    lockstep driver (:mod:`repro.core.lockstep`) steps the same engine
    through :meth:`round_tables`, :meth:`score` and :meth:`commit_best`,
    rescoring only the dirty span each commit records.
    """

    def __init__(
        self,
        candidates: CandidateSet,
        weight_prefix: np.ndarray,
        weight_total: int,
        pair_prefix_cols: np.ndarray,
        pairs_per_set: float,
        self_costs: np.ndarray,
        rel_buffer: np.ndarray | None = None,
        block_min_buffer: np.ndarray | None = None,
    ) -> None:
        self._cands = candidates
        self._grid = candidates.grid
        self._wprefix = np.asarray(weight_prefix).astype(np.float64)
        self._wtotal = float(weight_total)
        self._pp_planes = np.ascontiguousarray(pair_prefix_cols.T, dtype=np.float64)
        self._pairs_per_set = float(pairs_per_set)
        self._self_cost = np.asarray(self_costs, dtype=np.float64)

        last = self._grid.size - 1
        self._seg_lo: list[int] = [0]
        self._seg_hi: list[int] = [last]
        self._seg_assigned: list[bool] = [False]
        self._seg_cost: list[float] = [
            float(self._piece_cost(np.asarray([0]), np.asarray([last]), False)[0])
        ]
        # Everything is dirty before the first round.
        self._dirty_lo = 0
        self._dirty_hi = last

        # ``rel`` lives padded to a whole number of argmin blocks (the
        # pad stays +inf forever) so block repair is one reshaped
        # ``min(axis=1)`` instead of a Python loop per touched block.
        # Callers may inject the buffers — the lockstep engine carves
        # per-run views out of flat (shared-memory) slabs here.
        self._block = _ARGMIN_BLOCK
        num_blocks = max(1, -(-candidates.size // self._block))
        padded = num_blocks * self._block
        if rel_buffer is None:
            rel_buffer = np.empty(padded, dtype=np.float64)
        if block_min_buffer is None:
            block_min_buffer = np.empty(num_blocks, dtype=np.float64)
        rel_buffer[:] = np.inf
        block_min_buffer[:] = np.inf
        self._rel_padded = rel_buffer
        self._rel = rel_buffer[: candidates.size]
        self._rel_blocks = rel_buffer.reshape(num_blocks, self._block)
        self._block_min = block_min_buffer

    # -------------------------------------------------------------- #
    # estimate queries (grid-index space, vectorised)
    # -------------------------------------------------------------- #

    def _y(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Weight estimates ``y`` over ``[grid[lo], grid[hi])``."""
        return (self._wprefix[hi] - self._wprefix[lo]) / self._wtotal

    def _piece_cost(
        self, lo: np.ndarray, hi: np.ndarray, assigned: np.ndarray | bool
    ) -> np.ndarray:
        """``z_I - y_I^2 / |I|`` for assigned pieces, ``z_I`` for gaps."""
        return _piece_costs(
            self._grid,
            self._wprefix,
            self._wtotal,
            self._pp_planes,
            self._pairs_per_set,
            lo,
            hi,
            assigned,
        )

    # -------------------------------------------------------------- #
    # one greedy round
    # -------------------------------------------------------------- #

    def run_round(self) -> RoundReport:
        """Rescore every candidate, commit the argmin, report the diff.

        Every segment-dependent score term factors through a single
        candidate endpoint: the containing segment ``ia`` and the left
        remainder depend only on ``cand_lo``, ``ib`` and the right
        remainder only on ``cand_hi``, and the removed-cost term on the
        ``(ia, ib)`` pair.  So each round tabulates those once per *grid
        point* — one median-of-``r`` per grid point — and scoring a
        candidate is pure gathers, with no per-candidate median at all.
        """
        size = self._grid.size
        left_term = np.empty(size, dtype=np.float64)
        right_term = np.empty(size, dtype=np.float64)
        ia, ib, removed = self.round_tables(0, size - 1, left_term, right_term)
        everything = np.arange(self._cands.size)
        self.score(everything, ia, ib, removed, left_term, right_term)
        return self.commit_best(int(everything.size))

    def commit_best(self, rescored: int, best: int | None = None) -> RoundReport:
        """Commit the current argmin and report the round's diff.

        Split from :meth:`run_round` so the lockstep driver — which owns
        the rescore phase (cached terms, optional executor fan) — shares
        the exact commit arithmetic and trace packaging with the full
        reference.
        """
        if best is None:
            best = self._argmin()
        # ``total`` is shared by every candidate this round; summed fresh
        # from the cached per-segment costs so both engines agree.
        total = float(np.sum(np.asarray(self._seg_cost, dtype=np.float64)))
        cost = float(total + self._rel[best])
        lo = int(self._cands.lo[best])
        hi = int(self._cands.hi[best])
        chosen = Interval(int(self._grid[lo]), int(self._grid[hi]))
        chosen_y = float(self._y(np.asarray([lo]), np.asarray([hi]))[0])
        neighbours = self._apply(best)
        return RoundReport(
            candidate_index=best,
            cost=cost,
            weight_estimate=chosen_y,
            chosen=chosen,
            value=chosen_y / chosen.length,
            neighbours=neighbours,
            rescored=rescored,
        )

    def round_tables(
        self,
        span_lo: int,
        span_hi: int,
        left_term: np.ndarray,
        right_term: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This round's per-grid-point segment tables.

        Returns ``(ia, ib, removed)``: the segment containing each grid
        point, the one containing the point just before it, and the
        :func:`_removed_table`.  The segments tile the grid, so ``ia``
        is one ``np.repeat`` of the segment indices over their widths
        (the last grid point belongs to the last segment) and ``ib`` is
        ``ia`` shifted by one point (``-1`` before the first) — the same
        integers as ``searchsorted`` of each grid value (minus one) into
        the segment starts.  Refreshes the left/right remainder terms in
        place over grid points ``span_lo..span_hi`` — the full grid for
        the full reference, only the dirty span for the lockstep
        engine's cached terms.
        """
        seg_lo = np.asarray(self._seg_lo, dtype=np.int64)
        seg_hi = np.asarray(self._seg_hi, dtype=np.int64)
        seg_assigned = np.asarray(self._seg_assigned, dtype=bool)
        removed = _removed_table(np.asarray(self._seg_cost, dtype=np.float64))
        count = seg_lo.size
        ia = np.append(np.repeat(np.arange(count), seg_hi - seg_lo), count - 1)
        ib = np.concatenate(([-1], ia[:-1]))
        span = slice(span_lo, span_hi + 1)
        points = np.arange(span_lo, span_hi + 1, dtype=np.int64)
        a = ia[span]
        b = ib[span]
        # Left remainders [segment start, p) for candidates starting at
        # p and right remainders [p, segment stop) for candidates ending
        # at p, scored in one call.
        lcost, rcost = np.split(
            self._piece_cost(
                np.concatenate([seg_lo[a], points]),
                np.concatenate([points, seg_hi[b]]),
                np.concatenate([seg_assigned[a], seg_assigned[b]]),
            ),
            2,
        )
        left_term[span] = np.where(seg_lo[a] < points, lcost, 0.0)
        right_term[span] = np.where(seg_hi[b] > points, rcost, 0.0)
        return ia, ib, removed

    def score(
        self,
        indices: np.ndarray,
        ia: np.ndarray,
        ib: np.ndarray,
        removed: np.ndarray,
        left_term: np.ndarray,
        right_term: np.ndarray,
    ) -> None:
        """Rescore ``indices`` (ascending) from the round tables."""
        for start in range(0, indices.size, _GATHER_CHUNK):
            part = indices[start : start + _GATHER_CHUNK]
            cand_lo = self._cands.lo[part]
            cand_hi = self._cands.hi[part]
            self._rel[part] = _score_gather(
                self._self_cost[part],
                removed,
                ia[cand_lo],
                ib[cand_hi],
                left_term[cand_lo],
                right_term[cand_hi],
            )
        _repair_blocks(self._rel_blocks, self._block_min, indices)

    def _argmin(self) -> int:
        """Global first-minimum via the block minima (ties break low)."""
        block = int(np.argmin(self._block_min))
        begin = block * self._block
        within = self._rel[begin : begin + self._block]
        return begin + int(np.argmin(within))

    def _apply(self, candidate_index: int) -> list[tuple[Interval, float]]:
        """Commit a candidate: truncate neighbours, insert the new piece.

        Returns the re-added *assigned* remainders (left-to-right) with
        their re-estimated values, and records the dirty grid-index span
        — the full original extent of every segment this commit touched —
        for the next round's rescoring.
        """
        lo = int(self._cands.lo[candidate_index])
        hi = int(self._cands.hi[candidate_index])
        # Affected segments: seg_hi > lo and seg_lo < hi (both sorted).
        first = bisect_right(self._seg_hi, lo)
        last = bisect_left(self._seg_lo, hi) - 1
        dirty_lo = self._seg_lo[first]
        dirty_hi = self._seg_hi[last]

        pieces: list[tuple[int, int, bool]] = []
        left: tuple[int, int, bool] | None = None
        right: tuple[int, int, bool] | None = None
        if dirty_lo < lo:
            left = (dirty_lo, lo, self._seg_assigned[first])
            pieces.append(left)
        pieces.append((lo, hi, True))
        if dirty_hi > hi:
            right = (hi, dirty_hi, self._seg_assigned[last])
            pieces.append(right)

        costs = self._piece_cost(
            np.asarray([p[0] for p in pieces]),
            np.asarray([p[1] for p in pieces]),
            np.asarray([p[2] for p in pieces]),
        )
        self._seg_lo[first : last + 1] = [p[0] for p in pieces]
        self._seg_hi[first : last + 1] = [p[1] for p in pieces]
        self._seg_assigned[first : last + 1] = [p[2] for p in pieces]
        self._seg_cost[first : last + 1] = [float(c) for c in costs]
        self._dirty_lo = dirty_lo
        self._dirty_hi = dirty_hi

        neighbours: list[tuple[Interval, float]] = []
        for remainder in (left, right):
            if remainder is None or not remainder[2]:
                continue
            interval = Interval(
                int(self._grid[remainder[0]]), int(self._grid[remainder[1]])
            )
            y = float(
                self._y(np.asarray([remainder[0]]), np.asarray([remainder[1]]))[0]
            )
            neighbours.append((interval, y / interval.length))
        return neighbours

    # -------------------------------------------------------------- #
    # output
    # -------------------------------------------------------------- #

    def segments(self) -> list[tuple[Interval, bool]]:
        """Current flattened segments as ``(interval, assigned)`` pairs."""
        return [
            (Interval(int(self._grid[lo]), int(self._grid[hi])), assigned)
            for lo, hi, assigned in zip(
                self._seg_lo, self._seg_hi, self._seg_assigned
            )
        ]

    def to_tiling(self, n: int, fill_gaps: bool = False) -> TilingHistogram:
        """The flattened state as a tiling histogram.

        Assigned pieces get value ``y_I / |I|``.  Gaps get 0 (the paper's
        priority-histogram semantics) unless ``fill_gaps``, in which case
        they too get their weight estimate — an application-oriented
        extension that never hurts the squared error and markedly helps
        range queries over low-density regions (README.md, "Design
        notes").
        """
        boundaries = [0]
        values = []
        for lo, hi, assigned in zip(self._seg_lo, self._seg_hi, self._seg_assigned):
            start, stop = int(self._grid[lo]), int(self._grid[hi])
            boundaries.append(stop)
            if assigned or fill_gaps:
                y = float(self._y(np.asarray([lo]), np.asarray([hi]))[0])
                values.append(y / (stop - start))
            else:
                values.append(0.0)
        return TilingHistogram(n, boundaries, values)


def _build_priority_log(
    n: int, engine_trace: list[tuple[Interval, float, list[tuple[Interval, float]]]]
) -> PriorityHistogram:
    """Reconstruct the paper's priority histogram from the round trace."""
    log = PriorityHistogram(n)
    for chosen, value, neighbours in engine_trace:
        pieces = [(chosen, value)]
        pieces.extend(neighbours)
        log.add_many(pieces)
    return log


@dataclass(frozen=True)
class GreedySamples:
    """The raw samples Algorithm 1 draws, decoupled from the source.

    Attributes
    ----------
    weight_samples:
        The single weight-estimation sample ``S`` (``y_I`` estimates).
    collision_sets:
        The ``r`` independent collision sample sets ``S^1, ..., S^r``
        (``z_I`` estimates).
    """

    weight_samples: np.ndarray
    collision_sets: tuple[np.ndarray, ...]

    def matches(self, params: GreedyParams) -> bool:
        """Whether the array shapes agree with ``params``' sizes."""
        return (
            self.weight_samples.shape[0] == params.weight_sample_size
            and len(self.collision_sets) == params.collision_sets
            and all(
                s.shape[0] == params.collision_set_size for s in self.collision_sets
            )
        )


@dataclass(frozen=True)
class CompiledGreedySketches:
    """Candidate grid plus compiled prefix sketches (the learner's input).

    Produced by :func:`compile_greedy_sketches`; building it is the
    expensive per-draw work (sorting, uniquing, prefix compilation, and
    the median-of-``r`` self-cost pass) that
    :class:`repro.api.HistogramSession` caches across calls.

    Attributes
    ----------
    candidates / weight_set / weight_prefix:
        The candidate grid and the weight sample compiled onto it.
    pair_prefix_cols:
        The ``r`` collision sets' pair-count prefixes in a C-contiguous
        ``(G, r)`` float64 layout (the persisted form).  The scoring
        kernels gather from its ``(r, G)`` transpose instead — one
        contiguous plane per set for the median network — which each
        engine and each self-cost pass makes once.
    self_costs:
        Per-candidate ``z_J - y_J^2/|J|`` — including the median across
        the ``r`` sets — which never changes across greedy rounds.
    pairs_per_set:
        ``C(m, 2)``, the collision-count normaliser.
    """

    candidates: CandidateSet
    weight_set: "SampleSet"
    weight_prefix: np.ndarray
    pair_prefix_cols: np.ndarray
    self_costs: np.ndarray
    pairs_per_set: float


def draw_greedy_samples(
    source: object,
    params: GreedyParams,
    rng: int | None | np.random.Generator = None,
) -> GreedySamples:
    """Draw Algorithm 1's samples from ``source`` (the only sampling step).

    Draw order is part of the public contract: one weight sample of
    ``params.weight_sample_size``, then ``params.collision_sets`` sets of
    ``params.collision_set_size``, all from the same generator — so any
    caller that reproduces this order (a fresh
    :class:`repro.api.HistogramSession` does) draws the same samples.
    """
    generator = as_rng(rng)
    weight_samples = np.asarray(source.sample(params.weight_sample_size, generator))
    collision_sets = tuple(
        np.asarray(source.sample(params.collision_set_size, generator))
        for _ in range(params.collision_sets)
    )
    return GreedySamples(weight_samples, collision_sets)


def _check_max_candidates(max_candidates: object) -> None:
    if max_candidates is not None and not (
        is_integer(max_candidates) and max_candidates >= 1
    ):
        raise InvalidParameterError(
            f"max_candidates must be an integer >= 1 or None, got {max_candidates!r}"
        )


def check_learn_options(method: str, engine: str, max_candidates: "int | None") -> None:
    """Reject an unknown method or engine, or a bad candidate cap.

    Sessions and fleets call this before any pool grows, so a refused
    learn draws nothing.
    """
    if method not in _METHODS:
        raise InvalidParameterError(f"method must be one of {_METHODS}, got {method!r}")
    if engine not in _ENGINES:
        raise InvalidParameterError(f"engine must be one of {_ENGINES}, got {engine!r}")
    _check_max_candidates(max_candidates)


def compile_greedy_sketches(
    samples: GreedySamples,
    n: int,
    *,
    method: str = "fast",
    max_candidates: int | None = None,
    rng: int | None | np.random.Generator = None,
    prefixes: str = "sorted",
    executor: "object | None" = None,
) -> CompiledGreedySketches:
    """Build the candidate set and compile every sketch onto its grid.

    Pure in the samples (``rng`` is consumed only when ``max_candidates``
    forces a subsample).  The result depends on the sample *contents*,
    so it is reusable by any number of ``(k, epsilon)`` learn calls over
    the same draw.

    All ``r`` collision sets are compiled in one vectorised sort/unique
    pass (:func:`repro.samples.collision.batched_pair_prefixes`), and the
    per-candidate self-costs — the median-of-``r`` part of every score —
    are hoisted here because they are invariant across greedy rounds.

    ``prefixes`` selects the prefix builder: ``"sorted"`` (the batched
    one-sort pass above) or ``"dense"`` — counting-based full-grid
    prefixes (:func:`repro.samples.collision.dense_interval_prefixes`)
    gathered at the candidate grid, plus a counting sort of the weight
    sample.  All arithmetic is exact integer math either way, so the two
    builders produce bit-identical compiled sketches; ``"dense"`` is the
    fleet compiler's choice when the domain is within a constant of the
    sample sizes.

    ``executor`` (a :class:`repro.api.ParallelExecutor`) switches the
    prefix build to the shard-mergeable path
    (:func:`repro.samples.sharded.sharded_interval_prefixes`): every
    collision set splits into the executor's shards, per-shard summaries
    compile independently — across the pool when the executor is
    parallel — and only the ``(G, r)`` gather slab is materialised
    whole.  Bit-identical to both monolithic builders for any
    ``(shards, workers)``, so callers mix freely.
    """
    if method not in _METHODS:
        raise InvalidParameterError(f"method must be one of {_METHODS}, got {method!r}")
    if prefixes not in ("sorted", "dense"):
        raise InvalidParameterError(
            f"prefixes must be 'sorted' or 'dense', got {prefixes!r}"
        )
    _check_max_candidates(max_candidates)
    started = perf_counter()
    if method == "fast":
        # The lazy capped build never materialises the uncapped pair
        # arrays, yet consumes ``rng`` and picks candidates exactly like
        # building everything then subsampling (see ``_triu_pairs``).
        candidates = sample_endpoint_candidates(
            samples.weight_samples, n, max_candidates=max_candidates, rng=rng
        )
    else:
        candidates = all_interval_candidates(n)
        if max_candidates is not None:
            candidates = candidates.subsample(max_candidates, as_rng(rng))

    from repro.samples.collision import batched_pair_prefixes, dense_interval_prefixes
    from repro.samples.sample_set import SampleSet

    if executor is not None:
        from repro.samples.sharded import ShardedSketch, sharded_interval_prefixes

        num_shards = executor.plan.num_shards
        sharded_weight = ShardedSketch.from_array(
            np.asarray(samples.weight_samples, dtype=np.int64), n, num_shards
        )
        weight_set = SampleSet.from_sorted(sharded_weight.merge(), n)
        pair_rows = sharded_interval_prefixes(
            samples.collision_sets,
            n,
            candidates.grid,
            num_shards=num_shards,
            mapper=executor.map,
            dense=(prefixes == "dense") or None,
            counts=False,
        )[1]
        pair_prefix_cols = np.ascontiguousarray(pair_rows.T, dtype=np.float64)
    elif prefixes == "dense":
        weight_values = np.asarray(samples.weight_samples, dtype=np.int64)
        if weight_values.size and (
            weight_values.min() < 0 or weight_values.max() >= n
        ):
            raise InvalidParameterError("samples contain values outside [0, n)")
        weight_counts = np.bincount(weight_values, minlength=n)
        weight_set = SampleSet.from_sorted(
            np.repeat(np.arange(n, dtype=np.int64), weight_counts), n
        )
        pair_rows = dense_interval_prefixes(samples.collision_sets, n)[1]
        pair_prefix_cols = np.ascontiguousarray(
            pair_rows[:, candidates.grid].T, dtype=np.float64
        )
    else:
        weight_set = SampleSet(samples.weight_samples, n)
        pair_prefix_cols = np.ascontiguousarray(
            batched_pair_prefixes(samples.collision_sets, n, candidates.grid).T,
            dtype=np.float64,
        )
    weight_prefix = weight_set.count_prefix_on_grid(candidates.grid)
    set_size = samples.collision_sets[0].shape[0] if samples.collision_sets else 0
    pairs_per_set = float(pairs_count(set_size))
    self_costs = _candidate_self_costs(
        candidates,
        weight_prefix.astype(np.float64),
        float(weight_set.size),
        pair_prefix_cols,
        pairs_per_set,
    )
    if executor is not None and hasattr(executor, "record_timing"):
        executor.record_timing("compile", perf_counter() - started)
    return CompiledGreedySketches(
        candidates,
        weight_set,
        weight_prefix,
        pair_prefix_cols,
        self_costs,
        pairs_per_set,
    )


def _package_result(
    engine_obj: _GreedyEngine,
    reports: list[RoundReport],
    n: int,
    params: GreedyParams,
    method: str,
) -> LearnResult:
    """Package a finished engine + its round reports as a LearnResult.

    Shared by every engine route (serial and lockstep) so trace and
    accounting packaging is spelled once.
    """
    size = engine_obj._cands.size
    trace: list[tuple[Interval, float, list[tuple[Interval, float]]]] = []
    rounds: list[GreedyRound] = []
    for round_index, report in enumerate(reports):
        trace.append((report.chosen, report.value, report.neighbours))
        rounds.append(
            GreedyRound(
                round_index=round_index,
                chosen=report.chosen,
                weight_estimate=report.weight_estimate,
                estimated_cost=report.cost,
                candidates_evaluated=size,
            )
        )
    return LearnResult(
        histogram=engine_obj.to_tiling(n),
        priority_histogram=_build_priority_log(n, trace),
        params=params,
        rounds=rounds,
        method=method,
        num_candidates=size,
        samples_used=params.total_samples,
        filled_histogram=engine_obj.to_tiling(n, fill_gaps=True),
    )


def learn_from_samples(
    samples: GreedySamples,
    n: int,
    k: int,
    epsilon: float,
    *,
    params: GreedyParams,
    method: str = "fast",
    engine: str = "lockstep",
    max_candidates: int | None = None,
    rng: int | None | np.random.Generator = None,
    compiled: CompiledGreedySketches | None = None,
    executor: "object | None" = None,
) -> LearnResult:
    """Run the greedy rounds on already-drawn samples (no source access).

    This is the pure algorithmic half of Algorithm 1: given ``samples``
    whose sizes match ``params`` (from :func:`draw_greedy_samples`) it
    deterministically produces a :class:`LearnResult`.  Pass
    ``compiled`` (from :func:`compile_greedy_sketches` over the same
    samples) to skip the grid/prefix compilation.

    ``engine`` selects ``"lockstep"`` (the default: dirty-span
    rescoring over cached per-grid-point score terms, the engine
    :class:`repro.api.HistogramFleet` batches across members — see
    :mod:`repro.core.lockstep`) or ``"full"`` (rescore every candidate
    every round — the reference the equivalence tests compare against);
    the two are byte-identical by construction.

    ``executor`` (a :class:`repro.api.ParallelExecutor`) is forwarded to
    the compile step and, on the lockstep route, to the rescore fan —
    results never depend on it.
    """
    check_learn_options(method, engine, max_candidates)
    if not samples.matches(params):
        raise InvalidParameterError(
            "sample array sizes do not match params "
            f"(weight {samples.weight_samples.shape[0]} vs "
            f"{params.weight_sample_size}, "
            f"{len(samples.collision_sets)} collision sets vs "
            f"{params.collision_sets})"
        )
    if compiled is None:
        compiled = compile_greedy_sketches(
            samples,
            n,
            method=method,
            max_candidates=max_candidates,
            rng=rng,
            executor=executor,
        )
    if engine == "lockstep":
        from repro.core.lockstep import LockstepRun, lockstep_learn

        run = LockstepRun(compiled=compiled, params=params, method=method, n=n)
        return lockstep_learn([run], executor=executor)[0]
    engine_obj = _GreedyEngine(
        compiled.candidates,
        compiled.weight_prefix,
        compiled.weight_set.size,
        compiled.pair_prefix_cols,
        compiled.pairs_per_set,
        compiled.self_costs,
    )
    reports = [engine_obj.run_round() for _ in range(params.rounds)]
    return _package_result(engine_obj, reports, n, params, method)
