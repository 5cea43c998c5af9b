"""Lockstep greedy rounds (``engine="lockstep"``): the learner's fast path.

The full reference (:class:`~repro.core.greedy._GreedyEngine`) rescores
every candidate and tabulates the left/right remainder terms over the
*whole* grid every round — a median-of-``r`` pass over all ``G`` grid
points.  But a commit only changes segments inside the dirty span, and
a candidate's score can only move if its span intersects that span;
both remainder terms at a grid point depend only on the *content* of
its containing segment (never on segment indices), so almost all of
that work recomputes values that cannot have moved.

The lockstep engine exploits exactly that:

* only candidates intersecting the last commit's dirty span are
  rescored (README.md, "Incremental scoring");
* the per-grid-point ``left_term`` / ``right_term`` arrays are cached
  across rounds and refreshed only over the dirty grid span — bitwise
  equal to a fresh tabulation because
  :func:`~repro.core.greedy._piece_costs` is deterministic and its
  median network is elementwise across columns;
* the containing-segment tables ``ia`` / ``ib`` *do* shift globally when
  the segment list grows, so each round rebuilds them whole — one
  ``np.repeat`` over the segment widths
  (:meth:`~repro.core.greedy._GreedyEngine.round_tables`) — and every
  dirty candidate gathers its entries from them;
* scoring stays the shared :func:`~repro.core.greedy._score_gather`
  spelling, and the commit is the engine's own
  :meth:`~repro.core.greedy._GreedyEngine.commit_best` — so every round
  is byte-identical to ``engine="full"`` by construction, which the
  conformance matrix pins.

:func:`lockstep_learn` drives any number of *runs* (a single session
learn, fleet members, ``learn_many`` points, coalesced serving batches)
through their rounds in lockstep: per round, one rescore pass over all
active runs, then one argmin pass, then one commit pass; runs whose
round budget is exhausted drop out of the active mask.  Per-run score
state — the padded ``rel`` vector and its block minima — is carved out
of flat stacked buffers mirroring ``FleetTesterSketches``' stacked-slab
layout.

When the driving :class:`~repro.api.ParallelExecutor` opts in
(``learn_fan_min_candidates``), those buffers live in shared-memory
scratch slabs and the per-round rescore of large runs fans over the
pool in block-aligned chunks (:func:`_lockstep_rescore_chunk`), riding
the executor's self-healing ladder: chunk tasks are pure idempotent
slab writes, so respawned, degraded, or inline attempts are
byte-identical — including the fan being unavailable entirely (slab
allocation failure, serial executor), which falls back to the same
arithmetic run in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.greedy import (
    _ARGMIN_BLOCK,
    _GreedyEngine,
    _package_result,
    _repair_blocks,
    _score_gather,
    CompiledGreedySketches,
)
from repro.core.params import GreedyParams
from repro.core.results import LearnResult


@dataclass(frozen=True)
class LockstepRun:
    """One learn to drive through the lockstep rounds.

    ``compiled`` must come from :func:`~repro.core.greedy.compile_greedy_sketches`
    over the samples the learn is for; ``params.rounds`` is the run's
    round budget (runs with smaller budgets converge and drop out of
    the lockstep earlier).
    """

    compiled: CompiledGreedySketches
    params: GreedyParams
    method: str
    n: int


class _RunState:
    """One run's engine plus its cached-term lockstep state."""

    def __init__(self, index: int, run: LockstepRun) -> None:
        self.index = index
        self.run = run
        self.rounds = run.params.rounds
        cands = run.compiled.candidates
        self.size = cands.size
        self.grid_size = cands.grid.size
        self.num_blocks = max(1, -(-self.size // _ARGMIN_BLOCK))
        self.padded = self.num_blocks * _ARGMIN_BLOCK
        self.engine: _GreedyEngine | None = None
        self.left_term: np.ndarray | None = None
        self.right_term: np.ndarray | None = None
        self.fanned = False
        self.num_chunks = 0
        self.reports: list = []
        self.rescored = 0
        self.best: int | None = None
        # Per-round segment tables (rebuilt by prepare_round).
        self._ia: np.ndarray | None = None
        self._ib: np.ndarray | None = None
        self._removed: np.ndarray | None = None
        self._dirty_lo = 0
        self._dirty_hi = 0

    @property
    def active(self) -> bool:
        return len(self.reports) < self.rounds

    def build_engine(
        self, rel_buffer: np.ndarray, block_min_buffer: np.ndarray
    ) -> None:
        compiled = self.run.compiled
        self.engine = _GreedyEngine(
            compiled.candidates,
            compiled.weight_prefix,
            compiled.weight_set.size,
            compiled.pair_prefix_cols,
            compiled.pairs_per_set,
            compiled.self_costs,
            rel_buffer=rel_buffer,
            block_min_buffer=block_min_buffer,
        )

    def prepare_round(self) -> None:
        """Rebuild the round's segment tables; refresh cached terms.

        ``ia`` / ``ib`` and the removed table are rebuilt whole (they
        shift when the segment list grows; they cost ``O(G)`` and
        ``O(S^2)``), exactly as the full reference builds them.  The
        term refresh replays its tabulation restricted to the dirty
        grid points, which is bit-equal because the remainder terms of
        every other point depend only on their unchanged containing
        segments.
        """
        eng = self.engine
        self._dirty_lo, self._dirty_hi = eng._dirty_lo, eng._dirty_hi
        self._ia, self._ib, self._removed = eng.round_tables(
            self._dirty_lo, self._dirty_hi, self.left_term, self.right_term
        )

    def rescore_serial(self) -> None:
        """Score the dirty candidates in-process (table gathers)."""
        eng = self.engine
        dirty = eng._cands.intersecting(self._dirty_lo, self._dirty_hi)
        self.rescored = int(dirty.size)
        if dirty.size:
            eng.score(
                dirty,
                self._ia,
                self._ib,
                self._removed,
                self.left_term,
                self.right_term,
            )

    def fan_tasks(self, slabs: "_LockstepSlabs") -> list:
        """Block-aligned rescore chunk payloads for this round's fan."""
        offsets = slabs.offsets[self.index]
        workers = slabs.workers
        chunk_blocks = max(1, -(-self.num_blocks // workers))
        tasks = []
        for b0 in range(0, self.num_blocks, chunk_blocks):
            c0 = b0 * _ARGMIN_BLOCK
            c1 = min(self.size, (b0 + chunk_blocks) * _ARGMIN_BLOCK)
            tasks.append(
                (
                    slabs.handles,
                    offsets,
                    self.num_blocks,
                    (c0, c1),
                    (self._dirty_lo, self._dirty_hi),
                    (self._ia, self._ib, self._removed),
                )
            )
        self.num_chunks = len(tasks)
        return tasks


class _LockstepSlabs:
    """The stacked score-state buffers, shared-memory when fanning.

    One flat buffer per kind — ``rel`` (padded), block minima,
    candidate endpoints, self-costs, cached terms — with
    every run owning a contiguous region; ``offsets[i]`` is run ``i``'s
    ``(grid_off, cand_off, rel_off, bmin_off)``.  ``fan`` is true only
    when every buffer landed in an attachable slab on a live pool.
    """

    def __init__(self, states: list[_RunState], executor) -> None:
        self.workers = 1
        grid_total = sum(s.grid_size for s in states)
        cand_total = sum(s.size for s in states)
        rel_total = sum(s.padded for s in states)
        bmin_total = sum(s.num_blocks for s in states)
        shapes = {
            "lockstep-cands": ((2, cand_total), np.int64),
            "lockstep-self": ((cand_total,), np.float64),
            "lockstep-terms": ((2, grid_total), np.float64),
            "lockstep-rel": ((rel_total,), np.float64),
            "lockstep-blockmin": ((bmin_total,), np.float64),
        }
        threshold = (
            executor.learn_fan_min_candidates if executor is not None else None
        )
        want_fan = (
            threshold is not None
            and executor.parallel
            and any(s.size >= threshold for s in states)
        )
        arrays = {}
        handles = {}
        for key, (shape, dtype) in shapes.items():
            if want_fan:
                arrays[key], handles[key] = executor.scratch(key, shape, dtype)
            else:
                arrays[key], handles[key] = np.empty(shape, dtype=dtype), None
        self.fan = want_fan and all(h is not None for h in handles.values())
        if self.fan:
            self.workers = executor.workers
        self.handles = (
            handles["lockstep-cands"],
            handles["lockstep-self"],
            handles["lockstep-terms"],
            handles["lockstep-rel"],
            handles["lockstep-blockmin"],
        )
        self.offsets: list[tuple[int, int, int, int]] = []
        grid_off = cand_off = rel_off = bmin_off = 0
        for s in states:
            self.offsets.append((grid_off, cand_off, rel_off, bmin_off))
            compiled = s.run.compiled
            cands = compiled.candidates
            if self.fan:
                arrays["lockstep-cands"][0, cand_off : cand_off + s.size] = cands.lo
                arrays["lockstep-cands"][1, cand_off : cand_off + s.size] = cands.hi
                arrays["lockstep-self"][cand_off : cand_off + s.size] = (
                    compiled.self_costs
                )
            s.left_term = arrays["lockstep-terms"][
                0, grid_off : grid_off + s.grid_size
            ]
            s.right_term = arrays["lockstep-terms"][
                1, grid_off : grid_off + s.grid_size
            ]
            s.build_engine(
                arrays["lockstep-rel"][rel_off : rel_off + s.padded],
                arrays["lockstep-blockmin"][bmin_off : bmin_off + s.num_blocks],
            )
            s.fanned = self.fan and threshold is not None and s.size >= threshold
            grid_off += s.grid_size
            cand_off += s.size
            rel_off += s.padded
            bmin_off += s.num_blocks


def _lockstep_rescore_chunk(task: tuple) -> int:
    """Rescore one block-aligned candidate chunk straight into the slabs.

    A pure idempotent write: every input (endpoints, self-costs, this
    round's cached terms, segment tables) is fixed for the round, so
    re-running the task — after a worker kill, on a respawned pool, or
    inline in the parent once the executor degrades — produces the same
    bytes.  Returns the chunk's dirty-candidate count, which the parent
    sums into the round report.
    """
    (
        (cands_slab, self_slab, terms_slab, rel_slab, bmin_slab),
        (grid_off, cand_off, rel_off, bmin_off),
        num_blocks,
        (c0, c1),
        (dirty_lo, dirty_hi),
        (ia, ib, removed),
    ) = task
    cands = cands_slab.attach()
    lo = cands[0, cand_off + c0 : cand_off + c1]
    hi = cands[1, cand_off + c0 : cand_off + c1]
    local = np.nonzero((hi > dirty_lo) & (lo < dirty_hi))[0]
    if not local.size:
        return 0
    cand_lo = lo[local]
    cand_hi = hi[local]
    terms = terms_slab.attach()
    rel_flat = rel_slab.attach()
    rel_flat[rel_off + c0 + local] = _score_gather(
        self_slab.attach()[cand_off + c0 + local],
        removed,
        ia[cand_lo],
        ib[cand_hi],
        terms[0, grid_off + cand_lo],
        terms[1, grid_off + cand_hi],
    )
    padded = num_blocks * _ARGMIN_BLOCK
    _repair_blocks(
        rel_flat[rel_off : rel_off + padded].reshape(num_blocks, _ARGMIN_BLOCK),
        bmin_slab.attach()[bmin_off : bmin_off + num_blocks],
        c0 + local,
    )
    return int(local.size)


def lockstep_learn(
    runs: "list[LockstepRun]", *, executor=None
) -> list[LearnResult]:
    """Drive ``runs`` through their greedy rounds in lockstep.

    Per round: one rescore pass over every active run (fanned over
    ``executor``'s pool for runs at or above its
    ``learn_fan_min_candidates``, in-process otherwise), one argmin
    pass, one commit pass.  Runs drop out of the active mask as their
    round budgets converge.  Results are positionally byte-identical to
    ``engine="full"`` :func:`~repro.core.greedy.learn_from_samples` per
    run, for any executor shape — the fan is an evaluation strategy,
    never an answer change.

    Per-phase wall-clock is billed to ``executor.record_timing`` when
    the executor keeps timing buckets.
    """
    if not runs:
        return []
    states = [_RunState(i, run) for i, run in enumerate(runs)]
    slabs = _LockstepSlabs(states, executor)
    timings = {"rescore": 0.0, "argmin": 0.0, "commit": 0.0}
    while True:
        active = [s for s in states if s.active]
        if not active:
            break
        started = perf_counter()
        tasks: list = []
        fanned: list[_RunState] = []
        for state in active:
            state.prepare_round()
            if state.fanned:
                tasks.extend(state.fan_tasks(slabs))
                fanned.append(state)
            else:
                state.rescore_serial()
        if tasks:
            counts = executor.map(_lockstep_rescore_chunk, tasks)
            at = 0
            for state in fanned:
                state.rescored = int(sum(counts[at : at + state.num_chunks]))
                at += state.num_chunks
        timings["rescore"] += perf_counter() - started
        started = perf_counter()
        for state in active:
            state.best = state.engine._argmin()
        timings["argmin"] += perf_counter() - started
        started = perf_counter()
        for state in active:
            state.reports.append(
                state.engine.commit_best(state.rescored, state.best)
            )
        timings["commit"] += perf_counter() - started
    if executor is not None and hasattr(executor, "record_timing"):
        for phase, seconds in timings.items():
            executor.record_timing(phase, seconds)
    return [
        _package_result(s.engine, s.reports, s.run.n, s.run.params, s.run.method)
        for s in states
    ]
