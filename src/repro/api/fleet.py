"""`HistogramFleet`: batched learn/test over many distributions at once.

The session facade (:class:`~repro.api.HistogramSession`) amortises work
*within* one distribution; a serving deployment watches a fleet of
streams over one shared domain and asks the same questions of each.
Looping sessions answers that correctly but pays the per-member
compilation stack — per-set sketch builds, per-member prefix
compilation, and a Python-level binary search per probe — ``F`` times.
:class:`HistogramFleet` batches all three:

* **pooled draws** — every operation grows all members' sample pools in
  one planned pass (each member's draws stay in its own generator's
  session order, which is what keeps the fleet replayable);
* **stacked compilation** — per-member hit/pair prefix arrays are built
  sort-free (:func:`repro.samples.collision.dense_interval_prefixes`)
  and stacked on a leading fleet axis
  (:class:`~repro.core.flatness.FleetTesterSketches`), with no
  per-member :class:`~repro.samples.estimators.MultiSketch` ever built;
* **lockstep probing** — ``test_l2`` / ``test_l1`` / ``test_many`` /
  ``min_k`` run every member's Algorithm 2 search in lockstep
  (:func:`repro.core.tester.fleet_flat_partition`), batching fresh
  flatness statistics across members while each member keeps its own
  verdict memo;
* **lockstep learning** — ``learn`` / ``learn_many`` (on the default
  ``engine="lockstep"``) drive every member's Algorithm-1 greedy rounds
  together (:func:`repro.core.lockstep.lockstep_learn`): one
  rescore/argmin/commit pass per round over all still-active members'
  stacked score state, with large-grid rescores optionally fanned over
  the executor's pool.

The binding contract mirrors the session and engine PRs before it: every
fleet operation is **byte-identical** — verdicts, learned histograms,
query logs, and per-member memo accounting — to looping
``HistogramSession(sources[f], n, rng=rngs[f], ...)`` over the members
with the same seeds.  ``BENCH_fleet.json`` tracks the measured speedup.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Sequence

import numpy as np

from repro.api.session import HistogramSession
from repro.api.shard import _compile_member_rows
from repro.core.flatness import FleetTesterSketches
from repro.core.greedy import compile_greedy_sketches
from repro.core.lockstep import LockstepRun, lockstep_learn
from repro.core.params import GreedyParams, TesterParams, check_k, is_integer
from repro.core.results import LearnResult, TestResult
from repro.core.selection import SelectionResult, select_min_k_on_fleet
from repro.core.tester import fleet_test_on_sketches, validate_tester_engine
from repro.errors import InvalidParameterError
from repro.utils.rng import spawn_rngs


class HistogramFleet:
    """Vectorised learn/test facade over ``F`` sources sharing a domain.

    Parameters
    ----------
    sources:
        One entry per member — anything
        :func:`repro.api.as_sample_source` accepts.
    n:
        The shared domain size.
    rngs:
        Per-member seeds or generators (one per source).  Member ``f``
        of the fleet is byte-equivalent to
        ``HistogramSession(sources[f], n, rng=rngs[f], ...)``.
    rng:
        Alternative to ``rngs``: a base seed/generator from which one
        independent child generator per member is spawned
        (:func:`repro.utils.rng.spawn_rngs`).  Mutually exclusive with
        ``rngs``.
    scale / method / engine / tester_engine / learn_budget /
    test_budget / max_candidates:
        As in :class:`~repro.api.HistogramSession`, applied to every
        member.
    executor:
        Optional :class:`~repro.api.ParallelExecutor`, shared by every
        member session.  With a parallel executor the fleet's tester
        stacks live in shared-memory slabs: member compiles fan across
        the pool (each worker writes its member's ``(n + 1, r)`` layout
        in place) and large batches of flatness misses resolve across
        workers.  Purely an evaluation strategy — byte-identical
        results for any ``(shards, workers)``; the caller owns (and
        closes) the executor.

    Operations return one result per member, in member order.  Passing
    ``engine="full"`` / ``tester_engine="full"`` (at construction or per
    call) runs the members through their sessions' reference paths —
    the fleet's own batched paths are the ``"lockstep"`` learner and
    the ``"compiled"`` tester, and the equivalence suite holds each
    bit-for-bit equal to its reference.
    """

    def __init__(
        self,
        sources: Sequence[object],
        n: int,
        *,
        rngs: "Sequence[int | None | np.random.Generator] | None" = None,
        rng: "int | None | np.random.Generator" = None,
        scale: float = 1.0,
        method: str = "fast",
        engine: str = "lockstep",
        tester_engine: str = "compiled",
        learn_budget: GreedyParams | None = None,
        test_budget: TesterParams | None = None,
        max_candidates: int | None = None,
        executor: "object | None" = None,
    ) -> None:
        sources = list(sources)
        if not sources:
            raise InvalidParameterError("HistogramFleet needs at least one source")
        if rngs is not None and rng is not None:
            raise InvalidParameterError("pass rngs or rng, not both")
        if rngs is None:
            rngs = spawn_rngs(rng, len(sources))
        else:
            rngs = list(rngs)
            if len(rngs) != len(sources):
                raise InvalidParameterError(
                    f"got {len(sources)} sources but {len(rngs)} rngs"
                )
        self._n = int(n)
        self._method = method
        self._engine = engine
        self._tester_engine = tester_engine
        self._max_candidates = max_candidates
        self._executor = executor
        self._sessions = [
            HistogramSession(
                source,
                n,
                rng=member_rng,
                scale=scale,
                method=method,
                engine=engine,
                tester_engine=tester_engine,
                learn_budget=learn_budget,
                test_budget=test_budget,
                max_candidates=max_candidates,
                executor=executor,
            )
            for source, member_rng in zip(sources, rngs)
        ]
        # One FleetTesterSketches per tester budget, lazily built and
        # repaired member by member (see _fleet_tester).
        self._tester_fleet_cache: dict[tuple[int, int], FleetTesterSketches] = {}

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def size(self) -> int:
        """Number of fleet members ``F``."""
        return len(self._sessions)

    @property
    def n(self) -> int:
        """The shared domain size."""
        return self._n

    def session(self, member: int) -> HistogramSession:
        """Member ``member``'s underlying session (shared pools and all)."""
        return self._sessions[member]

    @property
    def samples_drawn(self) -> list[int]:
        """Per-member total samples drawn so far."""
        return [session.samples_drawn for session in self._sessions]

    @property
    def draw_events(self) -> list[dict[str, int]]:
        """Per-member pool-filling draw events (diagnostics)."""
        return [session.draw_events for session in self._sessions]

    def generation(self, member: int) -> int:
        """Member ``member``'s mutation epoch (see
        :attr:`HistogramSession.generation`)."""
        return self._sessions[member].generation

    @property
    def generations(self) -> list[int]:
        """Per-member mutation epochs."""
        return [session.generation for session in self._sessions]

    def invalidate(self, member: int | None = None) -> None:
        """Forget drawn samples and sketches, fleet-wide or per member.

        Per-member invalidation is lazy and local: only that member's
        pools, caches, and fleet slabs drop; every other member's
        compiled state (and verdict memos) survives untouched.  The next
        operation re-draws and recompiles just the stale member.
        """
        members = range(self.size) if member is None else (member,)
        for index in members:
            self._sessions[index].invalidate()
            for fleet_sketches in self._tester_fleet_cache.values():
                fleet_sketches.drop_member(index)

    # -------------------------------------------------------------- #
    # persistence
    # -------------------------------------------------------------- #

    def snapshot(self, path) -> None:
        """Write every member's warm state to one snapshot file.

        The stacked ``(F, n+1, r)`` tester slabs are not persisted —
        a restored fleet re-adopts each member's compiled layout into
        fresh stacks on the next operation, byte-identically.
        """
        from repro.persist import codec, format as persist_format

        meta, slabs = codec.fleet_state(self)
        persist_format.write_snapshot(path, kind="fleet", meta=meta, slabs=slabs)

    def restore(self, path) -> None:
        """Adopt a whole-fleet snapshot in place (zero-copy per member).

        The snapshot must come from a fleet of the same shape and
        configuration (``n``, member count, engines); anything else —
        including a missing or corrupt file — raises
        :class:`~repro.errors.SnapshotError` and leaves the fleet able
        to rebuild cold.
        """
        from repro.persist import codec, format as persist_format

        snap = persist_format.load_snapshot(path, kind="fleet")
        codec.restore_fleet(self, snap.meta, snap.slab)

    # -------------------------------------------------------------- #
    # learning
    # -------------------------------------------------------------- #

    def learn(
        self,
        k: int,
        epsilon: float,
        *,
        method: str | None = None,
        engine: str | None = None,
        params: GreedyParams | None = None,
        max_candidates: int | None = None,
        members: "Sequence[int] | None" = None,
    ) -> list[LearnResult]:
        """Learn a near-optimal k-histogram per member, batched.

        Pools are grown for all listed members first (one planned pass),
        then members missing a compiled grid for this configuration are
        compiled through the sort-free dense builder and planted into
        their sessions' caches.  On the default ``engine="lockstep"``
        the members' greedy rounds then run *together* — one
        rescore/argmin/commit pass per round across the active members
        (:func:`repro.core.lockstep.lockstep_learn`); ``engine="full"``
        loops :meth:`HistogramSession.learn`.  Either way results are the
        sessions' results, byte for byte.  ``members`` restricts the op
        to a subset of the fleet (results come back in the listed
        order) — the entry point serving batches and partial maintainer
        rebuilds coalesce into.
        """
        method, engine, max_candidates = self._sessions[0]._learn_options(
            method, engine, max_candidates
        )
        members = self._members(members)
        resolved = self._sessions[0]._learn_params(k, epsilon, params)
        compiled = self._ensure_learn_compiled(
            members, resolved, method, max_candidates
        )
        if engine == "lockstep":
            runs = [
                LockstepRun(
                    compiled=member_compiled,
                    params=resolved,
                    method=method,
                    n=self._n,
                )
                for member_compiled in compiled
            ]
            return lockstep_learn(runs, executor=self._executor)
        return [
            self._sessions[member].learn(
                k,
                epsilon,
                method=method,
                engine=engine,
                params=params,
                max_candidates=max_candidates,
            )
            for member in members
        ]

    def _ensure_learn_compiled(
        self,
        members: "list[int]",
        resolved: GreedyParams,
        method: str,
        max_candidates: int | None,
    ) -> "list":
        """Grow pools and plant compiled grids for ``members``, in order.

        Pool draws and any candidate-cap rng consumption happen member
        by member in the listed order — exactly the order looped
        sessions would use — which is what keeps every downstream learn
        route (looped, lockstep, fanned) seed-for-seed replayable.
        Returns each member's compiled sketches, positionally.
        """
        key = (
            method,
            max_candidates,
            resolved.weight_sample_size,
            resolved.collision_sets,
            resolved.collision_set_size,
        )
        # Same guard as the tester compiler: counting-based prefixes pay
        # O(r n); on very large sparse domains fall back to the one-sort
        # builder (bit-identical either way).
        prefixes = (
            "dense"
            if self._n + 1
            <= 4 * resolved.collision_sets * resolved.collision_set_size
            else "sorted"
        )
        compiled_members = []
        for member in members:
            session = self._sessions[member]
            bundle = session._bundle
            samples = bundle.learn_samples(resolved)
            if key not in bundle._compiled_cache:
                compiled = compile_greedy_sketches(
                    samples,
                    self._n,
                    method=method,
                    max_candidates=max_candidates,
                    rng=session._rng,
                    prefixes=prefixes,
                    executor=self._executor,
                )
                bundle.adopt_compiled_sketches(
                    resolved, method=method, max_candidates=max_candidates,
                    compiled=compiled,
                )
            compiled_members.append(bundle._compiled_cache[key])
        return compiled_members

    def prefetch_learn(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        params: GreedyParams | None = None,
    ) -> None:
        """Grow every member's learn pool to cover a planned grid."""
        points = list(grid)
        for session in self._sessions:
            session.prefetch_learn(points, params=params)

    def learn_many(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        method: str | None = None,
        engine: str | None = None,
        params: GreedyParams | None = None,
        max_candidates: int | None = None,
    ) -> list[list[LearnResult]]:
        """:meth:`learn` at every grid point; one result list per member.

        Mirrors :meth:`HistogramSession.learn_many`: pools are prefetched
        to the grid's elementwise-largest budget before any point runs,
        so the whole batch issues at most one draw event per member.
        On the default ``engine="lockstep"`` the entire ``F x P`` batch
        — every member at every grid point — runs its greedy rounds as
        one lockstep (runs whose round budgets differ drop out of the
        active mask as they converge), compile order staying point-major
        / member-minor so rng consumption matches looped sessions draw
        for draw.  Returns ``results[member][point]``.
        """
        points = list(grid)
        method, engine, max_candidates = self._sessions[0]._learn_options(
            method, engine, max_candidates
        )
        self.prefetch_learn(points, params=params)
        if engine == "lockstep":
            members = self._members(None)
            runs = []
            for k, epsilon in points:
                resolved = self._sessions[0]._learn_params(k, epsilon, params)
                for member_compiled in self._ensure_learn_compiled(
                    members, resolved, method, max_candidates
                ):
                    runs.append(
                        LockstepRun(
                            compiled=member_compiled,
                            params=resolved,
                            method=method,
                            n=self._n,
                        )
                    )
            results = lockstep_learn(runs, executor=self._executor)
            return [
                [results[p * self.size + f] for p in range(len(points))]
                for f in range(self.size)
            ]
        per_point = [
            self.learn(
                k,
                epsilon,
                method=method,
                engine=engine,
                params=params,
                max_candidates=max_candidates,
            )
            for k, epsilon in points
        ]
        return [
            [point_results[f] for point_results in per_point]
            for f in range(self.size)
        ]

    # -------------------------------------------------------------- #
    # testing
    # -------------------------------------------------------------- #

    def _members(self, members: "Sequence[int] | None") -> list[int]:
        """Normalise and validate a member-subset argument."""
        if members is None:
            return list(range(self.size))
        members = list(members)
        for member in members:
            if not (is_integer(member) and 0 <= member < self.size):
                raise InvalidParameterError(
                    f"member must be an integer in [0, {self.size}), got {member!r}"
                )
        return [int(member) for member in members]

    def _fleet_tester(
        self, resolved: TesterParams, members: "list[int]"
    ) -> FleetTesterSketches:
        """The stacked compiled sketches for one budget, repaired lazily.

        A member's slab is valid exactly when its session's bundle still
        caches the same compiled object the fleet planted — anything
        else (fresh member, per-member invalidation, even a direct
        ``session.invalidate()`` behind the fleet's back) recompiles
        that one slab from the member's pool and replants it.  Only the
        listed members are drawn for and compiled.

        With a parallel executor the stacks are shared-memory slabs and
        the stale members' compiles fan across the pool: pool draws
        still happen here (in member order, so the fleet stays
        replayable), the raw sets are staged into one reusable scratch
        slab, and each worker writes its member's ``(n + 1, r)`` gather
        layout straight into the stacks — bit-identical to the inline
        :meth:`~repro.core.flatness.FleetTesterSketches.compile_member`
        path.
        """
        key = (resolved.num_sets, resolved.set_size)
        executor = self._executor
        fleet_sketches = self._tester_fleet_cache.get(key)
        if fleet_sketches is None:
            stacks = None
            slabs = None
            if executor is not None and executor.parallel:
                shape = (self.size, self._n + 1, resolved.num_sets)
                count_stack, count_slab = executor.shared_zeros(shape)
                pair_stack, pair_slab = executor.shared_zeros(shape)
                stacks = (count_stack, pair_stack)
                if count_slab is None or pair_slab is None:
                    # An allocation fell back to a plain array (full
                    # /dev/shm, or an injected chaos fault): workers
                    # can't attach, so compiles go serial.  A slab that
                    # *did* allocate is about to be released — swap its
                    # still-zeroed view for a plain array first, or the
                    # stack would dangle over an unmapped segment.
                    if count_slab is not None:
                        count_stack = np.zeros_like(count_stack)
                    if pair_slab is not None:
                        pair_stack = np.zeros_like(pair_stack)
                    stacks = (count_stack, pair_stack)
                    executor.release(count_slab, pair_slab)
                    slabs = None
                else:
                    slabs = (count_slab, pair_slab)
            fleet_sketches = FleetTesterSketches(
                self._n,
                resolved.num_sets,
                resolved.set_size,
                self.size,
                stacks=stacks,
                slabs=slabs,
                executor=executor,
            )
            if slabs is not None:
                # The executor outlives this fleet (one pool, many
                # fleets); hand the stack segments back when the
                # sketches are collected so /dev/shm tracks live fleets.
                weakref.finalize(
                    fleet_sketches, executor.release, count_slab, pair_slab
                )
            self._tester_fleet_cache[key] = fleet_sketches
        pending: list[tuple[int, list]] = []
        for index in members:
            session = self._sessions[index]
            bundle = session._bundle
            member = fleet_sketches.member_or_none(index)
            cached = bundle._tester_compiled_cache.get(key)
            if member is not None and cached is member:
                continue
            if cached is not None:
                # The session compiled this budget itself (e.g. a direct
                # session call before the fleet op): keep its object —
                # and its memo — and mirror the layout into the slab.
                fleet_sketches.adopt_member(index, cached)
                continue
            pending.append((index, bundle.tester_sets(resolved)))
        if not pending:
            return fleet_sketches
        staged = sets_slab = None
        if (
            executor is not None
            and executor.parallel
            and fleet_sketches.slabs is not None
            and len(pending) > 1
        ):
            num_sets, set_size = resolved.num_sets, resolved.set_size
            staged, sets_slab = executor.scratch(
                "fleet-compile-input", (len(pending), num_sets, set_size)
            )
        if sets_slab is not None:
            for row, (_, sets) in enumerate(pending):
                for column, values in enumerate(sets):
                    staged[row, column] = values
            dense = self._n + 1 <= 4 * num_sets * set_size
            count_slab, pair_slab = fleet_sketches.slabs
            for index, _ in pending:
                fleet_sketches._detach_member(index)
            executor.map(
                _compile_member_rows,
                [
                    (
                        sets_slab,
                        row,
                        index,
                        self._n,
                        dense,
                        executor.plan.num_shards,
                        count_slab,
                        pair_slab,
                    )
                    for row, (index, _) in enumerate(pending)
                ],
            )
            for index, _ in pending:
                member = fleet_sketches.adopt_compiled_rows(index)
                self._sessions[index]._bundle.adopt_compiled_tester(
                    resolved, member
                )
        else:
            for index, sets in pending:
                member = fleet_sketches.compile_member(index, sets)
                self._sessions[index]._bundle.adopt_compiled_tester(
                    resolved, member
                )
        return fleet_sketches

    def _run_test(
        self,
        norm: str,
        k: int,
        epsilon: float,
        params: TesterParams | None,
        engine: str | None,
        members: "Sequence[int] | None" = None,
    ) -> list[TestResult]:
        engine = self._tester_engine if engine is None else engine
        validate_tester_engine(engine)
        members = self._members(members)
        resolved = self._sessions[0]._test_params(norm, k, epsilon, params)
        if engine == "full":
            runner = (
                HistogramSession.test_l2 if norm == "l2" else HistogramSession.test_l1
            )
            return [
                runner(self._sessions[member], k, epsilon, params=resolved, engine="full")
                for member in members
            ]
        fleet_sketches = self._fleet_tester(resolved, members)
        return fleet_test_on_sketches(
            fleet_sketches, self._n, k, epsilon, norm, resolved, members=members
        )

    def test_l2(
        self,
        k: int,
        epsilon: float,
        *,
        params: TesterParams | None = None,
        engine: str | None = None,
        members: "Sequence[int] | None" = None,
    ) -> list[TestResult]:
        """Theorem 3's tester per member (one lockstep search).

        ``members`` restricts the op to a subset of the fleet (results
        come back in the listed order); the default covers everyone.
        """
        return self._run_test("l2", k, epsilon, params, engine, members)

    def test_l1(
        self,
        k: int,
        epsilon: float,
        *,
        params: TesterParams | None = None,
        engine: str | None = None,
        members: "Sequence[int] | None" = None,
    ) -> list[TestResult]:
        """Theorem 4's tester per member (one lockstep search)."""
        return self._run_test("l1", k, epsilon, params, engine, members)

    def test_many(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        norm: str = "l2",
        params: TesterParams | None = None,
        engine: str | None = None,
        members: "Sequence[int] | None" = None,
    ) -> list[list[TestResult]]:
        """The tester at every grid point; one verdict list per member.

        Mirrors :meth:`HistogramSession.test_many`: every member's pool
        is grown once to the grid's largest resolved budget, so the
        batch issues at most one draw event per member, and grid points
        sharing a budget share each member's verdict memo.  Returns
        ``results[member][point]`` (members in the listed order).
        """
        if norm not in ("l1", "l2"):
            raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
        validate_tester_engine(self._tester_engine if engine is None else engine)
        members = self._members(members)
        points = list(grid)
        if points:
            resolved = [
                self._sessions[0]._test_params(norm, k, e, params) for k, e in points
            ]
            cover = TesterParams(
                num_sets=max(p.num_sets for p in resolved),
                set_size=max(p.set_size for p in resolved),
            )
            for member in members:
                self._sessions[member]._bundle.ensure_tester_pool(cover)
        per_point = [
            self._run_test(norm, k, epsilon, params, engine, members)
            for k, epsilon in points
        ]
        return [
            [point_results[i] for point_results in per_point]
            for i in range(len(members))
        ]

    # -------------------------------------------------------------- #
    # model selection
    # -------------------------------------------------------------- #

    def min_k(
        self,
        epsilon: float,
        *,
        max_k: int | None = None,
        norm: str = "l1",
        params: TesterParams | None = None,
        engine: str | None = None,
        members: "Sequence[int] | None" = None,
    ) -> list[SelectionResult]:
        """Smallest accepted ``k`` per member (one lockstep sweep).

        Shares each member's test-family pool — and, on the compiled
        engine, its verdict memo — with :meth:`test_l1` /
        :meth:`test_l2`, exactly like :meth:`HistogramSession.min_k`.
        ``members`` restricts the sweep to a subset of the fleet.
        """
        if max_k is None:
            max_k = self._n
        check_k(max_k, self._n, name="max_k")
        if norm not in ("l1", "l2"):
            raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
        engine = self._tester_engine if engine is None else engine
        validate_tester_engine(engine)
        members = self._members(members)
        if engine == "full":
            return [
                self._sessions[member].min_k(
                    epsilon, max_k=max_k, norm=norm, params=params, engine="full"
                )
                for member in members
            ]
        resolved = self._sessions[0]._test_params(norm, max_k, epsilon, params)
        fleet_sketches = self._fleet_tester(resolved, members)
        return select_min_k_on_fleet(
            fleet_sketches,
            self._n,
            epsilon,
            max_k=max_k,
            norm=norm,
            params=resolved,
            members=members,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HistogramFleet(F={self.size}, n={self._n}, "
            f"samples_drawn={sum(self.samples_drawn)})"
        )
