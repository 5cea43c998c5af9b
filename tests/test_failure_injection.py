"""Failure injection: malformed inputs must fail loudly and cleanly.

Every failure should surface as a :class:`repro.ReproError` subclass (or
an explicit TypeError for wrong types), never as a silent wrong answer or
a numpy broadcast error deep in the stack.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.api import ArraySource, HistogramFleet, HistogramSession
from repro.core.params import GreedyParams, TesterParams
from repro.distributions import families
from repro.errors import InjectedFaultError, InvalidParameterError, ReproError
from repro.serving import HistogramService, Request, ServiceConfig
from repro.utils.faults import FaultPlan

TINY = GreedyParams(
    weight_sample_size=100, collision_sets=3, collision_set_size=100, rounds=2
)
TEST_TINY = TesterParams(num_sets=3, set_size=100)


class BrokenSource:
    """A sampler that emits values outside the declared domain."""

    def __init__(self, n: int) -> None:
        self._n = n

    def sample(self, size, rng=None):
        return np.full(size, self._n + 5, dtype=np.int64)


class NegativeSource:
    def sample(self, size, rng=None):
        return np.full(size, -1, dtype=np.int64)


class TestLearnerInjection:
    def test_out_of_domain_source_raises(self):
        with pytest.raises(ReproError):
            HistogramSession(BrokenSource(16), 16, rng=1).learn(2, 0.3, params=TINY)

    def test_negative_sample_source_raises(self):
        with pytest.raises(ReproError):
            HistogramSession(NegativeSource(), 16, rng=1).learn(2, 0.3, params=TINY)

    def test_bad_epsilon_raises(self):
        with pytest.raises(ReproError):
            HistogramSession(families.uniform(16), 16, rng=1).learn(2, 0.0)
        with pytest.raises(ReproError):
            HistogramSession(families.uniform(16), 16, rng=1).learn(2, 1.0)

    def test_bad_k_raises(self):
        with pytest.raises(ReproError):
            HistogramSession(families.uniform(16), 16, rng=1).learn(0, 0.3)

    def test_source_without_sample_method_raises(self):
        # Refused at the front door, not deep inside the first draw.
        with pytest.raises(InvalidParameterError, match="SampleSource"):
            HistogramSession(object(), 16, rng=1).learn(2, 0.3, params=TINY)


class TestTesterInjection:
    def test_out_of_domain_source_raises(self):
        params = TesterParams(num_sets=3, set_size=100)
        with pytest.raises(ReproError):
            HistogramSession(BrokenSource(16), 16, rng=1).test_l2(2, 0.3, params=params)
        with pytest.raises(ReproError):
            HistogramSession(BrokenSource(16), 16, rng=1).test_l1(2, 0.3, params=params)

    def test_k_exceeding_n_raises(self):
        with pytest.raises(ReproError):
            HistogramSession(families.uniform(8), 8, rng=1).test_l2(9, 0.3)

    def test_bad_params_raise(self):
        with pytest.raises(ReproError):
            TesterParams(num_sets=3, set_size=1)


class TestDistributionInjection:
    def test_nan_pmf(self):
        with pytest.raises(ReproError):
            repro.DiscreteDistribution(np.array([np.nan, 1.0]))

    def test_inf_pmf(self):
        with pytest.raises(ReproError):
            repro.DiscreteDistribution(np.array([np.inf, 1.0]))

    def test_all_zero_weights(self):
        with pytest.raises(ReproError):
            repro.DiscreteDistribution.from_weights(np.zeros(4))

    def test_negative_weights(self):
        with pytest.raises(ReproError):
            repro.DiscreteDistribution.from_weights(np.array([1.0, -0.5]))


class TestHistogramInjection:
    def test_unsorted_boundaries(self):
        with pytest.raises(ReproError):
            repro.TilingHistogram(10, [0, 7, 3, 10], [0.1, 0.1, 0.1])

    def test_nan_values(self):
        with pytest.raises(ReproError):
            repro.TilingHistogram(10, [0, 10], [np.nan])

    def test_interval_beyond_domain_in_priority(self):
        hist = repro.PriorityHistogram(4)
        with pytest.raises(ReproError):
            hist.add(repro.Interval(0, 5), 0.1)

    def test_compact_invalid_k(self):
        with pytest.raises(ReproError):
            repro.compact(repro.TilingHistogram.uniform(4), 0)


def _member_arrays(n: int = 32, members: int = 3) -> "list[np.ndarray]":
    base = families.random_tiling_histogram(n, 3, rng=5, min_piece=4)
    return [base.sample(4_000, np.random.default_rng(100 + f)) for f in range(members)]


class TestSessionInjection:
    """Malformed sources fail cleanly through the session driver too —
    the API layer adds no bare numpy errors of its own."""

    def test_broken_source_learn_raises(self):
        session = HistogramSession(BrokenSource(16), 16, rng=1, learn_budget=TINY)
        with pytest.raises(ReproError):
            session.learn(2, 0.3)

    def test_injected_draw_fault_is_a_repro_error(self):
        # The chaos layer's source seam dies like a real source: the
        # scheduled draw raises InjectedFaultError — a ReproError, so
        # every existing handler already contains it.
        source = FaultPlan(fail_draw_at=[0]).wrap_source(families.uniform(16))
        session = HistogramSession(source, 16, rng=1, test_budget=TEST_TINY)
        with pytest.raises(InjectedFaultError, match="draw 0"):
            session.test_l2(2, 0.3)

    def test_bad_parameters_raise(self):
        session = HistogramSession(families.uniform(16), 16, rng=1, learn_budget=TINY)
        with pytest.raises(ReproError):
            session.learn(0, 0.3)


class TestFleetInjection:
    def test_faulty_member_fails_the_fleet_op_cleanly(self):
        arrays = _member_arrays()
        sources: list = [ArraySource(values, 32) for values in arrays]
        sources[1] = FaultPlan(fail_draw_at=[0]).wrap_source(sources[1])
        fleet = HistogramFleet(sources, 32, rngs=[0, 1, 2], test_budget=TEST_TINY)
        with pytest.raises(InjectedFaultError):
            fleet.test_l2(2, 0.3)

    def test_broken_member_source_raises(self):
        arrays = _member_arrays()
        sources = [ArraySource(arrays[0], 32), BrokenSource(32)]
        fleet = HistogramFleet(sources, 32, rngs=[0, 1], learn_budget=TINY)
        with pytest.raises(ReproError):
            fleet.learn(2, 0.3)

    def test_rngs_length_mismatch_raises(self):
        sources = [ArraySource(values, 32) for values in _member_arrays(members=2)]
        with pytest.raises(ReproError):
            HistogramFleet(sources, 32, rngs=[0, 1, 2])


class TestServiceInjection:
    """Failures inside the serving stack become error Responses — the
    collector loop survives, and the stream keeps serving afterwards."""

    @staticmethod
    def _service() -> HistogramService:
        return HistogramService(
            ["s0", "s1"],
            64,
            2,
            0.3,
            config=ServiceConfig(max_batch=4, max_linger_us=0.0),
            reservoir_capacity=64,
            rng=5,
        )

    def test_injected_fault_maps_to_taxonomy_code_and_service_survives(self):
        async def run():
            service = self._service()
            async with service:
                assert (await service.submit(Request.ingest("s0", list(range(64))))).ok

                def boom(*args, **kwargs):
                    raise InjectedFaultError("injected: maintainer struck by the plan")

                # Shadow the bound op on the instance — the chaos seam
                # for execution-time faults the FaultPlan can't reach
                # from outside the event loop.
                service.maintainer.test = boom
                struck = await service.submit(Request.test("s0", 2, 0.3))
                del service.maintainer.test
                recovered = await service.submit(Request.test("s0", 2, 0.3))
                return struck, recovered

        struck, recovered = asyncio.run(run())
        assert struck.ok is False
        assert struck.error_code == "injected_fault"
        assert recovered.ok

    def test_malformed_ingest_fails_cleanly_and_stream_keeps_serving(self):
        async def run():
            service = self._service()
            async with service:
                assert (await service.submit(Request.ingest("s0", list(range(64))))).ok
                poisoned = await service.submit(Request.ingest("s0", [9_999]))
                after = await service.submit(Request.test("s0", 2, 0.3))
                return poisoned, after

        poisoned, after = asyncio.run(run())
        assert poisoned.ok is False
        assert poisoned.error_code == "invalid_parameter"
        assert after.ok


class TestErrorsAreCatchableAtOnce:
    def test_single_except_clause_suffices(self):
        """Library failures are one `except ReproError` away."""
        failures = 0
        attempts = [
            lambda: repro.DiscreteDistribution(np.array([0.5])),
            lambda: repro.TilingHistogram(4, [0, 5], [0.2]),
            lambda: repro.Interval(3, 3),
            lambda: repro.voptimal_histogram(np.ones(4) / 4, 9),
        ]
        for attempt in attempts:
            try:
                attempt()
            except ReproError:
                failures += 1
        assert failures == len(attempts)
