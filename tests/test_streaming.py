"""Tests for repro.streaming (reservoir + maintainer)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import families
from repro.distributions.distances import l1_distance
from repro.errors import InvalidParameterError
from repro.streaming import FleetMaintainer
from repro.streaming.maintainer import StreamingHistogramMaintainer
from repro.streaming.reservoir import ReservoirSampler

# Non-integer stream items every entry point must reject: a float that
# would truncate, a bool (an ``int`` subclass), and NaN.
NON_INTEGER_ITEMS = [1.5, True, float("nan")]
NON_INTEGER_BATCHES = [
    np.array([1.7, 2.2]),
    np.array([True, False]),
    np.array([1.0, np.nan]),
]


class TestReservoir:
    def test_fills_to_capacity(self):
        res = ReservoirSampler(4, rng=1)
        res.update_many(np.arange(3))
        assert res.size == 3 and res.seen == 3
        res.update_many(np.arange(10))
        assert res.size == 4 and res.seen == 13

    def test_small_stream_kept_exactly(self):
        res = ReservoirSampler(10, rng=1)
        res.update_many(np.array([5, 7, 9]))
        assert sorted(res.contents()) == [5, 7, 9]

    def test_uniformity_of_retention(self):
        """Algorithm R invariant: every item retained w.p. capacity/seen."""
        capacity, stream_len, trials = 8, 64, 600
        counts = np.zeros(stream_len)
        for t in range(trials):
            res = ReservoirSampler(capacity, rng=t)
            res.update_many(np.arange(stream_len))
            counts[res.contents()] += 1
        expected = capacity / stream_len
        rates = counts / trials
        assert np.abs(rates - expected).max() < 0.08

    def test_sample_with_replacement(self):
        res = ReservoirSampler(4, rng=1)
        res.update_many(np.array([3, 3, 3, 3]))
        assert np.all(res.sample(10, rng=2) == 3)

    def test_empty_sample_raises(self):
        with pytest.raises(InvalidParameterError):
            ReservoirSampler(4).sample(1)

    def test_invalid_capacity(self):
        with pytest.raises(InvalidParameterError):
            ReservoirSampler(0)

    @pytest.mark.parametrize("batch", NON_INTEGER_BATCHES, ids=["float", "bool", "nan"])
    def test_update_many_rejects_non_integer_batch_untouched(self, batch):
        res = ReservoirSampler(4, rng=1)
        res.update_many(np.array([1, 2, 3, 4, 5]))
        before, state = res.contents(), res._rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match="dtype must be integer"):
            res.update_many(batch)
        assert res.seen == 5
        assert np.array_equal(res.contents(), before)
        assert res._rng.bit_generator.state == state

    @pytest.mark.parametrize("value", NON_INTEGER_ITEMS, ids=["float", "bool", "nan"])
    def test_update_rejects_non_integer_item(self, value):
        res = ReservoirSampler(4, rng=1)
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            res.update(value)
        assert res.seen == 0


def _batches(max_len: int):
    """Batch sequences: empty, short, and long enough to overflow."""
    return st.lists(
        st.tuples(
            st.integers(0, max_len),  # length
            st.integers(0, 2**31 - 1),  # content seed
            st.booleans(),  # 2-D (ravelled) or 1-D
            st.booleans(),  # few distinct values or many
        ),
        min_size=1,
        max_size=6,
    )


def _make_batch(length: int, seed: int, two_d: bool, narrow: bool) -> np.ndarray:
    batch = np.random.default_rng(seed).integers(0, 4 if narrow else 10**9, size=length)
    if two_d and length % 2 == 0:
        batch = batch.reshape(2, length // 2)
    return batch


def _assert_twins_equal(fast: ReservoirSampler, slow: ReservoirSampler) -> None:
    assert fast.seen == slow.seen
    assert np.array_equal(fast.contents(), slow.contents())
    assert fast._rng.integers(2**62) == slow._rng.integers(2**62)


class TestVectorisedIngestMatchesScalar:
    """``update_many`` is one vectorised pass; ``update`` is the reference.

    Twin samplers on one seed see the same batches, one through
    ``update_many`` and one through a loop of scalar ``update``; the
    contents, ``seen`` and the next draw of each generator must agree.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 3000),
        seed=st.integers(0, 2**31 - 1),
        batches=_batches(4000),
    )
    def test_matches_scalar_loop(self, capacity, seed, batches):
        fast = ReservoirSampler(capacity, rng=seed)
        slow = ReservoirSampler(capacity, rng=seed)
        for spec in batches:
            batch = _make_batch(*spec)
            fast.update_many(batch)
            for value in batch.ravel():
                slow.update(value)
            assert fast.seen == slow.seen
            assert np.array_equal(fast.contents(), slow.contents())
        _assert_twins_equal(fast, slow)

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(1, 64),
        seed=st.integers(0, 2**31 - 1),
        head=st.integers(0, 64),
        batches=_batches(300),
    )
    def test_straddles_fill_boundary_with_repeated_slots(
        self, capacity, seed, head, batches
    ):
        """Small capacities against long batches: the first batch crosses
        fill -> replace and many slots repeat within one batch."""
        fast = ReservoirSampler(capacity, rng=seed)
        slow = ReservoirSampler(capacity, rng=seed)
        prefix = np.arange(head)
        fast.update_many(prefix)
        for value in prefix:
            slow.update(value)
        for spec in batches:
            batch = _make_batch(*spec)
            fast.update_many(batch)
            for value in batch.ravel():
                slow.update(value)
        _assert_twins_equal(fast, slow)

    @settings(max_examples=15, deadline=None)
    @given(
        capacity=st.integers(1, 200),
        seed=st.integers(0, 2**31 - 1),
        below=st.integers(1, 500),
        batches=_batches(1000),
    )
    def test_seen_crossing_two_to_the_32(self, capacity, seed, below, batches):
        """numpy switches from the 32- to the 64-bit bounded draw at 2^32."""
        fast = ReservoirSampler(capacity, rng=seed)
        slow = ReservoirSampler(capacity, rng=seed)
        fill = np.arange(capacity)
        fast.update_many(fill)
        slow.update_many(fill)
        fast._seen = slow._seen = 2**32 - below
        for spec in batches:
            batch = _make_batch(*spec)
            fast.update_many(batch)
            for value in batch.ravel():
                slow.update(value)
        _assert_twins_equal(fast, slow)

    def test_repeated_slot_keeps_last_write(self):
        """Force a repeat: capacity 1 sends every kept item to slot 0, so
        the survivor must be the batch's last kept item."""
        fast = ReservoirSampler(1, rng=3)
        slow = ReservoirSampler(1, rng=3)
        batch = np.arange(1, 2000)
        fast.update_many(batch)
        for value in batch:
            slow.update(value)
        _assert_twins_equal(fast, slow)
        assert fast.contents()[0] != 1  # slot 0 was overwritten


class TestMaintainer:
    def test_summarises_stationary_stream(self, rng):
        dist = families.random_tiling_histogram(128, 4, 3, min_piece=8)
        maintainer = StreamingHistogramMaintainer(
            128, 4, refresh_every=2_000, reservoir_capacity=2_000, rng=5
        )
        maintainer.update_many(dist.sample(10_000, rng))
        summary = maintainer.histogram
        assert l1_distance(dist, summary) < 0.25

    def test_adapts_to_drift(self, rng):
        """After a distribution shift, rebuilds track the new regime."""
        before = families.two_level(128, heavy_start=0, heavy_length=16)
        after = families.two_level(128, heavy_start=96, heavy_length=16)
        maintainer = StreamingHistogramMaintainer(
            128, 4, refresh_every=1_000, reservoir_capacity=1_000, rng=6
        )
        maintainer.update_many(before.sample(3_000, rng))
        _ = maintainer.histogram
        # Flood with the new regime: the reservoir turns over.
        maintainer.update_many(after.sample(30_000, rng))
        summary = maintainer.histogram
        assert summary.range_mass(__import__("repro").Interval(96, 112)) > 0.5

    def test_windowed_mode_adapts_faster(self, rng):
        """forget_after_rebuild bounds staleness by one refresh window."""
        before = families.two_level(128, heavy_start=0, heavy_length=16)
        after = families.two_level(128, heavy_start=96, heavy_length=16)
        windowed = StreamingHistogramMaintainer(
            128, 4, refresh_every=1_000, reservoir_capacity=1_000,
            forget_after_rebuild=True, rng=6,
        )
        windowed.update_many(before.sample(3_000, rng))
        _ = windowed.histogram
        windowed.update_many(after.sample(2_000, rng))
        summary = windowed.histogram
        assert summary.range_mass(__import__("repro").Interval(96, 112)) > 0.5

    def test_lazy_rebuild_counting(self, rng):
        dist = families.uniform(64)
        maintainer = StreamingHistogramMaintainer(
            64, 2, refresh_every=500, reservoir_capacity=500, rng=7
        )
        maintainer.update_many(dist.sample(500, rng))
        assert maintainer.rebuilds == 0  # lazy: nothing rebuilt yet
        _ = maintainer.histogram
        assert maintainer.rebuilds == 1
        _ = maintainer.histogram
        assert maintainer.rebuilds == 1  # cached between refreshes
        maintainer.update_many(dist.sample(500, rng))
        _ = maintainer.histogram
        assert maintainer.rebuilds == 2

    def test_empty_stream_raises(self):
        maintainer = StreamingHistogramMaintainer(64, 2, rng=8)
        with pytest.raises(InvalidParameterError):
            _ = maintainer.histogram

    def test_out_of_domain_update_raises(self):
        maintainer = StreamingHistogramMaintainer(64, 2, rng=9)
        with pytest.raises(InvalidParameterError):
            maintainer.update(64)
        with pytest.raises(InvalidParameterError):
            maintainer.update_many(np.array([-1]))

    @pytest.mark.parametrize("value", NON_INTEGER_ITEMS, ids=["float", "bool", "nan"])
    def test_update_rejects_non_integer_item(self, value):
        maintainer = StreamingHistogramMaintainer(64, 2, rng=1)
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            maintainer.update(value)
        assert maintainer.items_seen == 0

    @pytest.mark.parametrize("batch", NON_INTEGER_BATCHES, ids=["float", "bool", "nan"])
    def test_update_many_rejects_non_integer_batch(self, batch):
        maintainer = StreamingHistogramMaintainer(64, 2, rng=1)
        maintainer.update_many(np.array([1, 2, 3]))
        with pytest.raises(InvalidParameterError, match="dtype must be integer"):
            maintainer.update_many(batch)
        assert maintainer.items_seen == 3
        assert sorted(maintainer._reservoir.contents()) == [1, 2, 3]

    def test_items_seen(self, rng):
        maintainer = StreamingHistogramMaintainer(64, 2, rng=10)
        maintainer.update(5)
        maintainer.update_many(np.array([1, 2, 3]))
        assert maintainer.items_seen == 4

    def test_invalid_construction(self):
        with pytest.raises(InvalidParameterError):
            StreamingHistogramMaintainer(0, 2)
        with pytest.raises(InvalidParameterError):
            StreamingHistogramMaintainer(64, 2, refresh_every=0)

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            ((64.5, 2), {}),
            ((64, 2.5), {}),
            ((64.0, 2), {}),
            ((True, 2), {}),
            ((64, True), {}),
            ((64, 2), {"refresh_every": 2.5}),
            ((64, 2), {"refresh_every": True}),
        ],
        ids=["n-frac", "k-frac", "n-float", "n-bool", "k-bool", "refresh-frac",
             "refresh-bool"],
    )
    def test_construction_never_truncates(self, args, kwargs):
        """Sizes are refused, not silently truncated by ``int()``."""
        with pytest.raises(InvalidParameterError):
            StreamingHistogramMaintainer(*args, **kwargs)


class TestEmptyStreamProbes:
    """Probing any maintainer before its first observation is a clear
    :class:`EmptyStreamError` (a ReproError), never a stale-pool crash."""

    def test_single_stream_probes_raise_empty_stream_error(self):
        from repro.errors import EmptyStreamError, ReproError

        maintainer = StreamingHistogramMaintainer(64, 2, rng=1)
        for probe in (maintainer.test, maintainer.min_k, lambda: maintainer.histogram):
            with pytest.raises(EmptyStreamError):
                probe()
            with pytest.raises(ReproError):  # the catch-all contract
                probe()

    def test_probe_after_forgetting_rebuild_raises_cleanly(self, rng):
        """forget_after_rebuild empties the reservoir; the next probe must
        fail with the same clear error, not a crash from stale pools."""
        from repro.errors import EmptyStreamError

        maintainer = StreamingHistogramMaintainer(
            64, 2, rng=2, forget_after_rebuild=True,
            refresh_every=16, reservoir_capacity=16,
        )
        maintainer.update_many(rng.integers(0, 64, size=32))
        _ = maintainer.histogram  # rebuild resets the reservoir
        with pytest.raises(EmptyStreamError):
            maintainer.test()
        with pytest.raises(EmptyStreamError):
            maintainer.min_k()

    def test_empty_stream_error_is_backward_compatible(self):
        """Existing callers catching InvalidParameterError keep working."""
        from repro.errors import EmptyStreamError

        assert issubclass(EmptyStreamError, InvalidParameterError)


class TestFleetMaintainer:
    def _fed(self, fleet_size=3, **kwargs):
        from repro.streaming import FleetMaintainer

        dist = families.random_tiling_histogram(64, 3, rng=4, min_piece=8)
        maintainer = FleetMaintainer(
            fleet_size, 64, 3, refresh_every=1_000, reservoir_capacity=500,
            rng=8, **kwargs,
        )
        feeder = np.random.default_rng(9)
        for member in range(fleet_size):
            maintainer.update_many(member, dist.sample(2_000, feeder))
        return maintainer

    def test_histograms_and_probes_cover_the_fleet(self):
        maintainer = self._fed()
        summaries = maintainer.histograms()
        assert len(summaries) == 3
        assert maintainer.rebuilds == 3
        verdicts = maintainer.test()
        assert len(verdicts) == 3
        assert all(v.k == 3 and v.norm == "l2" for v in verdicts)
        selections = maintainer.min_k(0.3, max_k=8, norm="l2")
        assert len(selections) == 3

    def test_lazy_per_member_invalidation(self):
        maintainer = self._fed()
        maintainer.test()
        events = [e["test"] for e in maintainer.fleet.draw_events]
        maintainer.update(1, 5)  # only member 1 absorbs an item
        maintainer.test()
        after = [e["test"] for e in maintainer.fleet.draw_events]
        assert after[1] == events[1] + 1
        assert after[0] == events[0] and after[2] == events[2]

    def test_partial_rebuilds_only_due_members(self):
        maintainer = self._fed()
        maintainer.histograms()
        rebuilds = maintainer.rebuilds
        maintainer.update_many(2, np.random.default_rng(3).integers(0, 64, 1_000))
        maintainer.histograms()  # only member 2 crossed refresh_every
        assert maintainer.rebuilds == rebuilds + 1

    def test_empty_members_raise_empty_stream_error(self):
        from repro.errors import EmptyStreamError
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(2, 64, 2, rng=1)
        with pytest.raises(EmptyStreamError):
            maintainer.test()
        with pytest.raises(EmptyStreamError):
            maintainer.min_k()
        with pytest.raises(EmptyStreamError):
            maintainer.histograms()
        maintainer.update(0, 7)
        with pytest.raises(EmptyStreamError):  # member 1 still empty
            maintainer.test()
        with pytest.raises(EmptyStreamError):
            maintainer.histogram(1)
        assert maintainer.histogram(0) is not None

    def test_validation(self):
        from repro.streaming import FleetMaintainer

        with pytest.raises(InvalidParameterError):
            FleetMaintainer(0, 64, 2)
        with pytest.raises(InvalidParameterError):
            FleetMaintainer(2, 64, 0)
        with pytest.raises(InvalidParameterError):
            FleetMaintainer(2, 64, 2, refresh_every=0)
        maintainer = FleetMaintainer(2, 64, 2, rng=1)
        with pytest.raises(InvalidParameterError):
            maintainer.update(5, 1)
        with pytest.raises(InvalidParameterError):
            maintainer.update(0, 64)
        with pytest.raises(InvalidParameterError):
            maintainer.update_many(0, np.array([-1]))
        maintainer.update(0, 1)
        with pytest.raises(InvalidParameterError):
            maintainer.test(norm="tv")

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            ((2, 64.5, 3), {}),
            ((2, 64, 2.5), {}),
            ((2, 64.0, 3), {}),
            ((True, 64, 3), {}),
            ((2.0, 64, 3), {}),
            ((2, 64, 3), {"refresh_every": 2.5}),
        ],
        ids=["n-frac", "k-frac", "n-float", "fleet-bool", "fleet-float",
             "refresh-frac"],
    )
    def test_construction_never_truncates(self, args, kwargs):
        with pytest.raises(InvalidParameterError):
            FleetMaintainer(*args, **kwargs)

    @pytest.mark.parametrize(
        "member",
        [1.7, 1.0, True, np.float64(1.0), "1"],
        ids=["frac", "float", "bool", "numpy-float", "str"],
    )
    def test_member_ids_must_be_integers(self, member):
        """A float or bool member id is refused on every member-taking
        entry point instead of silently reading member ``int(member)``."""
        maintainer = self._fed()
        with pytest.raises(InvalidParameterError):
            maintainer.histograms_for([member])
        with pytest.raises(InvalidParameterError):
            maintainer.histogram(member)
        with pytest.raises(InvalidParameterError):
            maintainer.test(members=[member])
        with pytest.raises(InvalidParameterError):
            maintainer.generation(member)
        with pytest.raises(InvalidParameterError):
            maintainer.update(member, 1)
        assert maintainer.rebuilds == 0

    def test_learn_at_another_pair_runs_the_default_round_rule(self):
        """An explicit ``k`` is honoured: ``max(k, 2)`` greedy rounds over
        the configured sample sizes, without touching stored summaries."""
        maintainer = self._fed(fleet_size=1)
        results = {k: maintainer.learn(k)[0] for k in (1, 3, 10, 30)}
        for k, result in results.items():
            assert result.params.rounds == max(k, 2)
            assert len(result.rounds) == max(k, 2)
        assert len({r.histogram.values.tobytes() for r in results.values()}) > 1
        # Only the configured pair (k=3) commits a stored summary.
        assert maintainer.rebuilds == 1

    @pytest.mark.parametrize(
        "k,epsilon",
        [(0, None), (-2, None), (2.5, None), (None, 0.0), (None, 7.5), (3, 1.0)],
        ids=["k0", "k-2", "k-frac", "eps0", "eps7.5", "eps1"],
    )
    def test_learn_checks_the_operating_point(self, k, epsilon):
        maintainer = self._fed()
        generations = maintainer.generations
        with pytest.raises(InvalidParameterError):
            maintainer.learn(k, epsilon)
        assert maintainer.generations == generations
        assert maintainer.rebuilds == 0

    def test_numpy_member_ids_accepted(self):
        maintainer = self._fed()
        (summary,) = maintainer.histograms_for([np.int64(1)])
        assert maintainer.histogram(np.int32(1)) is summary
        assert maintainer.rebuilds == 1

    def test_histogram_rides_the_fleet_rebuild_path(self):
        """``histogram(member)`` is ``histograms_for([member])[0]``: the
        same learned bytes, rebuild count and generation bump."""
        single = self._fed()
        batched = self._fed()
        before = single.generation(1)
        summary = single.histogram(1)
        (expected,) = batched.histograms_for([1])
        assert summary.boundaries.tobytes() == expected.boundaries.tobytes()
        assert summary.values.tobytes() == expected.values.tobytes()
        assert single.rebuilds == batched.rebuilds == 1
        assert single.generation(1) == batched.generation(1) > before
        assert single.histogram(1) is summary  # fresh: no second rebuild
        assert single.rebuilds == 1

    def test_update_many_rejects_bad_dtype_with_member_context(self):
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(3, 64, 2, rng=1)
        with pytest.raises(InvalidParameterError) as excinfo:
            maintainer.update_many(1, np.array([0.5, 1.5]))
        message = str(excinfo.value)
        assert "stream 1" in message
        assert "dtype must be integer" in message
        assert "float64" in message

    @pytest.mark.parametrize("value", NON_INTEGER_ITEMS, ids=["float", "bool", "nan"])
    def test_update_rejects_non_integer_item_with_member(self, value):
        maintainer = FleetMaintainer(3, 64, 2, rng=1)
        with pytest.raises(InvalidParameterError, match="stream 1: value must be"):
            maintainer.update(1, value)
        assert maintainer.items_seen[1] == 0

    @pytest.mark.parametrize("batch", NON_INTEGER_BATCHES, ids=["float", "bool", "nan"])
    def test_update_many_rejects_non_integer_batch_with_member(self, batch):
        maintainer = FleetMaintainer(3, 64, 2, rng=1)
        with pytest.raises(InvalidParameterError, match="stream 2: batch dtype"):
            maintainer.update_many(2, batch)
        assert maintainer.items_seen[2] == 0

    def test_update_many_rejects_out_of_range_with_span(self):
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(3, 64, 2, rng=1)
        with pytest.raises(InvalidParameterError) as excinfo:
            maintainer.update_many(2, np.array([3, -4, 70]))
        message = str(excinfo.value)
        assert "stream 2" in message
        assert "[-4, 70]" in message  # the actual batch span, for triage
        assert "outside the domain [0, 64)" in message

    def test_failed_batch_leaves_the_reservoir_untouched(self):
        """Validation is all-or-nothing: a rejected batch must not leak
        a prefix into the reservoir or bump the intake counters."""
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(2, 64, 2, rng=1)
        maintainer.update_many(0, np.array([1, 2, 3]))
        seen = maintainer.items_seen[0]
        before = sorted(maintainer._reservoirs[0].contents())
        with pytest.raises(InvalidParameterError):
            maintainer.update_many(0, np.array([4, 5, 999]))
        with pytest.raises(InvalidParameterError):
            maintainer.update_many(0, np.array([6.0, 7.0]))
        assert maintainer.items_seen[0] == seen
        assert sorted(maintainer._reservoirs[0].contents()) == before
        assert maintainer.ready == [True, False]  # member 1 still quiet

    def test_update_many_empty_batch_is_a_noop(self):
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(2, 64, 2, rng=1)
        maintainer.update_many(0, np.array([], dtype=np.int64))
        assert maintainer.items_seen[0] == 0
        assert maintainer.ready == [False, False]

    def test_probe_ready_subset_while_one_stream_quiet(self):
        from repro.errors import EmptyStreamError
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(
            3, 64, 2, reservoir_capacity=200, refresh_every=400, rng=2
        )
        feeder = np.random.default_rng(5)
        maintainer.update_many(0, feeder.integers(0, 64, 600))
        maintainer.update_many(2, feeder.integers(0, 64, 600))
        with pytest.raises(EmptyStreamError):
            maintainer.test()  # member 1 still quiet
        verdicts = maintainer.test(members=[0, 2])
        assert len(verdicts) == 2
        selections = maintainer.min_k(0.3, max_k=8, norm="l2", members=[2])
        assert len(selections) == 1
        with pytest.raises(EmptyStreamError):
            maintainer.min_k(members=[1])
