"""Property-based invariants of the greedy learner.

These run with tiny explicit sample sizes (speed) over hypothesis-drawn
distributions: whatever the input, the structural invariants of the
output must hold.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import HistogramSession
from repro.core.params import GreedyParams
from repro.distributions.base import DiscreteDistribution

TINY = GreedyParams(
    weight_sample_size=300, collision_sets=3, collision_set_size=300, rounds=3
)


@st.composite
def small_distributions(draw):
    n = draw(st.integers(min_value=4, max_value=48))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    total = sum(weights)
    if total <= 0:
        weights = [1.0] * n
        total = float(n)
    return DiscreteDistribution(np.array(weights) / total)


@settings(max_examples=20, deadline=None)
@given(small_distributions(), st.integers(min_value=0, max_value=10))
def test_output_always_tiles_domain(dist, seed):
    """Boundaries 0..n, strictly increasing, values finite and >= 0."""
    result = HistogramSession(dist, dist.n, rng=seed).learn(2, 0.3, params=TINY)
    hist = result.histogram
    assert hist.boundaries[0] == 0 and hist.boundaries[-1] == dist.n
    assert np.all(np.diff(hist.boundaries) > 0)
    assert np.all(hist.values >= 0)
    assert np.all(np.isfinite(hist.values))


@settings(max_examples=20, deadline=None)
@given(small_distributions(), st.integers(min_value=0, max_value=10))
def test_filled_histogram_invariants(dist, seed):
    """Filled variant: same partition, pointwise >= the gapped one,
    total mass close to 1 (it is an empirical-weight refit)."""
    result = HistogramSession(dist, dist.n, rng=seed).learn(2, 0.3, params=TINY)
    gapped = result.histogram
    filled = result.filled_histogram
    assert np.array_equal(filled.boundaries, gapped.boundaries)
    assert np.all(filled.to_pmf() >= gapped.to_pmf() - 1e-15)
    assert filled.total_mass() == pytest.approx(1.0, abs=0.2)


@settings(max_examples=15, deadline=None)
@given(small_distributions(), st.integers(min_value=0, max_value=10))
def test_priority_log_always_consistent(dist, seed):
    """The reconstructed priority histogram flattens to the engine state
    for arbitrary inputs, not just the curated fixtures."""
    result = HistogramSession(dist, dist.n, rng=seed).learn(2, 0.3, params=TINY)
    assert np.allclose(
        result.priority_histogram.to_pmf(), result.histogram.to_pmf(), atol=1e-12
    )


@settings(max_examples=15, deadline=None)
@given(small_distributions())
def test_methods_share_structural_invariants(dist):
    """Exhaustive and fast methods obey the same output contract."""
    for method in ("fast", "exhaustive"):
        result = HistogramSession(dist, dist.n, rng=5).learn(2, 0.3, params=TINY, method=method)
        assert result.histogram.n == dist.n
        assert len(result.rounds) == TINY.rounds
        costs = [r.estimated_cost for r in result.rounds]
        assert all(np.isfinite(c) for c in costs)
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=30))
def test_deterministic_point_mass(position_mod):
    """A point mass is always isolated into a tiny high piece."""
    n = 32
    position = position_mod % n
    pmf = np.full(n, 0.1 / (n - 1))
    pmf[position] = 0.9 + 0.1 / (n - 1) - 0.1 / (n - 1)
    pmf = pmf / pmf.sum()
    dist = DiscreteDistribution(pmf)
    result = HistogramSession(dist, n, rng=1).learn(2, 0.3, params=TINY)
    others = np.delete(np.arange(n), position)
    assert result.histogram.value_at(position) > float(
        np.max(result.histogram.value_at(others))
    ) / 2
