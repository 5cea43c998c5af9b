"""Pinned output digests of the greedy learner.

The equivalence suites compare ``engine="lockstep"`` against
``engine="full"``, but both engines share the scoring kernels (``_piece_costs`` with its
median-of-``r``, the removed-cost table, the block-argmin repair).  A
kernel change that moved a byte would move the oracle with it and still
pass them.  This module pins sha256 digests of canonical
:class:`~repro.core.results.LearnResult` renderings, computed with the
``np.median``-based reference kernels, so any drift in the shared
kernels shows up as a digest change.

Cases cover fast and exhaustive candidate sets, capped and uncapped,
odd and even ``r`` (the even median averages the two middle values),
both engines, and fleet lockstep with the rescore fan forced on.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import ArraySource, HistogramFleet, ParallelExecutor, ShardPlan
from repro.core.greedy import draw_greedy_samples, learn_from_samples
from repro.core.params import GreedyParams
from repro.distributions import families

ENGINES = ("full", "lockstep")

# case id -> (n, distribution seed, sample seed, method, r, max_candidates)
SERIAL_CASES = {
    "fast-r5": (256, 3, 11, "fast", 5, None),
    "fast-r4-capped": (256, 4, 12, "fast", 4, 700),
    "fast-r17": (512, 5, 13, "fast", 17, None),
    "fast-r1": (128, 6, 14, "fast", 1, None),
    "exhaustive-r5": (64, 7, 15, "exhaustive", 5, None),
    "exhaustive-r6-capped": (96, 8, 16, "exhaustive", 6, 900),
}

PINNED = {
    "fast-r5": (
        "0f50719ce7e06481098f52d1ea18a120"
        "7afa48402146ac9ee2b0f3ee66ad7c16"
    ),
    "fast-r4-capped": (
        "6bfd083097be69291596b3ff0cbb15cf"
        "387137ad0aa392c636a1d50ddf645a0e"
    ),
    "fast-r17": (
        "54d6af19355c2b5775d44201ef98c92f"
        "2f4ddedcdbbb545db7b9bd5e9733cd7e"
    ),
    "fast-r1": (
        "2730567488d2bc5a83ef3319b914710a"
        "17501e22cb371e56fc4186405931236a"
    ),
    "exhaustive-r5": (
        "8f3828f4453a6cb771d70fd53af12d55"
        "49abc95712824ab4a479e295cf065dbb"
    ),
    "exhaustive-r6-capped": (
        "fe4369faae7527fac53b0f14f2dc0e8f"
        "de2d12e5db73a2301e1f37d3dd426638"
    ),
    "fleet-lockstep": (
        "7e8a7a250ff8bbc50694e6c0ddc96464"
        "ba993c73170a26bb8ccf2a213626e270"
    ),
}


def _canonical(results) -> str:
    """sha256 over everything a LearnResult's byte contract covers."""
    hasher = hashlib.sha256()
    for result in results:
        for hist in (
            result.histogram,
            result.filled_histogram,
            result.priority_histogram.to_tiling(),
        ):
            hasher.update(np.asarray(hist.boundaries, dtype=np.int64).tobytes())
            hasher.update(np.asarray(hist.values, dtype=np.float64).tobytes())
        for piece in result.priority_histogram.pieces():
            hasher.update(
                repr(
                    (
                        piece.interval.start,
                        piece.interval.stop,
                        float(piece.value).hex(),
                        piece.priority,
                    )
                ).encode()
            )
        for rnd in result.rounds:
            hasher.update(
                repr(
                    (
                        rnd.round_index,
                        rnd.chosen.start,
                        rnd.chosen.stop,
                        float(rnd.weight_estimate).hex(),
                        float(rnd.estimated_cost).hex(),
                        rnd.candidates_evaluated,
                    )
                ).encode()
            )
        hasher.update(
            repr((result.method, result.num_candidates, result.samples_used)).encode()
        )
    return hasher.hexdigest()


def _serial_digests(case: str) -> dict[str, str]:
    """One digest per engine over a three-point (k, epsilon) grid."""
    n, dist_seed, sample_seed, method, r, cap = SERIAL_CASES[case]
    dist = families.random_tiling_histogram(n, 5, rng=dist_seed, min_piece=4)
    params = GreedyParams(
        weight_sample_size=2_000, collision_sets=r, collision_set_size=900, rounds=1
    )
    samples = draw_greedy_samples(dist, params, sample_seed)
    digests = {}
    for engine in ENGINES:
        results = [
            learn_from_samples(
                samples,
                n,
                k,
                epsilon,
                params=GreedyParams(2_000, r, 900, rounds),
                method=method,
                engine=engine,
                max_candidates=cap,
                rng=sample_seed + 1,
            )
            for k, epsilon, rounds in ((2, 0.3, 3), (4, 0.25, 6), (6, 0.2, 9))
        ]
        digests[engine] = _canonical(results)
    return digests


def _fleet_digest(executor) -> str:
    n = 128
    base = families.random_tiling_histogram(n, 4, rng=9, min_piece=4)
    member_values = [
        base.sample(8_000, np.random.default_rng(60 + f)) for f in range(3)
    ]
    fleet = HistogramFleet(
        [ArraySource(values, n) for values in member_values],
        n,
        rngs=[21, 22, 23],
        engine="lockstep",
        learn_budget=GreedyParams(
            weight_sample_size=2_500,
            collision_sets=4,
            collision_set_size=1_200,
            rounds=2,
        ),
        executor=executor,
    )
    grid = [(2, 0.4), (5, 0.2), (3, 0.3)]
    return _canonical(
        [result for member in fleet.learn_many(grid) for result in member]
    )


@pytest.mark.parametrize("case", sorted(SERIAL_CASES))
def test_serial_engines_match_pinned_digest(case):
    digests = _serial_digests(case)
    assert set(digests.values()) == {PINNED[case]}, digests


@pytest.mark.shm_guard
def test_fleet_lockstep_fan_matches_pinned_digest(monkeypatch):
    """The fanned rescore (``learn_fan_min_candidates=1``) and the serial
    lockstep both reproduce the pinned digest."""
    assert _fleet_digest(None) == PINNED["fleet-lockstep"]
    with ParallelExecutor(
        2, plan=ShardPlan(2), learn_fan_min_candidates=1
    ) as executor:
        mapped = []
        plain_map = executor.map

        def recording_map(fn, tasks):
            mapped.append(fn.__name__)
            return plain_map(fn, tasks)

        monkeypatch.setattr(executor, "map", recording_map)
        fanned = _fleet_digest(executor)
    assert "_lockstep_rescore_chunk" in mapped  # the fan really ran
    assert fanned == PINNED["fleet-lockstep"]
