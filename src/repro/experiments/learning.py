"""Learning experiments: T1, T2 (Theorems 1/2) and F1, F2 (scaling)."""

from __future__ import annotations

import numpy as np

from repro.api.fleet import HistogramFleet
from repro.api.session import HistogramSession
from repro.baselines.voptimal import voptimal_cost, voptimal_histogram
from repro.core.params import GreedyParams
from repro.distributions import families
from repro.distributions.distances import l2_distance_squared
from repro.experiments.harness import ExperimentConfig, ExperimentResult
from repro.utils.rng import spawn_rngs
from repro.utils.timing import Timer

EPSILON = 0.25
SCALE = 0.05


def _workloads(n: int, quick: bool) -> list[tuple[str, object, int]]:
    """(name, distribution, k) triples used by T1/T2."""
    items = [
        ("random-4-hist", families.random_tiling_histogram(n, 4, 11, min_piece=max(n // 32, 1)), 4),
        ("zipf(1.0)", families.zipf(n, 1.0), 6),
    ]
    if not quick:
        items += [
            ("two-level", families.two_level(n, heavy_start=n // 4, heavy_length=n // 8), 4),
            ("gauss-mix", families.gaussian_mixture(n), 8),
            ("ramp", families.linear_ramp(n), 6),
        ]
    return items


def run_t1(config: ExperimentConfig) -> ExperimentResult:
    """T1 — Theorem 1: exhaustive greedy vs the DP optimum.

    Claim: ``||p - H||_2^2 <= ||p - H*||_2^2 + 5 eps``.
    """
    n = 128 if config.quick else 256
    result = ExperimentResult(
        "T1",
        "Exhaustive greedy (Algorithm 1) vs v-optimal DP",
        ["workload", "n", "k", "opt cost", "greedy cost", "excess", "bound 5eps", "ok"],
        notes=[
            f"epsilon={EPSILON}, sample scale={SCALE} (paper sizes x scale)",
            "Claim (Thm 1): excess <= 5 eps; measured excess is orders below.",
        ],
    )
    rngs = spawn_rngs(config.seed, len(_workloads(n, config.quick)))
    for (name, dist, k), rng in zip(_workloads(n, config.quick), rngs):
        learned = HistogramSession(dist, n, rng=rng, scale=SCALE).learn(
            k, EPSILON, method="exhaustive"
        )
        err = l2_distance_squared(dist, learned.histogram)
        opt = voptimal_cost(dist.pmf, k, norm="l2")
        excess = err - opt
        result.rows.append(
            [name, n, k, opt, err, excess, 5 * EPSILON, excess <= 5 * EPSILON]
        )
    return result


def run_t2(config: ExperimentConfig) -> ExperimentResult:
    """T2 — Theorem 2: restricted candidates preserve the guarantee.

    Claim: excess <= 8 eps with runtime tied to samples, not n^2.
    """
    n = 128 if config.quick else 256
    result = ExperimentResult(
        "T2",
        "Fast greedy (Theorem 2) vs exhaustive greedy",
        [
            "workload", "k",
            "excess fast", "excess exhaustive", "bound 8eps",
            "cands fast", "cands all", "time fast (s)", "time exh (s)",
        ],
        notes=[
            f"n={n}, epsilon={EPSILON}, sample scale={SCALE}",
            "Claim (Thm 2): fast excess <= 8 eps; candidate count drops to ~|T'|^2/2.",
        ],
    )
    rngs = spawn_rngs(config.seed + 1, len(_workloads(n, config.quick)))
    for (name, dist, k), rng in zip(_workloads(n, config.quick), rngs):
        opt = voptimal_cost(dist.pmf, k, norm="l2")
        # One session per workload: both methods score the same draw (a
        # paired comparison).  Sampling happens in the prefetch so that
        # neither timed region pays for it.
        session = HistogramSession(dist, n, rng=rng, scale=SCALE)
        session.prefetch_learn([(k, EPSILON)])
        with Timer() as t_fast:
            fast = session.learn(k, EPSILON, method="fast")
        with Timer() as t_slow:
            slow = session.learn(k, EPSILON, method="exhaustive")
        result.rows.append(
            [
                name, k,
                l2_distance_squared(dist, fast.histogram) - opt,
                l2_distance_squared(dist, slow.histogram) - opt,
                8 * EPSILON,
                fast.num_candidates, slow.num_candidates,
                t_fast.elapsed, t_slow.elapsed,
            ]
        )
    return result


def run_f1(config: ExperimentConfig) -> ExperimentResult:
    """F1 — error versus sample budget (the sample-complexity shape).

    Claim: Theorem 2's guarantee holds at O~((k/eps)^2 ln n) samples;
    the error should flatten once the budget is a small fraction of the
    paper's worst-case prescription.
    """
    n, k = 256, 6
    dist = families.zipf(n, 1.0)
    scales = [0.005, 0.02, 0.1] if config.quick else [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2]
    repeats = 2 if config.quick else 3
    opt = voptimal_cost(dist.pmf, k, norm="l2")
    result = ExperimentResult(
        "F1",
        "Learning error vs sample budget (fast greedy, zipf)",
        ["scale", "total samples", "median excess", "bound 8eps"],
        notes=[
            f"n={n}, k={k}, epsilon={EPSILON}; {repeats} seeds per point",
            "Shape: excess decays with samples and sits far below 8 eps.",
        ],
    )
    # One fleet member per repeat: the budget sweep reuses one growing
    # pool per member (common random numbers across scales), so the whole
    # curve costs one draw of the largest budget per repeat — and the
    # repeats compile and learn as a batch.
    fleet = HistogramFleet(
        [dist] * repeats, n, rngs=spawn_rngs(config.seed + 2, repeats), method="fast"
    )
    for scale in scales:
        params = GreedyParams.from_paper(n, k, EPSILON, scale=scale)
        learned_batch = fleet.learn(k, EPSILON, params=params)
        errs = [
            l2_distance_squared(dist, learned.histogram) - opt
            for learned in learned_batch
        ]
        result.rows.append(
            [scale, learned_batch[-1].samples_used, float(np.median(errs)), 8 * EPSILON]
        )
    return result


def run_f2(config: ExperimentConfig) -> ExperimentResult:
    """F2 — runtime scaling in n: fast greedy vs exhaustive vs DP.

    Claim: exhaustive is ~n^2 per round and the DP ~n^2 k total, while the
    fast variant's work tracks the (polylog) candidate set.
    """
    sizes = [64, 128] if config.quick else [64, 128, 256, 512, 1024]
    k = 4
    result = ExperimentResult(
        "F2",
        "Runtime scaling with domain size n",
        ["n", "fast (s)", "exhaustive (s)", "dp (s)", "cands fast", "cands all"],
        notes=[
            f"k={k}, epsilon={EPSILON}, sample scale={SCALE}",
            "Exhaustive candidate count is C(n+1,2); fast stays ~|T'|^2/2.",
        ],
    )
    rngs = spawn_rngs(config.seed + 3, len(sizes))
    for n, rng in zip(sizes, rngs):
        dist = families.random_tiling_histogram(n, k, 13, min_piece=max(n // 32, 1))
        # A fresh session per timed call keeps the two timings apart:
        # each call draws fresh samples (the shared generator advances
        # through both), so neither timing benefits from the other's
        # pools.
        with Timer() as t_fast:
            fast = HistogramSession(dist, n, rng=rng, scale=SCALE).learn(
                k, EPSILON, method="fast"
            )
        if n <= 512:
            with Timer() as t_slow:
                slow = HistogramSession(dist, n, rng=rng, scale=SCALE).learn(
                    k, EPSILON, method="exhaustive"
                )
            slow_time: object = t_slow.elapsed
            slow_cands: object = slow.num_candidates
        else:
            slow_time, slow_cands = "-", "-"
        with Timer() as t_dp:
            voptimal_histogram(dist.pmf, k, norm="l2")
        result.rows.append(
            [n, t_fast.elapsed, slow_time, t_dp.elapsed, fast.num_candidates, slow_cands]
        )
    return result
