"""T7 (design ablations) and T8 (the k=1 uniformity special case)."""

from __future__ import annotations

import numpy as np

from repro.api.session import HistogramSession
from repro.baselines.voptimal import voptimal_cost
from repro.core.params import GreedyParams, TesterParams, greedy_rounds
from repro.core.uniformity import test_uniformity, uniformity_sample_size
from repro.distributions import families
from repro.distributions.distances import l2_distance_squared
from repro.experiments.harness import ExperimentConfig, ExperimentResult, accept_rate
from repro.utils.rng import spawn_rngs


def run_t7(config: ExperimentConfig) -> ExperimentResult:
    """T7 — ablations of the greedy learner's design choices.

    (a) median-of-r collision sets vs a single set (Algorithm 1 step 3);
    (b) candidate restriction: exhaustive / T' / capped subsample;
    (c) round budget q: k vs k ln(1/eps) (paper) vs 2x.
    """
    n, k, eps = 256, 4, 0.25
    repeats = 2 if config.quick else 5
    dist = families.zipf(n, 1.2)
    opt = voptimal_cost(dist.pmf, k, norm="l2")
    base = GreedyParams.from_paper(n, k, eps, scale=0.05)
    result = ExperimentResult(
        "T7",
        "Greedy learner ablations (median excess error over seeds)",
        ["ablation", "variant", "median excess", "rounds/cands"],
        notes=[
            f"n={n}, k={k}, eps={eps}, zipf(1.2), {repeats} seeds, scale=0.05",
            "The paper's choices (median-of-r, T' candidates, q = k ln(1/eps))",
            "should be on the efficient frontier.",
        ],
    )
    rngs = spawn_rngs(config.seed + 10, 100)
    idx = 0

    def median_excess(**kwargs) -> tuple[float, object]:
        nonlocal idx
        errs, info = [], None
        for _ in range(repeats):
            # One fresh session per trial keeps trials independent (and
            # each first learn seed-identical to draw + learn_from_samples).
            learned = HistogramSession(dist, n, rng=rngs[idx]).learn(
                k, eps, **kwargs
            )
            idx += 1
            errs.append(l2_distance_squared(dist, learned.histogram) - opt)
            info = learned
        return float(np.median(errs)), info

    # (a) collision replication
    for r in (1, base.collision_sets):
        params = GreedyParams(
            base.weight_sample_size, r, base.collision_set_size, base.rounds
        )
        excess, _ = median_excess(method="fast", params=params)
        result.rows.append(["collision sets", f"r={r}", excess, base.rounds])

    # (b) candidate sets
    excess, info = median_excess(method="exhaustive", params=base)
    result.rows.append(["candidates", "all intervals", excess, info.num_candidates])
    excess, info = median_excess(method="fast", params=base)
    result.rows.append(["candidates", "T' (paper)", excess, info.num_candidates])
    excess, info = median_excess(method="fast", params=base, max_candidates=500)
    result.rows.append(["candidates", "T' capped at 500", excess, info.num_candidates])

    # (c) round budget
    for label, rounds in (
        ("q = k", k),
        ("q = k ln(1/eps) (paper)", greedy_rounds(k, eps)),
        ("q = 2 k ln(1/eps)", 2 * greedy_rounds(k, eps)),
    ):
        params = GreedyParams(
            base.weight_sample_size,
            base.collision_sets,
            base.collision_set_size,
            rounds,
        )
        excess, _ = median_excess(method="fast", params=params)
        result.rows.append(["rounds", label, excess, rounds])

    # (d) gap handling (the filled_histogram extension): squared-l2 excess
    # of the paper-faithful output vs the weight-filled variant.
    gapped_errs, filled_errs = [], []
    for _ in range(repeats):
        learned = HistogramSession(dist, n, rng=rngs[idx]).learn(
            k, eps, method="fast", params=base
        )
        idx += 1
        gapped_errs.append(l2_distance_squared(dist, learned.histogram) - opt)
        filled_errs.append(l2_distance_squared(dist, learned.filled_histogram) - opt)
    result.rows.append(
        ["gap handling", "gaps = 0 (paper)", float(np.median(gapped_errs)), base.rounds]
    )
    result.rows.append(
        ["gap handling", "gaps = weight est.", float(np.median(filled_errs)), base.rounds]
    )
    return result


def run_t8(config: ExperimentConfig) -> ExperimentResult:
    """T8 — k = 1: the general tester vs the [GR00] uniformity tester.

    Claim: the paper's machinery specialises correctly to uniformity
    testing; the dedicated collision tester needs fewer samples
    (O(sqrt(n)/eps^2) vs the general tester's budget).
    """
    n, eps = 1024, 0.3
    trials = 4 if config.quick else 12
    uniform = families.uniform(n)
    pmf = np.zeros(n)
    rng0 = np.random.default_rng(config.seed + 99)
    support = rng0.choice(n, size=n // 2, replace=False)
    pmf[support] = 2.0 / n
    from repro.distributions.base import DiscreteDistribution

    half = DiscreteDistribution(pmf)

    l1_params = TesterParams(num_sets=15, set_size=30_000)
    result = ExperimentResult(
        "T8",
        "k=1 special case: general l1 tester vs GR00 uniformity tester",
        ["instance", "method", "samples", "accept rate", "target"],
        notes=[
            f"n={n}, eps={eps}, {trials} trials; NO instance: uniform on a random half",
            "Both methods must accept uniform and reject the half-support instance;",
            "the dedicated tester does it with a fraction of the samples.",
        ],
    )
    rngs = spawn_rngs(config.seed + 11, trials * 4)
    idx = 0
    for name, dist, target_yes in (("uniform", uniform, True), ("half-support", half, False)):
        general_flags, gr_flags = [], []
        for _ in range(trials):
            general_flags.append(
                HistogramSession(dist, n, rng=rngs[idx])
                .test_l1(1, eps, params=l1_params)
                .accepted
            )
            idx += 1
            gr_flags.append(test_uniformity(dist, n, eps, rng=rngs[idx]).accepted)
            idx += 1
        target = ">= 2/3" if target_yes else "<= 1/3"
        result.rows.append(
            [name, "general l1 tester (k=1)", l1_params.total_samples, accept_rate(general_flags), target]
        )
        result.rows.append(
            [name, "GR00 uniformity", uniformity_sample_size(n, eps), accept_rate(gr_flags), target]
        )
    return result
