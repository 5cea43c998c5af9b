"""Tester experiments: T3, T4 (Theorems 3/4) and F3 (the testing gap).

Each instance's batch of independent trials runs as one
:class:`repro.api.HistogramFleet` — every trial is a fleet member with
its own generator, compiled in one pass and probed in lockstep.  A
fleet run is byte-identical to looping fresh sessions over the same
seeds (the fleet contract), and a fresh session's first tester call is
seed-for-seed identical to drawing the sets and testing on them, so
each trial is an independent run of Algorithm 2.
"""

from __future__ import annotations

from repro.api import HistogramFleet
from repro.core.params import TesterParams
from repro.distributions import families
from repro.distributions.perturb import perturb_within_pieces
from repro.distributions.property_distance import distance_to_k_histogram
from repro.experiments.harness import ExperimentConfig, ExperimentResult, accept_rate
from repro.utils.rng import spawn_rngs

L2_SCALE = 0.05
L1_PARAMS = TesterParams(num_sets=15, set_size=30_000)


def _trials_l2(dist, n, k, eps, rngs):
    """A batch of independent l2 tester trials as one fleet."""
    fleet = HistogramFleet([dist] * len(rngs), n, rngs=rngs, scale=L2_SCALE)
    return fleet.test_l2(k, eps)


def _trials_l1(dist, n, k, eps, rngs):
    """A batch of independent l1 tester trials as one fleet."""
    fleet = HistogramFleet([dist] * len(rngs), n, rngs=rngs)
    return fleet.test_l1(k, eps, params=L1_PARAMS)


def run_t3(config: ExperimentConfig) -> ExperimentResult:
    """T3 — Theorem 3: the l2 tester's two-sided guarantee.

    Claim: members accepted and eps-far (l2) instances rejected, each with
    probability >= 2/3.
    """
    n, k, eps = 256, 4, 0.25
    trials = 4 if config.quick else 12
    yes_cases = [
        ("random-4-hist", families.random_tiling_histogram(n, k, 21, min_piece=8)),
        ("uniform", families.uniform(n)),
        ("two-level(3 pieces)", families.two_level(n, heavy_start=64, heavy_length=32)),
    ]
    no_cases = [
        ("spikes(8)", families.spikes(n, 8)),
        ("spikes(12)+bg", families.spikes(n, 12, background_mass=0.2)),
    ]
    if config.quick:
        yes_cases, no_cases = yes_cases[:1], no_cases[:1]
    result = ExperimentResult(
        "T3",
        "l2 tester confusion table (Theorem 3)",
        ["instance", "side", "l2 dist to property", "accept rate", "target"],
        notes=[
            f"n={n}, k={k}, epsilon={eps}, scale={L2_SCALE}, {trials} trials each",
            "Claim: accept rate >= 2/3 on members, <= 1/3 on eps-far instances.",
        ],
    )
    rngs = spawn_rngs(config.seed + 4, (len(yes_cases) + len(no_cases)) * trials)
    idx = 0
    for name, dist in yes_cases:
        verdicts = _trials_l2(dist, n, k, eps, rngs[idx : idx + trials])
        idx += trials
        flags = [v.accepted for v in verdicts]
        dd = distance_to_k_histogram(dist, k, norm="l2")
        result.rows.append([name, "YES", dd, accept_rate(flags), ">= 2/3"])
    for name, dist in no_cases:
        verdicts = _trials_l2(dist, n, k, eps, rngs[idx : idx + trials])
        idx += trials
        flags = [v.accepted for v in verdicts]
        dd = distance_to_k_histogram(dist, k, norm="l2")
        result.rows.append([name, "NO", dd, accept_rate(flags), "<= 1/3"])
    return result


def run_t4(config: ExperimentConfig) -> ExperimentResult:
    """T4 — Theorem 4: the l1 tester's two-sided guarantee."""
    from repro.core.lower_bound import no_instance, yes_instance

    n, k, eps = 256, 4, 0.25
    trials = 4 if config.quick else 12
    yes_cases = [
        ("random-4-hist", families.random_tiling_histogram(n, k, 22, min_piece=8)),
        ("thm5-yes", yes_instance(n, k)),
    ]
    no_cases = [
        ("sawtooth", families.sawtooth(n)),
        ("thm5-no", no_instance(n, k, rng=23)),
    ]
    if config.quick:
        yes_cases, no_cases = yes_cases[:1], no_cases[:1]
    result = ExperimentResult(
        "T4",
        "l1 tester confusion table (Theorem 4)",
        ["instance", "side", "l1 dist lower bd", "accept rate", "target"],
        notes=[
            f"n={n}, k={k}, epsilon={eps}, params r={L1_PARAMS.num_sets} m={L1_PARAMS.set_size}, "
            f"{trials} trials each",
            "Distances are the certified DP lower bound on l1 distance to the property.",
        ],
    )
    rngs = spawn_rngs(config.seed + 5, (len(yes_cases) + len(no_cases)) * trials)
    idx = 0
    for side, cases, target in (("YES", yes_cases, ">= 2/3"), ("NO", no_cases, "<= 1/3")):
        for name, dist in cases:
            verdicts = _trials_l1(dist, n, k, eps, rngs[idx : idx + trials])
            idx += trials
            flags = [v.accepted for v in verdicts]
            dd = distance_to_k_histogram(dist, k, norm="l1")
            result.rows.append([name, side, dd, accept_rate(flags), target])
    return result


def run_f3(config: ExperimentConfig) -> ExperimentResult:
    """F3 — rejection rate vs distance (the testing gap curve).

    Starting from an exact 4-histogram, zigzag perturbations sweep the l1
    distance to the property from 0 upwards; the tester's rejection rate
    should rise from ~0 to ~1 through the gap.
    """
    n, k, eps = 256, 4, 0.25
    trials = 4 if config.quick else 10
    amplitudes = [0.0, 0.2, 0.5] if config.quick else [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7]
    base = families.random_tiling_histogram(n, k, 31, min_piece=16)
    result = ExperimentResult(
        "F3",
        "l1 tester rejection rate vs distance to the property",
        ["amplitude", "l1 dist lower bd", "reject rate"],
        notes=[
            f"n={n}, k={k}, epsilon={eps}; zigzag perturbation of a random 4-histogram",
            "Shape: ~0 at distance 0, ~1 well past epsilon; the gap sits near eps.",
        ],
    )
    rngs = spawn_rngs(config.seed + 6, len(amplitudes) * trials)
    idx = 0
    for amplitude in amplitudes:
        dist = perturb_within_pieces(base, amplitude)
        dd = distance_to_k_histogram(dist, k, norm="l1")
        verdicts = _trials_l1(dist, n, k, eps, rngs[idx : idx + trials])
        idx += trials
        rejects = [not v.accepted for v in verdicts]
        result.rows.append([amplitude, dd, accept_rate(rejects)])
    return result
