"""The paper's algorithms, each a draw half plus a pure half (the
reference a fresh :class:`repro.api.HistogramSession` is pinned to):

* :func:`draw_greedy_samples` + :func:`learn_from_samples` — the greedy
  priority-histogram learner (Algorithm 1 / Theorem 1 with
  ``method="exhaustive"``, the improved Theorem 2 variant with
  ``method="fast"``);
* :func:`draw_tester_sets` + :func:`test_l2_on_sketch` /
  :func:`test_l1_on_sketch` — the tiling k-histogram testers of
  Section 4 (Theorems 3 and 4), and :func:`select_min_k_on_sketch` —
  the min-k search built on them;
* :mod:`repro.core.lower_bound` — the Theorem 5 hard instances;
* :func:`test_uniformity` — the [GR00] collision uniformity tester
  (the ``k = 1`` special case the paper builds on).
"""

from repro.core.candidates import (
    all_interval_candidates,
    sample_endpoint_candidates,
)
from repro.core.flatness import (
    CompiledTesterSketches,
    FlatnessResult,
    FleetTesterSketches,
    compile_tester_sketches,
    flatness_oracle,
    test_flatness_l1,
    test_flatness_l2,
)
from repro.core.greedy import (
    CompiledGreedySketches,
    GreedySamples,
    compile_greedy_sketches,
    draw_greedy_samples,
    learn_from_samples,
)
from repro.core.identity import (
    IdentityResult,
    test_identity_l2,
    test_identity_l2_on_sketch,
)
from repro.core.lower_bound import (
    collision_distinguisher,
    no_instance,
    yes_instance,
)
from repro.core.params import GreedyParams, TesterParams, greedy_rounds, xi
from repro.core.results import FlatnessQuery, LearnResult, TestResult, UniformityResult
from repro.core.selection import (
    SelectionResult,
    select_min_k_on_fleet,
    select_min_k_on_sketch,
)
from repro.core.tester import (
    draw_tester_sets,
    fleet_flat_partition,
    fleet_test_on_sketches,
    test_l1_on_sketch,
    test_l2_on_sketch,
)
from repro.core.uniformity import test_uniformity, test_uniformity_on_sketch

__all__ = [
    "CompiledGreedySketches",
    "CompiledTesterSketches",
    "FlatnessQuery",
    "FlatnessResult",
    "FleetTesterSketches",
    "GreedyParams",
    "GreedySamples",
    "IdentityResult",
    "LearnResult",
    "SelectionResult",
    "TestResult",
    "TesterParams",
    "UniformityResult",
    "all_interval_candidates",
    "collision_distinguisher",
    "compile_greedy_sketches",
    "compile_tester_sketches",
    "draw_greedy_samples",
    "draw_tester_sets",
    "flatness_oracle",
    "fleet_flat_partition",
    "fleet_test_on_sketches",
    "greedy_rounds",
    "learn_from_samples",
    "no_instance",
    "sample_endpoint_candidates",
    "select_min_k_on_fleet",
    "select_min_k_on_sketch",
    "test_flatness_l1",
    "test_flatness_l2",
    "test_identity_l2",
    "test_identity_l2_on_sketch",
    "test_l1_on_sketch",
    "test_l2_on_sketch",
    "test_uniformity",
    "test_uniformity_on_sketch",
    "xi",
    "yes_instance",
]
