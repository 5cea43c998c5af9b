"""Collision-based uniformity testing ([GR00] / [BFR+10]).

Uniformity is the ``k = 1`` special case of the paper's property: the
uniform distribution is the only tiling 1-histogram with full support.
The classical tester draws ``O(sqrt(n) / eps^2)`` samples and accepts iff
the observed collision probability is close to the uniform level ``1/n``:
an l1 distance of ``eps`` from uniform forces
``||p||_2^2 >= (1 + eps^2) / n`` (Cauchy–Schwarz), so the threshold sits
at ``(1 + eps^2 / 2) / n``.

The T8 experiment compares this specialist against the paper's general
tester at ``k = 1``.

Like the flatness machinery this module is split into a pure verdict
(:func:`uniformity_verdict`), a sketch half
(:func:`test_uniformity_on_sketch` — the whole-domain conditional
collision statistic read off an already-built
:class:`~repro.samples.collision.CollisionSketch`'s prefix arrays), and
the classic draw-and-run composition (:func:`test_uniformity`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.params import check_epsilon
from repro.core.results import UniformityResult
from repro.errors import InsufficientSamplesError, InvalidParameterError
from repro.samples.collision import CollisionSketch
from repro.utils.prefix import pairs_count
from repro.utils.rng import as_rng


def uniformity_sample_size(n: int, epsilon: float, constant: float = 16.0) -> int:
    """``m = constant * sqrt(n) / eps^2`` ([Pan08]-style, tight in n)."""
    if int(n) != n or n <= 0:
        raise InvalidParameterError(f"n must be a positive integer, got {n!r}")
    check_epsilon(epsilon)
    return max(16, math.ceil(constant * math.sqrt(n) / epsilon**2))


def uniformity_verdict(collisions: int, size: int, n: int, epsilon: float) -> UniformityResult:
    """The [GR00] accept/reject decision from a whole-domain pair count."""
    if size < 2:
        raise InsufficientSamplesError(
            f"need >= 2 samples for a collision probability, got {size}"
        )
    statistic = collisions / pairs_count(size)
    threshold = (1.0 + epsilon**2 / 2.0) / n
    return UniformityResult(
        accepted=statistic <= threshold,
        statistic=float(statistic),
        threshold=float(threshold),
        epsilon=epsilon,
        samples_used=size,
        collisions=int(collisions),
    )


def test_uniformity_on_sketch(sketch: CollisionSketch, epsilon: float) -> UniformityResult:
    """Uniformity verdict from an already-built sketch (no source access).

    The statistic is the ``k = 1``, whole-domain special case of the
    flatness machinery: ``coll(S) / C(|S|, 2)`` read off the sketch's
    compiled pair prefix in O(1).  Pure in ``sketch``, so sessions and
    repeated calls share one build.
    """
    check_epsilon(epsilon)
    return uniformity_verdict(
        sketch.total_collisions, sketch.size, sketch.n, epsilon
    )


def test_uniformity(
    source: object,
    n: int,
    epsilon: float,
    *,
    scale: float = 1.0,
    constant: float = 16.0,
    rng: "int | None | np.random.Generator" = None,
) -> UniformityResult:
    """Accept if ``p`` looks uniform, reject if eps-far in l1.

    Parameters mirror the k-histogram testers; ``constant`` trades
    confidence for samples (16 keeps both error modes well under 1/3 at
    moderate ``n``).
    """
    if not 0.0 < scale <= 1.0:
        raise InvalidParameterError(f"scale must be in (0, 1], got {scale}")
    size = max(16, math.ceil(scale * uniformity_sample_size(n, epsilon, constant)))
    samples = np.asarray(source.sample(size, as_rng(rng)))
    return test_uniformity_on_sketch(CollisionSketch(samples, n), epsilon)
