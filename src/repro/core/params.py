"""Sample-size formulas from the paper, with a practicality knob.

Every constant below is quoted from the paper:

* ``xi = eps / (k ln(1/eps))`` — the per-interval accuracy Algorithm 1
  needs (Theorem 1 proof);
* Algorithm 1: ``ell = ln(12 n^2) / (2 xi^2)`` weight samples,
  ``r = ln(6 n^2)`` collision sets of ``m = 24 / xi^2`` samples each,
  ``q = k ln(1/eps)`` greedy rounds;
* Algorithm 2 (l2): ``r = 16 ln(6 n^2)`` sets of
  ``m = 64 ln(n) eps^-4`` samples;
* Theorem 4 (l1): same ``r`` with ``m = 2^13 sqrt(kn) eps^-5``, and the
  light-interval threshold ``16^3 sqrt(|I|) / eps^4`` in
  ``testFlatness-l1``.

The paper's constants are worst-case; at realistic ``(n, k, eps)`` they
demand hundreds of millions of samples.  Every ``from_paper`` constructor
therefore accepts ``scale``: each *set size* is multiplied by ``scale``
(``scale = 1.0`` is paper-faithful), leaving the algorithms untouched.
Experiments report the scale they used (README.md, "Experiments").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError


def is_integer(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer.

    Bools (an ``int`` subclass) and floats — integral-valued, fractional
    or NaN — do not qualify.  The one check behind every size, count,
    member id and scalar stream item, so none is ever silently
    truncated by ``int()``.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_size(name: str, value: object, minimum: int) -> None:
    """Raise :class:`InvalidParameterError` unless ``value`` is an integer
    (:func:`is_integer`) of at least ``minimum``."""
    if not is_integer(value) or value < minimum:
        raise InvalidParameterError(
            f"{name} must be an integer >= {minimum}, got {value!r} "
            f"({type(value).__name__})"
        )


def check_k(k: object, n: "int | None" = None, *, name: str = "k") -> None:
    """Raise :class:`InvalidParameterError` unless ``k`` is a whole number
    of at least 1 (and at most ``n`` when ``n`` is given).

    Integral floats such as ``3.0`` pass, as they always have on the
    paper-budget path; bools, fractions, NaN and non-numbers do not.
    """
    whole = is_integer(k) or (isinstance(k, float) and k.is_integer())
    if not whole or k < 1 or (n is not None and k > n):
        span = ">= 1" if n is None else f"in [1, {n}]"
        raise InvalidParameterError(f"{name} must be a whole number {span}, got {k!r}")


def check_epsilon(epsilon: object) -> None:
    """Raise :class:`InvalidParameterError` unless ``0 < epsilon < 1``."""
    numeric = isinstance(epsilon, (int, float, np.integer, np.floating))
    if not (numeric and 0.0 < epsilon < 1.0):
        raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")


def _validate_common(n: int, epsilon: float) -> None:
    if int(n) != n or n <= 0:
        raise InvalidParameterError(f"n must be a positive integer, got {n!r}")
    check_epsilon(epsilon)


def _validate_scale(scale: float) -> None:
    if not 0.0 < scale <= 1.0:
        raise InvalidParameterError(
            f"scale must be in (0, 1] (1.0 = paper-faithful), got {scale}"
        )


def xi(k: int, epsilon: float) -> float:
    """``xi = eps / (k ln(1/eps))`` — Algorithm 1's interval accuracy."""
    check_k(k)
    check_epsilon(epsilon)
    return epsilon / (k * math.log(1.0 / epsilon))


def greedy_rounds(k: int, epsilon: float) -> int:
    """``q = ceil(k ln(1/eps))`` — greedy iterations (Theorem 1 proof)."""
    check_k(k)
    check_epsilon(epsilon)
    return max(1, math.ceil(k * math.log(1.0 / epsilon)))


def _odd_at_least(value: float, minimum: int) -> int:
    """Round up to an odd integer >= minimum (medians want odd r)."""
    result = max(minimum, math.ceil(value))
    if result % 2 == 0:
        result += 1
    return result


@dataclass(frozen=True)
class GreedyParams:
    """Resolved sample sizes for the greedy learner (Algorithm 1).

    Attributes
    ----------
    weight_sample_size:
        ``ell`` — size of the single weight-estimation sample ``S``.
    collision_sets:
        ``r`` — number of independent collision sample sets.
    collision_set_size:
        ``m`` — size of each collision set; at least 2, since a set of
        one holds ``C(1, 2) = 0`` pairs and every ``z`` would be ``0/0``.
    rounds:
        ``q`` — greedy iterations.
    scale:
        The scale the sizes were derived with (for reporting).
    """

    weight_sample_size: int
    collision_sets: int
    collision_set_size: int
    rounds: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        check_size("weight_sample_size", self.weight_sample_size, 1)
        check_size("collision_sets", self.collision_sets, 1)
        check_size("collision_set_size", self.collision_set_size, 2)
        check_size("rounds", self.rounds, 1)

    @property
    def total_samples(self) -> int:
        """Total samples the learner draws."""
        return self.weight_sample_size + self.collision_sets * self.collision_set_size

    @classmethod
    def from_paper(
        cls, n: int, k: int, epsilon: float, scale: float = 1.0
    ) -> "GreedyParams":
        """Algorithm 1's sizes: ``ell = ln(12 n^2)/(2 xi^2)``,
        ``r = ln(6 n^2)``, ``m = 24 / xi^2``, ``q = k ln(1/eps)``."""
        _validate_common(n, epsilon)
        check_k(k)
        _validate_scale(scale)
        accuracy = xi(k, epsilon)
        ell = math.ceil(scale * math.log(12 * n * n) / (2 * accuracy**2))
        sets = _odd_at_least(math.log(6 * n * n), 3)
        set_size = math.ceil(scale * 24 / accuracy**2)
        return cls(
            weight_sample_size=max(ell, 16),
            collision_sets=sets,
            collision_set_size=max(set_size, 16),
            rounds=greedy_rounds(k, epsilon),
            scale=scale,
        )


@dataclass(frozen=True)
class TesterParams:
    """Resolved sample sizes for the tiling k-histogram testers.

    Attributes
    ----------
    num_sets:
        ``r = 16 ln(6 n^2)`` independent sample sets.
    set_size:
        ``m`` — per-set sample count (norm-dependent, see constructors).
    scale:
        The scale the sizes were derived with (for reporting).
    """

    __test__ = False  # not a pytest class, despite the name

    num_sets: int
    set_size: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        check_size("num_sets", self.num_sets, 1)
        check_size("set_size", self.set_size, 2)

    @property
    def total_samples(self) -> int:
        """Total samples the tester draws."""
        return self.num_sets * self.set_size

    @classmethod
    def l2_from_paper(
        cls, n: int, epsilon: float, scale: float = 1.0
    ) -> "TesterParams":
        """Theorem 3: ``r = 16 ln(6 n^2)``, ``m = 64 ln(n) / eps^4``."""
        _validate_common(n, epsilon)
        _validate_scale(scale)
        sets = _odd_at_least(16 * math.log(6 * n * n), 3)
        set_size = math.ceil(scale * 64 * math.log(max(n, 2)) / epsilon**4)
        return cls(num_sets=sets, set_size=max(set_size, 16), scale=scale)

    @classmethod
    def l1_from_paper(
        cls, n: int, k: int, epsilon: float, scale: float = 1.0
    ) -> "TesterParams":
        """Theorem 4: ``r = 16 ln(6 n^2)``, ``m = 2^13 sqrt(kn) / eps^5``."""
        _validate_common(n, epsilon)
        check_k(k)
        _validate_scale(scale)
        sets = _odd_at_least(16 * math.log(6 * n * n), 3)
        set_size = math.ceil(scale * (2**13) * math.sqrt(k * n) / epsilon**5)
        return cls(num_sets=sets, set_size=max(set_size, 16), scale=scale)


def flatness_l1_min_hits(length: int, epsilon: float) -> float:
    """``testFlatness-l1`` step 1: ``|S^i_I| >= 16^3 sqrt(|I|) / eps^4``.

    Derived in the Theorem 4 proof from ``|S_I| >= 16 sqrt(|I|) / delta^2``
    with ``delta = eps^2 / 16``.
    """
    if length < 1:
        raise InvalidParameterError(f"interval length must be >= 1, got {length}")
    if not 0.0 < epsilon < 1.0:
        raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    return (16**3) * math.sqrt(length) / epsilon**4
