"""Uniform reservoir sampling (Vitter's Algorithm R).

Maintains a uniform-without-replacement sample of a stream in O(1) per
item; the streaming histogram maintainer uses it as the sample source
for periodic greedy rebuilds.

:meth:`ReservoirSampler.update` is the per-item reference path.
:meth:`ReservoirSampler.update_many` absorbs a batch in one vectorised
pass of the same algorithm on the same rng stream: numpy's broadcast
bounded draw ``integers(0, highs)`` consumes the generator exactly as
one scalar ``integers(0, high)`` per item does, so a batch leaves the
reservoir contents, ``seen`` and the generator state byte-identical to
a loop of :meth:`~ReservoirSampler.update` over the same items.

Stream items are integers: both paths raise
:class:`~repro.errors.InvalidParameterError` for floats, bools and NaN
instead of truncating them.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import is_integer
from repro.errors import InvalidParameterError
from repro.utils.rng import as_rng


class ReservoirSampler:
    """A fixed-capacity uniform sample over everything seen so far.

    After ``t`` updates, each of the ``t`` stream items is present in the
    reservoir with probability ``capacity / t`` (exactly, by induction) —
    the classical Algorithm R invariant.
    """

    def __init__(
        self,
        capacity: int,
        rng: "int | None | np.random.Generator" = None,
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._rng = as_rng(rng)
        self._items = np.empty(capacity, dtype=np.int64)
        self._seen = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained items."""
        return self._capacity

    @property
    def seen(self) -> int:
        """Total stream items observed."""
        return self._seen

    @property
    def size(self) -> int:
        """Items currently held (``min(seen, capacity)``)."""
        return min(self._seen, self._capacity)

    def update(self, value: int) -> None:
        """Observe one stream item."""
        if not is_integer(value):
            raise InvalidParameterError(
                f"stream item must be an integer, got {value!r} "
                f"({type(value).__name__})"
            )
        if self._seen < self._capacity:
            self._items[self._seen] = value
        else:
            slot = int(self._rng.integers(0, self._seen + 1))
            if slot < self._capacity:
                self._items[slot] = value
        self._seen += 1

    def update_many(self, values: np.ndarray) -> None:
        """Observe a batch in order, as a loop of :meth:`update` would.

        ``values`` is ravelled.  A batch whose dtype is not integer
        raises :class:`InvalidParameterError` before any item is
        absorbed.
        """
        values = np.asarray(values).ravel()
        if values.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"stream batch dtype must be integer, got {values.dtype}"
            )
        seen, capacity = self._seen, self._capacity
        # Fill phase: the free slots take the head of the batch verbatim.
        fill = min(values.size, max(capacity - seen, 0))
        if fill:
            self._items[seen : seen + fill] = values[:fill]
            seen += fill
        rest = values[fill:]
        if rest.size:
            # Replace phase: the i-th remaining item draws its slot from
            # [0, seen + i], one bounded draw each, all in one call.
            slots = self._rng.integers(0, np.arange(seen + 1, seen + 1 + rest.size))
            kept = np.flatnonzero(slots < capacity)
            if kept.size:
                # A slot drawn twice must hold its last write.  A stable
                # sort groups equal slots in batch order; the last of
                # each group is the write that survives.
                order = kept[slots[kept].argsort(kind="stable")]
                slots = slots[order]
                last = np.append(slots[1:] != slots[:-1], True)
                self._items[slots[last]] = rest[order[last]]
        self._seen += int(values.size)

    def contents(self) -> np.ndarray:
        """A copy of the current reservoir contents."""
        return self._items[: self.size].copy()

    def sample(
        self, size: int, rng: "int | None | np.random.Generator" = None
    ) -> np.ndarray:
        """Draw ``size`` items i.i.d. (with replacement) from the reservoir.

        This is the bootstrap view the greedy learner consumes: the
        reservoir approximates the stream's empirical distribution, and
        with-replacement draws from it approximate fresh stream samples.
        """
        if self.size == 0:
            raise InvalidParameterError("cannot sample from an empty reservoir")
        generator = as_rng(rng if rng is not None else self._rng)
        idx = generator.integers(0, self.size, size=size)
        return self._items[idx]
