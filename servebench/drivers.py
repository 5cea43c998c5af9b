"""Closed-loop and open-loop request drivers.

Both drivers admit requests in trace order: a driver takes the next
event and enters :meth:`HistogramService.submit` without yielding to the
event loop in between (the open-loop driver starts one task per request,
and tasks start in creation order), so coalescing and the response cache
see the same admission order as a request-at-a-time replay — the
property the digest gate checks.

Each driver returns a :class:`Records` with one entry per event, in
trace order.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import OverloadedError
from repro.serving import HistogramService

#: Overload retries back off as ``repro.serving.replay`` does: the
#: advertised ``retry_after`` doubled per attempt (capped at 32x) times
#: a seeded jitter.
MAX_RETRIES = 8
_BACKOFF_CAP = 5


@dataclass
class Records:
    """Per-event outcomes of one driven trace, in trace order."""

    responses: list
    start: np.ndarray  # perf_counter seconds the latency clock started
    end: np.ndarray  # perf_counter seconds the response arrived
    lag: list = field(default_factory=list)  # driver lateness, seconds
    retries: int = 0

    @property
    def latency(self) -> np.ndarray:
        return self.end - self.start

    @property
    def failed(self) -> int:
        """Error responses plus requests that ran out of overload retries."""
        return sum(response is None or not response.ok for response in self.responses)

    @classmethod
    def concat(cls, parts: "list[Records]") -> "Records":
        """Consecutive segments' records as one, in trace order."""
        return cls(
            [response for part in parts for response in part.responses],
            np.concatenate([part.start for part in parts]),
            np.concatenate([part.end for part in parts]),
            [lag for part in parts for lag in part.lag],
            sum(part.retries for part in parts),
        )


async def _submit(service, request, rng, records: Records):
    """``service.submit`` with seeded exponential overload backoff."""
    attempts = 0
    while True:
        try:
            return await service.submit(request)
        except OverloadedError as exc:
            if attempts >= MAX_RETRIES:
                return None
            delay = exc.retry_after * 2.0 ** min(attempts, _BACKOFF_CAP)
            attempts += 1
            records.retries += 1
            await asyncio.sleep(delay * (0.5 + rng.random()))


def _empty(count: int) -> Records:
    return Records([None] * count, np.zeros(count), np.zeros(count))


async def closed_loop(
    service: HistogramService, events: list, clients: int, *, seed: int = 0
) -> Records:
    """``clients`` callers share ``events`` in order, each awaiting its reply.

    Latency runs from submit to response.  ``lag`` is how long a caller
    took, after its previous reply arrived, to submit its next request.
    """
    records = _empty(len(events))
    rng = np.random.default_rng(seed)
    cursor = 0

    async def client() -> None:
        nonlocal cursor
        replied = None
        while cursor < len(events):
            index = cursor
            cursor += 1
            request = events[index][1]
            started = time.perf_counter()
            if replied is not None:
                records.lag.append(started - replied)
            records.start[index] = started
            records.responses[index] = await _submit(service, request, rng, records)
            replied = records.end[index] = time.perf_counter()

    await asyncio.gather(*(client() for _ in range(min(clients, len(events)))))
    return records


async def open_loop(
    service: HistogramService, events: list, rate_rps: float, *, seed: int = 0
) -> Records:
    """Submit ``events`` on a schedule whose mean rate is ``rate_rps``.

    Trace timestamps are rescaled so the span of the trace lasts
    ``len(events) / rate_rps`` seconds.  Latency runs from each request's
    due time, so a stall also counts against every request that fell due
    during it; ``lag`` is how late each submit ran behind its due time.
    """
    records = _empty(len(events))
    rng = np.random.default_rng(seed)
    first = events[0][0]
    span = max(events[-1][0] - first, 1e-9)
    scale = len(events) / rate_rps / span
    tasks = []

    async def one(index: int, due: float, request) -> None:
        records.lag.append(time.perf_counter() - due)
        records.responses[index] = await _submit(service, request, rng, records)
        records.end[index] = time.perf_counter()

    origin = time.perf_counter()
    for index, (at_us, request) in enumerate(events):
        due = origin + (at_us - first) * scale
        records.start[index] = due
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.get_running_loop().create_task(one(index, due, request)))
    await asyncio.gather(*tasks)
    return records
