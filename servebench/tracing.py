"""Outside-in span tracing: wrappers around each layer's public entry points.

A :class:`Tracer` replaces layer entry points with timing wrappers
(instance attributes on one service's objects, module attributes in
``repro.api.fleet``, class attributes on the sketch classes) and puts
every original back by identity in :meth:`Tracer.remove`.  Nothing in
``src/`` changes, and an untraced run installs nothing.

Each span records its name, start, end and parent span; parents come
from synchronous call nesting.  Request spans (submit or due time to
response) carry the request's trace index and have no parent, because a
request is served inside the collector task, not inside its caller.
Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

import repro.api.fleet as api_fleet
from repro.api.sketches import SketchBundle
from repro.core.flatness import FleetTesterSketches


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root span
    index: int = -1  # trace index, request spans only
    counts: dict = field(default_factory=dict)  # work done, by counter name

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Maintainer methods, by the span name (and per-layer metric) they feed.
_MAINTAINER = {
    "update_many": "maintainer.ingest",
    "histograms_for": "maintainer.rebuild",
    "learn": "maintainer.learn",
    "test": "maintainer.probe",
    "min_k": "maintainer.probe",
    "uniformity": "maintainer.probe",
    "identity": "maintainer.probe",
}
_FLEET = {
    "learn": "fleet.learn",
    "test_l1": "fleet.test",
    "test_l2": "fleet.test",
    "min_k": "fleet.min_k",
}
#: ``repro.api.fleet`` module attributes: the ``repro.core`` entry points
#: the fleet's batch ops call.
_CORE = {
    "compile_greedy_sketches": "greedy.compile",
    "lockstep_learn": "lockstep.learn",
    "fleet_test_on_sketches": "tester.search",
    "select_min_k_on_fleet": "selection.min_k",
}


def _result_size(args, kwargs, result) -> int:
    return len(result)


class Tracer:
    """Collects spans from wrapped layer entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -------------------------------------------------------------- #
    # wrapping
    # -------------------------------------------------------------- #

    def wrap(self, name: str, fn, counts=None, gauges=None):
        """``fn`` recording one span per call.

        ``counts`` maps a counter name to ``f(args, kwargs, result)``,
        the call's work; ``gauges`` maps a counter name to ``f()``, read
        before and after the call, whose increase is the work.
        """
        spans, stack = self.spans, self._stack
        counts = counts or {}
        gauges = gauges or {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            before = {key: gauge() for key, gauge in gauges.items()}
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            for key, gauge in gauges.items():
                span.counts[key] = gauge() - before[key]
            for key, count in counts.items():
                span.counts[key] = count(args, kwargs, result)
            return result

        return traced

    def patch(self, target: object, attr: str, name: str, counts=None, gauges=None):
        """Replace ``target.attr`` with a traced wrapper until :meth:`remove`."""
        own = attr in vars(target)
        original = vars(target)[attr] if own else getattr(target, attr)
        self._patches.append((target, attr, original, own))
        setattr(target, attr, self.wrap(name, original, counts, gauges))

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            target, attr, original, own = self._patches.pop()
            if own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)

    def install(self, service) -> None:
        """Wrap every traced layer of ``service`` and the shared modules."""
        maintainer = service.maintainer
        fleet = maintainer.fleet
        self.patch(
            service, "checkpoint", "service.checkpoint",
            counts={"bytes": lambda args, kwargs, path: os.path.getsize(path)},
        )
        for attr, name in _MAINTAINER.items():
            gauges = None
            if attr == "histograms_for":
                gauges = {"rebuilds": lambda: maintainer.rebuilds}
            self.patch(maintainer, attr, name, gauges=gauges)
        for member in range(fleet.size):
            self.patch(
                fleet.session(member).source, "update_many", "reservoir.ingest",
                counts={"items": lambda args, kwargs, result: len(args[0])},
            )
        for attr, name in _FLEET.items():
            self.patch(
                fleet, attr, name,
                counts={"members": _result_size},
                gauges={"samples": lambda: sum(fleet.samples_drawn)},
            )
        for attr, name in _CORE.items():
            counts = {"members": _result_size} if attr == "lockstep_learn" else None
            self.patch(api_fleet, attr, name, counts=counts)
        self.patch(SketchBundle, "ensure_learn_pool", "sketches.pool")
        self.patch(SketchBundle, "ensure_tester_pool", "sketches.pool")
        self.patch(FleetTesterSketches, "compile_member", "flatness.compile")

    # -------------------------------------------------------------- #
    # requests and summaries
    # -------------------------------------------------------------- #

    def add_requests(self, records) -> None:
        """One root span per driven request, tagged with its trace index."""
        for index, (start, end) in enumerate(zip(records.start, records.end)):
            self.spans.append(Span("request", float(start), float(end), index=index))

    def children_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return covered

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds, self seconds, summed counts.

        Busy time counts only outermost spans of a name (a recursive call
        is not counted twice); self time is a span's duration minus the
        time its direct children cover.
        """
        covered = self.children_time()
        table: dict[str, dict] = {}
        for position, span in enumerate(self.spans):
            row = table.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += span.duration - covered[position]
            for key, value in span.counts.items():
                row[key] = row.get(key, 0) + value
            if not self._has_ancestor(span, span.name):
                row["busy_s"] += span.duration
        return table

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False
