"""Tests of the serving benchmark itself, on smoke-sized workloads.

Run from the repository root::

    python3 -m pytest servebench/tests -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import bench  # noqa: E402
import repro.api.fleet as api_fleet  # noqa: E402
from repro.api.sketches import SketchBundle  # noqa: E402
from repro.core.flatness import FleetTesterSketches  # noqa: E402
from repro.serving import replay  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, build_service, build_trace, with_seed  # noqa: E402

NAMES = sorted(WORKLOADS)


def _smoke(name: str, seed: int = 3):
    """A seconds-sized version of the named workload: 8 streams, 96 requests."""
    workload = WORKLOADS[name]
    trace = dataclasses.replace(
        workload.trace,
        seed=seed,
        streams=8,
        requests=96,
        warmup_batch=min(workload.trace.warmup_batch or 64, 512),
    )
    return dataclasses.replace(workload, trace=trace)


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_passes_digest_gate(name):
    run = asyncio.run(bench.measure(_smoke(name), 0.0, traced=False))
    assert run.rounds and not run.traced_rounds
    assert run.mismatches == 0
    assert all(one.digest == run.reference and one.failed == 0 for one in run.rounds)


def test_digest_depends_on_response_order():
    workload = _smoke("storm")
    warm, timed = build_trace(workload)

    async def responses():
        async with build_service(workload, reference=True) as service:
            report = await replay(service, warm + timed, clients=1, collect=True)
        return list(report.responses)

    answers = asyncio.run(responses())
    reference = asyncio.run(bench.reference_digest(workload, warm, timed))
    assert bench.digest(answers) == reference
    first = next(i for i, answer in enumerate(answers) if answer.op == "test")
    second = next(i for i, answer in enumerate(answers) if answer.op == "min_k")
    answers[first], answers[second] = answers[second], answers[first]
    assert bench.digest(answers) != reference


def test_tracer_restores_originals_by_identity():
    workload = _smoke("relearn")
    service = build_service(workload)
    maintainer = service.maintainer
    fleet = maintainer.fleet
    reservoir = fleet.session(0).source
    shared = [
        (api_fleet, "lockstep_learn", api_fleet.lockstep_learn),
        (api_fleet, "fleet_test_on_sketches", api_fleet.fleet_test_on_sketches),
        (SketchBundle, "ensure_tester_pool", SketchBundle.ensure_tester_pool),
        (FleetTesterSketches, "compile_member", FleetTesterSketches.compile_member),
    ]
    tracer = Tracer()
    tracer.install(service)
    assert "checkpoint" in vars(service) and "learn" in vars(fleet)
    assert "update_many" in vars(reservoir) and "histograms_for" in vars(maintainer)
    assert all(getattr(target, attr) is not original for target, attr, original in shared)
    tracer.remove()
    assert "checkpoint" not in vars(service) and "learn" not in vars(fleet)
    assert "update_many" not in vars(reservoir) and "histograms_for" not in vars(maintainer)
    assert service.checkpoint.__func__ is type(service).checkpoint
    assert all(getattr(target, attr) is original for target, attr, original in shared)


@pytest.mark.parametrize("name", NAMES)
def test_child_busy_time_never_exceeds_parent(name):
    run = asyncio.run(bench.measure(_smoke(name), 0.0, traced=True))
    tracer = run.tracer
    assert run.traced_rounds and tracer.spans
    covered = tracer.children_time()
    assert all(covered[i] <= span.duration for i, span in enumerate(tracer.spans))
    for span in tracer.spans:
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    table = tracer.layers()
    for outer, inner in (
        ("maintainer.probe", "fleet.test"),
        ("fleet.min_k", "selection.min_k"),
        ("fleet.learn", "lockstep.learn"),
    ):
        if inner in table:
            assert table[inner]["busy_s"] <= table[outer]["busy_s"]


def test_timings_are_scaled_to_nominal_host_speed():
    assert bench.host_scale(bench.PROBE_NOMINAL_S, bench.PROBE_NOMINAL_S) == 1.0
    assert bench.host_scale(bench.PROBE_NOMINAL_S, 3 * bench.PROBE_NOMINAL_S) == 0.5
    assert bench.probe() > 0
    part = bench.Segment(
        span_s=2.0, reads=np.array([10.0, 30.0]), writes=np.array([20.0]), scale=0.5
    )
    one = bench.Round(0.25, segments=[part], samples=6, non_ingest=2)
    metrics = bench.end_to_end([one], [bench.Round(0.75)])
    assert metrics["throughput_rps"][:3:2] == (3.0, 3)
    assert metrics["read_p50_us"][0] == 10.0 and metrics["read_p99_us"][0] == 14.9
    assert metrics["write_p50_us"][0] == 10.0
    assert metrics["setup_s"][0] == 0.5 and metrics["samples_per_answer"][0] == 3.0


def test_samples_per_answer_repeats_exactly():
    workload = _smoke("relearn")
    values = []
    for _ in range(2):
        run = asyncio.run(bench.measure(workload, 0.0, traced=False))
        values.append(bench.end_to_end(run.rounds, run.setups)["samples_per_answer"][0])
    assert values[0] == values[1] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_declared_metric(trace, monkeypatch, capsys):
    monkeypatch.setitem(bench.WORKLOADS, "requery", _smoke("requery"))
    assert bench.main(["--workload", "requery", "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {entry["name"]: entry["unit"] for entry in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
