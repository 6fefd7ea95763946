"""A serving parent's memory scales with the programs in flight.

Planning function units reads a per-process function index (names and
weights) and keeps no compiled module; a served job sums each
program's per-spec statistics as its units arrive and holds only the
units' detections.  Neither may change a unit, the service order, a
weight, a report or the statistics a program reports.
"""

import json

import pytest

import repro.pipeline.shard as shard_module
from repro.pipeline import (
    PipelineOptions,
    ServingEngine,
    WorkUnit,
    detect_corpus,
    lpt_order,
    plan_units,
    unit_weight,
)
from repro.workloads import all_programs, corpus_keys, program
from repro.workloads.corpus import clear_cache
from repro.workloads.spec import BenchmarkProgram

KEYS = corpus_keys()


def reference_plan(keys):
    """Function units and their weights, from one fresh compile each."""
    units, weights = [], {}
    for name, suite in keys:
        module = program(name, suite).fresh_module()
        functions = list(module.defined_functions())
        if not functions:
            unit = WorkUnit(name, suite)
            units.append(unit)
            weights[unit] = float(len(program(name, suite).source))
        for i, function in enumerate(functions):
            unit = WorkUnit(name, suite, function=function.name,
                            lead=(i == 0))
            units.append(unit)
            weights[unit] = float(
                1 + sum(1 for _ in function.instructions())
            )
    return units, weights


@pytest.fixture
def cold_planner(monkeypatch):
    """Fresh corpus programs and empty planning caches, with the
    programs' cached ``compile()`` made to fail in this process."""
    clear_cache()
    shard_module._function_index.cache_clear()
    shard_module._weight.cache_clear()

    def no_compile(self):
        raise AssertionError(f"{self.name}: planning compiled and kept IR")

    monkeypatch.setattr(BenchmarkProgram, "compile", no_compile)
    yield
    clear_cache()


def test_planning_keeps_no_ir(cold_planner):
    units = lpt_order(plan_units(KEYS, "function"))
    assert len(units) > len(KEYS)
    options = PipelineOptions(jobs=1, granularity="function")
    with ServingEngine(options) as engine:
        report = engine.serve(KEYS)
    assert len(report.programs) == len(KEYS)
    assert all(p._module is None for p in all_programs())


def test_planning_is_unchanged(cold_planner):
    expected_units, weights = reference_plan(KEYS)
    units = plan_units(KEYS, "function")
    assert units == expected_units
    assert [unit_weight(u) for u in units] \
        == [weights[u] for u in expected_units]
    assert lpt_order(units) == sorted(
        expected_units, key=weights.__getitem__, reverse=True
    )
    whole = plan_units(KEYS, "program")
    assert [unit_weight(u) for u in whole] == [
        float(len(program(name, suite).source)) for name, suite in KEYS
    ]


def test_no_unit_stats_held_mid_batch():
    options = PipelineOptions(jobs=1, granularity="function")
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS)
        next(job.stream())
        held = [unit for units in job._by_key.values() for unit in units]
        sums = dict(job._spec_sums)
        job.cancel()
    assert held, "no program was in flight after the first one streamed"
    assert all(unit.spec_stats == {} for unit in held)
    # The running per-program sums hold the statistics instead.
    assert set(sums) == {unit.key for unit in held}
    assert all(sums.values())


def spec_stats_json(report) -> dict:
    return {
        digest.key: json.dumps(
            {name: stats.to_jsonable()
             for name, stats in digest.spec_stats.items()},
            sort_keys=True,
        )
        for digest in report.programs
    }


def test_served_sums_match_the_serial_ones():
    serial = detect_corpus(jobs=1, extended=True, granularity="function")
    options = PipelineOptions(jobs=1, extended=True, granularity="function")
    with ServingEngine(options) as engine:
        served = engine.serve(KEYS)
    assert served.fingerprint() == serial.fingerprint()
    assert spec_stats_json(served) == spec_stats_json(serial)
