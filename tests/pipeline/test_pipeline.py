"""Tests for the corpus-scale detection pipeline.

The determinism contract: a parallel run (``jobs>1``) must produce a
report *identical* — same digests, same fingerprint — to the serial
run, for any worker count and any program subset; and the shared-cache
engine must find exactly the detections of the per-call-cache PR-1
engine, with strictly less search effort.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idioms import find_extended_reductions, find_reductions
from repro.pipeline import (
    PipelineOptions,
    WorkUnit,
    assemble_program,
    detect_corpus,
    detect_unit,
    digest_extensions,
    digest_report,
    lpt_order,
    merge_unit_digests,
    plan_units,
    report_from_json,
    report_to_json,
    run_unit_shard,
    unit_weight,
)
from repro.workloads import corpus_keys, program

KEYS = corpus_keys()


# -- keys and the service order ----------------------------------------------


def test_corpus_keys_cover_the_40_programs():
    assert len(KEYS) == 40
    assert len(set(KEYS)) == 40


def test_lpt_order_evaluates_weight_once_per_key(monkeypatch):
    """``unit_weight`` loads and may compile programs, so
    ``lpt_order`` must call it once per unit per invocation, not once
    per sort comparison.  Heaviest first; equal weights (many names
    share a length) keep their input order."""
    import repro.pipeline.shard as shard_module

    calls = []

    def counting_weight(unit):
        calls.append(unit.key)
        return float(len(unit.name))

    monkeypatch.setattr(shard_module, "unit_weight", counting_weight)
    units = plan_units(KEYS, "program")
    ordered = lpt_order(units)
    assert sorted(calls) == sorted(KEYS)
    assert ordered == [
        units[i] for i in sorted(
            range(len(units)), key=lambda i: (-len(units[i].name), i)
        )
    ]


# -- work units and weights ---------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_duplicate_corpus_keys_run_once_in_first_occurrence_order(jobs):
    """A repeated key is detected once, at its first position, whether
    the run stays in-process or goes to a serving session."""
    keys = [KEYS[1], KEYS[0], KEYS[1], KEYS[2], KEYS[0]]
    report = detect_corpus(jobs=jobs, keys=keys)
    assert [d.key for d in report.programs] == [KEYS[1], KEYS[0], KEYS[2]]
    assert report.programs == detect_corpus(
        jobs=1, keys=[KEYS[1], KEYS[0], KEYS[2]]
    ).programs


def test_plan_units_program_granularity_is_one_unit_per_key():
    units = plan_units(KEYS, "program")
    assert [u.key for u in units] == KEYS
    assert all(u.function is None and u.lead for u in units)


def test_plan_units_function_granularity_covers_every_function():
    units = plan_units(KEYS, "function")
    assert len(units) > len(KEYS)
    by_key = {}
    for unit in units:
        by_key.setdefault(unit.key, []).append(unit)
    for key, key_units in by_key.items():
        module = program(*key).compile()
        defined = [f.name for f in module.defined_functions()]
        if len(key_units) == 1 and key_units[0].function is None:
            continue  # no defined functions, stays whole
        assert [u.function for u in key_units] == defined
        # Exactly one lead unit per program carries the baselines.
        assert [u.lead for u in key_units].count(True) == 1
        assert key_units[0].lead


def test_plan_units_rejects_unknown_granularity():
    with pytest.raises(ValueError, match="granularity"):
        plan_units(KEYS, "module")


def test_unit_weight_static_proxies():
    whole = WorkUnit(*KEYS[0])
    assert unit_weight(whole) == len(program(*KEYS[0]).source)
    units = plan_units(KEYS[:1], "function")
    if units[0].function is not None:
        assert all(unit_weight(u) > 0 for u in units)


# -- per-worker module cache --------------------------------------------------


def test_module_cache_evicts_least_recently_used():
    from repro.pipeline.worker import ModuleCache

    cache = ModuleCache(max_entries=2)
    key_a, key_b, key_c = KEYS[:3]
    module_a, seconds_a = cache.module(key_a)
    assert seconds_a > 0  # the miss is charged to this call
    cache.module(key_b)
    assert cache.keys() == [key_a, key_b]
    # A hit returns the same object for free and refreshes recency.
    hit, seconds_hit = cache.module(key_a)
    assert hit is module_a
    assert seconds_hit == 0.0
    assert cache.keys() == [key_b, key_a]
    # The third module evicts the now-least-recently-used key_b.
    cache.module(key_c)
    assert cache.keys() == [key_a, key_c]
    assert len(cache) == 2
    # The evicted module is recompiled on the next touch.
    _, seconds_again = cache.module(key_b)
    assert seconds_again > 0


def test_module_cache_unbounded_by_default():
    from repro.pipeline.worker import ModuleCache

    cache = ModuleCache()
    for key in KEYS[:5]:
        cache.module(key)
    assert len(cache) == 5


def test_module_cache_rejects_bad_bound():
    from repro.pipeline.worker import ModuleCache

    with pytest.raises(ValueError, match="max_entries"):
        ModuleCache(max_entries=0)


def test_options_validate_cache_and_budget_bounds():
    with pytest.raises(ValueError, match="module_cache_size"):
        PipelineOptions(module_cache_size=0)
    with pytest.raises(ValueError, match="gateway_unit_budget"):
        PipelineOptions(gateway_unit_budget=0)


def test_default_jobs_counts_the_usable_cpus(monkeypatch):
    import os

    from repro.pipeline import default_jobs

    for mask, expected in (({0}, 1), ({0, 1, 2}, 3), (set(), 1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask,
                            raising=False)
        assert default_jobs() == expected
    # Without an affinity call, every CPU the machine reports counts.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, expected in ((4, 4), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert default_jobs() == expected


def test_bounded_module_cache_never_changes_digests():
    """Eviction is recompute cost only: the tightest possible cache
    (one module per worker) produces byte-identical digests."""
    from repro.pipeline import ServingEngine

    serial = detect_corpus(jobs=1, keys=KEYS[:4])
    with ServingEngine(
        PipelineOptions(jobs=2, granularity="function",
                        module_cache_size=1)
    ) as engine:
        bounded = engine.serve(KEYS[:4])
    assert bounded.programs == serial.programs
    assert bounded.fingerprint() == serial.fingerprint()


# -- unit digests and assembly ------------------------------------------------


def test_function_units_assemble_to_the_program_digest():
    """Per-function unit digests reassemble byte-for-byte into the
    whole-program digest — functions in module order, extension matches
    regrouped, baselines from the lead unit."""
    options = PipelineOptions(extended=True, baselines=True)
    for key in [("EP", "NAS"), ("histo", "Parboil"), ("kmeans", "Rodinia")]:
        whole = assemble_program(run_unit_shard([WorkUnit(*key)], options))
        units = plan_units([key], "function")
        unit_digests = run_unit_shard(units, options)
        assembled = assemble_program(unit_digests)
        assert assembled == whole
        assert assembled.stage_seconds.keys() >= {"detect"}


def test_assemble_program_rejects_incomplete_and_mixed_units():
    options = PipelineOptions()
    units = plan_units([("EP", "NAS")], "function")
    digests = run_unit_shard(units, options)
    if len(digests) > 1:
        with pytest.raises(ValueError, match="exactly once"):
            assemble_program(digests[:-1])
        with pytest.raises(ValueError, match="exactly once"):
            assemble_program(digests + [digests[0]])
    other = run_unit_shard(plan_units([("IS", "NAS")], "function"),
                           options)
    with pytest.raises(ValueError, match="mixed"):
        assemble_program([digests[0], other[0]])
    with pytest.raises(ValueError, match="no units"):
        assemble_program([])


def test_merge_unit_digests_checks_duplicates_and_coverage():
    options = PipelineOptions()
    units = plan_units(KEYS[:2], "function")
    digests = run_unit_shard(units, options)
    merged = merge_unit_digests([digests], KEYS[:2])
    assert [d.key for d in merged] == KEYS[:2]
    with pytest.raises(ValueError, match="two shards"):
        merge_unit_digests([digests, digests], KEYS[:2])
    with pytest.raises(ValueError, match="no result"):
        merge_unit_digests([digests], KEYS[:3])
    with pytest.raises(ValueError, match="unrequested"):
        merge_unit_digests([digests], KEYS[:1])


def test_stage_seconds_sum_across_assembled_units():
    """Timing metadata survives the checked merge — summed per stage —
    without perturbing digest equality (satellite audit)."""
    options = PipelineOptions()
    units = plan_units([("EP", "NAS")], "function")
    digests = run_unit_shard(units, options)
    assembled = assemble_program(digests)
    for stage in ("compile", "detect"):
        expected = sum(d.stage_seconds.get(stage, 0.0) for d in digests)
        assert assembled.stage_seconds.get(stage, 0.0) == pytest.approx(
            expected
        )
    # compare=False: a digest with different timings is still equal.
    bare = assembled.__class__(
        name=assembled.name, suite=assembled.suite,
        functions=assembled.functions, extended=assembled.extended,
        icc=assembled.icc, polly_scops=assembled.polly_scops,
        polly_reductions=assembled.polly_reductions, stage_seconds={},
    )
    assert bare == assembled


# -- JSON round trip ----------------------------------------------------------


def test_report_json_round_trip_preserves_fingerprint():
    report = detect_corpus(jobs=1, extended=True, baselines=True,
                           keys=KEYS[:4])
    data = report_to_json(report)
    rebuilt = report_from_json(data)
    assert rebuilt.programs == report.programs
    assert rebuilt.fingerprint() == report.fingerprint()
    # Timing metadata (excluded from the fingerprint) survives too.
    for original, copied in zip(report.programs, rebuilt.programs):
        assert copied.stage_seconds == original.stage_seconds


def test_saved_report_file_round_trips(tmp_path):
    """``save_report`` writes the compact JSON of ``report_to_json``,
    which ``load_report`` reads back to the same report, fingerprint
    verified."""
    import json

    from repro.pipeline import load_report, save_report

    report = detect_corpus(jobs=1, extended=True, baselines=True,
                           keys=KEYS[:4])
    path = tmp_path / "report.json"
    save_report(report, str(path))
    assert path.read_text() == json.dumps(
        report_to_json(report), separators=(",", ":")) + "\n"
    loaded = load_report(str(path))
    assert loaded.programs == report.programs
    assert loaded.fingerprint() == report.fingerprint()
    assert (loaded.jobs, loaded.wall_seconds, loaded.failures) \
        == (report.jobs, report.wall_seconds, report.failures)
    for original, copied in zip(report.programs, loaded.programs):
        assert copied.stage_seconds == original.stage_seconds


def test_report_json_rejects_tampered_contents():
    report = detect_corpus(jobs=1, keys=KEYS[:2])
    data = report_to_json(report)
    data["programs"][0]["functions"] = []
    with pytest.raises(ValueError, match="fingerprint"):
        report_from_json(data)


# -- per-program digests ------------------------------------------------------


def _digests(keys):
    options = PipelineOptions()
    return [
        assemble_program(run_unit_shard([WorkUnit(*key)], options))
        for key in keys
    ]


# -- determinism: jobs=1 ≡ jobs=N --------------------------------------------


def test_parallel_corpus_detection_identical_to_serial():
    """The acceptance criterion: over all 40 corpus programs, a
    sharded run merges to a report byte-identical to the serial one."""
    serial = detect_corpus(jobs=1, extended=True, baselines=True)
    parallel = detect_corpus(jobs=2, extended=True, baselines=True)
    assert serial.programs == parallel.programs
    assert serial.fingerprint() == parallel.fingerprint()
    assert serial.counts() == (84, 6)


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_any_shard_count_and_subset_is_deterministic(data):
    """Property form: any jobs>=2 and any corpus subset produce the
    serial report exactly."""
    keys = data.draw(
        st.lists(st.sampled_from(KEYS), min_size=1, max_size=6,
                 unique=True),
        label="keys",
    )
    keys.sort(key=KEYS.index)
    jobs = data.draw(st.integers(min_value=2, max_value=8), label="jobs")
    serial = detect_corpus(jobs=1, keys=keys)
    parallel = detect_corpus(jobs=jobs, keys=keys)
    assert serial.programs == parallel.programs
    assert serial.fingerprint() == parallel.fingerprint()


# -- digests match the in-process drivers -------------------------------------


def test_program_digests_match_find_reductions():
    """The pipeline digest of a program equals digesting a plain
    ``find_reductions`` run — the pipeline adds sharding and caching,
    never different detections."""
    for key in [("EP", "NAS"), ("histo", "Parboil"), ("kmeans", "Rodinia")]:
        bench = program(*key)
        module = bench.fresh_module()
        expected_functions = digest_report(find_reductions(module))
        digest = _digests([key])[0]
        # Search-effort counters depend on cache state, so compare the
        # detections themselves.
        strip = lambda fns: [
            (f.function, f.scalars, f.histograms) for f in fns
        ]
        assert strip(digest.functions) == strip(expected_functions)
        scalars, histograms = digest.counts()
        assert scalars == bench.expectation.ours_scalars
        assert histograms == bench.expectation.ours_histograms


def test_extension_digests_match_native_driver():
    report = detect_corpus(jobs=1, extended=True, suites=("NAS",))
    for digest in report.programs:
        module = program(digest.name, digest.suite).fresh_module()
        expected = digest_extensions(find_extended_reductions(module))
        assert tuple(sorted(d.name for d in digest.extended)) == tuple(
            sorted(d.name for d in expected)
        )


def test_baseline_stage_records_model_counts():
    report = detect_corpus(jobs=1, baselines=True, suites=("Parboil",))
    for digest in report.programs:
        expectation = program(digest.name, digest.suite).expectation
        assert digest.icc == expectation.icc
        assert digest.polly_scops == expectation.scops
        assert digest.polly_reductions == expectation.polly_reductions


def test_stage_timings_are_recorded_but_not_compared():
    a, b = (_digests([("EP", "NAS")])[0] for _ in range(2))
    assert set(a.stage_seconds) >= {"compile", "detect"}
    assert a == b  # stage_seconds is compare=False
