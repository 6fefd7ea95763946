"""Tests for the persistent solver feedback store.

Three contracts:

* **round trip** — a store survives JSON serialization byte-for-byte
  (fingerprint verified on load, tampering and any version but the
  current one fail loudly, load errors carry the path /
  found-vs-expected / a fix hint);
* **canonical merge** — :meth:`SolverStats.merge` and
  :meth:`FeedbackStore.merge` are commutative and associative, so a
  corpus aggregate is independent of unit arrival order, and the
  persisted artifact is byte-identical between ``jobs=1`` and
  ``jobs=N`` (fork and spawn, program and function granularity);
* **never worse** — feedback-ordered detection costs at most as many
  constraint evaluations as the order that produced the feedback, on
  EP and mri-q, through the full registry/store path.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import SolverContext, SolverStats, detect
from repro.idioms.detect import find_reductions_in_function
from repro.idioms.registry import IdiomRegistry
from repro.pipeline.feedback import FEEDBACK_VERSION
from repro.pipeline import (
    FeedbackStore,
    JobClass,
    PipelineOptions,
    ServingEngine,
    canonical_orders,
    detect_corpus,
    feedback_from_report,
    load_feedback,
    resolve_feedback_options,
    save_feedback,
)
from repro.workloads import corpus_keys, program

KEYS = corpus_keys()
SMALL = [key for key in KEYS if key[1] == "Parboil"]


# -- stats strategies ---------------------------------------------------------

LABELS = ("header", "acc", "idx", "base", "update")


def _stats_strategy():
    counters = st.integers(min_value=0, max_value=1000)
    label = st.sampled_from(LABELS)
    bound = st.frozensets(st.sampled_from(LABELS), max_size=3)
    pair = st.tuples(st.integers(min_value=1, max_value=50),
                     st.integers(min_value=0, max_value=500))
    return st.builds(
        SolverStats,
        assignments_tried=counters,
        partial_rejections=counters,
        solutions=counters,
        fallbacks_to_universe=counters,
        constraint_evals=counters,
        proposal_cache_hits=counters,
        prefix_reuses=counters,
        candidates_per_label=st.dictionaries(label, counters, max_size=4),
        candidates_per_prefix=st.dictionaries(
            st.tuples(label, bound), pair, max_size=6
        ),
    )


def _store_strategy():
    return st.builds(
        FeedbackStore,
        specs=st.dictionaries(
            st.sampled_from(("for-loop", "scalar-reduction", "histogram")),
            _stats_strategy(),
            max_size=3,
        ),
    )


# -- round trip ---------------------------------------------------------------


@given(_store_strategy())
@settings(max_examples=50, deadline=None)
def test_feedback_json_round_trip(store):
    data = json.loads(json.dumps(store.to_jsonable()))
    rebuilt = FeedbackStore.from_jsonable(data)
    assert rebuilt.canonical() == store.canonical()
    assert rebuilt.fingerprint() == store.fingerprint()


def test_feedback_file_round_trip_and_bytes(tmp_path):
    report = detect_corpus(jobs=1, keys=SMALL[:3])
    store = feedback_from_report(report)
    assert store  # the run recorded per-spec statistics
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_feedback(store, str(path_a))
    save_feedback(load_feedback(str(path_a)), str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_feedback_load_rejects_tampering_and_bad_version(tmp_path):
    report = detect_corpus(jobs=1, keys=SMALL[:2])
    store = feedback_from_report(report)
    path = tmp_path / "fb.json"
    save_feedback(store, str(path))

    data = json.loads(path.read_text())
    name = next(iter(data["specs"]))
    data["specs"][name]["constraint_evals"] += 1
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="fingerprint"):
        load_feedback(str(path))

    data["version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="version"):
        load_feedback(str(path))

    # Deleting the mismatching fingerprint must not bypass the check.
    data["version"] = FEEDBACK_VERSION
    del data["fingerprint"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="missing its fingerprint"):
        load_feedback(str(path))


# -- merge algebra ------------------------------------------------------------


@given(_stats_strategy(), _stats_strategy())
@settings(max_examples=50, deadline=None)
def test_solver_stats_merge_is_commutative(a, b):
    ab = a.copy().merge(b)
    ba = b.copy().merge(a)
    assert ab.canonical() == ba.canonical()


@given(_stats_strategy(), _stats_strategy(), _stats_strategy())
@settings(max_examples=50, deadline=None)
def test_solver_stats_merge_is_associative(a, b, c):
    left = a.copy().merge(b).merge(c)
    right = a.copy().merge(b.copy().merge(c))
    assert left.canonical() == right.canonical()


@given(st.lists(st.integers(min_value=0, max_value=5),
                min_size=2, max_size=5, unique=True))
@settings(max_examples=10, deadline=None)
def test_store_is_independent_of_program_arrival_order(indices):
    report = detect_corpus(jobs=1, keys=SMALL)
    programs = [report.programs[i] for i in indices]
    forward = FeedbackStore()
    backward = FeedbackStore()
    for digest in programs:
        for name, stats in digest.spec_stats.items():
            forward.merge_stats(name, stats)
    for digest in reversed(programs):
        for name, stats in digest.spec_stats.items():
            backward.merge_stats(name, stats)
    assert forward.fingerprint() == backward.fingerprint()


# -- determinism across sharding ----------------------------------------------


def test_feedback_artifact_byte_identical_across_jobs_and_granularity(
    tmp_path,
):
    """The acceptance criterion's sharding half, in miniature.

    ``jobs=1`` vs ``jobs=2``, program vs function granularity: same
    fingerprinted report, byte-identical feedback artifact (the full
    matrix, spawn included, runs in ``benchmarks/bench_feedback.py``).
    """
    runs = {
        "serial": detect_corpus(jobs=1, extended=True, keys=SMALL),
        "sharded": detect_corpus(jobs=2, extended=True, keys=SMALL),
        "functions": detect_corpus(jobs=2, extended=True, keys=SMALL,
                                   granularity="function"),
    }
    blobs = {}
    for name, report in runs.items():
        assert report.fingerprint() == runs["serial"].fingerprint()
        path = tmp_path / f"{name}.json"
        save_feedback(feedback_from_report(report), str(path))
        blobs[name] = path.read_bytes()
    assert blobs["sharded"] == blobs["serial"]
    assert blobs["functions"] == blobs["serial"]


def test_feedback_survives_a_report_json_round_trip(tmp_path):
    """spec_stats ride along in the report JSON, so a saved report is
    still a valid feedback source after load_report."""
    from repro.pipeline import load_report, save_report

    report = detect_corpus(jobs=1, keys=SMALL[:3])
    path = tmp_path / "report.json"
    save_report(report, str(path))
    rebuilt = feedback_from_report(load_report(str(path)))
    assert rebuilt.fingerprint() == feedback_from_report(
        report
    ).fingerprint()
    assert rebuilt  # not a silently-empty store


def test_feedback_consumption_is_deterministic_across_jobs(tmp_path):
    path = tmp_path / "fb.json"
    save_feedback(
        feedback_from_report(detect_corpus(jobs=1, keys=SMALL)), str(path)
    )
    warm1 = detect_corpus(jobs=1, keys=SMALL, feedback_from=str(path))
    warm2 = detect_corpus(jobs=2, keys=SMALL, feedback_from=str(path),
                          granularity="function")
    assert warm1.fingerprint() == warm2.fingerprint()


# -- consumption semantics ----------------------------------------------------


def test_options_normalize_spec_orders_and_resolution(tmp_path):
    orders = {"histogram": ("header", "iterator", "base", "idx",
                            "hist_load", "hist_store", "update")}
    options = PipelineOptions(spec_orders=orders)
    assert options.spec_orders == canonical_orders(orders)

    # Resolution folds a feedback artifact into plain spec orders so
    # workers never re-read the file.
    report = detect_corpus(jobs=1, keys=SMALL[:2])
    path = tmp_path / "fb.json"
    save_feedback(feedback_from_report(report), str(path))
    resolved = resolve_feedback_options(
        PipelineOptions(feedback_from=str(path))
    )
    assert resolved.spec_orders is not None or resolved.feedback_from is None


def test_store_keeps_unmeasured_specs_untouched():
    registry = IdiomRegistry()
    store = FeedbackStore()
    assert store.spec_orders(registry) == {}
    assert store.order_for(registry.spec("histogram")) is None


def test_apply_orders_rejects_non_permutations():
    from repro.constraints import SpecFileError

    registry = IdiomRegistry()
    with pytest.raises(SpecFileError, match="permutation"):
        registry.apply_orders({"histogram": ("header", "iterator")})


def test_apply_orders_keeps_base_prefix_and_replay():
    """A reorder of an extending spec keeps the base order as prefix,
    so the solver's prefix replay stays available."""
    registry = IdiomRegistry()
    scalar = registry.spec("scalar-reduction")
    scrambled = tuple(reversed(scalar.label_order))
    registry.apply_orders({"scalar-reduction": scrambled})
    reordered = registry.spec("scalar-reduction")
    base = reordered.base
    assert base is not None
    assert reordered.label_order[:len(base.label_order)] == base.label_order
    # Solutions are unchanged by construction.
    module = program("mri-q").fresh_module()
    function = module.get_function("compute_q")
    fr = find_reductions_in_function(function, module, registry=registry)
    baseline = find_reductions_in_function(function, module,
                                           registry=IdiomRegistry())
    assert [s.name for s in fr.scalars] == [s.name for s in baseline.scalars]


def test_apply_orders_rebuilds_extenders_when_base_reorders():
    registry = IdiomRegistry()
    forloop = registry.spec("for-loop")
    new_order = forloop.label_order[::-1]
    registry.apply_orders({"for-loop": new_order})
    assert registry.spec("for-loop").label_order == new_order
    for name in ("scalar-reduction", "histogram", "dot-product"):
        spec = registry.spec(name)
        assert spec.base is registry.spec("for-loop")
        assert spec.label_order[:len(new_order)] == new_order


@pytest.mark.parametrize("workload,function", [
    ("EP", "gaussian_pairs"), ("mri-q", "compute_q"),
])
def test_feedback_ordered_detection_never_worse_than_curated(
    workload, function, tmp_path
):
    """The satellite property: feedback-ordered detection costs at most
    the curated order's constraint evals on EP and mri-q — through the
    full record → persist → load → reorder → detect cycle."""
    module = program(workload).fresh_module()
    target = module.get_function(function)

    curated = find_reductions_in_function(target, module,
                                          registry=IdiomRegistry())
    store = FeedbackStore()
    for name, stats in curated.spec_stats.items():
        store.merge_stats(name, stats)
    path = tmp_path / "fb.json"
    save_feedback(store, str(path))

    registry = IdiomRegistry()
    registry.apply_orders(load_feedback(str(path)).spec_orders(registry))
    fresh_module = program(workload).fresh_module()
    warmed = find_reductions_in_function(
        fresh_module.get_function(function), fresh_module,
        registry=registry,
    )
    assert [s.name for s in warmed.scalars] == [
        s.name for s in curated.scalars
    ]
    assert [h.name for h in warmed.histograms] == [
        h.name for h in curated.histograms
    ]
    assert warmed.stats.constraint_evals <= curated.stats.constraint_evals


# -- the serving engine -------------------------------------------------------


def test_serving_accumulates_and_snapshots_feedback():
    options = PipelineOptions(jobs=2, granularity="function")
    with ServingEngine(options) as engine:
        report = engine.serve(SMALL)
        snapshot = engine.feedback_snapshot()
    assert snapshot
    assert snapshot.fingerprint() == feedback_from_report(
        report
    ).fingerprint()


def test_serving_self_tune_stays_fingerprint_identical():
    """Self-tuning serving: the refreshed orders reproduce the orders
    that generated the feedback, so every request of a converged
    session matches the batch engine bit-for-bit."""
    options = PipelineOptions(jobs=2, granularity="function",
                              feedback_refresh=True)
    batch = detect_corpus(jobs=1, keys=SMALL)
    with ServingEngine(options) as engine:
        first = engine.serve(SMALL)
        second = engine.serve(SMALL)
        assert engine.feedback_refreshes >= 1
    assert first.fingerprint() == batch.fingerprint()
    assert second.fingerprint() == batch.fingerprint()


def test_serving_self_tune_from_static_artifact_keeps_detections(tmp_path):
    """A self-tuning session warmed from a *static-order* artifact may
    refresh into different (better) orders mid-session — search effort
    moves, detections must not, and the refresh must be able to reach
    the authored orders even though the workers booted reordered."""
    from repro.constraints import suggest_order

    registry = IdiomRegistry()
    static = {e.name: suggest_order(e.spec) for e in registry}
    cold = detect_corpus(jobs=1, keys=SMALL, spec_orders=static)
    path = tmp_path / "static.json"
    save_feedback(feedback_from_report(cold), str(path))

    options = PipelineOptions(jobs=2, feedback_from=str(path),
                              feedback_refresh=True)
    with ServingEngine(options) as engine:
        first = engine.serve(SMALL)
        second = engine.serve(SMALL)
        refreshes = engine.feedback_refreshes
    assert refreshes >= 1
    batch = detect_corpus(jobs=1, keys=SMALL, feedback_from=str(path))
    assert first.fingerprint() == batch.fingerprint()
    assert second.fingerprint(effort=False) == batch.fingerprint(
        effort=False
    )


def test_serving_warm_start_from_artifact(tmp_path):
    path = tmp_path / "fb.json"
    save_feedback(
        feedback_from_report(detect_corpus(jobs=1, keys=SMALL)), str(path)
    )
    options = PipelineOptions(jobs=2, feedback_from=str(path))
    batch = detect_corpus(jobs=1, keys=SMALL, feedback_from=str(path))
    with ServingEngine(options) as engine:
        served = engine.serve(SMALL, priority=JobClass.INTERACTIVE)
    assert served.fingerprint() == batch.fingerprint()


def test_serving_rejects_bad_feedback_artifact(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"version\": 1, \"specs\": 0}")
    engine = ServingEngine(PipelineOptions(jobs=2,
                                           feedback_from=str(path)))
    with pytest.raises(ValueError):
        engine.submit(SMALL[:1])
    assert not engine.running  # the failed submit leaked no workers


# -- failure surfacing --------------------------------------------------------


def test_run_discovery_renders_unit_failures():
    from repro.evaluation.discovery import run_discovery
    from repro.pipeline import CorpusReport, UnitFailure

    report = detect_corpus(jobs=1, baselines=True, suites=("Parboil",))
    victim = report.programs[0]
    partial = CorpusReport(
        programs=tuple(p for p in report.programs if p is not victim),
        jobs=report.jobs,
        failures=(UnitFailure(name=victim.name, suite=victim.suite,
                              function=None, error="worker died",
                              attempts=3),),
    )
    result = run_discovery("Parboil", report=partial)
    assert not result.ok
    assert result.failures and result.failures[0].name == victim.name
    failed_rows = [row for row in result.rows if row.failed]
    assert [row.benchmark for row in failed_rows] == [victim.name]
    rendered = result.render()
    assert "FAILED" in rendered
    assert "worker died" in rendered


def test_cli_failure_exit_policy():
    from repro.__main__ import _failure_exit
    from repro.pipeline import UnitFailure

    failure = UnitFailure(name="sad", suite="NAS", function=None,
                          error="worker died", attempts=3)
    assert _failure_exit((), allow_failures=False) == 0
    assert _failure_exit((failure,), allow_failures=True) == 0
    assert _failure_exit((failure,), allow_failures=False) == 3
    assert _failure_exit((failure,), allow_failures=False,
                         describe=False) == 3


# -- store merge and replay ---------------------------------------------------


@given(_store_strategy(), _store_strategy())
@settings(max_examples=25, deadline=None)
def test_stores_merge_commutatively(a, b):
    ab = a.copy().merge(b)
    ba = b.copy().merge(a)
    assert ab.canonical() == ba.canonical()
    assert ab.fingerprint() == ba.fingerprint()


@given(_store_strategy(), _store_strategy(), _store_strategy())
@settings(max_examples=25, deadline=None)
def test_stores_merge_associatively(a, b, c):
    left = a.copy().merge(b).merge(c)
    right = a.copy().merge(b.copy().merge(c))
    assert left.canonical() == right.canonical()


def test_order_for_replays_measured_prefix_statistics():
    """A spec's merged statistics derive an order through cost-aware
    ``suggest_order``: a permutation of the spec's labels, keeping an
    extending spec's base order as its prefix."""
    module = program("mri-q").fresh_module()
    target = module.get_function("compute_q")
    curated = find_reductions_in_function(target, module,
                                          registry=IdiomRegistry())
    store = FeedbackStore()
    for name, stats in curated.spec_stats.items():
        store.merge_stats(name, stats)
    registry = IdiomRegistry()
    replayed = store.spec_orders(registry)
    assert replayed  # the replay does derive something
    for name, order in replayed.items():
        spec = registry.spec(name)
        assert store.order_for(spec) == order
        assert sorted(order) == sorted(spec.label_order)
        if spec.base is not None:
            prefix = spec.base.label_order
            assert order[:len(prefix)] == prefix


# -- artifact versioning ------------------------------------------------------


def test_version_2_and_3_artifacts_are_rejected(tmp_path):
    """Only the current version loads: an older artifact fails with
    its path and the re-record hint, even when its fingerprint would
    still verify."""
    store = feedback_from_report(detect_corpus(jobs=1, keys=SMALL[:2]))
    path = tmp_path / "fb.json"
    save_feedback(store, str(path))
    data = json.loads(path.read_text())
    assert data["version"] == FEEDBACK_VERSION == 4
    for version in (2, 3):
        data["version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as excinfo:
            load_feedback(str(path))
        message = str(excinfo.value)
        assert str(path) in message
        assert f"version {version} is not supported" in message
        assert "hint:" in message
        assert "re-record the artifact with --save-feedback" in message


def test_load_feedback_errors_carry_path_versions_and_hint(tmp_path):
    store = feedback_from_report(detect_corpus(jobs=1, keys=SMALL[:1]))
    path = tmp_path / "fb.json"
    save_feedback(store, str(path))
    data = json.loads(path.read_text())
    data["version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as excinfo:
        load_feedback(str(path))
    message = str(excinfo.value)
    assert str(path) in message
    assert "99" in message
    assert f"expected {FEEDBACK_VERSION}" in message
    assert "hint:" in message

    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON") as excinfo:
        load_feedback(str(path))
    assert str(path) in str(excinfo.value)
    assert "hint:" in str(excinfo.value)
