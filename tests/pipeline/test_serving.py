"""Tests for the persistent serving engine and function-level sharding.

The serving contract extends the batch pipeline's determinism
contract: a report served by the persistent worker pool — at any
granularity, over any subset, with warm or cold workers — must be
fingerprint-identical to the serial batch run with the same options.
"""

import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import (
    PipelineOptions,
    ServingEngine,
    detect_corpus,
)
from repro.workloads import corpus_keys

KEYS = corpus_keys()

SERIAL = None


def serial_report():
    """The jobs=1 program-granularity reference, computed once."""
    global SERIAL
    if SERIAL is None:
        SERIAL = detect_corpus(jobs=1, extended=True, baselines=True)
    return SERIAL


# -- function granularity ≡ program granularity -------------------------------


def test_function_granularity_reproduces_program_fingerprint():
    """The acceptance criterion: function-level shards merge to a
    report byte-identical to program-level shards, serial or sharded."""
    serial = serial_report()
    for jobs in (1, 3):
        report = detect_corpus(jobs=jobs, extended=True, baselines=True,
                               granularity="function")
        assert report.programs == serial.programs
        assert report.fingerprint() == serial.fingerprint()


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_any_granularity_jobs_and_subset_is_deterministic(data):
    """Property form: any jobs, any subset, any granularity produce
    the serial report exactly."""
    keys = data.draw(
        st.lists(st.sampled_from(KEYS), min_size=1, max_size=5,
                 unique=True),
        label="keys",
    )
    keys.sort(key=KEYS.index)
    jobs = data.draw(st.integers(min_value=2, max_value=6), label="jobs")
    granularity = data.draw(
        st.sampled_from(["program", "function"]), label="granularity"
    )
    serial = detect_corpus(jobs=1, keys=keys)
    sharded = detect_corpus(jobs=jobs, keys=keys, granularity=granularity)
    assert sharded.programs == serial.programs
    assert sharded.fingerprint() == serial.fingerprint()


# -- serving engine -----------------------------------------------------------


def test_served_report_is_fingerprint_identical_to_batch():
    serial = serial_report()
    options = PipelineOptions(jobs=3, extended=True, baselines=True,
                              granularity="function")
    with ServingEngine(options) as engine:
        report = engine.serve()
    assert report.programs == serial.programs
    assert report.fingerprint() == serial.fingerprint()


def test_streaming_yields_every_program_once():
    options = PipelineOptions(jobs=2, granularity="function")
    keys = KEYS[:6]
    with ServingEngine(options) as engine:
        job = engine.submit(keys)
        streamed = [digest.key for digest in job.stream()]
    # Completion order is arbitrary; coverage is exact.
    assert sorted(streamed) == sorted(keys)
    assert job.done


def test_warm_workers_serve_repeated_requests_identically():
    """The persistent pool's point: the second request reuses live
    workers (compiled modules, registries) and still matches."""
    options = PipelineOptions(jobs=2, extended=True,
                              granularity="function")
    with ServingEngine(options) as engine:
        first = engine.serve()
        second = engine.serve()
    assert first.programs == second.programs
    assert first.fingerprint() == second.fingerprint()
    assert first.fingerprint() == detect_corpus(
        jobs=1, extended=True
    ).fingerprint()


def test_interleaved_jobs_route_results_by_id():
    """Two jobs in flight at once: results are routed by job id, and
    each job's report covers exactly its own keys."""
    options = PipelineOptions(jobs=2, granularity="function")
    with ServingEngine(options) as engine:
        job_a = engine.submit(KEYS[:3])
        job_b = engine.submit(KEYS[3:5])
        report_b = job_b.result()
        report_a = job_a.result()
    assert [d.key for d in report_a.programs] == KEYS[:3]
    assert [d.key for d in report_b.programs] == KEYS[3:5]
    serial = detect_corpus(jobs=1, keys=KEYS[:5])
    assert (report_a.programs + report_b.programs) == serial.programs


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the patched worker is inherited through fork")
def test_failed_unit_raises_on_stream_not_in_the_worker(monkeypatch):
    """A unit that raises inside a forked worker surfaces as a
    ``RuntimeError`` on the consumer's stream; the worker survives."""
    import repro.pipeline.serving as serving_module

    real = serving_module.detect_unit
    parent = os.getpid()

    def failing(unit, *args, **kwargs):
        if unit.key == KEYS[0] and os.getpid() != parent:
            raise RuntimeError(f"detector exploded on {unit.name}")
        return real(unit, *args, **kwargs)

    monkeypatch.setattr(serving_module, "detect_unit", failing)
    options = PipelineOptions(jobs=2, start_method="fork")
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS[:1])
        with pytest.raises(RuntimeError,
                           match=f"detector exploded on {KEYS[0][0]}"):
            list(job.stream())
        # The pool survives a failed unit and serves the next request.
        report = engine.serve(KEYS[1:3])
        assert engine.worker_deaths == 0
    assert report.fingerprint() == detect_corpus(
        jobs=1, keys=KEYS[1:3]
    ).fingerprint()


def test_shutdown_fails_pending_jobs_instead_of_hanging():
    """A job abandoned by shutdown raises from stream()/result() —
    it must never wait on queues that no longer exist."""
    options = PipelineOptions(jobs=2, granularity="function")
    engine = ServingEngine(options)
    job = engine.submit(KEYS[:4])
    engine.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        job.result()
    # The engine itself restarts cleanly afterwards.
    with engine:
        report = engine.serve(KEYS[:2])
    assert len(report.programs) == 2


def test_shutdown_wakes_a_consumer_blocked_in_result():
    """Bugfix regression: ``shutdown()`` used to fail only jobs nobody
    was waiting on — a consumer thread already *blocked* inside
    ``stream()``/``result()`` kept pumping forever (worse: it could
    misread the deliberately-exiting workers' closed pipes as deaths
    and respawn workers into the pool being dismantled).  Shutdown
    must raise promptly in the blocked consumer, with zero recorded
    worker deaths."""
    import threading
    import time

    options = PipelineOptions(jobs=2, granularity="function")
    engine = ServingEngine(options).start()
    job = engine.submit()  # the whole corpus: nowhere near done
    outcome = []

    def consume():
        try:
            job.result()
            outcome.append("completed")
        except RuntimeError as exc:
            outcome.append(exc)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    time.sleep(0.5)  # let the consumer block in the pump loop
    started = time.monotonic()
    engine.shutdown()
    consumer.join(timeout=15)
    woken_after = time.monotonic() - started
    assert not consumer.is_alive(), "consumer never woke from shutdown"
    assert woken_after < 15
    assert outcome and isinstance(outcome[0], RuntimeError)
    assert "shut down" in str(outcome[0])
    # The exiting workers' EOFs were not misread as deaths.
    assert engine.worker_deaths == 0
    assert not engine.running
    # And the engine restarts cleanly after the concurrent teardown.
    with engine:
        report = engine.serve(KEYS[:2])
    assert len(report.programs) == 2


def test_engine_restarts_after_shutdown():
    options = PipelineOptions(jobs=2)
    engine = ServingEngine(options)
    engine.start()
    assert engine.running
    engine.shutdown()
    assert not engine.running
    engine.shutdown()  # idempotent
    with engine:
        report = engine.serve(KEYS[:2])
    assert not engine.running
    assert len(report.programs) == 2


# -- start methods ------------------------------------------------------------


@pytest.mark.parametrize("method", sorted(
    set(multiprocessing.get_all_start_methods()) & {"fork", "spawn"}
))
def test_batch_start_methods_agree(method):
    """fork and spawn workers produce the same report — workers inherit
    nothing from the parent they depend on."""
    serial = detect_corpus(jobs=1, keys=KEYS[:3])
    sharded = detect_corpus(jobs=2, keys=KEYS[:3],
                            granularity="function",
                            start_method=method)
    assert sharded.programs == serial.programs
    assert sharded.fingerprint() == serial.fingerprint()


@pytest.mark.parametrize("method", sorted(
    set(multiprocessing.get_all_start_methods()) & {"fork", "spawn"}
))
def test_serving_start_methods_agree(method):
    options = PipelineOptions(jobs=2, granularity="function",
                              start_method=method)
    with ServingEngine(options) as engine:
        report = engine.serve(KEYS[:3])
    assert report.fingerprint() == detect_corpus(
        jobs=1, keys=KEYS[:3]
    ).fingerprint()


# -- dispatch prefetch --------------------------------------------------------


def test_prefetch_depths_serve_identical_reports():
    """Any prefetch window serves the exact serial report — prefetching
    moves latency only, never results — and the engine's dispatch-gap
    meter actually sampled the run."""
    serial = detect_corpus(jobs=1, keys=KEYS[:6])
    for prefetch in (0, 1, 3):
        options = PipelineOptions(jobs=2, granularity="function",
                                  prefetch_units=prefetch)
        with ServingEngine(options) as engine:
            report = engine.serve(KEYS[:6])
            assert engine.idle_samples > 0
            assert engine.mean_dispatch_gap() >= 0.0
        assert report.programs == serial.programs
        assert report.fingerprint() == serial.fingerprint()


def test_prefetch_window_never_exceeds_its_depth():
    """The dispatcher fills each worker's queue to at most
    ``1 + prefetch_units``, and with prefetching on, some worker is
    observed holding more than the in-flight unit."""
    prefetch = 3
    options = PipelineOptions(jobs=2, granularity="function",
                              prefetch_units=prefetch)
    deepest = 0
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS[:8])
        for _ in job.stream():
            for handle in engine._workers.values():
                deepest = max(deepest, len(handle.assignments))
        report = job.result()
    assert deepest <= 1 + prefetch
    assert deepest >= 2  # prefetching observably queued ahead
    assert report.fingerprint() == detect_corpus(
        jobs=1, keys=KEYS[:8]
    ).fingerprint()


def test_killed_worker_loses_its_whole_window_and_recovers():
    """A dead worker's prefetched units — not just the in-flight one —
    are resubmitted; the report stays fingerprint-identical."""
    options = PipelineOptions(jobs=2, granularity="function",
                              prefetch_units=3)
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS[:5])
        # submit() fills every window before it returns, and a window
        # only shrinks when the parent reads results back — so right
        # now each worker holds in-flight plus queued work.
        victim = max(engine._workers.values(),
                     key=lambda handle: len(handle.assignments))
        lost = len(victim.assignments)
        victim.process.kill()
        list(job.stream())
        report = job.result()
        assert engine.worker_deaths >= 1
        assert lost >= 2  # in-flight plus queued work when it died
    assert report.failures == ()
    assert report.fingerprint() == detect_corpus(
        jobs=1, keys=KEYS[:5]
    ).fingerprint()
