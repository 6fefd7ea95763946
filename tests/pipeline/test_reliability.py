"""Reliability and scheduling tests for the persistent serving engine.

The reliability contract extends the serving contract: priorities,
cancellation, worker recycling, worker death and lost-unit
resubmission may change *when* work runs and *which process* runs it —
never the report.  Every recovery path must merge to a report
fingerprint-identical to ``detect_corpus(jobs=1)``, and a unit
abandoned after bounded retries must surface as a structured
:class:`UnitFailure`, not a hung job.
"""

import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import (
    JobCancelled,
    JobClass,
    PipelineOptions,
    PriorityScheduler,
    ServingEngine,
    ServingJob,
    UnitDigest,
    UnitFailure,
    WorkUnit,
    detect_corpus,
    report_from_json,
    report_to_json,
)
from repro.workloads import corpus_keys

KEYS = corpus_keys()

START_METHODS = sorted(
    set(multiprocessing.get_all_start_methods()) & {"fork", "spawn"}
)


def serial(keys):
    return detect_corpus(jobs=1, keys=list(keys))


# -- weighted-fair priority scheduling ----------------------------------------


def _unit(i):
    return WorkUnit(f"p{i}", "NAS")


def test_scheduler_serves_interactive_four_to_one_under_contention():
    scheduler = PriorityScheduler()
    for i in range(40):
        scheduler.push(0, _unit(i), 0, JobClass.BATCH)
    for i in range(40, 80):
        scheduler.push(1, _unit(i), 0, JobClass.INTERACTIVE)
    first20 = [scheduler.pop()[3] for _ in range(20)]
    assert first20.count(JobClass.INTERACTIVE) == 16
    assert first20.count(JobClass.BATCH) == 4


def test_scheduler_gives_a_lone_class_the_whole_pool():
    scheduler = PriorityScheduler()
    for i in range(5):
        scheduler.push(0, _unit(i), 0, JobClass.BATCH)
    popped = [scheduler.pop() for _ in range(5)]
    assert [entry[1] for entry in popped] == [_unit(i) for i in range(5)]
    assert scheduler.pop() is None


def test_scheduler_activation_resets_stale_credit():
    """A class that idled while the other ran must not burst on the
    credit it never used: after 8 batch-only pops, a fresh interactive
    push still interleaves (4:1) instead of draining interactive-only
    until its stale pass catches up to batch's."""
    scheduler = PriorityScheduler()
    for i in range(8):
        scheduler.push(0, _unit(i), 0, JobClass.BATCH)
    for _ in range(8):
        scheduler.pop()
    for i in range(8, 12):
        scheduler.push(0, _unit(i), 0, JobClass.BATCH)
    for i in range(12, 24):
        scheduler.push(1, _unit(i), 0, JobClass.INTERACTIVE)
    first6 = [scheduler.pop()[3] for _ in range(6)]
    # Without the activation reset, interactive would have to climb
    # from its stale pass of 0 to batch's accumulated 32 — over thirty
    # interactive pops before batch ran again.  With it, batch is
    # served within the first weighted-fair cycle.
    assert JobClass.BATCH in first6
    assert first6.count(JobClass.INTERACTIVE) == 5


def test_scheduler_purge_drops_only_that_job():
    scheduler = PriorityScheduler()
    for i in range(4):
        scheduler.push(7, _unit(i), 0, JobClass.BATCH)
    for i in range(4, 6):
        scheduler.push(8, _unit(i), 0, JobClass.BATCH)
    assert scheduler.pending_for(7) == 4
    assert scheduler.purge(7) == 4
    assert scheduler.pending_for(7) == 0
    assert len(scheduler) == 2
    remaining = [scheduler.pop()[0] for _ in range(2)]
    assert remaining == [8, 8]


def test_interactive_job_overtakes_queued_batch_units():
    """The tentpole's scheduling story: with a deep batch backlog
    queued, a later interactive submit completes while most of the
    batch is still pending — and neither report changes."""
    options = PipelineOptions(jobs=2, granularity="function")
    with ServingEngine(options) as engine:
        batch = engine.submit(KEYS[:8], priority=JobClass.BATCH)
        interactive = engine.submit(KEYS[8:10],
                                    priority=JobClass.INTERACTIVE)
        interactive_report = interactive.result()
        overtaken = batch._pending_units
        batch_report = batch.result()
    # Under FIFO the interactive units would sit behind the whole
    # batch backlog and the batch job would be (nearly) drained first.
    assert overtaken > 4
    assert interactive_report.fingerprint() == serial(
        KEYS[8:10]
    ).fingerprint()
    assert batch_report.fingerprint() == serial(KEYS[:8]).fingerprint()


def test_duplicate_keys_in_a_submit_are_deduped_not_hung():
    """Regression: a repeated key used to plan two identical units
    whose second result the duplicate guard dropped — leaving the
    pending count stuck above zero and the job spinning forever."""
    options = PipelineOptions(jobs=2, granularity="function")
    with ServingEngine(options) as engine:
        job = engine.submit([KEYS[0], KEYS[1], KEYS[0]])
        assert job.keys == [KEYS[0], KEYS[1]]
        report = job.result()
    assert [d.key for d in report.programs] == [KEYS[0], KEYS[1]]
    assert report.fingerprint() == serial(KEYS[:2]).fingerprint()


def test_priority_accepts_strings_and_defaults_to_batch():
    options = PipelineOptions(jobs=1, granularity="program")
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS[:1], priority="interactive")
        assert job.priority is JobClass.INTERACTIVE
        assert job.result().programs
        default = engine.submit(KEYS[:1])
        assert default.priority is JobClass.BATCH
        default.result()


# -- cancellation -------------------------------------------------------------


def test_cancel_drains_queue_and_raises_job_cancelled():
    options = PipelineOptions(jobs=2, granularity="function")
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS[:8])
        queued = engine._scheduler.pending_for(job.job_id)
        assert queued > 0
        drained = job.cancel()
        assert drained == queued
        assert engine._scheduler.pending_for(job.job_id) == 0
        assert job.cancelled
        with pytest.raises(JobCancelled):
            job.result()
        with pytest.raises(JobCancelled):
            for _ in job.stream():
                pass
        # Idempotent: a second cancel is a no-op.
        assert job.cancel() == 0
        # The pool is not poisoned: later submits serve correctly,
        # including the keys the cancelled job never finished.
        report = engine.serve(KEYS[:3])
    assert report.fingerprint() == serial(KEYS[:3]).fingerprint()


def test_cancel_mid_stream_from_the_consumer_loop():
    """The CLI's ``--cancel-after`` pattern: cancelling from inside
    the stream loop raises JobCancelled on the next iteration."""
    options = PipelineOptions(jobs=2, granularity="function")
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS[:6])
        streamed = 0
        with pytest.raises(JobCancelled):
            for _ in job.stream():
                streamed += 1
                job.cancel()
        assert streamed == 1
        report = engine.serve(KEYS[4:6])
    assert report.fingerprint() == serial(KEYS[4:6]).fingerprint()


def test_cancelled_jobs_in_flight_results_are_dropped():
    """Units already on a worker when the job is cancelled complete
    there, but their results are dropped by the router — they never
    surface on another job."""
    options = PipelineOptions(jobs=2, granularity="function")
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS[:5])
        in_flight = sum(
            1 for h in engine._workers.values()
            if h.assignment is not None and h.assignment[0] == job.job_id
        )
        assert in_flight > 0
        job.cancel()
        report = engine.serve(KEYS[5:7])
        assert [d.key for d in report.programs] == KEYS[5:7]
    assert report.fingerprint() == serial(KEYS[5:7]).fingerprint()


# -- chaos: killed workers ----------------------------------------------------


@pytest.mark.parametrize("method", START_METHODS)
def test_killed_worker_mid_job_preserves_the_fingerprint(method):
    """The acceptance criterion: kill a worker mid-job under fork AND
    spawn; the lost unit is resubmitted and the served report is
    fingerprint-identical to the serial batch run."""
    options = PipelineOptions(jobs=2, granularity="function",
                              start_method=method)
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS[:5])
        stream = job.stream()
        next(stream)  # ensure the job is genuinely mid-flight
        victim = next(iter(engine._workers.values()))
        victim.process.kill()
        list(stream)
        report = job.result()
        assert engine.worker_deaths >= 1
        # The pool was repaired to full strength.
        assert len(engine._workers) == engine.workers
        assert all(
            h.process.is_alive() for h in engine._workers.values()
        )
    assert report.failures == ()
    assert report.fingerprint() == serial(KEYS[:5]).fingerprint()


def test_killing_every_worker_still_completes_the_job():
    options = PipelineOptions(jobs=2, granularity="function")
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS[:4])
        for handle in list(engine._workers.values()):
            handle.process.kill()
        report = job.result()
        assert engine.worker_deaths >= 2
    assert report.failures == ()
    assert report.fingerprint() == serial(KEYS[:4]).fingerprint()


def _die_holding_the_stop_flag(stop):
    """Take whatever lock guards the engine's shared stop flag, then
    exit without releasing it: a worker killed inside its stop check."""
    for name in ("_cond", "_lock"):
        lock = getattr(stop, name, None)
        if lock is not None:
            lock.acquire()
    os._exit(0)


@pytest.mark.skipif("fork" not in START_METHODS,
                    reason="the helper process shares the flag via fork")
def test_a_worker_killed_in_its_stop_check_cannot_wedge_the_pool():
    """Every worker checks the stop flag after each task.  A lock
    guarding that flag would stay held forever by a worker killed
    inside the check, and every other worker would block on it while
    its heartbeat thread kept it looking alive."""
    options = PipelineOptions(jobs=1, start_method="fork")
    with ServingEngine(options) as engine:
        helper = engine._context.Process(target=_die_holding_the_stop_flag,
                                         args=(engine._stop,))
        helper.start()
        helper.join()
        job = engine.submit(KEYS[:1])
        deadline = time.monotonic() + 60
        while not job.done and time.monotonic() < deadline:
            engine.pump()
            time.sleep(0.01)
        assert job.done
        report = job.result()
    assert report.fingerprint() == serial(KEYS[:1]).fingerprint()


@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_chaos_property_any_subset_and_kill_point(data):
    """Property form: any subset, any kill point — same report."""
    keys = data.draw(
        st.lists(st.sampled_from(KEYS[:12]), min_size=2, max_size=5,
                 unique=True),
        label="keys",
    )
    keys.sort(key=KEYS.index)
    kill_after = data.draw(
        st.integers(min_value=0, max_value=len(keys) - 1),
        label="kill_after",
    )
    options = PipelineOptions(jobs=2, granularity="function")
    with ServingEngine(options) as engine:
        job = engine.submit(keys)
        streamed = 0
        victim = next(iter(engine._workers.values()))
        for _ in job.stream():
            streamed += 1
            if streamed == kill_after + 1 and victim.process.is_alive():
                victim.process.kill()
        report = job.result()
    assert report.failures == ()
    assert report.fingerprint() == serial(keys).fingerprint()


def test_retry_exhaustion_records_a_structured_unit_failure():
    """With the retry budget at zero, a killed worker's unit becomes a
    :class:`UnitFailure` on the report — the job still completes every
    other program instead of hanging or aborting."""
    options = PipelineOptions(jobs=2, granularity="function",
                              max_unit_retries=0)
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS[:4])
        victim = next(iter(engine._workers.values()))
        victim_key = (victim.assignment[1].key
                      if victim.assignment else None)
        victim.process.kill()
        report = job.result()
        assert len(report.failures) >= 1
        for failure in report.failures:
            assert failure.attempts == 1
            assert "worker died" in failure.error
        failed_keys = {f.key for f in report.failures}
        if victim_key is not None:
            assert victim_key in failed_keys
        # Completed programs cover exactly the rest, in canonical order.
        expected = [k for k in KEYS[:4] if k not in failed_keys]
        assert [d.key for d in report.programs] == expected
        # The pool survives: the next request is complete and correct.
        after = engine.serve(KEYS[:2])
    assert after.failures == ()
    assert after.fingerprint() == serial(KEYS[:2]).fingerprint()


# -- detect_corpus(jobs>1) survives worker death ------------------------------

EP = ("EP", "NAS")
NAS_KEYS = [("CG", "NAS"), EP, ("IS", "NAS")]


def _kill_workers_on_ep(monkeypatch, marker=None):
    """Make every worker process ``os._exit`` when it starts the EP
    unit — once (recorded in ``marker``), or on every attempt when no
    marker is given.  The parent keeps the real ``detect_unit``."""
    import repro.pipeline.serving as serving_module
    import repro.pipeline.worker as worker_module

    real = worker_module.detect_unit
    parent = os.getpid()

    def dying(unit, *args, **kwargs):
        if unit.key == EP and os.getpid() != parent:
            if marker is None or not marker.exists():
                if marker is not None:
                    marker.touch()
                os._exit(1)
        return real(unit, *args, **kwargs)

    monkeypatch.setattr(worker_module, "detect_unit", dying)
    monkeypatch.setattr(serving_module, "detect_unit", dying)


@pytest.mark.skipif("fork" not in START_METHODS,
                    reason="the patched worker is inherited through fork")
def test_detect_corpus_resubmits_a_unit_whose_worker_died(
        monkeypatch, tmp_path):
    """A parallel sweep whose worker dies once on EP resubmits the
    unit and returns the serial report, with no failures."""
    expected = serial(NAS_KEYS)
    marker = tmp_path / "died-once"
    _kill_workers_on_ep(monkeypatch, marker)
    report = detect_corpus(jobs=2, keys=NAS_KEYS, start_method="fork")
    assert marker.exists()  # a worker really died on EP
    assert report.failures == ()
    assert report.jobs == 2
    assert report.fingerprint() == expected.fingerprint()


@pytest.mark.skipif("fork" not in START_METHODS,
                    reason="the patched worker is inherited through fork")
def test_detect_corpus_records_a_unit_that_kills_every_worker(
        monkeypatch):
    """A unit that kills its worker on every attempt becomes one
    :class:`UnitFailure` after the retry budget; the other programs
    are still reported, in canonical order."""
    expected = serial(NAS_KEYS)
    _kill_workers_on_ep(monkeypatch)
    report = detect_corpus(jobs=2, keys=NAS_KEYS, start_method="fork")
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.key == EP
    assert failure.attempts == PipelineOptions().max_unit_retries + 1
    assert [d.key for d in report.programs] == [
        key for key in NAS_KEYS if key != EP
    ]
    assert report.programs == tuple(
        d for d in expected.programs if d.key != EP
    )


def test_unit_failures_round_trip_through_report_json():
    report = detect_corpus(jobs=1, keys=KEYS[:2])
    wounded = report.__class__(
        programs=report.programs,
        jobs=report.jobs,
        failures=(UnitFailure(name="lost", suite="NAS", function="f",
                              error="worker died", attempts=3),),
    )
    rebuilt = report_from_json(report_to_json(wounded))
    assert rebuilt.failures == wounded.failures
    assert "FAILED" in wounded.summary()
    assert "after 3 attempt(s)" in wounded.failures[0].describe()


# -- worker lifecycle: recycling and liveness ---------------------------------


def test_max_tasks_per_worker_recycles_without_changing_reports():
    options = PipelineOptions(jobs=2, granularity="function",
                              max_tasks_per_worker=3)
    with ServingEngine(options) as engine:
        before = {h.process.pid for h in engine._workers.values()}
        report = engine.serve(KEYS[:5])
        after = {h.process.pid for h in engine._workers.values()}
        assert engine.recycled > 0
        assert before != after
        assert len(engine._workers) == engine.workers
    assert report.fingerprint() == serial(KEYS[:5]).fingerprint()


def test_heartbeats_keep_slow_workers_alive_under_a_tight_timeout():
    """Liveness is heartbeat-based, not result-gap-based: with a
    timeout far shorter than the whole run, workers that beat from a
    background thread are never falsely declared hung."""
    options = PipelineOptions(jobs=2, granularity="function",
                              heartbeat_interval=0.05,
                              heartbeat_timeout=1.0,
                              start_method="fork")
    with ServingEngine(options) as engine:
        report = engine.serve(KEYS[:10])
        assert engine.worker_deaths == 0
        assert engine.resubmissions == 0
    assert report.fingerprint() == serial(KEYS[:10]).fingerprint()


def test_stale_heartbeat_declares_a_hung_worker_dead():
    """A worker whose process is alive but silent past the heartbeat
    timeout is terminated and replaced like a dead one."""
    options = PipelineOptions(jobs=2, granularity="program")
    with ServingEngine(options) as engine:
        handle = next(iter(engine._workers.values()))
        hung_pid = handle.process.pid
        handle.last_beat = (
            time.monotonic() - engine.options.heartbeat_timeout - 1.0
        )
        engine._check_liveness()
        assert engine.worker_deaths == 1
        assert len(engine._workers) == engine.workers
        assert hung_pid not in {
            h.process.pid for h in engine._workers.values()
        }
        report = engine.serve(KEYS[:2])
    assert report.fingerprint() == serial(KEYS[:2]).fingerprint()


def test_duplicate_results_from_a_falsely_dead_worker_count_once():
    """The duplicate guard: a unit resubmitted after a false death
    verdict may produce two results; only the first is delivered."""
    unit = WorkUnit("EP", "NAS")
    digest = UnitDigest(name="EP", suite="NAS", function=None,
                        index=0, total=1, functions=())

    class _Engine:
        workers = 1

    job = ServingJob(_Engine(), 0, [("EP", "NAS")], 1)
    job._expect(unit)
    job._deliver(digest)
    assert job.done and len(job._completed) == 1
    job._deliver(digest)  # the late duplicate
    assert job._pending_units == 0
    assert len(job._completed) == 1
    job._lost(unit, UnitFailure("EP", "NAS", None, "late verdict", 2))
    assert job._failures == []


# -- submit must not leak workers ---------------------------------------------


def test_failing_submit_on_a_cold_engine_leaks_no_workers():
    """Regression: ``submit`` used to auto-start the pool *before*
    planning, so a planning failure left worker processes running with
    no job and no context manager to reap them."""
    engine = ServingEngine(PipelineOptions(jobs=2,
                                           granularity="function"))
    assert not engine.running
    with pytest.raises(KeyError, match="no-such-program"):
        engine.submit([("no-such-program", "NAS")])
    assert not engine.running
    assert engine._workers == {}
    # The engine is not poisoned: a valid submit afterwards works.
    with engine:
        report = engine.serve(KEYS[:2])
    assert not engine.running
    assert report.fingerprint() == serial(KEYS[:2]).fingerprint()


def test_failing_submit_keeps_a_busy_engine_running():
    """A planning failure must tear down only a pool it started: with
    another job in flight, the engine keeps serving."""
    options = PipelineOptions(jobs=2, granularity="function")
    with ServingEngine(options) as engine:
        job = engine.submit(KEYS[:3])
        with pytest.raises(KeyError, match="no-such-program"):
            engine.submit([("no-such-program", "NAS")])
        assert engine.running
        report = job.result()
    assert report.fingerprint() == serial(KEYS[:3]).fingerprint()


def test_poisoned_proxy_propagates_instead_of_silently_degrading(
        monkeypatch):
    """A static proxy that crashes (a compile bug, a corrupted module)
    fails the run in the parent, before any worker starts — there is
    no fallback weight that could hide it."""
    import repro.pipeline.shard as shard_module

    def poisoned(unit):
        raise RuntimeError("compiler exploded")

    monkeypatch.setattr(shard_module, "unit_weight", poisoned)
    engine = ServingEngine(PipelineOptions(jobs=2))
    with pytest.raises(RuntimeError, match="compiler exploded"):
        engine.submit(KEYS[:3])
    assert not engine.running
    assert engine._workers == {}
    with pytest.raises(RuntimeError, match="compiler exploded"):
        detect_corpus(jobs=2, keys=KEYS[:3])
