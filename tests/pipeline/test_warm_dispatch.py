"""Warm dispatch: what a served request costs beyond its search.

A one-worker engine plans an interactive request as whole programs
(one task per program), since no second worker could run its
functions at the same time; batch requests and larger pools keep the
configured granularity.  The gateway admits against the plan the
engine queues, folds solver feedback once per assembled program, and
sends each program to its client once (a ``digest`` frame), so the
``result`` frame only names the programs.  None of it may change a
report or the session's feedback.
"""

import dataclasses
import multiprocessing
import os

import pytest

import repro.pipeline.serving as serving_module
from repro.constraints import SolverStats
from repro.pipeline import (
    FeedbackStore,
    GatewayClient,
    GatewayServer,
    PipelineOptions,
    ServingEngine,
    ServingJob,
    WorkUnit,
    detect_corpus,
    lpt_order,
    plan_units,
    report_from_json,
    report_to_json,
    save_feedback,
)

#: Two programs of five functions each, served interactively.
INTERACTIVE = [("EP", "NAS"), ("IS", "NAS")]
#: Eighteen function units of batch work.
BATCH = [("CG", "NAS"), ("bfs", "Parboil")]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched worker is inherited through fork",
)


def whole_programs(keys):
    return [WorkUnit(name, suite) for name, suite in keys]


def record_tasks(monkeypatch) -> dict:
    """Record every task the parent writes to a worker, by job id."""
    sent: dict = {}
    real = serving_module._WorkerHandle.send

    def recording(handle, task):
        if task is not None:
            sent.setdefault(task[0], []).append(task[1])
        return real(handle, task)

    monkeypatch.setattr(serving_module._WorkerHandle, "send", recording)
    return sent


# -- what a submit plans ------------------------------------------------------


def test_one_worker_sends_one_task_per_interactive_program(monkeypatch):
    sent = record_tasks(monkeypatch)
    options = PipelineOptions(jobs=1, granularity="function")
    with ServingEngine(options) as engine:
        batch = engine.submit(BATCH)
        interactive = engine.submit(INTERACTIVE, priority="interactive")
        assert not batch.done  # the batch job is in flight
        interactive.result()
        batch.result()
    assert sorted(sent[interactive.job_id], key=str) == sorted(
        whole_programs(INTERACTIVE), key=str)
    assert sorted(sent[batch.job_id], key=str) == sorted(
        plan_units(BATCH, "function"), key=str)


@pytest.mark.parametrize("jobs, granularity, interactive_units", [
    (1, "function", "program"),
    (2, "function", "function"),
    (1, "program", "program"),
    (2, "program", "program"),
])
def test_only_a_one_worker_engine_plans_interactive_programs_whole(
        jobs, granularity, interactive_units):
    """Two workers still split interactive jobs, batch jobs keep the
    configured granularity, and ``granularity="program"`` plans whole
    programs either way.  Planning spawns nothing."""
    engine = ServingEngine(PipelineOptions(jobs=jobs,
                                           granularity=granularity))
    interactive = engine.plan(INTERACTIVE + INTERACTIVE, "interactive")
    batch = engine.plan(BATCH, "batch")
    assert not engine.running
    assert interactive.keys == tuple(INTERACTIVE)
    assert interactive.units == tuple(lpt_order(
        plan_units(INTERACTIVE, interactive_units)))
    assert batch.units == tuple(lpt_order(plan_units(BATCH, granularity)))


def test_interactive_reports_equal_the_serial_reports():
    """Whole-program interactive units on one worker, next to function
    units of a batch job, reproduce the serial reports — effort
    counters included."""
    options = PipelineOptions(jobs=1, extended=True, baselines=True,
                              granularity="function")
    with ServingEngine(options) as engine:
        batch = engine.submit(BATCH)
        interactive = engine.submit(INTERACTIVE, priority="interactive")
        reports = interactive.result(), batch.result()
    for report, keys in zip(reports, (INTERACTIVE, BATCH)):
        expected = detect_corpus(jobs=1, keys=keys, extended=True,
                                 baselines=True)
        assert report.programs == expected.programs
        assert report.fingerprint() == expected.fingerprint()


# -- the gateway --------------------------------------------------------------


def test_accepted_units_are_the_units_the_engine_queued(monkeypatch):
    sent = record_tasks(monkeypatch)
    options = PipelineOptions(jobs=1, granularity="function")
    with GatewayServer(options, port=0) as server:
        with GatewayClient(port=server.port, timeout=300.0) as client:
            batch = client.submit(keys=BATCH)
            interactive = client.submit(keys=INTERACTIVE,
                                        priority="interactive")
            client.result(interactive)
            client.result(batch)
    assert interactive.units == len(INTERACTIVE)
    assert batch.units == len(plan_units(BATCH, "function"))
    for request in (batch, interactive):
        assert len(sent[request._admission["job"]]) == request.units


def test_a_rebuilt_result_verifies_the_streamed_digests():
    """The ``result`` frame names the programs; the client rebuilds the
    report from the digests it streamed and checks the fingerprint."""
    with GatewayServer(PipelineOptions(jobs=1), port=0) as server:
        with GatewayClient(port=server.port, timeout=300.0) as client:
            request = client.submit(keys=INTERACTIVE,
                                    priority="interactive")
            list(client.stream(request))
            streamed = list(request.digests)
            request.digests[0] = dataclasses.replace(streamed[0],
                                                     functions=())
            with pytest.raises(ValueError, match="fingerprint"):
                client.result(request)
            request.digests[:] = streamed[1:]
            with pytest.raises(ValueError, match="not streamed"):
                client.result(request)
            request.digests[:] = streamed
            report = client.result(request)
    assert report.programs == detect_corpus(jobs=1,
                                            keys=INTERACTIVE).programs


def test_a_report_without_programs_rebuilds_from_its_digests():
    report = detect_corpus(jobs=1, keys=INTERACTIVE + BATCH)
    data = report_to_json(report, programs=False)
    assert "programs" not in data
    assert data["keys"] == [[name, suite]
                            for name, suite in INTERACTIVE + BATCH]
    rebuilt = report_from_json(data, reversed(report.programs))
    assert rebuilt == report
    assert rebuilt.fingerprint() == report.fingerprint()


# -- solver feedback ----------------------------------------------------------


@needs_fork
def test_feedback_snapshot_equals_the_per_unit_fold(monkeypatch, tmp_path):
    """Feedback summed per program as its units arrive — handed over
    when the program assembles, fails or is dropped — is
    byte-identical to folding every accounted unit as it arrives,
    after a session with a cancelled job and a unit that raised in its
    worker."""
    delivered = []
    real_deliver = ServingJob._deliver

    def recording(job, digest):
        # Copied on delivery: the job keeps no unit's statistics.
        copied = {name: SolverStats().merge(stats)
                  for name, stats in digest.spec_stats.items()}
        folded = real_deliver(job, digest)
        if folded is not None:  # accounted, not a duplicate
            delivered.append(copied)
        return folded

    monkeypatch.setattr(ServingJob, "_deliver", recording)
    dropped_at_failure = []
    real_fail = ServingJob._fail

    def recording_fail(job, unit, message):
        dropped = real_fail(job, unit, message)
        if dropped:
            dropped_at_failure.append(dropped)
        return dropped

    monkeypatch.setattr(ServingJob, "_fail", recording_fail)

    failing_keys = [("histo", "Parboil"), ("bfs", "Parboil")]
    # A unit with units of its program queued before and after it.
    victim = [unit for unit in lpt_order(plan_units(failing_keys,
                                                    "function"))
              if unit.key == failing_keys[0]][1]
    real_detect = serving_module.detect_unit
    parent = os.getpid()

    def detect(unit, *args, **kwargs):
        if unit == victim and os.getpid() != parent:
            raise RuntimeError("injected failure")
        return real_detect(unit, *args, **kwargs)

    monkeypatch.setattr(serving_module, "detect_unit", detect)
    options = PipelineOptions(jobs=1, extended=True, granularity="function",
                              start_method="fork")
    with ServingEngine(options) as engine:
        cancelled = engine.submit(BATCH + INTERACTIVE)
        next(cancelled.stream())
        assert cancelled._by_key  # programs delivered only in part
        cancelled.cancel()
        failed = engine.submit(failing_keys)
        # Queued behind the failing job on the one worker: once it is
        # served, every unit of the failing job has been accounted.
        engine.serve(BATCH)
        assert failed.done
        with pytest.raises(RuntimeError, match="injected failure"):
            failed.result()
        engine.serve(INTERACTIVE, priority="interactive")
        snapshot = engine.feedback_snapshot()
    assert dropped_at_failure  # the failed program had delivered units

    per_unit = FeedbackStore()
    for spec_stats in delivered:
        for name, stats in spec_stats.items():
            per_unit.merge_stats(name, stats)
    save_feedback(snapshot, str(tmp_path / "snapshot.json"))
    save_feedback(per_unit, str(tmp_path / "per_unit.json"))
    assert (tmp_path / "snapshot.json").read_bytes() \
        == (tmp_path / "per_unit.json").read_bytes()
