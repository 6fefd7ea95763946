"""Corpus-scale pipeline benchmark: the serial run vs the parallel
pipeline — plus the persistent serving engine.

Acceptance metric of the pipeline, recorded in
``results/BENCH_pipeline.json``: the parallel run (``jobs>1``, one
short-lived serving session) produces a report **identical** to the
serial one (same fingerprint, timings aside).  The wall-clock of both
runs is recorded, not asserted: on a single core parallelism only adds
process overhead.

Acceptance metric of the serving engine, recorded in
``results/BENCH_serving.json``:

* the persistent engine's served report is **fingerprint-identical**
  to the ``jobs=1`` batch run, cold and warm;
* an ``INTERACTIVE`` submit **overtakes** a queued full-corpus
  ``BATCH`` job (weighted-fair dequeue): at interactive completion the
  batch job must still have pending units, and both reports stay
  fingerprint-identical to batch mode.
"""

import json
import multiprocessing
import os
import time

from conftest import RESULTS_DIR, write_artifact
from repro.evaluation.render import table
from repro.pipeline import (
    JobClass,
    PipelineOptions,
    ServingEngine,
    detect_corpus,
)

#: Shard count for the parallel configuration (>1 by construction).
JOBS = max(2, min(4, multiprocessing.cpu_count()))

ROUNDS = 3


def _measure(**kwargs):
    """Best-of-N wall clock plus the (identical) report of the runs."""
    best = None
    report = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        report = detect_corpus(**kwargs)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return report, best


def test_sharded_pipeline_matches_serial(benchmark):
    def run_sharded():
        return detect_corpus(jobs=JOBS, extended=True, baselines=True)

    benchmark.pedantic(run_sharded, rounds=1, iterations=1)

    configurations = {
        "serial": dict(jobs=1, extended=True, baselines=True),
        "sharded": dict(jobs=JOBS, extended=True, baselines=True),
    }
    runs = {
        name: _measure(**kwargs) for name, kwargs in configurations.items()
    }
    serial, serial_wall = runs["serial"]
    sharded, sharded_wall = runs["sharded"]

    # Identical reports: sharded ≡ serial byte-for-byte.
    assert sharded.fingerprint() == serial.fingerprint()
    assert sharded.programs == serial.programs
    assert sharded.counts() == (84, 6)

    payload = {
        "jobs": JOBS,
        "cpu_count": multiprocessing.cpu_count(),
        "programs": len(sharded.programs),
        "rounds": ROUNDS,
        "configurations": {
            name: {
                "jobs": report.jobs,
                "wall_seconds": round(wall, 4),
                "constraint_evals": report.total_constraint_evals,
                "fingerprint": report.fingerprint(),
                "detection_fingerprint": report.fingerprint(effort=False),
            }
            for name, (report, wall) in runs.items()
        },
        "sharded_vs_serial_wall": round(serial_wall / sharded_wall, 3),
    }
    existing = {}
    existing_path = os.path.join(RESULTS_DIR, "BENCH_pipeline.json")
    if os.path.exists(existing_path):
        with open(existing_path) as handle:
            existing = json.load(handle)
    # Preserve bench_compiled.py's solver-layer section when present.
    if "compiled_engine" in existing:
        payload["compiled_engine"] = existing["compiled_engine"]
    write_artifact("BENCH_pipeline.json", json.dumps(payload, indent=2))

    rows = [
        [name, report.jobs, report.total_constraint_evals,
         f"{wall * 1000:.0f} ms"]
        for name, (report, wall) in runs.items()
    ]
    text = table(
        ["configuration", "jobs", "constraint evals", "wall (best of 3)"],
        rows,
        title="corpus pipeline: serial vs sharded",
    )
    print()
    print(write_artifact("bench_pipeline.txt", text))


# -- serving engine -----------------------------------------------------------


def test_serving_engine_matches_batch():
    """Acceptance for the serving engine: the persistent pool serves
    reports byte-identical to the batch engine, cold and warm, and an
    interactive submit overtakes a queued batch job."""
    batch = detect_corpus(jobs=1, extended=True, baselines=True)

    # -- persistent serving engine: identical reports, cold and warm.
    options = PipelineOptions(jobs=2, extended=True, baselines=True,
                              granularity="function")
    with ServingEngine(options) as engine:
        started = time.perf_counter()
        cold = engine.serve()
        cold_wall = time.perf_counter() - started
        started = time.perf_counter()
        warm = engine.serve()
        warm_wall = time.perf_counter() - started

        # -- priority classes: an interactive submit overtakes a deep
        # batch backlog (weighted-fair dequeue), without changing
        # either report.
        keys = engine.keys()
        batch_job = engine.submit(priority=JobClass.BATCH)
        batch_units = batch_job._pending_units
        started = time.perf_counter()
        interactive_job = engine.submit(keys[:2],
                                        priority=JobClass.INTERACTIVE)
        interactive_report = interactive_job.result()
        interactive_wall = time.perf_counter() - started
        overtaken = batch_job._pending_units
        assert overtaken > 0  # the batch backlog was overtaken
        assert batch_job.result().fingerprint() == batch.fingerprint()
        assert interactive_report.programs == batch.programs[:2]
    assert cold.fingerprint() == batch.fingerprint()
    assert warm.fingerprint() == batch.fingerprint()
    assert cold.programs == batch.programs

    payload = {
        "cpu_count": multiprocessing.cpu_count(),
        "programs": len(batch.programs),
        "serving": {
            "workers": options.jobs,
            "granularity": options.granularity,
            "cold_wall_seconds": round(cold_wall, 4),
            "warm_wall_seconds": round(warm_wall, 4),
            "fingerprint_identical_to_batch": True,
        },
        "priority": {
            "batch_units_submitted": batch_units,
            "batch_units_pending_at_interactive_completion": overtaken,
            "interactive_programs": 2,
            "interactive_wall_seconds": round(interactive_wall, 4),
            "fingerprints_unchanged": True,
        },
    }
    write_artifact("BENCH_serving.json", json.dumps(payload, indent=2))

    rows = [
        ["cold full corpus", f"{cold_wall * 1000:.0f} ms"],
        ["warm full corpus", f"{warm_wall * 1000:.0f} ms"],
        ["interactive (2 programs, batch queued)",
         f"{interactive_wall * 1000:.0f} ms"],
    ]
    text = table(
        ["request", "wall"],
        rows,
        title=f"serving engine ({options.jobs} workers, "
              f"{options.granularity} units)",
    )
    print()
    print(write_artifact("bench_serving.txt", text))
