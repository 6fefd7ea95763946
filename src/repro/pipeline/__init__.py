"""Corpus-scale detection pipeline.

The paper's detector runs once per compiled program; the north-star is
a system that detects reductions across heavy corpus traffic as fast as
the hardware allows.  This package is the seam between the two: a
staged, batched detection engine that

* **plans** corpus work as units — whole programs, or ``(program,
  function)`` units so one giant module cannot serialize a run — and
  serves them heaviest-first by a static size proxy
  (:mod:`repro.pipeline.shard`),
* runs each unit through the **staged** worker — compile (cached per
  worker) → detect (shared solver caches) → extension idioms →
  baseline models (:mod:`repro.pipeline.worker`),
* reassembles unit results with a **deterministic checked merge**
  back into canonical corpus order (:mod:`repro.pipeline.engine`),
* runs every parallel job — a ``detect_corpus(jobs>1)`` sweep as a
  short-lived session, continuous traffic as a long-lived one —
  through one **serving engine**: warm workers, async submission,
  streamed per-program digests, weighted-fair **priority scheduling** (interactive vs
  batch job classes), per-job **cancellation**, and **fault
  tolerance**: heartbeat liveness, worker recycling, and bounded
  resubmission of units lost to killed workers
  (:mod:`repro.pipeline.serving`), and
* exposes the persistent engine over the network through a **socket
  gateway** — length-prefixed JSON frames, streamed digests,
  mid-flight cancellation and per-connection admission control with
  structured retry-after backpressure (:mod:`repro.pipeline.gateway`),
  and
* reports everything as process-portable **digests** whose fingerprint
  is byte-identical between ``jobs=1``, ``jobs=N``, function-sharded,
  served and gateway-served runs (:mod:`repro.pipeline.digest`).

Quickstart::

    from repro.pipeline import PipelineOptions, ServingEngine, detect_corpus

    # jobs>1 runs one short-lived ServingEngine session.
    report = detect_corpus(jobs=4, extended=True, granularity="function")
    print(report.summary())
    assert report.fingerprint() == detect_corpus(jobs=1,
                                                 extended=True).fingerprint()

    with ServingEngine(PipelineOptions(jobs=4, extended=True,
                                       granularity="function")) as engine:
        for digest in engine.submit().stream():
            print(digest.name, digest.counts())
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "PipelineOptions": "options",
    "default_jobs": "options",
    "ServingEngine": "serving",
    "ServingJob": "serving",
    "JobClass": "serving",
    "JobPlan": "serving",
    "JobCancelled": "serving",
    "PriorityScheduler": "serving",
    "serve_worker": "serving",
    "GatewayServer": "gateway",
    "GatewayClient": "gateway",
    "GatewayRequest": "gateway",
    "GatewayError": "gateway",
    "GatewayRejected": "gateway",
    "GatewayRequestFailed": "gateway",
    "detect_corpus": "engine",
    "merge_unit_digests": "engine",
    "lpt_order": "shard",
    "plan_units": "shard",
    "unit_weight": "shard",
    "WorkUnit": "shard",
    "run_unit_shard": "worker",
    "detect_unit": "worker",
    "CorpusReport": "digest",
    "ProgramDigest": "digest",
    "UnitDigest": "digest",
    "UnitFailure": "digest",
    "FunctionDigest": "digest",
    "ScalarDigest": "digest",
    "HistogramDigest": "digest",
    "ExtensionDigest": "digest",
    "assemble_program": "digest",
    "digest_report": "digest",
    "digest_function": "digest",
    "digest_extensions": "digest",
    "report_to_json": "digest",
    "report_from_json": "digest",
    "program_to_json": "digest",
    "program_from_json": "digest",
    "load_report": "digest",
    "save_report": "digest",
    "FeedbackStore": "feedback",
    "canonical_orders": "feedback",
    "feedback_from_detection": "feedback",
    "feedback_from_report": "feedback",
    "load_feedback": "feedback",
    "save_feedback": "feedback",
    "resolve_feedback_options": "engine",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
