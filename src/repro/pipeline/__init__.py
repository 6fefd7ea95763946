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

from .digest import (
    CorpusReport,
    ExtensionDigest,
    FunctionDigest,
    HistogramDigest,
    ProgramDigest,
    ScalarDigest,
    UnitDigest,
    UnitFailure,
    assemble_program,
    digest_extensions,
    digest_function,
    digest_report,
    load_report,
    program_from_json,
    program_to_json,
    report_from_json,
    report_to_json,
    save_report,
)
from .engine import (
    detect_corpus,
    merge_unit_digests,
    resolve_feedback_options,
)
from .feedback import (
    ExplorationPolicy,
    FeedbackStore,
    OrderObs,
    canonical_orders,
    feedback_from_detection,
    feedback_from_report,
    load_feedback,
    save_feedback,
    shape_bucket,
)
from .gateway import (
    GatewayClient,
    GatewayError,
    GatewayRejected,
    GatewayRequest,
    GatewayRequestFailed,
    GatewayServer,
)
from .options import PipelineOptions
from .serving import (
    JobCancelled,
    JobClass,
    PriorityScheduler,
    ServingEngine,
    ServingJob,
    serve_worker,
)
from .shard import (
    WorkUnit,
    lpt_order,
    plan_units,
    unit_weight,
)
from .worker import detect_unit, run_unit_shard

__all__ = [
    "PipelineOptions",
    "ServingEngine",
    "ServingJob",
    "JobClass",
    "JobCancelled",
    "PriorityScheduler",
    "serve_worker",
    "GatewayServer",
    "GatewayClient",
    "GatewayRequest",
    "GatewayError",
    "GatewayRejected",
    "GatewayRequestFailed",
    "detect_corpus",
    "merge_unit_digests",
    "lpt_order",
    "plan_units",
    "unit_weight",
    "WorkUnit",
    "run_unit_shard",
    "detect_unit",
    "CorpusReport",
    "ProgramDigest",
    "UnitDigest",
    "UnitFailure",
    "FunctionDigest",
    "ScalarDigest",
    "HistogramDigest",
    "ExtensionDigest",
    "assemble_program",
    "digest_report",
    "digest_function",
    "digest_extensions",
    "report_to_json",
    "report_from_json",
    "program_to_json",
    "program_from_json",
    "load_report",
    "save_report",
    "ExplorationPolicy",
    "FeedbackStore",
    "OrderObs",
    "shape_bucket",
    "canonical_orders",
    "feedback_from_detection",
    "feedback_from_report",
    "load_feedback",
    "save_feedback",
    "resolve_feedback_options",
]
