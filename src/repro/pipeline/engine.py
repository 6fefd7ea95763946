"""The batch pipeline driver: plan units → map → checked merge.

:func:`detect_corpus` is the batch entry point the evaluation drivers,
the CLI (``python -m repro corpus --jobs N``) and the benchmarks use.
Work is planned as :class:`~repro.pipeline.shard.WorkUnit`\\ s — whole
programs by default, ``(program, function)`` pairs at function
granularity.  ``jobs=1`` (or a single unit) runs the worker in-process
and reassembles canonical corpus order with :func:`merge_unit_digests`;
``jobs>1`` runs one short-lived
:class:`~repro.pipeline.serving.ServingEngine` session, so a parallel
sweep has the serving engine's dynamic pull, checked per-program
assembly and resubmission of units lost to dead workers.  Either
way the worker code is the same, so a parallel (or function-sharded)
run's :class:`~repro.pipeline.digest.CorpusReport` is identical (same
fingerprint) to the serial program-granularity one, only faster.

This module also holds the parent-side pieces both drivers share: the
planned key set and feedback resolution.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Sequence

from .digest import (
    CorpusReport,
    ProgramDigest,
    UnitDigest,
    assemble_program,
)
from .options import PipelineOptions
from .shard import plan_units
from .worker import run_unit_shard

Key = tuple[str, str]


def merge_unit_digests(
    shard_results: Sequence[Sequence[UnitDigest]],
    keys: Sequence[Key],
) -> tuple[ProgramDigest, ...]:
    """Reassemble unit digests into canonical-order program digests.

    The merge is *checked*: no unit may arrive twice, every requested
    program must arrive, nothing unrequested may appear, and each
    program's units must cover its functions exactly
    (:func:`~repro.pipeline.digest.assemble_program` verifies the
    index range) — a unit lost mid-program fails loudly instead of
    producing a silently-different report.
    """
    by_key: dict[Key, list[UnitDigest]] = {}
    seen: set[tuple[Key, str | None]] = set()
    for digests in shard_results:
        for digest in digests:
            marker = (digest.key, digest.function)
            if marker in seen:
                raise ValueError(f"unit {marker} produced by two shards")
            seen.add(marker)
            by_key.setdefault(digest.key, []).append(digest)
    missing = [key for key in keys if key not in by_key]
    if missing:
        raise ValueError(f"shards returned no result for {missing}")
    unexpected = set(by_key) - set(keys)
    if unexpected:
        raise ValueError(f"shards returned unrequested {sorted(unexpected)}")
    return tuple(assemble_program(by_key[key]) for key in keys)


def planned_keys(options: PipelineOptions) -> list[Key]:
    """The corpus keys a run with ``options`` covers, canonical order.

    Shared by :func:`detect_corpus` and the serving engine so the two
    can never disagree on the key set (the fingerprint-identity contract).
    """
    from ..workloads import corpus_keys

    keys = corpus_keys()
    if options.suites is not None:
        keys = [key for key in keys if key[1] in options.suites]
    return keys


def resolve_feedback_with_store(
    options: PipelineOptions, registry=None
) -> tuple:
    """``(resolved options, loaded FeedbackStore | None)``.

    The single implementation of the feedback-resolution invariant:
    the artifact is read (and fingerprint-verified) **once, in the
    parent** — a bad artifact fails before any worker is spawned, and
    what ships to workers is the derived plain-data order mapping,
    never a path every process would re-read.  Options with explicit
    ``spec_orders`` — or no feedback at all — pass through unchanged
    with no store.  ``registry`` supplies the pristine registry orders
    are derived against (built from the options when omitted); the
    serving engine passes its own so it can keep the loaded store as
    the seed of its live, self-tuning feedback.
    """
    if not options.feedback_from or options.spec_orders is not None:
        return options, None
    from .feedback import canonical_orders, load_feedback
    from .worker import _build_registry

    store = load_feedback(options.feedback_from)
    if registry is None:
        registry = _build_registry(
            dataclasses.replace(options, feedback_from=None)
        )
    orders = canonical_orders(store.spec_orders(registry))
    if orders is None:
        # The store suggests no change (it usually reproduces the
        # recorded orders exactly); drop the path so workers skip the
        # standalone-fallback reload too.
        return dataclasses.replace(options, feedback_from=None), store
    return dataclasses.replace(options, spec_orders=orders), store


def resolve_feedback_options(options: PipelineOptions) -> PipelineOptions:
    """Options with ``feedback_from`` resolved into ``spec_orders``
    (see :func:`resolve_feedback_with_store`)."""
    return resolve_feedback_with_store(options)[0]


def detect_corpus(
    jobs: int = 1,
    extended: bool = False,
    baselines: bool = False,
    suites: Sequence[str] | None = None,
    start_method: str | None = None,
    keys: Sequence[Key] | None = None,
    granularity: str = "program",
    feedback_from: str | None = None,
    spec_orders=None,
) -> CorpusReport:
    """Detect reductions across the corpus, optionally in parallel.

    ``keys`` restricts the program set (default: the whole corpus, or
    the ``suites`` given); a repeated key runs once, at its first
    position.  With ``jobs>1`` and more than one unit, the units run
    on a :class:`~repro.pipeline.serving.ServingEngine` of
    ``min(jobs, units)`` workers, started for this call and shut down
    before it returns; otherwise they run in-process.  On the engine,
    units lost to dead workers are resubmitted and, past the retry
    budget, recorded on the report's ``failures``.

    ``feedback_from`` re-orders every measured idiom spec from a
    recorded solver feedback artifact
    (:func:`~repro.pipeline.feedback.save_feedback`); ``spec_orders``
    pins explicit label orders instead (idiom name → label tuple) and
    **takes precedence** — when both are given the artifact is
    ignored, since explicit orders are exactly the resolved form a
    feedback artifact produces.  Either way the detections are
    unchanged — only the search order, and therefore the
    constraint-eval cost, moves.
    """
    options = PipelineOptions(
        jobs=jobs,
        extended=extended,
        baselines=baselines,
        suites=tuple(suites) if suites is not None else None,
        start_method=start_method,
        granularity=granularity,
        feedback_from=feedback_from,
        spec_orders=spec_orders,
    )
    keys = planned_keys(options) if keys is None else list(dict.fromkeys(keys))
    started = time.perf_counter()
    units = plan_units(keys, options.granularity)
    workers = min(options.jobs, len(units))
    if workers <= 1:
        options = resolve_feedback_options(options)
        programs = merge_unit_digests(
            [run_unit_shard(units, options)], keys
        )
        failures = ()
    else:
        from .serving import ServingEngine

        engine = ServingEngine(dataclasses.replace(options, jobs=workers))
        try:
            served = engine.submit(keys).result()
        finally:
            engine.shutdown()
        programs, failures = served.programs, served.failures
    return CorpusReport(
        programs=programs,
        jobs=options.jobs,
        wall_seconds=time.perf_counter() - started,
        failures=failures,
    )
