"""The batch pipeline driver: plan units → shard → map → merge.

:func:`detect_corpus` is the batch entry point the evaluation drivers,
the CLI (``python -m repro corpus --jobs N``) and the benchmarks use.
``jobs=1`` runs the worker in-process; ``jobs>1`` spreads shards over a
``multiprocessing`` pool.  Work is planned as
:class:`~repro.pipeline.shard.WorkUnit`\\ s — whole programs by
default, ``(program, function)`` pairs at function granularity — and
every path executes the *same* worker code on the *same* deterministic
shards before :func:`merge_unit_digests` reassembles canonical corpus
order, so a parallel (or function-sharded) run's
:class:`~repro.pipeline.digest.CorpusReport` is identical (same
fingerprint) to the serial program-granularity one, only faster.

For serving-style traffic — long-lived workers, async submission,
streaming digests — see :mod:`repro.pipeline.serving`, which reuses
the planning, worker and merge layers of this module.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Sequence

from .digest import (
    CorpusReport,
    ProgramDigest,
    UnitDigest,
    assemble_program,
    load_report,
)
from .options import PipelineOptions
from .shard import make_shards, measured_weights, plan_units
from .worker import run_unit_shard

Key = tuple[str, str]


def merge_digests(
    shard_results: Sequence[Sequence[ProgramDigest]],
    keys: Sequence[Key],
) -> tuple[ProgramDigest, ...]:
    """Reduce per-shard program digests back into canonical order.

    The merge is *checked*: every requested key must arrive exactly
    once, so a lost or duplicated shard fails loudly instead of
    producing a silently-different report.
    """
    by_key: dict[Key, ProgramDigest] = {}
    for digests in shard_results:
        for digest in digests:
            if digest.key in by_key:
                raise ValueError(
                    f"program {digest.key} produced by two shards"
                )
            by_key[digest.key] = digest
    missing = [key for key in keys if key not in by_key]
    if missing:
        raise ValueError(f"shards returned no result for {missing}")
    unexpected = set(by_key) - set(keys)
    if unexpected:
        raise ValueError(f"shards returned unrequested {sorted(unexpected)}")
    return tuple(by_key[key] for key in keys)


def merge_unit_digests(
    shard_results: Sequence[Sequence[UnitDigest]],
    keys: Sequence[Key],
) -> tuple[ProgramDigest, ...]:
    """Reassemble unit digests into canonical-order program digests.

    Checked like :func:`merge_digests`, one level deeper: no unit may
    arrive twice, every requested program must arrive, and each
    program's units must cover its functions exactly
    (:func:`~repro.pipeline.digest.assemble_program` verifies the
    index range) — a shard lost mid-program fails loudly.
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

    Shared by the batch pipeline and the serving engine so the two can
    never disagree on the key set (the fingerprint-identity contract).
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
    import dataclasses

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


def resolve_weight_source(
    options: PipelineOptions,
    weights: "CorpusReport | Callable | None" = None,
) -> Callable | None:
    """The shard-weight callable for a run, or None for the static proxy.

    ``weights`` may be a previous run's :class:`CorpusReport` (its
    measured costs are used directly) or an arbitrary callable;
    otherwise ``options.weights_from`` names a report JSON on disk.
    """
    if weights is not None:
        if isinstance(weights, CorpusReport):
            return measured_weights(weights)
        return weights
    if options.weights_from:
        return measured_weights(load_report(options.weights_from))
    return None


class DetectionPipeline:
    """A configured corpus-detection run."""

    def __init__(self, options: PipelineOptions | None = None, **kwargs):
        self.options = (
            options if options is not None else PipelineOptions(**kwargs)
        )

    def keys(self) -> list[Key]:
        """The corpus keys this run covers, in canonical order."""
        return planned_keys(self.options)

    def run(
        self,
        keys: Sequence[Key] | None = None,
        weights: "CorpusReport | Callable | None" = None,
    ) -> CorpusReport:
        """Execute the pipeline; ``keys`` restricts the program set.

        ``weights`` overrides the shard-cost source (see
        :func:`resolve_weight_source`); sharding happens in the parent
        process, so the source never crosses a process boundary.
        """
        options = resolve_feedback_options(self.options)
        keys = list(keys) if keys is not None else self.keys()
        started = time.perf_counter()
        units = plan_units(keys, options.granularity,
                           options.split_threshold)
        weight = resolve_weight_source(options, weights)
        shards = make_shards(units, options.jobs, weight=weight)
        if len(shards) <= 1 or options.jobs == 1:
            shard_results = [
                run_unit_shard(shard, options) for shard in shards
            ]
        else:
            shard_results = self._run_pool(shards, options)
        programs = merge_unit_digests(shard_results, keys)
        return CorpusReport(
            programs=programs,
            jobs=options.jobs,
            wall_seconds=time.perf_counter() - started,
        )

    def _run_pool(self, shards, options: PipelineOptions | None = None):
        options = options if options is not None else self.options
        method = options.start_method
        if method is None:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        mp = multiprocessing.get_context(method)
        with mp.Pool(processes=len(shards)) as pool:
            return pool.starmap(
                run_unit_shard, [(shard, options) for shard in shards]
            )


def detect_corpus(
    jobs: int = 1,
    extended: bool = False,
    baselines: bool = False,
    suites: Sequence[str] | None = None,
    spec_files: Sequence[str] = (),
    start_method: str | None = None,
    keys: Sequence[Key] | None = None,
    granularity: str = "program",
    split_threshold: int = 1,
    weights_from: str | None = None,
    weights: "CorpusReport | Callable | None" = None,
    feedback_from: str | None = None,
    spec_orders=None,
    explore: float = 0.0,
    explore_seed: int = 0,
) -> CorpusReport:
    """Detect reductions across the corpus, optionally in parallel.

    ``feedback_from`` re-orders every measured idiom spec from a
    recorded solver feedback artifact
    (:func:`~repro.pipeline.feedback.save_feedback`); ``spec_orders``
    pins explicit label orders instead (idiom name → label tuple) and
    **takes precedence** — when both are given the artifact is
    ignored, since explicit orders are exactly the resolved form a
    feedback artifact produces.  Either way the detections are
    unchanged — only the search order, and therefore the
    constraint-eval cost, moves.

    ``explore`` turns on deterministic order exploration (see
    :class:`~repro.pipeline.feedback.ExplorationPolicy`): that
    fraction of functions runs under a one-transposition perturbed
    order, and the report's digests carry per-order observations the
    feedback store uses to adopt strictly-better measured orders.
    """
    options = PipelineOptions(
        jobs=jobs,
        extended=extended,
        baselines=baselines,
        suites=tuple(suites) if suites is not None else None,
        spec_files=tuple(spec_files),
        start_method=start_method,
        granularity=granularity,
        split_threshold=split_threshold,
        weights_from=weights_from,
        feedback_from=feedback_from,
        spec_orders=spec_orders,
        explore=explore,
        explore_seed=explore_seed,
    )
    return DetectionPipeline(options).run(keys=keys, weights=weights)
