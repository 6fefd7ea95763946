"""Pipeline configuration.

:class:`PipelineOptions` crosses process boundaries (it is sent to
every worker), so it holds only plain picklable data — notably spec
label orders, not loaded registries; each worker builds its own
:class:`~repro.idioms.registry.IdiomRegistry` of the shipped specs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


def default_jobs() -> int:
    """Worker processes for a one-off corpus sweep: the usable CPUs.

    The CPUs this process may run on (its affinity mask, which a
    container's CPU set or ``taskset`` narrows) where the platform
    exposes it, else every CPU the machine reports, and never fewer
    than 1.  Only the ``corpus`` verb uses this as its ``--jobs``
    default: its workers live for one sweep.  Long-lived pools
    (``serve``, ``gateway``) keep a module cache per worker, so their
    size stays a fixed default.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        usable = len(getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return max(1, usable)


@dataclass(frozen=True)
class PipelineOptions:
    """What to run and how to split it."""

    #: Worker process count; 1 runs everything in-process.
    jobs: int = 1
    #: Also run the §8 extension idioms (sharing each function's
    #: solver context — and solved for-loop prefix — with the base
    #: detection).
    extended: bool = False
    #: Also run the icc and Polly baseline models per program.
    baselines: bool = False
    #: Restrict to these suites (None = whole corpus).
    suites: tuple[str, ...] | None = None
    #: multiprocessing start method (None = fork when available).
    start_method: str | None = None
    #: Work-unit granularity: ``"program"`` ships whole programs,
    #: ``"function"`` ships ``(program, function)`` units so one giant
    #: module cannot serialize a run.  Reports are fingerprint-identical
    #: either way.
    granularity: str = "program"
    #: Path to a solver feedback artifact
    #: (:func:`~repro.pipeline.feedback.save_feedback`); the recorded
    #: per-spec statistics re-order every measured idiom spec via
    #: ``suggest_order(feedback=...)`` before detection.  Resolved once
    #: in the parent (into :attr:`spec_orders`) so workers never
    #: re-read or re-verify the file.
    feedback_from: str | None = None
    #: Explicit label enumeration orders (idiom name → label tuple),
    #: applied to every worker registry via
    #: :meth:`~repro.idioms.registry.IdiomRegistry.apply_orders`.
    #: Accepts a mapping or canonical pair-tuples; normalized to the
    #: sorted tuple form so options stay hashable and picklable.
    #: Usually derived from :attr:`feedback_from`; set directly to pin
    #: orders by hand (the benchmark's static-order baseline).
    spec_orders: "tuple | dict | None" = None
    #: Serving engine only: re-derive the spec orders from feedback
    #: accumulated off completed units at every ``submit`` — long-lived
    #: serving sessions self-tune.  Off by default so a default serve
    #: run stays bit-comparable to the batch engine (`--check`).
    feedback_refresh: bool = False
    #: Worker pool (serving sessions and ``detect_corpus(jobs>1)``):
    #: recycle a worker process after it has completed this many units
    #: (None = never).  Recycling bounds the memory a long-lived
    #: worker's caches can accumulate and proves the pool survives
    #: worker turnover.
    max_tasks_per_worker: int | None = None
    #: Worker pool (serving sessions and ``detect_corpus(jobs>1)``):
    #: how many times a unit lost to a dead worker is resubmitted
    #: before the job records a structured
    #: :class:`~repro.pipeline.digest.UnitFailure` for its program.
    max_unit_retries: int = 2
    #: Worker pool (serving sessions and ``detect_corpus(jobs>1)``):
    #: units queued on each worker *beyond* the one it is running (its
    #: dispatch window is ``1 + prefetch_units``).  Prefetching hides
    #: the parent's dispatch latency — a worker finishing a unit starts
    #: the next one from its own queue instead of idling a round-trip
    #: through the supervisor (measured by
    #: ``benchmarks/bench_gateway.py``, whose
    #: ``results/BENCH_gateway.json`` is a CI artifact, not a file in
    #: the tree).  A dead worker's whole window is recovered: every
    #: queued unit is resubmitted, exactly like the in-flight one.
    #: 0 restores depth-one dispatch, where a later interactive
    #: submit overtakes at every unit boundary instead of every window
    #: boundary.  Reports are identical either way; only latency moves.
    prefetch_units: int = 1
    #: Per-worker compiled-module cache bound: a worker keeps at most
    #: this many compiled programs, evicting least-recently-used
    #: (None = unbounded, compatible with the historical behaviour).
    #: Long-lived gateway/serving workers should set this so memory is
    #: a working set, not a leak; eviction is recompute cost only and
    #: can never change a digest.
    module_cache_size: int | None = None
    #: Gateway only: the per-connection admission budget, in pending
    #: work units.  A submit that would push one connection's
    #: in-flight units past this is rejected with a structured
    #: retry-after frame instead of being queued — a greedy batch
    #: client saturates its own budget, not the scheduler.
    gateway_unit_budget: int = 256
    #: Worker pool (serving sessions and ``detect_corpus(jobs>1)``):
    #: seconds between worker heartbeat messages.
    heartbeat_interval: float = 1.0
    #: Worker pool (serving sessions and ``detect_corpus(jobs>1)``): a
    #: worker whose process is alive but whose last heartbeat is older
    #: than this is declared hung and replaced (its in-flight unit is
    #: resubmitted like any lost unit).
    heartbeat_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.granularity not in ("program", "function"):
            raise ValueError(
                f"granularity must be 'program' or 'function', "
                f"got {self.granularity!r}"
            )
        if (self.max_tasks_per_worker is not None
                and self.max_tasks_per_worker < 1):
            raise ValueError(
                f"max_tasks_per_worker must be >= 1 or None, "
                f"got {self.max_tasks_per_worker}"
            )
        if self.prefetch_units < 0:
            raise ValueError(
                f"prefetch_units must be >= 0, got {self.prefetch_units}"
            )
        if self.max_unit_retries < 0:
            raise ValueError(
                f"max_unit_retries must be >= 0, "
                f"got {self.max_unit_retries}"
            )
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be > 0")
        if (self.module_cache_size is not None
                and self.module_cache_size < 1):
            raise ValueError(
                f"module_cache_size must be >= 1 or None, "
                f"got {self.module_cache_size}"
            )
        if self.gateway_unit_budget < 1:
            raise ValueError(
                f"gateway_unit_budget must be >= 1, "
                f"got {self.gateway_unit_budget}"
            )
        # Normalize list arguments so options compare/pickle cleanly.
        if self.suites is not None:
            object.__setattr__(self, "suites", tuple(self.suites))
        if self.spec_orders is not None:
            from .feedback import canonical_orders

            object.__setattr__(
                self, "spec_orders", canonical_orders(self.spec_orders)
            )
