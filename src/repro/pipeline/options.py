"""Pipeline configuration.

:class:`PipelineOptions` crosses process boundaries (it is sent to
every worker), so it holds only plain picklable data — notably user
spec *paths*, not loaded registries; each worker builds its own
:class:`~repro.idioms.registry.IdiomRegistry` from them.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    #: Extra ``.icsl`` files loaded into every worker's registry.
    spec_files: tuple[str, ...] = ()
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
    #: Fraction of functions run under a deterministically *perturbed*
    #: enumeration order (one adjacent suffix transposition of one
    #: spec), with the measured outcome recorded as per-order feedback
    #: — see :class:`~repro.pipeline.feedback.ExplorationPolicy`.  The
    #: decision is a pure hash of ``(explore_seed, suite, program,
    #: function)``, so ``jobs=1`` and ``jobs=N`` (fork or spawn,
    #: either granularity) explore the same sample and the recorded
    #: artifact stays byte-reproducible.  0.0 (the default) records no
    #: per-order observations and behaves exactly as before.
    #: Detections are never affected — a perturbed order is still a
    #: checked permutation.
    explore: float = 0.0
    #: Seed of the exploration hash; change it to explore a fresh
    #: deterministic sample of functions and perturbations.
    explore_seed: int = 0
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
    #: dispatch window is ``1 + prefetch_units``).  Prefetching hides the parent's dispatch
    #: latency — a worker finishing a unit starts the next one from its
    #: own queue instead of idling a round-trip through the supervisor
    #: (measured in ``results/BENCH_gateway.json``).  A dead worker's
    #: whole window is recovered: every queued unit is resubmitted,
    #: exactly like the in-flight one.  0 restores depth-one dispatch,
    #: where a later interactive submit overtakes at every unit
    #: boundary instead of every window boundary.  Reports are
    #: identical either way; only latency moves.
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
        if not 0.0 <= self.explore <= 1.0:
            raise ValueError(
                f"explore must be within [0, 1], got {self.explore}"
            )
        # Normalize list arguments so options compare/pickle cleanly.
        object.__setattr__(self, "spec_files", tuple(self.spec_files))
        if self.suites is not None:
            object.__setattr__(self, "suites", tuple(self.suites))
        if self.spec_orders is not None:
            from .feedback import canonical_orders

            object.__setattr__(
                self, "spec_orders", canonical_orders(self.spec_orders)
            )
