"""Persistent serving engine: long-lived workers, streamed digests,
priority scheduling and fault tolerance.

:class:`ServingEngine` is the one parallel driver: a long-lived
session serves continuous traffic, and ``detect_corpus(jobs>1)``
(:mod:`repro.pipeline.engine`) runs one short-lived session per
sweep — start, one submit, shutdown.  A long-lived session keeps a
fixed set of worker processes alive across requests, so process
spawn, registry builds and module compiles are paid once per worker,
not once per request:

* **submission is asynchronous** — :meth:`ServingEngine.submit` plans
  the request into :class:`~repro.pipeline.shard.WorkUnit`\\ s, enqueues
  them and returns a :class:`ServingJob` immediately; several jobs may
  be in flight at once, their results routed by job id;
* **scheduling is class-aware** — every job carries a
  :class:`JobClass` (``INTERACTIVE`` or ``BATCH``); pending units are
  dequeued weighted-fair (stride scheduling), so an interactive submit
  overtakes a deep backlog of queued batch units instead of waiting
  behind it, while a lone batch job still gets the whole pool;
* **dispatch is windowed** — each worker runs one unit and holds up
  to ``prefetch_units`` more on its private task pipe, so finishing a
  unit starts the next without idling a supervisor round-trip; the
  worker-side gap is measured per unit and reported through
  :meth:`ServingEngine.mean_dispatch_gap`;
* **jobs are cancellable** — :meth:`ServingJob.cancel` drains the
  job's queued units from the scheduler, flags its in-flight units
  (their results are dropped on arrival) and makes
  :meth:`ServingJob.stream`/:meth:`ServingJob.result` raise
  :class:`JobCancelled`; later submits are unaffected;
* **workers are supervised** — each worker sends heartbeats from a
  background thread; a worker whose process died (or whose heartbeat
  went stale) is replaced, its in-flight unit resubmitted with a
  bounded retry budget, after which the job records a structured
  :class:`~repro.pipeline.digest.UnitFailure` instead of hanging.
  ``max_tasks_per_worker`` recycles workers after a task quota, so a
  long-lived pool survives worker turnover by construction;
* **workers are warm** — each worker keeps its
  :class:`~repro.idioms.registry.IdiomRegistry` and a compiled-module
  cache, with one solver context (the function's analyses) per cached
  function it ran more than once, for the life of the process, so
  repeated traffic over the same corpus pays compiles and analyses
  once or twice per worker, not once per request.

Determinism: :meth:`ServingJob.result` reassembles each program
through the checked :func:`~repro.pipeline.digest.assemble_program`,
so a serving run's :class:`~repro.pipeline.digest.CorpusReport` is
fingerprint-identical to ``detect_corpus(jobs=1)`` with the same
options — including runs where a worker was killed mid-job and its
units were resubmitted (property- and chaos-tested in
``tests/pipeline/test_serving.py`` and
``tests/pipeline/test_reliability.py``).

Quickstart::

    from repro.pipeline import JobClass, PipelineOptions, ServingEngine

    with ServingEngine(PipelineOptions(jobs=4, extended=True,
                                       granularity="function")) as engine:
        batch = engine.submit(priority=JobClass.BATCH)
        urgent = engine.submit(keys[:2], priority=JobClass.INTERACTIVE)
        report = urgent.result()              # overtakes the batch queue
        for digest in batch.stream():         # completion order
            print(digest.name, digest.counts())
"""

from __future__ import annotations

import enum
import itertools
import math
import time
import warnings
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_channels
from typing import Iterator, Sequence

from .digest import (
    CorpusReport,
    ProgramDigest,
    UnitDigest,
    UnitFailure,
    assemble_program,
)
from .engine import planned_keys, resolve_feedback_with_store
from .feedback import FeedbackStore, canonical_orders
from .options import PipelineOptions
from .shard import WorkUnit, lpt_order, plan_units
from .worker import (
    ChannelSender,
    Heartbeat,
    ModuleCache,
    _build_registry,
    detect_unit,
)

Key = tuple[str, str]


class JobCancelled(Exception):
    """Raised by ``stream()``/``result()`` of a cancelled job."""


class JobClass(enum.Enum):
    """Scheduling class of a submitted job.

    ``INTERACTIVE`` units are dequeued four times as often as
    ``BATCH`` units when both classes have work queued (stride
    scheduling); with only one class active it receives the whole
    pool.  The weights are scheduling policy only — they can never
    change a report, just its latency.
    """

    INTERACTIVE = "interactive"
    BATCH = "batch"

    @property
    def weight(self) -> int:
        return _CLASS_WEIGHTS[self]


_CLASS_WEIGHTS = {JobClass.INTERACTIVE: 4, JobClass.BATCH: 1}
_CLASS_ORDER = (JobClass.INTERACTIVE, JobClass.BATCH)
#: Stride numerator: lcm of the class weights, so strides stay integral
#: for any weight table.
_STRIDE_SCALE = math.lcm(*_CLASS_WEIGHTS.values())


class PriorityScheduler:
    """Weighted-fair dequeue over per-class FIFO queues.

    Textbook stride scheduling: each class advances a virtual ``pass``
    by ``_STRIDE_SCALE / weight`` per dispatched unit, and ``pop``
    serves the active class with the lowest pass — interactive work
    (weight 4) gets four units per batch unit under contention, batch
    work keeps the pool saturated otherwise.  A class activating after
    idling resumes at the scheduler's clock, not its stale pass, so it
    cannot burst on accumulated credit.  Entirely deterministic: state
    is integers, ties break by class order.
    """

    def __init__(self) -> None:
        self._queues: dict[JobClass, deque] = {
            cls: deque() for cls in _CLASS_ORDER
        }
        self._pass: dict[JobClass, int] = {cls: 0 for cls in _CLASS_ORDER}
        self._clock = 0

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _activate(self, cls: JobClass) -> None:
        if not self._queues[cls]:
            self._pass[cls] = max(self._pass[cls], self._clock)

    def push(self, job_id: int, unit: WorkUnit, attempt: int,
             cls: JobClass) -> None:
        self._activate(cls)
        self._queues[cls].append((job_id, unit, attempt))

    def push_front(self, job_id: int, unit: WorkUnit, attempt: int,
                   cls: JobClass) -> None:
        """Requeue a resubmitted unit at the head of its class — a
        recovered unit must not wait behind the whole backlog again."""
        self._activate(cls)
        self._queues[cls].appendleft((job_id, unit, attempt))

    def pop(self) -> tuple | None:
        """``(job_id, unit, attempt, cls)`` of the next unit, or None."""
        active = [cls for cls in _CLASS_ORDER if self._queues[cls]]
        if not active:
            return None
        cls = min(
            active,
            key=lambda c: (self._pass[c], _CLASS_ORDER.index(c)),
        )
        self._clock = self._pass[cls]
        self._pass[cls] += _STRIDE_SCALE // cls.weight
        job_id, unit, attempt = self._queues[cls].popleft()
        return (job_id, unit, attempt, cls)

    def purge(self, job_id: int) -> int:
        """Drop every queued unit of ``job_id``; returns the count."""
        drained = 0
        for cls in _CLASS_ORDER:
            kept = deque(
                entry for entry in self._queues[cls] if entry[0] != job_id
            )
            drained += len(self._queues[cls]) - len(kept)
            self._queues[cls] = kept
        return drained

    def pending_for(self, job_id: int) -> int:
        return sum(
            1
            for q in self._queues.values()
            for entry in q
            if entry[0] == job_id
        )


#: How many feedback-reordered registries one worker keeps warm.  Each
#: distinct orders mapping (one per feedback refresh that changed
#: something) gets its own registry; tasks carry their orders, so an
#: evicted registry is simply rebuilt — correctness never depends on
#: the cache.
_WORKER_REGISTRY_CACHE = 8


def serve_worker(worker_id: int, task_conn, result_conn,
                 options: PipelineOptions, stop=None) -> None:
    """One persistent worker process.

    Reads ``(job_id, unit, spec_orders)`` tasks from its **own** task
    pipe (``task_conn``, which the parent writes to directly: no
    feeder thread, no queue lock) until the ``None`` sentinel, the
    pipe's EOF, or the shared ``stop`` flag is nonzero — the parent
    cannot take back the prefetched tasks already in the pipe ahead
    of the sentinel, so shutdown needs a signal workers check
    themselves; the flag is lock-free, so a worker killed mid-check
    cannot leave a lock held that every other worker then blocks on.
    The idiom registry, the compiled modules and one solver context
    per cached function run more than once
    (:class:`~repro.pipeline.worker.ModuleCache`) stay warm across tasks — and across jobs — while each task's
    search starts from an empty cache, so its digest is the one a cold
    worker would send.  ``spec_orders`` is the job's feedback-derived
    label-order mapping (None = the options-level orders the worker
    booted with): self-contained per task, so a job submitted before a
    feedback refresh keeps its orders even while newer jobs run
    reordered — the per-job determinism the fingerprint contract
    needs.  Results
    and heartbeats go out on the worker's **private result pipe**
    (``result_conn``): one writer per channel, so a worker killed
    mid-send can corrupt at most its own pipe — never a lock the
    surviving workers share (the parent reads the pipes multiplexed
    via ``multiprocessing.connection.wait``, and a broken pipe *is*
    the death notice).  A :class:`~repro.pipeline.worker.Heartbeat`
    thread proves liveness the whole time, so the engine can tell a
    worker grinding through a heavy unit from a dead or hung one; a
    failed unit never kills the worker, so one bad program cannot
    take down the engine.
    """
    sender = ChannelSender(result_conn)
    beacon = Heartbeat(
        worker_id, sender, options.heartbeat_interval
    ).start()
    try:
        registries: dict = {None: _build_registry(options)}
        modules = ModuleCache(options.module_cache_size)
        # Dispatch-gap instrumentation: how long this worker sat in
        # ``recv()`` between finishing one unit and starting the next —
        # the latency prefetching exists to hide.  The first task's
        # wait (process boot, not a dispatch gap) reports as zero.
        last_done: float | None = None
        while True:
            try:
                task = task_conn.recv()
            except EOFError:  # the parent closed the pipe or died
                break
            idle = (
                0.0 if last_done is None
                else time.monotonic() - last_done
            )
            if task is None or (stop is not None and stop.value):
                break
            job_id, unit, orders = task
            registry = registries.get(orders)
            if registry is None:
                registry = _build_registry(options, orders=dict(orders))
                while len(registries) > _WORKER_REGISTRY_CACHE:
                    stale = next(
                        key for key in registries if key is not None
                    )
                    del registries[stale]
                registries[orders] = registry
            try:
                digest = detect_unit(unit, options, registry, modules)
                sender.put(
                    ("done", worker_id, job_id, unit, digest, None, idle)
                )
            except Exception as exc:  # propagate, don't die
                sender.put(
                    ("done", worker_id, job_id, unit, None,
                     f"{type(exc).__name__}: {exc}", idle)
                )
            last_done = time.monotonic()
    finally:
        beacon.stop()


@dataclass
class _WorkerHandle:
    """Parent-side view of one worker process.

    ``assignments`` is the worker's dispatch window, oldest first: the
    unit it is running plus up to ``prefetch_units`` queued behind it
    on its private task pipe.  The worker reads its pipe FIFO, so
    each ``done`` message answers the window's head — and a killed
    worker's loss stays *exact*: the engine knows precisely which
    units died with it (the whole window) and resubmits those units,
    nothing else.
    """

    worker_id: int
    process: object
    #: Parent-side write end of the worker's private task pipe.
    tasks: object
    #: Parent-side read end of the worker's private result pipe.
    conn: object
    #: ``(job_id, unit, attempt, job_class)`` dispatches, oldest first.
    assignments: deque = field(default_factory=deque)
    tasks_done: int = 0
    last_beat: float = field(default_factory=time.monotonic)

    @property
    def assignment(self) -> tuple | None:
        """The window's head — the unit the worker is running now."""
        return self.assignments[0] if self.assignments else None

    def send(self, task) -> None:
        """Write one task (or the ``None`` sentinel) to the worker.

        The window bounds what the pipe holds to a few small messages,
        far below the pipe's buffer, so the write never waits on the
        worker.  A worker that died makes the write fail; that is
        ignored here — the EOF on its result pipe is the death notice,
        and :meth:`ServingEngine._declare_dead` recovers the window.
        """
        try:
            self.tasks.send(task)
        except OSError:
            pass

    def close_channels(self) -> None:
        """Close the parent's ends of both pipes."""
        for conn in (self.tasks, self.conn):
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass


class ServingJob:
    """One submitted request: a set of corpus keys being served."""

    def __init__(self, engine: "ServingEngine", job_id: int,
                 keys: list[Key], unit_count: int,
                 priority: JobClass = JobClass.BATCH):
        self._engine = engine
        self.job_id = job_id
        self.keys = keys
        self.priority = priority
        self._pending_units = unit_count
        self._by_key: dict[Key, list[UnitDigest]] = {}
        self._remaining: dict[Key, int] = {}
        self._failed_keys: set[Key] = set()
        self._completed: list[ProgramDigest] = []
        self._streamed = 0
        self._errors: list[str] = []
        self._failures: list[UnitFailure] = []
        #: Units already accounted for, by ``(key, function)`` — the
        #: duplicate guard: a unit resubmitted after a false death
        #: verdict may eventually produce two results; only the first
        #: counts.
        self._delivered: set[tuple[Key, str | None]] = set()
        self._cancelled = False
        self._started = time.perf_counter()
        self._wall: float | None = None
        #: Feedback-derived label orders pinned at submit time (None =
        #: the orders the workers booted with); shipped with every one
        #: of the job's tasks.
        self._spec_orders = None

    @property
    def done(self) -> bool:
        return self._pending_units == 0

    @property
    def pending_units(self) -> int:
        """Units not yet accounted (completed, failed or abandoned).

        The admission-control currency: the gateway bounds the sum of
        this over a connection's in-flight jobs.
        """
        return self._pending_units

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> int:
        """Cancel the job (idempotent); returns queued units drained.

        Queued units leave the scheduler immediately; in-flight units
        are flagged — their results are dropped on arrival, never
        delivered.  ``stream()``/``result()`` raise
        :class:`JobCancelled` from now on.  The engine and its workers
        stay fully usable for other (and later) jobs.
        """
        if self._cancelled:
            return 0
        self._cancelled = True
        return self._engine._cancel(self)

    # -- engine-side plumbing ------------------------------------------------

    def _expect(self, unit: WorkUnit) -> None:
        self._remaining[unit.key] = self._remaining.get(unit.key, 0) + 1

    def _account(self, key: Key, function: str | None) -> bool:
        """Duplicate-guarded bookkeeping; False when already counted."""
        marker = (key, function)
        if marker in self._delivered:
            return False
        self._delivered.add(marker)
        self._pending_units -= 1
        self._remaining[key] -= 1
        if self._pending_units == 0:
            self._wall = time.perf_counter() - self._started
        return True

    def _deliver(self, digest: UnitDigest) -> bool:
        """Account one unit result; False when it was a duplicate."""
        if not self._account(digest.key, digest.function):
            return False
        self._by_key.setdefault(digest.key, []).append(digest)
        if (self._remaining[digest.key] == 0
                and digest.key not in self._failed_keys):
            self._completed.append(assemble_program(self._by_key[digest.key]))
        return True

    def _fail(self, unit: WorkUnit, message: str) -> None:
        if not self._account(unit.key, unit.function):
            return
        self._failed_keys.add(unit.key)
        self._errors.append(f"{unit.key}/{unit.function or '*'}: {message}")

    def _lost(self, unit: WorkUnit, failure: UnitFailure) -> None:
        """A unit abandoned after bounded retries: structured failure,
        not a hung job and not an exception — the rest of the report
        still completes and carries the :class:`UnitFailure`."""
        if not self._account(unit.key, unit.function):
            return
        self._failed_keys.add(unit.key)
        self._failures.append(failure)

    # -- consumer API --------------------------------------------------------

    def _raise_if_cancelled(self) -> None:
        if self._cancelled:
            raise JobCancelled(
                f"serving job {self.job_id} was cancelled"
            )

    def _raise_pending_errors(self) -> None:
        if not self._errors:
            return
        # Unregister: the consumer is done with this job, so its
        # queued units are drained and late results for it are
        # dropped by the router instead of accumulating in a job
        # nobody will drain.
        self._engine._abandon(self)
        raise RuntimeError(
            f"serving job {self.job_id} failed: "
            + "; ".join(self._errors)
        )

    def take_completed(self) -> list[ProgramDigest]:
        """Program digests completed since the last take, no blocking.

        The non-blocking sibling of :meth:`stream` for external
        drivers (the socket gateway) that pump the engine themselves:
        returns whatever completed since the previous call — possibly
        nothing — instead of waiting.  Raises exactly like
        :meth:`stream`: :class:`JobCancelled` once cancelled,
        ``RuntimeError`` on a failed unit or an engine shutdown.
        Shares the stream cursor, so mixing the two never yields a
        program twice.
        """
        self._raise_if_cancelled()
        self._raise_pending_errors()
        fresh = self._completed[self._streamed:]
        self._streamed = len(self._completed)
        return list(fresh)

    def stream(self) -> Iterator[ProgramDigest]:
        """Yield program digests as programs complete.

        Completion order — *not* canonical corpus order; use
        :meth:`result` for the canonical, fingerprint-stable report.
        Raises :class:`JobCancelled` once the job is cancelled and
        ``RuntimeError`` on the first unit that failed *in* a worker
        (a deterministic program error).  Units lost to dead workers
        do not raise: their programs are skipped here and recorded as
        :class:`UnitFailure`\\ s on the :meth:`result` report.
        """
        while True:
            self._raise_if_cancelled()
            self._raise_pending_errors()
            while self._streamed < len(self._completed):
                # Re-checked per yield: cancelling from inside the
                # consumer loop must stop the stream at the very next
                # iteration, even when several programs completed in
                # one pump and are already buffered.
                self._raise_if_cancelled()
                digest = self._completed[self._streamed]
                self._streamed += 1
                yield digest
            if self.done:
                # Shutdown marks a pending job done *and* failed (the
                # wakeup path for consumers blocked here in another
                # thread) — that wakeup must raise, not end the
                # stream as if the job had completed.
                self._raise_pending_errors()
                return
            self._engine._pump()

    def result(self) -> CorpusReport:
        """Drain the job and return the canonical-order report.

        Identical (same fingerprint) to a batch ``jobs=1`` run with the
        same options — the serving engine's determinism contract, which
        worker deaths and resubmissions must not (and, tested, do not)
        weaken.  Programs whose units were abandoned after bounded
        retries are omitted from ``programs`` and recorded on
        ``failures``.
        """
        for _ in self.stream():
            pass
        by_key = {digest.key: digest for digest in self._completed}
        missing = [
            key for key in self.keys
            if key not in by_key and key not in self._failed_keys
        ]
        if missing:
            raise ValueError(f"serving returned no result for {missing}")
        return CorpusReport(
            programs=tuple(
                by_key[key] for key in self.keys if key in by_key
            ),
            jobs=self._engine.workers,
            wall_seconds=self._wall or 0.0,
            failures=tuple(self._failures),
        )


class ServingEngine:
    """A persistent, fault-tolerant detection service.

    Architecturally a supervisor: pending units live in the parent's
    :class:`PriorityScheduler` (not a shared queue), each worker holds
    a small known dispatch window (the running unit plus
    ``prefetch_units`` queued on its private task pipe), and every
    completion triggers the next weighted-fair dispatch.  That design
    buys the whole reliability story — priorities apply at every
    window boundary, cancellation can drain the scheduler
    synchronously, and a dead worker loses exactly its window, whose
    units are resubmitted (bounded by ``max_unit_retries``) while a
    replacement process keeps the pool at full strength.  Prefetching
    only hides the supervisor round-trip between units; with
    ``prefetch_units=0`` the engine degenerates to strict depth-one
    dispatch.

    An engine whose workers were started must be stopped with
    :meth:`shutdown` (or used as a context manager); one collected
    while its workers run emits a :class:`ResourceWarning`.
    """

    def __init__(self, options: PipelineOptions | None = None, **kwargs):
        self.options = (
            options if options is not None else PipelineOptions(**kwargs)
        )
        #: Worker-process count (the options' ``jobs``) — the pool is
        #: kept at this strength across deaths and recycles.
        self.workers = self.options.jobs
        self._context = None
        self._workers: dict[int, _WorkerHandle] = {}
        self._retired: list = []
        self._stop = None
        #: True while :meth:`shutdown` tears the pool down.  Consumer
        #: threads blocked in ``stream()`` keep pumping during the
        #: teardown; the flag makes their pumps no-ops so they cannot
        #: misread an exiting worker's closed pipe as a death and
        #: respawn workers into a pool being dismantled.
        self._draining = False
        self._scheduler = PriorityScheduler()
        self._jobs: dict[int, ServingJob] = {}
        self._job_ids = itertools.count()
        self._worker_ids = itertools.count()
        #: Lifetime counters, for observability and tests.
        self.worker_deaths = 0
        self.resubmissions = 0
        self.recycled = 0
        #: Dispatch-gap telemetry: summed worker-side idle between
        #: consecutive units (reported by each ``done`` message) and
        #: the sample count — ``mean_dispatch_gap`` is what the
        #: prefetch window exists to shrink.
        self.idle_seconds = 0.0
        self.idle_samples = 0
        #: Solver feedback state.  ``_feedback`` is the live store
        #: (seeded from ``feedback_from``, grown from completed units);
        #: ``_feedback_accum`` holds statistics accumulated since the
        #: last refresh; ``_current_orders`` is the canonical orders
        #: mapping jobs are currently submitted under (None = the
        #: orders the workers booted with).  Feedback state survives
        #: ``shutdown`` — a restarted engine keeps what it learned.
        self._feedback: FeedbackStore | None = None
        self._feedback_accum = FeedbackStore()
        self._current_orders = None
        self._worker_options: PipelineOptions | None = None
        self._pristine_registry = None
        self.feedback_refreshes = 0
        #: Warns when the engine is collected with its workers running
        #: (armed by :meth:`start`, disarmed by :meth:`shutdown`).
        self._leak_guard = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return bool(self._workers)

    def start(self) -> "ServingEngine":
        """Spawn the worker processes (idempotent)."""
        if self.running:
            return self
        import multiprocessing

        method = self.options.start_method
        if method is None:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._context = multiprocessing.get_context(method)
        self._stop = self._context.RawValue("b", 0)
        self._scheduler = PriorityScheduler()
        self.resolve_feedback()
        self._leak_guard = weakref.finalize(
            self, _warn_unreleased, self.workers
        )
        # Only a collected engine is a leak: at interpreter exit the
        # daemon workers are stopped by multiprocessing itself.
        self._leak_guard.atexit = False
        for _ in range(self.workers):
            self._spawn_worker()
        return self

    def _registry(self):
        """The parent-side pristine registry (order derivation only).

        Orders are always derived against the *authored* spec
        definitions, never against already-reordered ones, so a
        self-tuning session cannot chase its own tail.
        """
        if self._pristine_registry is None:
            import dataclasses

            self._pristine_registry = _build_registry(
                dataclasses.replace(self.options, feedback_from=None,
                                    spec_orders=None)
            )
        return self._pristine_registry

    def resolve_feedback(self) -> None:
        """Derive the boot options via the shared parent-side
        resolution (:func:`~repro.pipeline.engine.
        resolve_feedback_with_store`); the loaded store seeds the live
        feedback the engine keeps refreshing when ``feedback_refresh``
        is on.

        Idempotent, spawns nothing, and runs automatically at
        :meth:`start`; callers that want artifact errors separated
        from worker-spawn errors (the CLI) may invoke it first.
        """
        if self._worker_options is not None:
            return
        self._worker_options, store = resolve_feedback_with_store(
            self.options, registry=self._registry()
        )
        if store is not None:
            self._feedback = store

    def _spawn_worker(self) -> _WorkerHandle:
        worker_id = next(self._worker_ids)
        task_reader, task_writer = self._context.Pipe(duplex=False)
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=serve_worker,
            args=(worker_id, task_reader, writer,
                  self._worker_options or self.options, self._stop),
            daemon=True,
        )
        process.start()
        # Close the parent's copies of the worker's ends: the worker
        # now holds the only result writer, so its death makes the
        # result pipe EOF — the read side doubles as a death notice.
        task_reader.close()
        writer.close()
        handle = _WorkerHandle(worker_id, process, task_writer, reader)
        self._workers[worker_id] = handle
        return handle

    def shutdown(self) -> None:
        """Stop the workers (idempotent).

        In-flight jobs are abandoned: the stop flag makes each worker
        exit at its next task (the prefetched tasks already written to
        a worker's pipe cannot be taken back, so workers check the
        flag themselves), and any job still pending is marked failed —
        a later ``stream()``/``result()`` on it raises instead of
        waiting on pipes that no longer exist.  Every pipe end and
        process handle the engine holds is closed, so a stopped engine
        leaves no file descriptor behind.

        Pending jobs are failed (and the drain flag raised) *before*
        the worker joins below: a consumer blocked in
        ``stream()``/``result()`` on another thread wakes as soon as
        the exiting workers close their pipes and raises, instead of
        waiting out the joins — or worse, condemning the
        deliberately-exiting workers as dead and respawning them
        mid-teardown.
        """
        if not self.running:
            return
        self._draining = True
        self._stop.value = 1
        for job in list(self._jobs.values()):
            if not job.done and not job.cancelled:
                job._errors.append("engine shut down with the job pending")
                job._pending_units = 0
        self._jobs.clear()
        self._scheduler = PriorityScheduler()
        for handle in self._workers.values():
            handle.send(None)
        for handle in self._workers.values():
            _reap(handle.process, timeout=30)
            handle.close_channels()
        for process in self._retired:
            _reap(process, timeout=5)
        self._workers = {}
        self._retired = []
        self._stop = self._context = None
        self._draining = False
        self._leak_guard.detach()
        self._leak_guard = None

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------------

    def keys(self) -> list[Key]:
        """The full corpus (restricted by the options' suites)."""
        return planned_keys(self.options)

    def submit(
        self,
        keys: Sequence[Key] | None = None,
        priority: "JobClass | str" = JobClass.BATCH,
    ) -> ServingJob:
        """Enqueue a request; returns immediately.

        Units are planned at the options' granularity and enter the
        priority scheduler heaviest-first within the job
        (:func:`~repro.pipeline.shard.lpt_order`), so the pool drains
        each job LPT-style; across jobs the scheduler interleaves by
        class weight.  Planning happens *before* any worker is spawned,
        and a submit that fails after auto-starting a previously idle
        engine tears the pool back down — a raising ``submit`` never
        leaks worker processes.
        """
        if isinstance(priority, str):
            priority = JobClass(priority)
        keys = list(keys) if keys is not None else self.keys()
        # Dedupe, preserving order: a repeated key would plan two
        # identical units whose second result the duplicate guard
        # (rightly) drops — the job must expect each unit once.
        keys = list(dict.fromkeys(keys))
        started_here = not self.running
        if self.options.feedback_refresh:
            self._refresh_feedback()
        job = None
        try:
            units = plan_units(keys, self.options.granularity)
            ordered = lpt_order(units)
            if not self.running:
                self.start()
            job = ServingJob(self, next(self._job_ids), keys, len(units),
                             priority)
            # The job's orders are pinned at submit time: every unit of
            # the job — resubmissions after worker deaths included —
            # runs under them, so one job is internally deterministic
            # even while later submits pick up refreshed feedback.
            job._spec_orders = self._current_orders
            self._jobs[job.job_id] = job
            for unit in ordered:
                job._expect(unit)
            for unit in ordered:
                self._scheduler.push(job.job_id, unit, 0, priority)
            self._dispatch()
            return job
        except BaseException:
            if job is not None:
                self._scheduler.purge(job.job_id)
                self._jobs.pop(job.job_id, None)
            if started_here and self.running and not self._jobs:
                self.shutdown()
            raise

    def serve(
        self,
        keys: Sequence[Key] | None = None,
        priority: "JobClass | str" = JobClass.BATCH,
    ) -> CorpusReport:
        """Submit and wait: the synchronous convenience wrapper."""
        return self.submit(keys, priority=priority).result()

    # -- solver feedback -----------------------------------------------------

    def _refresh_feedback(self) -> None:
        """Fold accumulated unit statistics into the live store and
        re-derive the spec orders new submits run under.

        Called at ``submit`` when ``feedback_refresh`` is on — the
        self-tuning loop: completed units feed the store, the store
        re-orders the next request's searches.  Orders are derived from
        the pristine registry and usually reproduce the orders that
        generated the feedback (cost-aware ``suggest_order`` replays
        the cheapest measured continuation), so a converged session
        refreshes into a no-op.
        """
        if not self._feedback_accum:
            return
        if self._feedback is None:
            self._feedback = FeedbackStore()
        self._feedback.merge(self._feedback_accum)
        self._feedback_accum = FeedbackStore()
        orders = canonical_orders(
            self._feedback.spec_orders(self._registry())
        )
        boot_orders = (
            self._worker_options.spec_orders
            if self._worker_options is not None else None
        )
        if orders is None and boot_orders:
            # The refreshed store recommends the *authored* orders, but
            # the workers booted with artifact-derived ones — None
            # would mean "boot orders", so say "authored" explicitly
            # (an empty mapping applies no reorder in the worker).
            orders = ()
        elif orders == boot_orders:
            # Converged on what the workers already run: ship None so
            # they keep their boot registry instead of caching an
            # identical rebuild.
            orders = None
        self._current_orders = orders
        self.feedback_refreshes += 1

    def feedback_snapshot(self) -> FeedbackStore:
        """The engine's merged solver feedback, as an isolated copy.

        Initial ``feedback_from`` seed plus everything accumulated off
        completed units so far (whether or not ``feedback_refresh`` is
        on) — the store ``--save-feedback`` persists at the end of a
        serving session.
        """
        snapshot = FeedbackStore()
        if self._feedback is not None:
            snapshot.merge(self._feedback)
        snapshot.merge(self._feedback_accum)
        return snapshot

    def mean_dispatch_gap(self) -> float:
        """Mean worker-side idle between consecutive units, seconds.

        Each ``done`` message reports how long its worker waited on
        its task pipe after finishing the previous unit; this is the
        running mean.  With ``prefetch_units=0`` every gap is a full
        supervisor round-trip; with a prefetch window the next unit is
        already local and the gap collapses to a pipe read.
        """
        return self.idle_seconds / self.idle_samples \
            if self.idle_samples else 0.0

    # -- job bookkeeping -----------------------------------------------------

    def _cancel(self, job: ServingJob) -> int:
        drained = self._scheduler.purge(job.job_id)
        self._jobs.pop(job.job_id, None)
        return drained

    def _abandon(self, job: ServingJob) -> None:
        self._jobs.pop(job.job_id, None)
        if self.running:
            self._scheduler.purge(job.job_id)

    # -- the dispatcher ------------------------------------------------------

    def _dispatch(self) -> None:
        """Fill every worker's dispatch window from the scheduler.

        Round by round — first every worker gets a running unit, then
        the prefetch slots fill — so prefetching never starves an idle
        worker while another's window doubles up.  Workers at their
        recycle quota are skipped: their windows drain so the graceful
        sentinel can follow.
        """
        depth = 1 + self.options.prefetch_units
        limit = self.options.max_tasks_per_worker
        handles = [
            handle for handle in self._workers.values()
            if limit is None or handle.tasks_done < limit
        ]
        for fill in range(1, depth + 1):
            for handle in handles:
                if len(handle.assignments) >= fill:
                    continue
                while True:
                    entry = self._scheduler.pop()
                    if entry is None:
                        return
                    job_id, unit, attempt, cls = entry
                    job = self._jobs.get(job_id)
                    if job is None:
                        continue  # cancelled or abandoned; drop it
                    handle.assignments.append((job_id, unit, attempt,
                                               cls))
                    handle.send((job_id, unit, job._spec_orders))
                    break

    def channels(self) -> list:
        """The live workers' result pipes, for drivers that wait on
        them in their own event loop (the socket gateway).

        Data or EOF on any of them means :meth:`pump` has work.  A
        dead or recycled worker's pipe is closed and replaced inside
        :meth:`pump`, so re-read this after every pump.
        """
        return [handle.conn for handle in self._workers.values()]

    def poll_timeout(self) -> float | None:
        """Seconds until the earliest worker heartbeat deadline.

        The only timed wait in the supervisor: results, heartbeats and
        deaths all arrive on the worker pipes, and only a hung worker
        — alive but silent — needs a clock to be noticed.  None when
        no worker runs.
        """
        if not self._workers:
            return None
        last_beat = min(h.last_beat for h in self._workers.values())
        deadline = last_beat + self.options.heartbeat_timeout
        return max(0.0, deadline - time.monotonic())

    def pump(self) -> int:
        """One non-blocking supervision step: reap, check, dispatch.

        Messages already on the pipes are read first — a worker that
        completed a unit and was killed a moment later gets credit for
        the work instead of a pointless resubmission.  Then liveness:
        a worker whose process died or whose heartbeat went stale is
        replaced and its in-flight unit requeued (front of its class)
        or, past ``max_unit_retries``, recorded as a
        :class:`UnitFailure` on its job.  Then the dispatch windows
        refill.  It never waits: external drivers (the socket gateway)
        call it when a frame arrives, when a worker pipe turns
        readable and at the :meth:`poll_timeout` deadline, and collect
        completions via :meth:`ServingJob.take_completed`.  Returns
        the messages read.
        """
        if not self.running or self._draining:
            return 0
        processed = self._poll_channels(0.0)
        self._check_liveness()
        self._dispatch()
        return processed

    def _pump(self) -> None:
        """``stream()``'s step: :meth:`pump`, then — when it read
        nothing — one blocking wait on every worker pipe until a
        message, an EOF or the next heartbeat deadline, so the
        consumer makes progress without spinning."""
        if self.pump() or not self.running or self._draining:
            return
        self._poll_channels(self.poll_timeout())
        self._dispatch()

    def _poll_channels(self, timeout: float | None) -> int:
        """Multiplex every worker's result pipe; returns messages read.

        ``multiprocessing.connection.wait`` marks a pipe ready on data
        *or* EOF — a dead worker's closed pipe is its death notice, so
        kills surface here immediately instead of waiting for a
        liveness sweep.  A pipe that raises (EOF, a message truncated
        by a mid-send kill) condemns only its own worker.
        """
        channels = {
            handle.conn: handle for handle in self._workers.values()
        }
        if not channels:
            return 0
        try:
            ready = _wait_channels(list(channels), timeout)
        except OSError:  # pragma: no cover - defensive
            return 0
        processed = 0
        for conn in ready:
            handle = channels[conn]
            # The handle may have been recycled or condemned while an
            # earlier channel in this pass was processed.
            while handle.worker_id in self._workers:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    self._declare_dead(handle, "worker died")
                    break
                except Exception:  # pragma: no cover - torn message
                    self._declare_dead(handle,
                                       "worker channel corrupted")
                    break
                self._handle_message(message)
                processed += 1
        return processed

    def _handle_message(self, message) -> None:
        kind = message[0]
        if kind == "beat":
            _, worker_id = message
            handle = self._workers.get(worker_id)
            if handle is not None:
                handle.last_beat = time.monotonic()
            return
        _, worker_id, job_id, unit, digest, error, idle = message
        self.idle_seconds += idle
        self.idle_samples += 1
        handle = self._workers.get(worker_id)
        if handle is not None:
            # FIFO dispatch window: a live worker's message always
            # answers the window's head.
            if handle.assignments:
                handle.assignments.popleft()
            handle.tasks_done += 1
            handle.last_beat = time.monotonic()
            self._maybe_recycle(handle)
        job = self._jobs.get(job_id)
        if job is None:
            return  # cancelled or abandoned job; drop the result
        if error is not None:
            job._fail(unit, error)
        elif job._deliver(digest):
            # Feed the live feedback store — every *accounted* unit
            # contributes its per-spec search statistics (behind the
            # job's duplicate guard, so a unit resubmitted after a
            # false death verdict can never be counted twice): a
            # serving session's artifact covers exactly the work its
            # jobs accepted.
            for name, stats in digest.spec_stats.items():
                self._feedback_accum.merge_stats(name, stats)
        if job.done:
            self._jobs.pop(job_id, None)

    def _maybe_recycle(self, handle: _WorkerHandle) -> None:
        """Retire a worker that reached its task quota.

        The worker exits gracefully at the sentinel (its caches die
        with it — the recycling point), a replacement keeps the pool
        at strength, and the retired process is reaped opportunistically
        so recycling a busy pool never blocks the dispatcher.
        """
        limit = self.options.max_tasks_per_worker
        if limit is None or handle.tasks_done < limit:
            return
        if handle.assignments:
            # Prefetched units are still queued behind the quota-hitting
            # one; let the window drain (the dispatcher has stopped
            # refilling it) — this re-runs at each of their completions.
            return
        handle.send(None)
        self._workers.pop(handle.worker_id, None)
        handle.close_channels()
        self._retired.append(handle.process)
        self.recycled += 1
        self._spawn_worker()

    def _check_liveness(self) -> None:
        """Replace dead or hung workers; recover their in-flight units."""
        # Reap retired processes that have exited (is_alive waitpids)
        # and release their handles.
        running = []
        for process in self._retired:
            if process.is_alive():
                running.append(process)
            else:
                process.close()
        self._retired = running
        now = time.monotonic()
        for handle in list(self._workers.values()):
            alive = handle.process.is_alive()
            stale = (
                now - handle.last_beat > self.options.heartbeat_timeout
            )
            if alive and not stale:
                continue
            self._declare_dead(
                handle,
                "worker died" if not alive
                else "worker heartbeat went stale",
            )

    def _declare_dead(self, handle: _WorkerHandle, reason: str) -> None:
        """Condemn one worker: replace it, recover its in-flight unit.

        Idempotent per handle.  The unit is requeued at the head of
        its class while retries remain; past the budget its job
        records a :class:`UnitFailure` and completes without it.
        """
        if self._draining:
            # A consumer thread that entered its pump just before
            # shutdown raised the drain flag may see the exiting
            # workers' closed pipes here — they are not deaths, and
            # respawning into a pool being dismantled would leak.
            return
        if self._workers.pop(handle.worker_id, None) is None:
            return
        if handle.process.is_alive():
            # Hung, not dead: terminate so it cannot hold the unit (a
            # late result would be dropped by the duplicate guard, but
            # a zombie worker still wastes a core).  Only its own
            # private pipe can be torn by this.
            handle.process.terminate()
        handle.close_channels()
        self._retired.append(handle.process)
        self.worker_deaths += 1
        # Recover the whole dispatch window — the running unit and any
        # prefetched behind it died with the worker.  Reversed +
        # push_front keeps their original order at the queue head.
        for job_id, unit, attempt, cls in reversed(handle.assignments):
            job = self._jobs.get(job_id)
            if job is None:
                continue
            if attempt < self.options.max_unit_retries:
                self._scheduler.push_front(
                    job_id, unit, attempt + 1, cls
                )
                self.resubmissions += 1
            else:
                job._lost(unit, UnitFailure(
                    name=unit.name,
                    suite=unit.suite,
                    function=unit.function,
                    error=reason,
                    attempts=attempt + 1,
                ))
                if job.done:
                    self._jobs.pop(job_id, None)
        self._spawn_worker()


def _reap(process, timeout: float) -> None:
    """Join a stopping worker (terminating it past ``timeout``) and
    release its process handle."""
    process.join(timeout=timeout)
    if process.is_alive():  # pragma: no cover - defensive
        process.terminate()
        process.join()
    process.close()


def _warn_unreleased(workers: int) -> None:
    """The leak guard of an engine collected with its workers running."""
    warnings.warn(
        f"ServingEngine collected with {workers} worker process(es) "
        f"running; call shutdown() or use it as a context manager",
        ResourceWarning,
    )
