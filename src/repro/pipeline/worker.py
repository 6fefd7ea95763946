"""The per-unit detection worker — the pipeline's map stage.

Work arrives as :class:`~repro.pipeline.shard.WorkUnit`\\ s — a whole
program, or one ``(program, function)`` pair when a large module is
sharded at function granularity.  Each unit runs through the staged
engine:

1. **compile** — mini-C source to canonical SSA.  Compiled modules are
   cached *per worker* (a program split into function units compiles
   once per worker that touches it, not once per function); no compiled
   module is inherited from the parent, so spawn and fork agree;
2. **detect**  — the core scalar/histogram idioms via
   :func:`~repro.idioms.detect.find_reductions_in_function`, all specs
   of one function sharing that function's
   :class:`~repro.constraints.SharedSolverCache` (one solved for-loop
   prefix instead of one per spec);
3. **extend**  — optionally the §8 extension idioms, *reusing the
   stage-2 solver contexts* so they also replay the solved prefix;
4. **baselines** — optionally the icc and Polly models, on the one
   ``lead`` unit of each program (they analyse whole modules);
5. **digest** — reduce everything to process-portable
   :class:`~repro.pipeline.digest.UnitDigest`\\ s.

Search state is per-function and per-unit (each function's search
starts from an empty :class:`~repro.constraints.SharedSolverCache`;
a serving worker reuses only the function's analyses, see
:class:`ModuleCache`), so a function's digest — search-effort counters
included — is identical whether its program ran whole in one worker or
split across ten, and on a warm worker or a cold one.

:func:`run_unit_shard` is the in-process driver ``detect_corpus(jobs=1)``
uses; parallel runs call :func:`detect_unit` from the serving engine's
worker loop (:func:`~repro.pipeline.serving.serve_worker`).
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Sequence

# The stages are imported here, not inside the functions that run
# them: a serving parent that imports this module has the whole
# detection stack loaded before it forks, so a new or respawned worker
# never compiles modules on a unit's critical path.
from ..baselines import icc, polly
from ..constraints import SolverContext, SolverStats
from ..idioms.detect import find_reductions_in_function, module_stamp
from ..idioms.extensions import find_extended_in_function
from ..idioms.registry import IdiomRegistry
from ..workloads import program
from .digest import UnitDigest, digest_extensions, digest_function
from .options import PipelineOptions
from .shard import WorkUnit


def _build_registry(options: PipelineOptions, orders=None):
    """One worker's idiom registry, feedback orders applied.

    ``orders`` overrides the options-level spec orders (the serving
    engine ships refreshed orders per task); otherwise
    ``options.spec_orders`` applies — and, for standalone
    :func:`detect_unit` callers whose options were never resolved by a
    pipeline driver, ``options.feedback_from`` is loaded here as the
    fallback.
    """
    registry = IdiomRegistry()
    for path in options.spec_files:
        registry.load_file(path)
    if orders is None:
        orders = options.spec_orders
        if orders is None and options.feedback_from:
            from .feedback import load_feedback

            orders = load_feedback(options.feedback_from).spec_orders(
                registry
            )
    if orders:
        registry.apply_orders(dict(orders))
    return registry


class ChannelSender:
    """Thread-safe sender over a worker's private result pipe.

    The worker's main loop and its :class:`Heartbeat` thread share one
    :class:`multiprocessing.connection.Connection`; sends are
    serialized by a lock so the two can never interleave a message.
    Each worker writes only to its *own* pipe — worker death can
    corrupt at most its own channel, never a lock another worker
    needs (the failure mode a shared result queue would have).
    """

    def __init__(self, conn):
        self._conn = conn
        self._lock = threading.Lock()

    def put(self, message) -> None:
        with self._lock:
            self._conn.send(message)


class Heartbeat:
    """Background liveness beacon for a persistent worker process.

    A daemon thread that sends ``("beat", worker_id)`` into ``sink``
    (any object with a ``put`` method — the worker's
    :class:`ChannelSender`) every ``interval`` seconds, independent of
    the worker's main loop.  The beat carries no timestamp: staleness
    is judged entirely from the engine's own clock at receipt, so
    clock skew between processes cannot skew liveness — a worker grinding through one heavy unit
    still proves it is alive, so the engine's liveness detector can
    distinguish *slow* from *dead or hung* without guessing from
    result gaps.
    """

    def __init__(self, worker_id: int, sink, interval: float):
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run,
            args=(worker_id, sink, interval),
            daemon=True,
        )

    def _run(self, worker_id, sink, interval) -> None:
        while not self._stop.wait(interval):
            try:
                sink.put(("beat", worker_id))
            except Exception:
                return  # channel closed: the worker is exiting

    def start(self) -> "Heartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()


class _CachedModule:
    """One :class:`ModuleCache` entry: a compiled module and the solver
    contexts kept for its functions."""

    __slots__ = ("module", "stamp", "contexts", "seen")

    def __init__(self, module) -> None:
        self.module = module
        #: Functions whose context was asked for once already.
        self.seen: set = set()
        #: ``module_stamp(module)`` the kept contexts were built at.
        self.stamp: tuple | None = None
        #: function → (its context, weak reference to the registry
        #: whose constraints fill the context's flow memo).
        self.contexts: dict = {}


class ModuleCache:
    """Per-worker compiled-IR cache, optionally LRU-bounded.

    Function units of one program share the worker-local module (and
    its compile cost); the first use pays, later units of the same
    program are free.  Each worker compiles independently — modules
    hold live IR objects that cannot cross process boundaries.

    ``max_entries`` caps the cache at that many modules, evicting the
    least recently used (None = unbounded, the historical behaviour).
    Long-lived serving/gateway workers see unbounded distinct programs
    over their lifetime; the cap turns the cache from a leak into a
    working set.  Eviction is a pure recompute cost — an evicted
    module is rebuilt from source on the next touch, so digests (and
    fingerprints) never depend on the cap.

    Each cached module also keeps one
    :class:`~repro.constraints.SolverContext` per function that was
    used more than once, so a warm request skips rebuilding the CFG,
    dominators, post-dominators, loops, SCEV, control dependences,
    purity and the flow verdicts of IR that has not changed.  See
    :meth:`solver_context` for when a context is kept and when it is
    rebuilt.  The contexts live and die with their module, under the
    same ``max_entries`` bound, and hold no search state between
    units; the 345 contexts of all 40 corpus modules took a process
    that had run three function-granularity corpus sweeps from 30.7 to
    33.4 MiB RSS, about 8 KB per function.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        from collections import OrderedDict

        self._max = max_entries
        self._modules: "OrderedDict[tuple[str, str], _CachedModule]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._modules)

    def keys(self) -> list[tuple[str, str]]:
        """Cached program keys, least recently used first."""
        return list(self._modules)

    def module(self, key: tuple[str, str]) -> tuple[object, float]:
        """(compiled module, seconds this call spent compiling it).

        The seconds are 0.0 on a cache hit — the compile cost is
        charged to the one unit that triggered it.
        """
        cached = self._modules.get(key)
        if cached is not None:
            self._modules.move_to_end(key)
            return cached.module, 0.0
        started = time.perf_counter()
        compiled = program(key[0], key[1]).fresh_module()
        seconds = time.perf_counter() - started
        self._modules[key] = _CachedModule(compiled)
        if self._max is not None:
            while len(self._modules) > self._max:
                self._modules.popitem(last=False)
        return compiled, seconds

    def solver_context(self, key: tuple[str, str], function,
                       registry) -> SolverContext:
        """A solver context for ``function`` of the cached module
        ``key`` (call :meth:`module` first), with an empty search
        cache, so effort counters match a fresh context's.

        The context built at a function's second use is kept: a
        one-shot sweep (``detect_corpus(jobs=1)``, the short-lived
        workers of the parallel corpus verb) touches each function
        once, and kept contexts would only cost it memory and
        collector work — keeping from the first use made one cold
        in-process corpus sweep about 10% slower (median of 8 runs,
        0.68 → 0.75 s) and 2.6 MiB larger.

        A kept context is reused while
        :func:`~repro.idioms.detect.module_stamp` of the module is
        unchanged; a changed stamp (a function mutated, added, removed
        or re-flagged) drops every kept context of the module.  The
        flow memo of a reused context is emptied when ``registry`` is
        not the one it was filled under: its keys pin that registry's
        constraint objects, which would otherwise outlive the worker's
        eviction of the registry.
        """
        entry = self._modules[key]
        stamp = module_stamp(entry.module)
        if stamp != entry.stamp:
            entry.contexts.clear()
            entry.stamp = stamp
        kept = entry.contexts.get(function)
        if kept is None:
            ctx = SolverContext(function, entry.module)
            if function not in entry.seen:
                entry.seen.add(function)
                return ctx
        else:
            ctx, filled_under = kept
            ctx.reset_solver_cache()
            if filled_under() is not registry:
                ctx.flow_memo.clear()
        entry.contexts[function] = (ctx, weakref.ref(registry))
        return ctx


def _run_baselines(module):
    icc_count = icc.detected_reduction_count(module)
    polly_report = polly.analyze_module(module)
    polly_scops, _ = polly_report.counts()
    return icc_count, polly_scops, len(polly_report.reductions)


def detect_unit(
    unit: WorkUnit,
    options: PipelineOptions,
    registry=None,
    modules: ModuleCache | None = None,
) -> UnitDigest:
    """Run one work unit through every pipeline stage."""
    registry = registry if registry is not None else _build_registry(options)
    modules = modules if modules is not None else ModuleCache()
    stage_seconds: dict[str, float] = {}

    module, compile_seconds = modules.module(unit.key)
    if compile_seconds:
        stage_seconds["compile"] = compile_seconds
    defined = list(module.defined_functions())

    if unit.function is None:
        targets = defined
        index, total = 0, len(defined)
    else:
        names = [f.name for f in defined]
        try:
            index = names.index(unit.function)
        except ValueError:
            raise KeyError(
                f"program {unit.key} has no function {unit.function!r}"
            ) from None
        targets = [defined[index]]
        total = len(defined)

    functions = []
    extended: tuple = ()
    spec_stats: dict[str, SolverStats] = {}
    detect_seconds = extend_seconds = 0.0
    for function in targets:
        started = time.perf_counter()
        ctx = modules.solver_context(unit.key, function, registry)
        fr = find_reductions_in_function(function, module,
                                         registry=registry, ctx=ctx)
        detect_seconds += time.perf_counter() - started
        if options.extended:
            # Reuse the detect stage's context (analyses + solver
            # cache + solved for-loop prefix) and charge the search to
            # the same per-function stats.
            started = time.perf_counter()
            matches = find_extended_in_function(
                fr.function, module, registry=registry,
                ctx=fr.solver_context,
                stats=fr.stats,
                spec_stats=fr.spec_stats,
            )
            extended = extended + digest_extensions(matches)
            extend_seconds += time.perf_counter() - started
        for name, stats in fr.spec_stats.items():
            spec_stats.setdefault(name, SolverStats()).merge(stats)
        functions.append(digest_function(fr))
        # The search state is per unit; a kept context keeps only its
        # analyses and flow memo.
        ctx.reset_solver_cache()
    stage_seconds["detect"] = detect_seconds
    if options.extended:
        stage_seconds["extend"] = extend_seconds

    icc_count = polly_scops = polly_reductions = None
    if options.baselines and unit.lead:
        started = time.perf_counter()
        icc_count, polly_scops, polly_reductions = _run_baselines(module)
        stage_seconds["baselines"] = time.perf_counter() - started

    return UnitDigest(
        name=unit.name,
        suite=unit.suite,
        function=unit.function,
        index=index,
        total=total,
        functions=tuple(functions),
        extended=extended,
        icc=icc_count,
        polly_scops=polly_scops,
        polly_reductions=polly_reductions,
        stage_seconds=stage_seconds,
        spec_stats=spec_stats,
    )


def run_unit_shard(
    shard: Sequence[WorkUnit], options: PipelineOptions
) -> list[UnitDigest]:
    """Process a list of work units in-process; registry and compiled
    modules are built once for the whole list."""
    registry = _build_registry(options)
    modules = ModuleCache(options.module_cache_size)
    return [
        detect_unit(unit, options, registry, modules) for unit in shard
    ]

