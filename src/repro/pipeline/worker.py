"""The per-unit detection worker — the pipeline's map stage.

Work arrives as :class:`~repro.pipeline.shard.WorkUnit`\\ s — a whole
program, or one ``(program, function)`` pair when a large module is
sharded at function granularity.  Each unit runs through the staged
engine:

1. **compile** — mini-C source to canonical SSA.  Compiled modules are
   cached *per worker* (a program split into function units compiles
   once per worker that touches it, not once per function); nothing is
   inherited from the parent, so spawn and fork agree;
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

Solver state is per-function (each function gets a fresh
:class:`~repro.constraints.SolverContext`), so a function's digest —
search-effort counters included — is identical whether its program ran
whole in one worker or split across ten.

:func:`run_unit_shard` is the in-process driver ``detect_corpus(jobs=1)``
uses; parallel runs call :func:`detect_unit` from the serving engine's
worker loop (:func:`~repro.pipeline.serving.serve_worker`).
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

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
    from ..idioms.registry import IdiomRegistry

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


#: Worker-local cache of perturbed-order registries, keyed by spec
#: files and the canonical orders mapping.  Exploration re-draws the
#: same (spec, position) transpositions across many functions, and a
#: fresh registry pays plan re-compilation for every spec — caching
#: turns that into a one-time cost per distinct perturbation.  Pure
#: cache: a registry is a deterministic function of its key, so reuse
#: can never change a digest.
_EXPLORE_REGISTRY_CACHE: dict = {}
_EXPLORE_REGISTRY_CACHE_LIMIT = 64


def _perturbed_registry(options: PipelineOptions, orders: dict):
    """The (cached) registry for one explored function's orders."""
    from .feedback import canonical_orders

    key = (options.spec_files, canonical_orders(orders))
    cached = _EXPLORE_REGISTRY_CACHE.get(key)
    if cached is None:
        if len(_EXPLORE_REGISTRY_CACHE) >= _EXPLORE_REGISTRY_CACHE_LIMIT:
            _EXPLORE_REGISTRY_CACHE.clear()
        cached = _build_registry(options, orders=orders)
        _EXPLORE_REGISTRY_CACHE[key] = cached
    return cached


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
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        from collections import OrderedDict

        self._max = max_entries
        self._modules: "OrderedDict[tuple[str, str], object]" = (
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
        from ..workloads import program

        cached = self._modules.get(key)
        if cached is not None:
            self._modules.move_to_end(key)
            return cached, 0.0
        started = time.perf_counter()
        compiled = program(key[0], key[1]).fresh_module()
        seconds = time.perf_counter() - started
        self._modules[key] = compiled
        if self._max is not None:
            while len(self._modules) > self._max:
                self._modules.popitem(last=False)
        return compiled, seconds


def _run_baselines(module):
    from ..baselines import icc, polly

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

    from ..constraints import SolverStats
    from ..idioms.detect import find_reductions_in_function

    explore_policy = None
    if options.explore:
        from .feedback import ExplorationPolicy, OrderObs, shape_bucket

        explore_policy = ExplorationPolicy(
            epsilon=options.explore, seed=options.explore_seed
        )

    functions = []
    extended: tuple = ()
    spec_stats: dict[str, SolverStats] = {}
    order_obs: dict = {}
    detect_seconds = extend_seconds = explore_seconds = 0.0
    for function in targets:
        started = time.perf_counter()
        fr = find_reductions_in_function(function, module,
                                         registry=registry)
        detect_seconds += time.perf_counter() - started
        if options.extended:
            from ..idioms.extensions import find_extended_in_function

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
        if explore_policy is not None:
            # Exploration decides per *function* (not per unit), so
            # program and function granularity — and any jobs count —
            # sample identically.  Every function's incumbent run is
            # recorded as a self-paired observation; an explored
            # function *additionally* runs under a one-transposition
            # perturbed registry, and the perturbed spec's outcome is
            # recorded paired against the incumbent's cost on this
            # very function.  Digests, detections and the replay
            # supply all come from the incumbent run, so exploration
            # only ever adds observations (and search cost), never
            # changes a report.
            bucket = shape_bucket(function)
            incumbent_orders = registry.current_orders()
            for name, stats in fr.spec_stats.items():
                key = (name, incumbent_orders[name], bucket)
                order_obs.setdefault(key, OrderObs()).merge(
                    OrderObs.from_stats(stats)
                )
            perturbed = explore_policy.perturbed_orders(
                registry, unit.suite, unit.name, function.name
            )
            if perturbed is not None:
                run_registry = _perturbed_registry(options, perturbed)
                started = time.perf_counter()
                cr = find_reductions_in_function(function, module,
                                                 registry=run_registry)
                if options.extended:
                    find_extended_in_function(
                        cr.function, module, registry=run_registry,
                        ctx=cr.solver_context,
                        stats=cr.stats,
                        spec_stats=cr.spec_stats,
                    )
                explore_seconds += time.perf_counter() - started
                for name, stats in cr.spec_stats.items():
                    candidate = perturbed[name]
                    if candidate == incumbent_orders[name]:
                        continue  # only the transposed spec is a candidate
                    key = (name, candidate, bucket)
                    order_obs.setdefault(key, OrderObs()).merge(
                        OrderObs.from_stats(
                            stats,
                            baseline=fr.spec_stats.get(name, SolverStats()),
                        )
                    )
        functions.append(digest_function(fr))
    stage_seconds["detect"] = detect_seconds
    if options.extended:
        stage_seconds["extend"] = extend_seconds
    if explore_seconds:
        stage_seconds["explore"] = explore_seconds

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
        order_obs=order_obs,
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

