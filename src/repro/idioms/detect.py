"""Top-level reduction detection driver.

:func:`find_reductions_in_function` is the one detection call: on one
function's :class:`~repro.constraints.SolverContext` it runs the
scalar-reduction and histogram idiom specifications (post-processing
their matches: associativity classification, accumulator confinement,
privatization safety, alias check generation), optionally the §8
extension idioms, and every custom idiom of the registry.
``find_reductions(module)`` runs it over every function and returns a
:class:`~repro.idioms.reports.DetectionReport`.

Specs are resolved through the :class:`~repro.idioms.registry.
IdiomRegistry` (the shipped ``.icsl`` files by default), so a caller
can swap in experimental specifications without touching this module.
"""

from __future__ import annotations

import time

from ..constraints import (
    FlowChecker,
    FlowPolicy,
    SolverContext,
    SolverStats,
    detect,
)
from ..constraints.flow import root_base
from ..ir.function import Function
from ..ir.module import Module
from .postprocess import (
    accumulator_confined,
    alias_checks_for,
    base_memory_ops_confined,
    classify_update,
)
from .registry import IdiomRegistry, default_registry
from .reports import (
    DetectionReport,
    FunctionReductions,
    HistogramReduction,
    ScalarReduction,
)


def find_reductions_in_function(
    function: Function,
    module: Module | None = None,
    registry: IdiomRegistry | None = None,
    ctx: SolverContext | None = None,
    extended: bool = False,
) -> FunctionReductions:
    """Detect and post-process all reductions of one function.

    Runs, in order: the for-loop base, the scalar and histogram specs,
    the three extension idioms when ``extended`` is true, and every
    custom idiom of the registry.  Every spec runs against the
    context's :class:`~repro.constraints.SharedSolverCache`, so all of
    them replay one solved for-loop prefix and share each other's
    memoized proposals, and each spec's effort is charged to the
    result's ``stats`` and ``spec_stats``.  ``ctx`` is a context
    already built for ``function``; without it the search runs on a
    fresh one, which takes the function's analyses from its cache
    (:mod:`repro.analysis.cache`).
    """
    registry = registry if registry is not None else default_registry()
    scalar = registry.spec("scalar-reduction")
    histogram = registry.spec("histogram")
    ctx = ctx if ctx is not None else SolverContext(function, module)
    stats = SolverStats()
    result = FunctionReductions(function, stats=stats)

    def run(spec):
        # Each spec records into its own stats object — the feedback
        # store's per-spec signal — then merges into the function-wide
        # aggregate, so the total effort is exactly what a single
        # shared counter would have seen.
        spec_stat = SolverStats()
        solutions = detect(ctx, spec, stats=spec_stat)
        stats.merge(spec_stat)
        record_spec_stats(result.spec_stats, spec.name, spec_stat)
        return solutions

    def presolve_base(spec):
        """Solve a spec's base prefix up front, attributed to the
        base's own name.

        The shared cache would compute the base lazily inside the
        first extending spec's search (charging the effort to *that*
        spec); solving it here costs exactly the same evals — the
        search runs once either way, so function totals and
        fingerprints are untouched — but records the base's
        enumeration statistics under the base spec's name, giving the
        feedback store an ordering signal for the base itself.
        """
        base = spec.base
        if base is None or ctx.solver_cache.solutions_for(base) is not None:
            return
        base_stat = SolverStats()
        solutions = detect(ctx, base, stats=base_stat)
        ctx.solver_cache.store_solutions(base, solutions)
        stats.merge(base_stat)
        record_spec_stats(result.spec_stats, base.name, base_stat)

    presolve_base(scalar)
    presolve_base(histogram)

    seen_scalars: set[tuple[int, int]] = set()
    for assignment in run(scalar):
        key = (id(assignment["header"]), id(assignment["acc"]))
        if key in seen_scalars:
            continue
        record = _build_scalar(ctx, assignment)
        if record is not None:
            seen_scalars.add(key)
            result.scalars.append(record)

    seen_histograms: set[tuple[int, int]] = set()
    for assignment in run(histogram):
        key = (id(assignment["header"]), id(assignment["hist_store"]))
        if key in seen_histograms:
            continue
        record = _build_histogram(ctx, assignment)
        if record is not None:
            seen_histograms.add(key)
            result.histograms.append(record)

    if extended:
        # Imported here: the extensions module imports this one.
        from .extensions import find_extended_in_function

        result.extensions = find_extended_in_function(
            function, module, registry=registry, ctx=ctx,
            stats=stats, spec_stats=result.spec_stats,
        )
    for entry in registry.custom():
        result.custom[entry.name] = run(entry.spec)
    return result


def record_spec_stats(spec_stats: dict, name: str,
                      stats: SolverStats) -> None:
    """File one search's ``stats`` under ``name`` in ``spec_stats``.

    The first object for a name is stored as is and later ones merge
    into it, so the caller hands ``stats`` over: it must not be read
    as one search's counters afterwards.
    """
    kept = spec_stats.setdefault(name, stats)
    if kept is not stats:
        kept.merge(stats)


def find_reductions(
    module: Module,
    registry: IdiomRegistry | None = None,
    extended: bool = False,
) -> DetectionReport:
    """Run :func:`find_reductions_in_function` on every defined
    function of ``module``, each on a fresh solver context.

    Without ``extended``, each function's context is left on the
    function (:attr:`~repro.ir.function.Function.solver_handoff`),
    stamped with :func:`module_stamp`, for
    :func:`~repro.idioms.extensions.find_extended_reductions` to reuse;
    with it the extension idioms already ran, and no context is left.
    """
    report = DetectionReport(module.name)
    stamp = module_stamp(module)
    started = time.perf_counter()
    for function in module.defined_functions():
        ctx = SolverContext(function, module)
        report.functions.append(find_reductions_in_function(
            function, module, registry, ctx, extended))
        function.solver_handoff = None if extended else (ctx, stamp)
    report.solve_seconds = time.perf_counter() - started
    return report


def module_stamp(module: Module) -> tuple:
    """Every function of ``module`` with its mutation epoch and purity
    flag.  Equal stamps mean no function was added, removed, mutated
    or re-flagged in between, so a solver context built at the first
    still describes the module at the second."""
    return tuple(
        (function, function.epoch, function.pure)
        for function in module.functions.values()
    )


def find_for_loops(
    function: Function,
    module: Module | None = None,
    registry: IdiomRegistry | None = None,
):
    """All canonical for-loop matches in one function (Fig. 5 alone)."""
    from .forloop import ForLoopMatch

    registry = registry if registry is not None else default_registry()
    ctx = SolverContext(function, module)
    matches = []
    seen: set[int] = set()
    for assignment in detect(ctx, registry.spec("for-loop")):
        key = id(assignment["header"])
        if key in seen:
            continue
        seen.add(key)
        matches.append(ForLoopMatch.from_assignment(ctx, assignment))
    return matches


# -- record construction -------------------------------------------------------


def _build_scalar(ctx: SolverContext, assignment) -> ScalarReduction | None:
    header = assignment["header"]
    loop = ctx.loop_info.loop_with_header(header)
    acc = assignment["acc"]
    update = assignment["acc_update"]
    iterator = assignment["iterator"]

    op = classify_update(acc, update)
    if op is None:
        return None

    checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
    data = FlowPolicy(
        extra_sources=(acc,),
        rejected=(iterator,),
        index_sources=(iterator,),
        require_affine_index=True,
    )
    control = FlowPolicy(
        rejected=(iterator, acc),
        index_sources=(iterator,),
        require_affine_index=True,
    )
    flow = checker.check(update, data, control)
    if not flow.ok:
        return None
    if not accumulator_confined(loop, acc, flow.visited):
        return None

    input_bases = []
    seen_bases: set[int] = set()
    for load in flow.loads:
        base = root_base(load.pointer)
        if id(base) not in seen_bases:
            seen_bases.add(id(base))
            input_bases.append(base)
    return ScalarReduction(
        function=ctx.function,
        loop=loop,
        header=header,
        iterator=iterator,
        acc=acc,
        acc_init=assignment["acc_init"],
        acc_update=update,
        op=op,
        input_bases=input_bases,
        input_loads=list(flow.loads),
    )


def _build_histogram(ctx: SolverContext, assignment) -> HistogramReduction | None:
    header = assignment["header"]
    loop = ctx.loop_info.loop_with_header(header)
    base = assignment["base"]
    idx = assignment["idx"]
    hist_load = assignment["hist_load"]
    hist_store = assignment["hist_store"]
    update = assignment["update"]
    iterator = assignment["iterator"]

    op = classify_update(hist_load, update)
    if op is None:
        return None
    if not base_memory_ops_confined(loop, base, hist_load, hist_store):
        return None

    checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
    data = FlowPolicy(
        extra_sources=(hist_load,),
        rejected=(iterator,),
        forbidden_bases=(base,),
        index_sources=(iterator,),
    )
    control = FlowPolicy(
        rejected=(iterator, hist_load),
        forbidden_bases=(base,),
        index_sources=(iterator,),
    )
    flow = checker.check(update, data, control)
    if not flow.ok:
        return None
    if not accumulator_confined(
        loop, hist_load, flow.visited, allowed_users=(hist_store,)
    ):
        return None

    idx_flow = checker.check(
        idx,
        FlowPolicy(
            rejected=(iterator,),
            forbidden_bases=(base,),
            index_sources=(iterator,),
        ),
    )
    if not idx_flow.ok:
        return None

    scev = ctx.scev
    idx_affine = scev.affine_at(idx, loop) is not None

    input_bases = []
    seen_bases: set[int] = set()
    for load in list(flow.loads) + list(idx_flow.loads):
        load_base = root_base(load.pointer)
        if id(load_base) not in seen_bases:
            seen_bases.add(id(load_base))
            input_bases.append(load_base)
    return HistogramReduction(
        function=ctx.function,
        loop=loop,
        header=header,
        iterator=iterator,
        base=base,
        idx=idx,
        hist_load=hist_load,
        hist_store=hist_store,
        update=update,
        op=op,
        idx_affine=idx_affine,
        input_bases=input_bases,
        runtime_checks=alias_checks_for(base, input_bases),
    )
