"""Top-level reduction detection driver.

``find_reductions(module)`` runs the scalar-reduction and histogram
idiom specifications over every function, post-processes the solver
matches (associativity classification, accumulator confinement,
privatization safety, alias check generation) and returns a
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
    ReductionOp,
    ScalarReduction,
)


def find_reductions_in_function(
    function: Function,
    module: Module | None = None,
    registry: IdiomRegistry | None = None,
    ctx: SolverContext | None = None,
) -> FunctionReductions:
    """Detect and post-process all reductions of one function.

    Every spec runs against the context's
    :class:`~repro.constraints.SharedSolverCache`, so the scalar and
    histogram searches reuse one solved for-loop prefix and each
    other's memoized proposals.  ``ctx`` is a context already built
    for ``function`` (a serving worker keeps one per cached function,
    with an empty search cache); without it the search runs on a
    fresh context.
    """
    registry = registry if registry is not None else default_registry()
    scalar_spec = registry.spec("scalar-reduction")
    histogram_spec = registry.spec("histogram")
    ctx = ctx if ctx is not None else SolverContext(function, module)
    stats = SolverStats()
    result = FunctionReductions(function, solver_context=ctx, stats=stats)

    def run(spec):
        # Each spec records into its own stats object — the feedback
        # store's per-spec signal — then merges into the function-wide
        # aggregate, so the total effort is exactly what a single
        # shared counter would have seen.
        spec_stat = SolverStats()
        solutions = detect(ctx, spec, stats=spec_stat)
        result.spec_stats.setdefault(
            spec.name, SolverStats()
        ).merge(spec_stat)
        stats.merge(spec_stat)
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
        result.spec_stats.setdefault(
            base.name, SolverStats()
        ).merge(base_stat)
        stats.merge(base_stat)

    presolve_base(scalar_spec)
    presolve_base(histogram_spec)

    seen_scalars: set[tuple[int, int]] = set()
    for assignment in run(scalar_spec):
        key = (id(assignment["header"]), id(assignment["acc"]))
        if key in seen_scalars:
            continue
        record = _build_scalar(ctx, assignment)
        if record is not None:
            seen_scalars.add(key)
            result.scalars.append(record)

    seen_histograms: set[tuple[int, int]] = set()
    for assignment in run(histogram_spec):
        key = (id(assignment["header"]), id(assignment["hist_store"]))
        if key in seen_histograms:
            continue
        record = _build_histogram(ctx, assignment)
        if record is not None:
            seen_histograms.add(key)
            result.histograms.append(record)

    return result


def find_reductions(
    module: Module,
    registry: IdiomRegistry | None = None,
) -> DetectionReport:
    """Detect reductions in every defined function of ``module``.

    Each function's fresh solver context is left on the function
    (:attr:`~repro.ir.function.Function.solver_handoff`), stamped with
    :func:`module_stamp`, for
    :func:`~repro.idioms.extensions.find_extended_reductions` to reuse.
    """
    report = DetectionReport(module.name)
    stamp = module_stamp(module)
    started = time.perf_counter()
    for function in module.defined_functions():
        found = find_reductions_in_function(function, module, registry=registry)
        function.solver_handoff = (found.solver_context, stamp)
        report.functions.append(found)
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
