"""Idiom extensions beyond the paper's evaluation (§8 future work).

The paper closes with: *"Future work will extend the constraint
formulation to consider other commonly occurring computational
idioms."*  This module demonstrates that the decoupled design delivers
on that promise — three further idioms written purely in the constraint
DSL, run by the unmodified solver:

* ``dot-product`` — ``acc += a[i] * b[i]`` over two distinct arrays
  (the BLAS-mapping use case of §1);
* ``argminmax`` — guarded best-value/best-index tracking (kmeans'
  inner loop), which is *not* a simple reduction (the guard reads the
  accumulator) and is correctly rejected by the base scalar spec;
* ``nested-array-reduction`` — the SP ``rms[m]`` pattern the paper's
  tool misses (§6.1: "when the reduction loop was not the innermost
  loop"): a read-modify-write whose store sits in an inner loop and
  whose address is indexed by inner iterators only, making the *outer*
  loop privatizable.

Like the core idioms, the extensions ship as ``.icsl`` files
(``specs/{dot_product,argminmax,nested_reduction}.icsl``) resolved
through the :class:`~repro.idioms.registry.IdiomRegistry`; the
``*_spec()`` functions below build the same specs in Python from the
same named predicate atoms (:mod:`repro.constraints.predicates`) and
``flow(...)`` policies so the two paths cannot drift — the differential
tests compare them solution-for-solution.

:func:`find_extended_reductions` runs all three on a module;
:func:`find_extended_in_function` runs them on one function.  Both
share one function's :class:`~repro.constraints.SolverContext` (and
therefore its solved for-loop prefix) with the base detection: the
pipeline passes the context explicitly, and
:func:`find_extended_reductions` reuses the one
:func:`~repro.idioms.detect.find_reductions` left on each function
while the module's mutation epochs are unchanged.  The base detection
itself always starts from a fresh context, so the paper-faithful
counts of Figure 8 stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..constraints import (
    ConstraintAnd,
    Distinct,
    IdiomSpec,
    InBlock,
    Opcode,
    PhiIncomingFromBlock,
    PhiOfTwo,
    SolverContext,
    SolverStats,
    declarative_flow,
    detect,
)
from ..constraints.predicates import (
    guard_matches_candidate,
    load_before_store,
    ordering_cmp,
    same_join,
    store_in_subloop,
)
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import PhiInst
from ..ir.module import Module
from ..ir.values import Value
from .detect import module_stamp, record_spec_stats
from .forloop import FOR_LOOP_LABEL_ORDER, for_loop_constraint, loop_invariant_in
from .postprocess import classify_update
from .registry import default_registry
from .reports import ReductionOp

# ---------------------------------------------------------------------------
# Dot product
# ---------------------------------------------------------------------------

DOT_PRODUCT_LABEL_ORDER: tuple[str, ...] = FOR_LOOP_LABEL_ORDER + (
    "acc", "update", "acc_init", "product", "load_a", "load_b",
    "gep_a", "gep_b", "base_a", "base_b",
)


def dot_product_spec() -> IdiomSpec:
    """``acc' = acc + a[i] * b[i]`` with two distinct arrays."""
    constraint = ConstraintAnd(
        for_loop_constraint(),
        PhiOfTwo("acc", "update", "acc_init"),
        InBlock("acc", "header"),
        PhiIncomingFromBlock("acc", "update", "latch"),
        PhiIncomingFromBlock("acc", "acc_init", "entry"),
        loop_invariant_in("acc_init", "entry"),
        Opcode("update", "fadd", ("acc", "product"), commutative=True),
        Opcode("product", "fmul", ("load_a", "load_b"), commutative=True),
        Opcode("load_a", "load", ("gep_a",)),
        Opcode("load_b", "load", ("gep_b",)),
        Opcode("gep_a", "gep", ("base_a", None)),
        Opcode("gep_b", "gep", ("base_b", None)),
        Distinct("base_a", "base_b"),
        Distinct("acc", "iterator"),
        declarative_flow("update", "header", sources=("acc",),
                         rejected=("iterator",), index=("iterator",),
                         affine=True),
    )
    return IdiomSpec("dot-product", DOT_PRODUCT_LABEL_ORDER, constraint)


@dataclass
class DotProductMatch:
    """One detected dot product."""

    function: Function
    header: BasicBlock
    acc: PhiInst
    base_a: Value
    base_b: Value

    @property
    def name(self) -> str:
        """Stable identifier."""
        return (
            f"{self.function.name}:{self.header.name}:"
            f"{self.base_a.short_name()}x{self.base_b.short_name()}"
        )


# ---------------------------------------------------------------------------
# Argmin / argmax
# ---------------------------------------------------------------------------

ARGMINMAX_LABEL_ORDER: tuple[str, ...] = FOR_LOOP_LABEL_ORDER + (
    "best", "best_update", "best_init",
    "candidate",
    "pos", "pos_update", "pos_init", "pos_candidate",
    "cmp",
)


def argminmax_spec() -> IdiomSpec:
    """Guarded best-value / best-index pair:

    ``if (cmp(a[i], best)) { best = a[i]; pos = i; }``

    After lowering, ``best_update``/``pos_update`` are PHIs at the same
    join block, selecting between the carried values and the candidate
    pair, with the guard comparing the candidate against ``best``.
    """
    constraint = ConstraintAnd(
        for_loop_constraint(),
        # The tracked best value.
        PhiOfTwo("best", "best_update", "best_init"),
        InBlock("best", "header"),
        PhiIncomingFromBlock("best", "best_update", "latch"),
        PhiIncomingFromBlock("best", "best_init", "entry"),
        loop_invariant_in("best_init", "entry"),
        # The tracked index.
        PhiOfTwo("pos", "pos_update", "pos_init"),
        InBlock("pos", "header"),
        PhiIncomingFromBlock("pos", "pos_update", "latch"),
        PhiIncomingFromBlock("pos", "pos_init", "entry"),
        loop_invariant_in("pos_init", "entry"),
        Distinct("best", "pos", "iterator"),
        # Join PHIs select carried vs candidate.
        PhiOfTwo("best_update", "best", "candidate"),
        PhiOfTwo("pos_update", "pos", "pos_candidate"),
        same_join("best_update", "pos_update"),
        # The guard compares the candidate (or an equivalent
        # recomputation of it) against the best value.
        Opcode("cmp", ("fcmp", "icmp"), (None, None)),
        ordering_cmp("cmp"),
        guard_matches_candidate("cmp", "best", "candidate"),
    )
    return IdiomSpec("argminmax", ARGMINMAX_LABEL_ORDER, constraint)


@dataclass
class ArgMinMaxMatch:
    """One detected argmin/argmax pair."""

    function: Function
    header: BasicBlock
    best: PhiInst
    pos: PhiInst
    kind: str  # "min" or "max"

    @property
    def name(self) -> str:
        """Stable identifier."""
        return (
            f"{self.function.name}:{self.header.name}:"
            f"arg{self.kind}({self.best.short_name()},"
            f"{self.pos.short_name()})"
        )


# ---------------------------------------------------------------------------
# Nested array reduction (the SP rms pattern)
# ---------------------------------------------------------------------------

NESTED_ARRAY_LABEL_ORDER: tuple[str, ...] = FOR_LOOP_LABEL_ORDER + (
    "arr_store", "gep_st", "base", "idx", "gep_ld", "arr_load", "update",
)


def nested_array_reduction_spec() -> IdiomSpec:
    """Array reduction carried by a non-innermost loop (SP's ``rms``).

    Crucially the idx flow rejects the *outer* iterator even inside
    addresses (no ``index=``): if the address varied with the outer
    loop this would be a parallel write, and if it read the array a
    true dependence.
    """
    constraint = ConstraintAnd(
        for_loop_constraint(),
        Opcode("arr_store", "store", ("update", "gep_st")),
        Opcode("gep_st", "gep", ("base", "idx")),
        Opcode("gep_ld", "gep", ("base", "idx")),
        Opcode("arr_load", "load", ("gep_ld",)),
        loop_invariant_in("base", "entry"),
        store_in_subloop("header", "arr_store"),
        load_before_store("arr_load", "arr_store"),
        declarative_flow("idx", "header", rejected=("iterator",),
                         forbidden=("base",)),
        declarative_flow("update", "header", sources=("arr_load",),
                         rejected=("iterator",), forbidden=("base",),
                         index=("iterator",)),
    )
    return IdiomSpec(
        "nested-array-reduction", NESTED_ARRAY_LABEL_ORDER, constraint
    )


@dataclass
class NestedArrayReduction:
    """One detected non-innermost array reduction."""

    function: Function
    header: BasicBlock
    base: Value
    op: ReductionOp

    @property
    def name(self) -> str:
        """Stable identifier."""
        return (
            f"{self.function.name}:{self.header.name}:"
            f"{self.base.short_name()}"
        )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass
class FunctionExtensions:
    """Extension-idiom matches of one function."""

    function: Function
    dot_products: list[DotProductMatch] = field(default_factory=list)
    argminmax: list[ArgMinMaxMatch] = field(default_factory=list)
    nested_array: list[NestedArrayReduction] = field(default_factory=list)
    #: The solver context detection ran with (possibly shared with the
    #: base detection — see :func:`find_extended_reductions`).
    solver_context: SolverContext | None = None


@dataclass
class ExtendedReport:
    """Results of the extension idioms over one module."""

    module_name: str
    dot_products: list[DotProductMatch] = field(default_factory=list)
    argminmax: list[ArgMinMaxMatch] = field(default_factory=list)
    nested_array: list[NestedArrayReduction] = field(default_factory=list)

    def extend(self, matches: FunctionExtensions) -> None:
        """Fold one function's matches into the module report."""
        self.dot_products.extend(matches.dot_products)
        self.argminmax.extend(matches.argminmax)
        self.nested_array.extend(matches.nested_array)


_MIN_PREDICATES = frozenset({"olt", "ole", "slt", "sle"})

#: Flips a comparison predicate so the candidate reads on the left.
_FLIPPED = {"olt": "ogt", "ogt": "olt", "slt": "sgt", "sgt": "slt",
            "ole": "oge", "oge": "ole", "sle": "sge", "sge": "sle"}


def find_extended_in_function(
    function: Function,
    module: Module | None = None,
    registry=None,
    ctx: SolverContext | None = None,
    stats: SolverStats | None = None,
    spec_stats: dict[str, SolverStats] | None = None,
) -> FunctionExtensions:
    """Run the three extension idioms on one function.

    Specs resolve through the registry (the shipped ``.icsl`` files by
    default).  Passing the ``ctx`` the base detection already built
    shares every cached analysis *and* the solved for-loop prefix with
    the scalar/histogram searches, as the pipeline worker and
    :func:`find_extended_reductions` do; without ``ctx`` the search
    runs on a fresh context.  ``spec_stats`` collects each extension
    spec's search effort under its own name (the solver feedback
    store's per-spec signal) in addition to the ``stats`` aggregate.
    """
    registry = registry if registry is not None else default_registry()
    ctx = ctx if ctx is not None else SolverContext(function, module)
    result = FunctionExtensions(function, solver_context=ctx)
    seen: set[tuple] = set()

    def run(spec):
        local = SolverStats()
        solutions = detect(ctx, spec, stats=local)
        if stats is not None:
            stats.merge(local)
        if spec_stats is not None:
            record_spec_stats(spec_stats, spec.name, local)
        return solutions

    for assignment in run(registry.spec("dot-product")):
        key = ("dot", id(assignment["header"]), id(assignment["acc"]))
        if key in seen:
            continue
        seen.add(key)
        result.dot_products.append(
            DotProductMatch(
                function, assignment["header"], assignment["acc"],
                assignment["base_a"], assignment["base_b"],
            )
        )
    for assignment in run(registry.spec("argminmax")):
        key = ("arg", id(assignment["header"]), id(assignment["best"]),
               id(assignment["pos"]))
        if key in seen:
            continue
        seen.add(key)
        cmp = assignment["cmp"]
        # Normalise the direction: candidate on the left.
        predicate = cmp.predicate
        if cmp.lhs is assignment["best"]:
            predicate = _FLIPPED[predicate]
        kind = "min" if predicate in _MIN_PREDICATES else "max"
        result.argminmax.append(
            ArgMinMaxMatch(function, assignment["header"],
                           assignment["best"], assignment["pos"], kind)
        )
    for assignment in run(registry.spec("nested-array-reduction")):
        # One record per store: in deeper nests several enclosing
        # loops qualify as carriers; report the outermost (headers
        # are enumerated in block order, outermost first).
        key = ("nested", id(assignment["arr_store"]))
        if key in seen:
            continue
        seen.add(key)
        op = classify_update(assignment["arr_load"], assignment["update"])
        if op is None:
            continue
        result.nested_array.append(
            NestedArrayReduction(function, assignment["header"],
                                 assignment["base"], op)
        )
    return result


def find_extended_reductions(
    module: Module, registry=None
) -> ExtendedReport:
    """Run the three extension idioms over every defined function.

    A function's search runs on the solver context
    :func:`~repro.idioms.detect.find_reductions` left on it when that
    context was built for ``module`` and the module stamp is unchanged
    (no function added, removed, mutated or re-flagged since), so the
    solved for-loop base and every analysis are reused; otherwise on a
    fresh context.  Either way the hand-off is taken off the function:
    the function no longer keeps the context alive, so it is freed with
    the detection report that owns it rather than by a later cycle
    collection.
    """
    report = ExtendedReport(module.name)
    stamp = module_stamp(module)
    for function in module.defined_functions():
        ctx = None
        handoff, function.solver_handoff = function.solver_handoff, None
        if handoff is not None:
            handed, handed_stamp = handoff
            if handed.module is module and handed_stamp == stamp:
                ctx = handed
        report.extend(find_extended_in_function(
            function, module, registry=registry, ctx=ctx))
    return report
