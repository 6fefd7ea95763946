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
through the :class:`~repro.idioms.registry.IdiomRegistry`; this module
turns their solutions into match records.  The differential tests
compare the files solution for solution against an independent Python
transliteration (``tests/constraints/native_specs.py``).

:func:`find_extended_in_function` runs all three on one function.
``find_reductions_in_function(..., extended=True)`` calls it on the
context of the base detection, so the extension idioms replay its
solved for-loop prefix.  :func:`find_extended_reductions` is the
second call of the two-call library path: it reuses the context
:func:`~repro.idioms.detect.find_reductions` left on each function
while the module's mutation epochs are unchanged.  The base detection
itself always starts from a fresh context, so the paper-faithful
counts of Figure 8 stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..constraints import SolverContext, SolverStats, detect
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import PhiInst
from ..ir.module import Module
from ..ir.values import Value
from .detect import module_stamp, record_spec_stats
from .postprocess import classify_update
from .registry import default_registry
from .reports import ReductionOp

# ---------------------------------------------------------------------------
# Match records
# ---------------------------------------------------------------------------


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
    the scalar/histogram searches, as
    ``find_reductions_in_function(..., extended=True)`` and
    :func:`find_extended_reductions` do; without ``ctx`` the search
    runs on a fresh context.  ``spec_stats`` collects each extension
    spec's search effort under its own name (the solver feedback
    store's per-spec signal) in addition to the ``stats`` aggregate.
    """
    registry = registry if registry is not None else default_registry()
    ctx = ctx if ctx is not None else SolverContext(function, module)
    result = FunctionExtensions(function)
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
    fresh context.  Either way the hand-off is taken off the function,
    so nothing keeps the context alive once this call returns, and it
    is freed without waiting for a cycle collection.
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
