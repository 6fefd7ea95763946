"""Intel icc baseline: data-dependence auto-parallelization model.

Models icc's ``-parallel`` loop analysis as characterized in §5.2/§6.1:

* icc is more robust than Polly — no static-control precondition — but
  analyses one **innermost** loop at a time; reductions whose carrying
  loop is in the middle of a nest are missed (the SP failure);
* it recognises scalar reductions (sum/product/min/max, including
  conditional updates) through dependence testing;
* a call to a function outside its known vector-math list blocks
  parallelization of the whole loop — crucially it does *not* know
  ``fmin``/``fmax`` are pure, which loses most cutcp reductions;
* any store through a non-affine (indirect) index creates an
  unresolvable output dependence: histograms are never parallelized
  (*"It is clear that icc does not attempt to detect histograms"*);
* loads from arrays that the same loop stores to are unresolved flow
  dependences and block the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.cache import function_analyses
from ..analysis.loops import Loop
from ..analysis.scev import ScalarEvolution
from ..constraints.flow import root_base
from ..idioms.postprocess import classify_update
from ..ir.function import Function
from ..ir.instructions import (
    CallInst,
    GEPInst,
    LoadInst,
    StoreInst,
)
from ..ir.module import Module

#: Math routines icc can vectorize/parallelize around (libimf-style).
KNOWN_VECTOR_MATH = frozenset(
    {"sqrt", "log", "exp", "sin", "cos", "fabs", "pow", "floor", "ceil"}
)


@dataclass
class IccLoopReport:
    """icc's verdict on one innermost loop."""

    function: Function
    loop: Loop
    parallelizable: bool
    #: Names of the accumulator PHIs recognised as reductions.
    reductions: list[str] = field(default_factory=list)
    reason: str = ""


@dataclass
class IccReport:
    """icc's verdict on a whole module (the -qopt-report analogue)."""

    module_name: str
    loops: list[IccLoopReport] = field(default_factory=list)

    @property
    def reductions(self) -> list[str]:
        """All recognised reductions."""
        return [r for l in self.loops for r in l.reductions]

    def reduction_count(self) -> int:
        """Number of scalar reductions icc would report."""
        return len(self.reductions)


def analyze_module(module: Module) -> IccReport:
    """Run the icc model over every defined function."""
    report = IccReport(module.name)
    for function in module.defined_functions():
        analyses = function_analyses(function)
        scev = analyses.scev
        for loop in analyses.loop_info.loops:
            if not loop.is_innermost():
                continue  # icc analyses innermost loops
            report.loops.append(_analyze_loop(function, loop, scev))
    return report


def _analyze_loop(function: Function, loop: Loop,
                  scev: ScalarEvolution) -> IccLoopReport:
    bounds = scev.loop_bounds(loop)
    if bounds is None:
        return IccLoopReport(function, loop, False, reason="irregular loop")

    stored_bases: set[int] = set()
    for block in loop.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, CallInst):
                if instruction.callee.name not in KNOWN_VECTOR_MATH:
                    return IccLoopReport(
                        function, loop, False,
                        reason=f"call to {instruction.callee.name} "
                               f"(unknown side effects)",
                    )
            elif isinstance(instruction, StoreInst):
                pointer = instruction.pointer
                base = root_base(pointer)
                stored_bases.add(id(base))
                if isinstance(pointer, GEPInst):
                    affine = scev.affine_at(pointer.index, loop)
                    if affine is None:
                        return IccLoopReport(
                            function, loop, False,
                            reason="indirect store (unresolvable output "
                                   "dependence)",
                        )

    # Scalar stores to globals whose address is loop invariant are the
    # in-memory accumulators; a scalar local accumulator is a PHI in the
    # SSA form lowering builds, so a direct store inside the loop means
    # the dependence is unresolved.
    reductions = []
    iterator = bounds.iterator
    for phi in loop.header.phis():
        if phi is iterator or phi.incoming_count != 2:
            continue
        update = None
        for value, pred in phi.incoming:
            if pred in loop.blocks:
                update = value
        if update is None:
            continue
        op = classify_update(phi, update)
        if op is None:
            return IccLoopReport(
                function, loop, False,
                reason=f"loop-carried dependence on {phi.short_name()}",
            )
        reductions.append(f"{phi.short_name()}@{loop.header.name}")

    # Flow dependences: loads from bases the loop stores to, and
    # indirect loads the dependence tests cannot disambiguate (this is
    # why gather-style sums such as spmv's are not auto-parallelized).
    for block in loop.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, LoadInst):
                pointer = instruction.pointer
                if id(root_base(pointer)) in stored_bases:
                    return IccLoopReport(
                        function, loop, False,
                        reason="flow dependence through memory",
                    )
                if isinstance(pointer, GEPInst):
                    if scev.affine_at(pointer.index, loop) is None:
                        return IccLoopReport(
                            function, loop, False,
                            reason="assumed dependence (indirect access)",
                        )

    return IccLoopReport(function, loop, True, reductions=reductions)


def detected_reduction_count(module: Module) -> int:
    """Reductions icc finds: recognised accumulators in loops it can
    actually parallelize."""
    report = analyze_module(module)
    return sum(
        len(l.reductions) for l in report.loops if l.parallelizable
    )


__all__ = [
    "IccReport",
    "IccLoopReport",
    "analyze_module",
    "detected_reduction_count",
    "KNOWN_VECTOR_MATH",
]
