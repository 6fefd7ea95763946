"""LLVM scalar-evolution-style reduction finder.

§6.1: *"The LLVM scalar evolution analysis pass ... [is] fundamentally
limited to scalar reductions and was hence unable to capture
information about any of the histogram reductions."*  This baseline
models the classic LoopVectorizer-style recognition: an innermost,
single-latch loop whose accumulator PHI is updated by a straight
(unconditional) chain of one associative operator — no control flow in
the update, no calls, no histograms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.cache import function_analyses
from ..ir.function import Function
from ..ir.instructions import BinaryInst, CallInst
from ..ir.module import Module

_RECOGNISED_OPCODES = frozenset({"add", "fadd", "mul", "fmul"})


@dataclass
class ScevReductionReport:
    """Reductions the SCEV-style recogniser accepts."""

    module_name: str
    reductions: list[str] = field(default_factory=list)

    def count(self) -> int:
        """Number of recognised reductions."""
        return len(self.reductions)


def analyze_module(module: Module) -> ScevReductionReport:
    """Run the recogniser over every defined function."""
    report = ScevReductionReport(module.name)
    for function in module.defined_functions():
        report.reductions.extend(_analyze_function(function))
    return report


def _analyze_function(function: Function) -> list[str]:
    analyses = function_analyses(function)
    scev = analyses.scev
    found = []
    for loop in analyses.loop_info.loops:
        if not loop.is_innermost():
            continue
        bounds = scev.loop_bounds(loop)
        if bounds is None:
            continue
        # Straight-line body only: header + one body block + latch at
        # most, and no calls anywhere.
        if len(loop.blocks) > 3:
            continue
        if any(
            isinstance(i, CallInst)
            for b in loop.blocks
            for i in b.instructions
        ):
            continue
        for phi in loop.header.phis():
            if phi is bounds.iterator or phi.incoming_count != 2:
                continue
            update = None
            for value, pred in phi.incoming:
                if pred in loop.blocks:
                    update = value
            if not isinstance(update, BinaryInst):
                continue
            if update.opcode not in _RECOGNISED_OPCODES:
                continue
            if update.lhs is not phi and update.rhs is not phi:
                continue
            found.append(f"{function.name}:{phi.short_name()}")
    return found


__all__ = ["ScevReductionReport", "analyze_module"]
