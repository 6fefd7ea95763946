"""LRPD-test baseline (Rauchwerger & Padua [28]).

§6.1: *"The methodology from [28] ... does not capture complex control
flow, as is for example present in the tpacf program.  Furthermore
benchmarks such as EP contained pure function calls to sqrt and log,
but [28] is restricted to arithmetic operators."*

The model marks a loop as speculatively parallelizable with reduction
when every accumulator update is a plain arithmetic operator chain and
the loop body has at most simple (single-diamond) control flow with no
calls at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.cache import function_analyses
from ..idioms.postprocess import classify_update
from ..ir.function import Function
from ..ir.instructions import CallInst
from ..ir.module import Module


@dataclass
class LrpdReport:
    """Loops the LRPD model would speculate on."""

    module_name: str
    reductions: list[str] = field(default_factory=list)

    def count(self) -> int:
        """Number of speculated reductions."""
        return len(self.reductions)


def analyze_module(module: Module) -> LrpdReport:
    """Run the LRPD model over every defined function."""
    report = LrpdReport(module.name)
    for function in module.defined_functions():
        report.reductions.extend(_analyze_function(function))
    return report


def _analyze_function(function: Function) -> list[str]:
    analyses = function_analyses(function)
    scev = analyses.scev
    found = []
    for loop in analyses.loop_info.loops:
        bounds = scev.loop_bounds(loop)
        if bounds is None:
            continue
        # No calls at all: [28] is restricted to arithmetic operators.
        if any(
            isinstance(i, CallInst)
            for b in loop.blocks
            for i in b.instructions
        ):
            continue
        # No complex control flow: at most one conditional inside.
        conditionals = sum(
            1
            for b in loop.blocks
            if b is not loop.header
            and b.terminator is not None
            and getattr(b.terminator, "is_conditional", False)
        )
        if conditionals > 1:
            continue
        for phi in loop.header.phis():
            if phi is bounds.iterator or phi.incoming_count != 2:
                continue
            update = None
            for value, pred in phi.incoming:
                if pred in loop.blocks:
                    update = value
            if update is None:
                continue
            op = classify_update(phi, update)
            if op is not None:
                found.append(f"{function.name}:{phi.short_name()}")
    return found


__all__ = ["LrpdReport", "analyze_module"]
