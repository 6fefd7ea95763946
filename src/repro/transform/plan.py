"""Parallelization planning for detected reductions (§4 of the paper).

For each loop carrying detected reductions, the planner decides whether
the paper's privatization scheme applies:

* the loop must be a canonical counted loop with unit step;
* every store in the loop must belong to a detected histogram (other
  writes would need further analysis — this is exactly why the kmeans
  transform fails: its loop updates additional arrays inside a nested
  loop, §6.3);
* every value flowing out of the loop must be a detected accumulator
  (or the iterator itself);
* no impure calls may execute inside the loop;
* histogram merges must be additive (all histograms in the suites
  update bins by addition, §6.1).

The outcome is either a :class:`ParallelPlan` (consumed by the outliner
and the simulated parallel executor) or a :class:`TransformFailure`
carrying the reason, which the evaluation reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.cache import function_analyses
from ..analysis.defuse import users_outside_loop
from ..analysis.loops import Loop
from ..analysis.scev import LoopBounds
from ..idioms.reports import (
    FunctionReductions,
    HistogramReduction,
    ReductionOp,
    ScalarReduction,
)
from ..ir.function import Function
from ..ir.instructions import CallInst, PhiInst, StoreInst
from ..ir.module import Module
from ..ir.values import ConstantInt, Value


@dataclass
class TransformFailure:
    """A loop the code generator refuses to parallelize, and why."""

    function: Function
    loop: Loop
    reason: str

    def __str__(self) -> str:
        return (
            f"{self.function.name}:{self.loop.header.name}: {self.reason}"
        )


@dataclass
class ParallelPlan:
    """Everything needed to outline and run one parallel reduction loop."""

    function: Function
    loop: Loop
    bounds: LoopBounds
    scalars: list[ScalarReduction] = field(default_factory=list)
    histograms: list[HistogramReduction] = field(default_factory=list)
    #: True when the histogram extent is not statically known and the
    #: generated code must bounds-check and reallocate (§4).
    dynamic_bounds: bool = False

    @property
    def header(self):
        """The loop header block."""
        return self.loop.header


_IDENTITY = {
    ReductionOp.ADD: 0,
    ReductionOp.MUL: 1,
    ReductionOp.MIN: float("inf"),
    ReductionOp.MAX: float("-inf"),
}


def identity_value(op: ReductionOp, is_float: bool):
    """The merge identity element of an operator."""
    value = _IDENTITY[op]
    if is_float:
        return float(value)
    if op is ReductionOp.MIN:
        return 2**62
    if op is ReductionOp.MAX:
        return -(2**62)
    return int(value)


def merge_values(op: ReductionOp, a, b):
    """Combine two partial results."""
    if op is ReductionOp.ADD:
        return a + b
    if op is ReductionOp.MUL:
        return a * b
    if op is ReductionOp.MIN:
        return min(a, b)
    return max(a, b)


def plan_loop(
    module: Module,
    reductions: FunctionReductions,
    loop: Loop,
) -> ParallelPlan | TransformFailure:
    """Plan the parallelization of one reduction-carrying loop."""
    function = reductions.function
    scalars = [s for s in reductions.scalars if s.loop is loop]
    histograms = [h for h in reductions.histograms if h.loop is loop]
    if not scalars and not histograms:
        return TransformFailure(function, loop, "no reductions in loop")

    bounds = function_analyses(function).scev.loop_bounds(loop)
    if bounds is None:
        return TransformFailure(function, loop, "loop bounds not canonical")
    if not (
        isinstance(bounds.step, ConstantInt) and bounds.step.value == 1
    ):
        return TransformFailure(function, loop, "non-unit loop step")
    if bounds.predicate not in ("slt", "sle", "ne"):
        return TransformFailure(
            function, loop, f"unsupported exit predicate {bounds.predicate}"
        )

    hist_stores = {id(h.hist_store) for h in histograms}
    for block in loop.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, StoreInst):
                if id(instruction) not in hist_stores:
                    return TransformFailure(
                        function,
                        loop,
                        "store not covered by a detected reduction "
                        "(multiple histogram updates in a nested loop)",
                    )
            elif isinstance(instruction, CallInst):
                if not instruction.callee.pure:
                    return TransformFailure(
                        function,
                        loop,
                        f"impure call to {instruction.callee.name} in loop",
                    )

    accs = {id(s.acc) for s in scalars}
    accs.add(id(bounds.iterator))
    for block in loop.blocks:
        for instruction in block.instructions:
            if users_outside_loop(instruction, loop):
                if id(instruction) in accs:
                    continue
                if (
                    isinstance(instruction, PhiInst)
                    and instruction.parent is loop.header
                ):
                    return TransformFailure(
                        function,
                        loop,
                        f"loop-carried value {instruction.short_name()} "
                        f"escapes the loop",
                    )
                return TransformFailure(
                    function,
                    loop,
                    f"value {instruction.short_name()} computed in the "
                    f"loop is used outside it",
                )

    # Extra loop-carried state (header PHIs that are neither the
    # iterator nor a detected accumulator) cannot be privatized.
    for phi in loop.header.phis():
        if id(phi) not in accs:
            return TransformFailure(
                function,
                loop,
                f"unrecognised loop-carried value {phi.short_name()}",
            )

    for histogram in histograms:
        if histogram.op is not ReductionOp.ADD:
            return TransformFailure(
                function,
                loop,
                f"histogram merge operator {histogram.op.value} not "
                f"supported by the code generator",
            )

    dynamic = any(not _static_extent(module, h.base) for h in histograms)
    return ParallelPlan(
        function=function,
        loop=loop,
        bounds=bounds,
        scalars=scalars,
        histograms=histograms,
        dynamic_bounds=dynamic,
    )


def plan_all(
    module: Module, reductions: FunctionReductions
) -> tuple[list[ParallelPlan], list[TransformFailure]]:
    """Plan every reduction-carrying loop of one function."""
    loops: list[Loop] = []
    seen: set[int] = set()
    for record in list(reductions.scalars) + list(reductions.histograms):
        if id(record.loop) not in seen:
            seen.add(id(record.loop))
            loops.append(record.loop)
    plans: list[ParallelPlan] = []
    failures: list[TransformFailure] = []
    for loop in loops:
        outcome = plan_loop(module, reductions, loop)
        if isinstance(outcome, ParallelPlan):
            plans.append(outcome)
        else:
            failures.append(outcome)
    return plans, failures


def _static_extent(module: Module, base: Value) -> bool:
    """True when the histogram array's extent is known statically."""
    from ..ir.values import GlobalVariable

    return isinstance(base, GlobalVariable)
