"""Polly baseline: SCoP detection plus reduction-enabled scheduling.

Models the behaviour of Polly with the reduction extension of Doerfert
et al. [12], as characterized in §5.2/§6.1 of the paper:

* reductions can only be found inside **SCoPs** (static control parts);
* a loop nest is a SCoP only when every loop bound is a compile-time
  constant or a function argument (*"not statically known iteration
  spaces"* break Polly on many benchmarks);
* every memory access must be affine with **compile-time-constant
  induction-variable coefficients** — flattened arrays indexed as
  ``i*nx + j`` with parametric ``nx`` fail delinearization (*"the use
  of flat array structures"*);
* any call (even to a pure math routine) and any data-dependent branch
  condition breaks static control;
* within a SCoP, a reduction is a loop-carried accumulator (scalar PHI
  or same-address affine load/store pair) combined through an
  associative operator — indirect (histogram) accesses are impossible
  by construction, *"as the indirect memory access that is present in
  histograms contradicts the affine memory access condition"*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.cache import function_analyses
from ..analysis.loops import Loop, LoopInfo
from ..analysis.scev import ScalarEvolution
from ..constraints.flow import root_base
from ..idioms.postprocess import classify_update
from ..idioms.reports import ReductionOp
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BranchInst,
    CallInst,
    GEPInst,
    ICmpInst,
    LoadInst,
    StoreInst,
)
from ..ir.module import Module
from ..ir.values import Argument, ConstantInt, GlobalVariable, Value


@dataclass
class SCoP:
    """A static control part: one qualifying top-level loop nest."""

    function: Function
    root: Loop
    #: Scalar/array reductions found inside (Doerfert-style).
    reductions: list[str] = field(default_factory=list)

    @property
    def is_reduction_scop(self) -> bool:
        """True when the SCoP carries at least one reduction."""
        return bool(self.reductions)

    @property
    def name(self) -> str:
        """Stable identifier."""
        return f"{self.function.name}:{self.root.header.name}"


@dataclass
class PollyReport:
    """SCoPs and reductions Polly finds in one module."""

    module_name: str
    scops: list[SCoP] = field(default_factory=list)

    @property
    def reduction_scops(self) -> list[SCoP]:
        """SCoPs containing reductions."""
        return [s for s in self.scops if s.is_reduction_scop]

    def counts(self) -> tuple[int, int]:
        """(total SCoPs, reduction SCoPs)."""
        return len(self.scops), len(self.reduction_scops)

    @property
    def reductions(self) -> list[str]:
        """All reduction identifiers across SCoPs."""
        return [r for s in self.scops for r in s.reductions]


def analyze_module(module: Module) -> PollyReport:
    """Run the Polly model over every defined function."""
    report = PollyReport(module.name)
    for function in module.defined_functions():
        report.scops.extend(find_scops(function))
    return report


def find_scops(function: Function) -> list[SCoP]:
    """Top-level loop nests of ``function`` that qualify as SCoPs."""
    analyses = function_analyses(function)
    loop_info, scev = analyses.loop_info, analyses.scev
    scops = []
    for loop in loop_info.top_level_loops():
        if _nest_is_static(loop, loop_info, scev):
            scop = SCoP(function, loop)
            scop.reductions = _find_scop_reductions(loop, loop_info, scev)
            scops.append(scop)
    return scops


# -- static control -------------------------------------------------------------


def _nest_is_static(loop: Loop, loop_info: LoopInfo,
                    scev: ScalarEvolution) -> bool:
    """Check the whole nest rooted at ``loop`` for static control."""
    bounds = scev.loop_bounds(loop)
    if bounds is None:
        return False
    for value in (bounds.start, bounds.end, bounds.step):
        if not _is_polly_parameter(value):
            return False
    subloop_blocks: set[BasicBlock] = set()
    for child in loop.children:
        if not _nest_is_static(child, loop_info, scev):
            return False
        subloop_blocks |= child.blocks
    for block in loop.blocks:
        if block in subloop_blocks:
            continue
        for instruction in block.instructions:
            if isinstance(instruction, CallInst):
                return False  # calls break static control
            if isinstance(instruction, (LoadInst, StoreInst)):
                if not _access_is_polly_affine(instruction, loop, scev):
                    return False
            if isinstance(instruction, BranchInst) and instruction.is_conditional:
                if block is loop.header:
                    continue
                if not _condition_is_static(
                    instruction.condition, loop, scev
                ):
                    return False
    return True


def _is_polly_parameter(value: Value) -> bool:
    """Bounds must be literal constants or function arguments."""
    return isinstance(value, (ConstantInt, Argument))


def _access_is_polly_affine(instruction, loop: Loop,
                            scev: ScalarEvolution) -> bool:
    pointer = instruction.pointer
    base = root_base(pointer)
    if not isinstance(base, (GlobalVariable, Argument)):
        return False
    if not isinstance(pointer, GEPInst):
        return True  # direct scalar access
    affine = scev.affine_at(pointer.index, loop)
    if affine is None:
        return False
    if not affine.iv_coefficients_constant():
        return False
    # Parameter products are non-affine over the full iteration space
    # (an enclosing loop's IV is a parameter here): this is the flat
    # array / delinearization failure of §6.1.
    return not affine.has_parameter_products()


def _condition_is_static(condition: Value, loop: Loop,
                         scev: ScalarEvolution) -> bool:
    """Branch conditions must compare affine integer expressions."""
    if not isinstance(condition, ICmpInst):
        return False
    for operand in (condition.lhs, condition.rhs):
        affine = scev.affine_at(operand, loop)
        if affine is None or not affine.iv_coefficients_constant():
            return False
        for parameter in affine.parameters():
            if not _is_polly_parameter(parameter):
                return False
    return True


# -- reductions inside SCoPs ---------------------------------------------------


def _find_scop_reductions(root: Loop, loop_info: LoopInfo,
                          scev: ScalarEvolution) -> list[str]:
    reductions: list[str] = []
    nest = [root]
    work = [root]
    while work:
        loop = work.pop()
        for child in loop.children:
            nest.append(child)
            work.append(child)
    for loop in nest:
        reductions.extend(_scalar_reductions_in(loop, scev))
    reductions.extend(_array_reductions_in(root, loop_info, scev))
    return reductions


def _scalar_reductions_in(loop: Loop, scev: ScalarEvolution) -> list[str]:
    """Accumulator PHIs with associative updates (sum/product)."""
    found = []
    bounds = scev.loop_bounds(loop)
    iterator = bounds.iterator if bounds is not None else None
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
        if op in (ReductionOp.ADD, ReductionOp.MUL):
            found.append(f"scalar:{phi.short_name()}@{loop.header.name}")
    return found


def _array_reductions_in(root: Loop, loop_info: LoopInfo,
                         scev: ScalarEvolution) -> list[str]:
    """Same-address affine load/store pairs combined associatively and
    carried by some loop of the nest whose iterator is absent from the
    address — this is how Polly sees SP's mid-nest ``rms[m]``
    reduction (§6.1)."""
    found = []
    for block in root.blocks:
        innermost = loop_info.innermost_loop_of(block)
        if innermost is None:
            continue
        for store in block.instructions:
            if not isinstance(store, StoreInst):
                continue
            pointer = store.pointer
            if not isinstance(pointer, GEPInst):
                continue
            for load_use in pointer.uses:
                load = load_use.user
                if not isinstance(load, LoadInst) or load.parent is not block:
                    continue
                op = classify_update(load, store.value)
                if op not in (ReductionOp.ADD, ReductionOp.MUL):
                    continue
                affine = scev.affine_at(pointer.index, innermost)
                if affine is None or not affine.iv_coefficients_constant():
                    continue
                address_ivs = affine.induction_variables()
                # Carried by an enclosing loop whose IV the address
                # does not use.
                carrier = None
                node: Loop | None = innermost
                while node is not None:
                    iv = scev.induction_variable(node)
                    if iv is not None and iv.phi not in address_ivs:
                        carrier = node
                    if node is root:
                        break
                    node = node.parent
                if carrier is not None:
                    found.append(
                        f"array:{root_base(pointer).short_name()}"
                        f"@{carrier.header.name}"
                    )
    return found


__all__ = ["SCoP", "PollyReport", "analyze_module", "find_scops"]
