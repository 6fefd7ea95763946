"""Structural IR verifier.

Checks the invariants the rest of the system relies on:

* every block ends in exactly one terminator, which is the last instruction;
* PHI nodes sit at the top of their block and have one incoming value per
  predecessor;
* instruction operands that are themselves instructions belong to the same
  function;
* (optionally, with dominance checking) every use is dominated by its
  definition — the SSA property that lowering must establish.
"""

from __future__ import annotations

from .block import BasicBlock
from .function import Function
from .instructions import Instruction, PhiInst
from .module import Module
from .values import Argument, Constant, GlobalVariable, Value


class VerificationError(Exception):
    """Raised when the IR violates a structural invariant."""


def verify_function(function: Function, check_dominance: bool = True) -> None:
    """Verify one function; raises :class:`VerificationError` on problems."""
    if function.is_declaration:
        return
    _check_terminators(function)
    _check_phis(function)
    _check_operand_scope(function)
    if check_dominance:
        _check_ssa_dominance(function)


def verify_module(module: Module, check_dominance: bool = True) -> None:
    """Verify every defined function in ``module``."""
    for function in module.defined_functions():
        verify_function(function, check_dominance=check_dominance)


def _check_terminators(function: Function) -> None:
    for block in function.blocks:
        terminator = block.terminator
        if terminator is None:
            raise VerificationError(
                f"{function.name}: block {block.name} has no terminator"
            )
        for instruction in block.instructions[:-1]:
            if instruction.is_terminator():
                raise VerificationError(
                    f"{function.name}: terminator in the middle of "
                    f"block {block.name}"
                )


def _check_phis(function: Function) -> None:
    for block in function.blocks:
        preds = block.predecessors()
        seen_non_phi = False
        for instruction in block.instructions:
            if isinstance(instruction, PhiInst):
                if seen_non_phi:
                    raise VerificationError(
                        f"{function.name}: phi after non-phi in {block.name}"
                    )
                incoming_blocks = [b for _, b in instruction.incoming]
                if sorted(id(b) for b in incoming_blocks) != sorted(
                    id(b) for b in preds
                ):
                    raise VerificationError(
                        f"{function.name}: phi {instruction.short_name()} in "
                        f"{block.name} incoming blocks do not match "
                        f"predecessors"
                    )
            else:
                seen_non_phi = True


def _check_operand_scope(function: Function) -> None:
    local = set()
    for block in function.blocks:
        local.add(id(block))
        for instruction in block.instructions:
            local.add(id(instruction))
    for argument in function.args:
        local.add(id(argument))
    for block in function.blocks:
        for instruction in block.instructions:
            for operand in instruction.operands:
                if _is_scoped_value(operand) and id(operand) not in local:
                    raise VerificationError(
                        f"{function.name}: operand {operand!r} of "
                        f"{instruction!r} is foreign to the function"
                    )


def _is_scoped_value(value: Value) -> bool:
    if isinstance(value, (Constant, GlobalVariable, Function)):
        return False
    return isinstance(value, (Instruction, BasicBlock, Argument))


def _check_ssa_dominance(function: Function) -> None:
    from ..analysis.cache import function_analyses

    analyses = function_analyses(function)
    tree = analyses.dom
    position = analyses.value_index.position
    for block in function.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, PhiInst):
                for value, pred in instruction.incoming:
                    if isinstance(value, Instruction):
                        def_block = value.parent
                        if def_block is None or not tree.dominates(
                            def_block, pred
                        ):
                            raise VerificationError(
                                f"{function.name}: phi incoming "
                                f"{value.short_name()} does not dominate "
                                f"edge from {pred.name}"
                            )
                continue
            for operand in instruction.operands:
                if not isinstance(operand, Instruction):
                    continue
                if operand not in position:
                    raise VerificationError(
                        f"{function.name}: use of uninserted instruction "
                        f"{operand!r}"
                    )
                def_block = operand.parent
                if def_block is block:
                    if position[operand] >= position[instruction]:
                        raise VerificationError(
                            f"{function.name}: {operand.short_name()} used "
                            f"before definition in {block.name}"
                        )
                elif not tree.dominates(def_block, block):
                    raise VerificationError(
                        f"{function.name}: definition of "
                        f"{operand.short_name()} does not dominate its use "
                        f"in {block.name}"
                    )
