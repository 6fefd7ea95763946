"""CFG cleanup passes: unreachable block removal and block merging."""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instructions import BranchInst, PhiInst
from ..analysis.cache import function_analyses


def remove_unreachable_blocks(function: Function) -> int:
    """Delete blocks not reachable from the entry; returns removal count.

    PHIs of the remaining blocks lose their incoming pairs from the
    deleted ones.
    """
    if function.is_declaration:
        return 0
    reachable = function_analyses(function).cfg.reachable()
    dead = [b for b in function.blocks if b not in reachable]
    for block in dead:
        for instruction in block.instructions:
            instruction.drop_all_references()
        block.instructions.clear()
    phis = dict.fromkeys(
        use.user for block in dead for use in block.uses
        if isinstance(use.user, PhiInst)
    )
    if phis:
        dead_set = set(dead)
        for phi in phis:
            phi.set_incoming(
                [(value, pred) for value, pred in phi.incoming
                 if pred not in dead_set]
            )
    for block in dead:
        function.blocks.remove(block)
        block.parent = None
    if dead:
        function.epoch += 1
    return len(dead)


def merge_straightline_blocks(function: Function) -> int:
    """Merge ``A -> B`` pairs where A branches unconditionally to its
    only successor B and B has no other predecessors.

    Keeps the canonical loop shape intact (headers and latches always
    have other predecessors) while removing lowering scaffolding such
    as the dedicated alloca entry block.

    One forward sweep: each surviving block absorbs its whole
    straight-line chain.  Chain merging is confluent, so the result is
    the same as merging one pair at a time to a fixpoint.
    """
    merged = 0
    for block in list(function.blocks):
        if block.parent is not function:
            continue  # already absorbed into an earlier chain head
        while True:
            terminator = block.terminator
            if not isinstance(terminator, BranchInst) or terminator.is_conditional:
                break
            successor = terminator.targets()[0]
            if successor is block:
                break
            preds = successor.predecessors()
            if len(preds) != 1 or preds[0] is not block:
                break
            # Single predecessor: any phi is trivially replaceable.
            for phi in successor.phis():
                value = phi.incoming_for_block(block)
                phi.replace_all_uses_with(value)
                phi.drop_all_references()
                successor.remove(phi)
            block.remove(terminator)
            terminator.drop_all_references()
            moved = successor.instructions
            successor.instructions = []
            for instruction in moved:
                instruction.parent = block
            block.instructions.extend(moved)
            successor.replace_all_uses_with(block)
            function.blocks.remove(successor)
            successor.parent = None
            function.epoch += 1
            merged += 1
    return merged


def remove_trivial_phis(function: Function) -> int:
    """Remove dead PHIs and PHIs whose incoming values are all identical."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for phi in list(block.phis()):
                users = [u for u in phi.users() if u is not phi]
                if not users:
                    phi.drop_all_references()
                    block.remove(phi)
                    removed += 1
                    changed = True
                    continue
                distinct = {
                    id(v) for v in phi.incoming_values() if v is not phi
                }
                if len(distinct) == 1:
                    replacement = next(
                        v for v in phi.incoming_values() if v is not phi
                    )
                    phi.replace_all_uses_with(replacement)
                    phi.drop_all_references()
                    block.remove(phi)
                    removed += 1
                    changed = True
    return removed


def dead_code_elimination(function: Function) -> int:
    """Remove instructions whose results are never observably used.

    Roots are side-effecting instructions: stores, terminators and calls
    to impure functions.  Everything else (including PHI cycles that
    only feed each other, a common artefact of scoped locals after
    SSA construction) is deleted when not transitively reachable from a root.
    """
    from ..ir.instructions import CallInst, Instruction, ReturnInst, StoreInst

    live: set[int] = set()
    work: list = []
    for block in function.blocks:
        for instruction in block.instructions:
            is_root = False
            if isinstance(instruction, (StoreInst, ReturnInst, BranchInst)):
                is_root = True
            elif isinstance(instruction, CallInst):
                is_root = not instruction.callee.pure
            if is_root:
                live.add(id(instruction))
                work.append(instruction)
    while work:
        instruction = work.pop()
        for operand in instruction.operands:
            if isinstance(operand, Instruction) and id(operand) not in live:
                live.add(id(operand))
                work.append(operand)
    removed = 0
    for block in function.blocks:
        for instruction in list(block.instructions):
            if id(instruction) not in live:
                instruction.drop_all_references()
                block.remove(instruction)
                removed += 1
    return removed


def simplify_function(function: Function) -> None:
    """Run the full cleanup pipeline on one function."""
    remove_unreachable_blocks(function)
    dead_code_elimination(function)
    remove_trivial_phis(function)
    merge_straightline_blocks(function)
