"""SSA construction: promote scalar allocas to registers.

This is the standard dominance-frontier algorithm (Cytron et al.) as
implemented by LLVM's mem2reg.  It is the step that turns the frontend's
load/store form into the PHI-based SSA the paper's idiom specifications
are written against (§3.1.1: the accumulator update becomes visible as
a PHI cycle only after this pass).

``compile_source`` no longer runs it: lowering builds the same SSA
form directly, so on lowered IR this pass finds nothing to promote.
It still promotes hand-built alloca IR.
"""

from __future__ import annotations

from ..analysis.cache import function_analyses
from ..analysis.dominators import dominance_frontiers
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import AllocaInst, LoadInst, PhiInst, StoreInst
from ..ir.values import UndefValue, Value


def promotable_allocas(function: Function) -> list[AllocaInst]:
    """Allocas that can be promoted: single scalar cell, only directly
    loaded from and stored to (never indexed, passed away or aliased)."""
    result = []
    for instruction in function.instructions():
        if not isinstance(instruction, AllocaInst):
            continue
        if instruction.count != 1:
            continue
        promotable = True
        for use in instruction.uses:
            user = use.user
            if isinstance(user, LoadInst):
                continue
            if isinstance(user, StoreInst) and use.index == 1:
                continue
            promotable = False
            break
        if promotable:
            result.append(instruction)
    return result


def promote_allocas(function: Function) -> int:
    """Run mem2reg on ``function``; returns the number of promotions."""
    if function.is_declaration:
        return 0
    allocas = promotable_allocas(function)
    if not allocas:
        return 0
    # One graph serves the tree, the frontiers and the renaming walk:
    # the CFG depends only on terminators, which PHI placement and
    # renaming never touch.
    analyses = function_analyses(function)
    cfg, tree = analyses.cfg, analyses.dom
    frontiers = dominance_frontiers(function, tree, cfg)
    reachable = set(tree.blocks())

    phi_owner: dict[int, AllocaInst] = {}
    for alloca in allocas:
        def_blocks = {
            use.user.parent
            for use in alloca.uses
            if isinstance(use.user, StoreInst) and use.user.parent in reachable
        }
        placed: set[BasicBlock] = set()
        work = list(def_blocks)
        while work:
            block = work.pop()
            for frontier_block in frontiers.get(block, ()):
                if frontier_block in placed:
                    continue
                placed.add(frontier_block)
                phi = PhiInst(alloca.allocated_type, alloca.name or "promoted")
                frontier_block.insert(0, phi)
                phi_owner[id(phi)] = alloca
                if frontier_block not in def_blocks:
                    work.append(frontier_block)

    undef_cache: dict[int, UndefValue] = {}

    def undef_for(alloca: AllocaInst) -> UndefValue:
        cached = undef_cache.get(id(alloca))
        if cached is None:
            cached = UndefValue(alloca.allocated_type)
            undef_cache[id(alloca)] = cached
        return cached

    def rename(block: BasicBlock, values: dict[int, Value]) -> None:
        values = dict(values)
        for instruction in list(block.instructions):
            if isinstance(instruction, PhiInst):
                owner = phi_owner.get(id(instruction))
                if owner is not None:
                    values[id(owner)] = instruction
            elif isinstance(instruction, LoadInst):
                pointer = instruction.pointer
                if isinstance(pointer, AllocaInst) and pointer in alloca_set:
                    replacement = values.get(id(pointer), undef_for(pointer))
                    instruction.replace_all_uses_with(replacement)
                    instruction.drop_all_references()
                    block.remove(instruction)
            elif isinstance(instruction, StoreInst):
                pointer = instruction.pointer
                if isinstance(pointer, AllocaInst) and pointer in alloca_set:
                    values[id(pointer)] = instruction.value
                    instruction.drop_all_references()
                    block.remove(instruction)
        for successor in cfg.successors[block]:
            for phi in successor.phis():
                owner = phi_owner.get(id(phi))
                if owner is not None:
                    phi.add_incoming(
                        values.get(id(owner), undef_for(owner)), block
                    )
        for child in tree.children(block):
            rename(child, values)

    alloca_set = set(allocas)
    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000 + 10 * len(function.blocks)))
    try:
        rename(function.entry, {})
    finally:
        sys.setrecursionlimit(old_limit)

    for alloca in allocas:
        if alloca.uses:
            raise AssertionError(
                f"promoted alloca {alloca.short_name()} still has uses"
            )
        alloca.parent.remove(alloca)
    return len(allocas)
