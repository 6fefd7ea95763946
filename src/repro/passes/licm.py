"""Loop-invariant code motion (loads of scalar globals only).

Loop bounds like ``for (i = 0; i < nvals; i++)`` with ``nvals`` a
global lower to a load inside the loop header.  Real pipelines hoist
that load; without hoisting, the bound looks loop-variant and no
analysis can treat the iteration space as fixed.  This deliberately
minimal LICM hoists direct loads of scalar globals to the preheader
when the loop neither stores to that global nor performs impure calls.
"""

from __future__ import annotations

from ..analysis.cache import function_analyses
from ..ir.function import Function
from ..ir.instructions import CallInst, LoadInst, StoreInst
from ..ir.values import GlobalVariable


def hoist_invariant_loads(function: Function) -> int:
    """Hoist loop-invariant scalar-global loads; returns hoist count."""
    if function.is_declaration:
        return 0
    # Hoisting moves loads only: no edge, loop, preheader, store or call
    # changes, so the loop structure and each loop's memory summary are
    # computed once for the whole fixpoint.  LoopInfo keeps loops and
    # their blocks in set (address) order; visit both in function block
    # order so the hoisted loads land in the same preheader order on
    # every compile.
    loop_info = function_analyses(function).loop_info
    position = {block: i for i, block in enumerate(function.blocks)}
    candidates = []
    for loop in sorted(loop_info.loops, key=lambda loop: position[loop.header]):
        preheader = _unique_preheader(loop)
        if preheader is None:
            continue
        stored_globals, has_impure_call = _loop_memory_summary(loop)
        if has_impure_call:
            continue
        blocks = sorted(loop.blocks, key=position.__getitem__)
        candidates.append((blocks, preheader, stored_globals))
    hoisted = 0
    changed = True
    while changed:
        changed = False
        for blocks, preheader, stored_globals in candidates:
            for block in blocks:
                for instruction in list(block.instructions):
                    if not isinstance(instruction, LoadInst):
                        continue
                    pointer = instruction.pointer
                    if not isinstance(pointer, GlobalVariable):
                        continue
                    if pointer.name in stored_globals:
                        continue
                    block.remove(instruction)
                    insert_at = len(preheader.instructions) - 1
                    preheader.insert(insert_at, instruction)
                    hoisted += 1
                    changed = True
            if changed:
                break  # restart in header order: outer loops go first
    return hoisted


def _unique_preheader(loop):
    outside_preds = [
        p for p in loop.header.predecessors() if p not in loop.blocks
    ]
    if len(outside_preds) != 1:
        return None
    return outside_preds[0]


def _loop_memory_summary(loop):
    stored: set[str] = set()
    impure = False
    for block in loop.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, StoreInst):
                from ..constraints.flow import root_base

                base = root_base(instruction.pointer)
                if isinstance(base, GlobalVariable):
                    stored.add(base.name)
                else:
                    # Unknown target: be conservative, hoist nothing.
                    return set("*"), True
            elif isinstance(instruction, CallInst):
                if not instruction.callee.pure:
                    impure = True
    return stored, impure
