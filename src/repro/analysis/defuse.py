"""Def-use helpers built on the value use-lists."""

from __future__ import annotations

from ..ir.block import BasicBlock
from ..ir.instructions import Instruction
from ..ir.values import Value
from .loops import Loop


def defining_block(value: Value) -> BasicBlock | None:
    """The block defining ``value`` (None for non-instructions)."""
    if isinstance(value, Instruction):
        return value.parent
    return None


def defined_in_loop(value: Value, loop: Loop) -> bool:
    """True if ``value`` is an instruction inside ``loop``."""
    block = defining_block(value)
    return block is not None and block in loop.blocks


def users_in_loop(value: Value, loop: Loop) -> list[Instruction]:
    """Users of ``value`` located inside ``loop``."""
    return [
        user
        for user in value.users()
        if user.parent is not None and user.parent in loop.blocks
    ]


def users_outside_loop(value: Value, loop: Loop) -> list[Instruction]:
    """Users of ``value`` located outside ``loop``."""
    return [
        user
        for user in value.users()
        if user.parent is not None and user.parent not in loop.blocks
    ]


def live_out_values(loop: Loop) -> list[Value]:
    """Values defined in ``loop`` that are used after it.

    A reduction accumulator is typically the only live-out of a
    reduction loop; additional live-outs indicate computation that would
    break privatization.
    """
    result: list[Value] = []
    for block in loop.blocks:
        for instruction in block.instructions:
            if users_outside_loop(instruction, loop):
                result.append(instruction)
    return result


def transitive_operands(value: Value, limit: int = 100000) -> set[Value]:
    """All values reachable through operand edges from ``value``."""
    seen: set[int] = set()
    result: set[Value] = set()
    work: list[Value] = [value]
    while work and len(seen) < limit:
        current = work.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        result.add(current)
        if isinstance(current, Instruction):
            work.extend(current.operands)
    return result
