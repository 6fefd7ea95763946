"""Loop outlining: extract a reduction loop into a task function.

This is the code-generation step of §4: the loop body is cloned into a
standalone function

    void task(i64 begin, i64 end, <hist bases...>, <acc outs...>,
              <closure values...>)

where each privatized histogram base becomes a pointer parameter (the
driver passes a thread-private copy), each scalar accumulator's partial
result is written through an out-pointer, and every other value the
body reads from the enclosing function is passed in the closure — the
paper packs them into a struct; we pass them as parameters, which is
equivalent.

Accumulators start at their operator's identity inside the task; the
driver merges partials into the incoming values, so the result is
independent of the partition (up to floating point reassociation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import (
    INT64,
    BasicBlock,
    BranchInst,
    Function,
    FunctionType,
    GlobalVariable,
    IRBuilder,
    Instruction,
    Module,
    PhiInst,
    PointerType,
    StoreInst,
    VOID,
    const_float,
    const_int,
)
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    LoadInst,
    ReturnInst,
    SelectInst,
)
from ..ir.types import FloatType
from ..ir.values import Argument, Constant, Value
from .plan import ParallelPlan, identity_value


class OutlineError(Exception):
    """Raised when a plan cannot be outlined (should not happen for
    plans produced by :func:`~repro.transform.plan.plan_loop`)."""


@dataclass
class OutlinedTask:
    """The extracted task function plus its calling convention."""

    plan: ParallelPlan
    task: Function
    #: Values of the original function to evaluate and pass after
    #: (begin, end, hist pointers, acc out-pointers), in order.
    closure: list[Value] = field(default_factory=list)
    #: Histogram bases, in parameter order.
    hist_bases: list[Value] = field(default_factory=list)


def outline_loop(module: Module, plan: ParallelPlan,
                 name: str | None = None) -> OutlinedTask:
    """Clone ``plan``'s loop into a new task function in ``module``."""
    function = plan.function
    loop = plan.loop
    header = loop.header
    iterator = plan.bounds.iterator

    hist_bases: list[Value] = []
    for histogram in plan.histograms:
        if histogram.base not in hist_bases:
            hist_bases.append(histogram.base)

    # ---- discover closure values -------------------------------------------
    loop_values: set[int] = set()
    for block in loop.blocks:
        loop_values.add(id(block))
        for instruction in block.instructions:
            loop_values.add(id(instruction))
    hist_base_ids = {id(b) for b in hist_bases}

    closure: list[Value] = []

    def needs_closure(value: Value) -> bool:
        if id(value) in loop_values or id(value) in hist_base_ids:
            return False
        if isinstance(value, (Constant, GlobalVariable, Function)):
            return False
        if isinstance(value, BasicBlock):
            return False
        return isinstance(value, (Instruction, Argument))

    for block in loop.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, PhiInst) and block is header:
                continue  # header phi externals handled via begin/identity
            for operand in instruction.operands:
                if needs_closure(operand) and operand not in closure:
                    closure.append(operand)

    # ---- build the signature ---------------------------------------------------
    param_types: list = [INT64, INT64]
    param_names = ["begin", "end"]
    for base in hist_bases:
        param_types.append(base.type)
        param_names.append(f"priv_{base.short_name().lstrip('@')}")
    for index, scalar in enumerate(plan.scalars):
        param_types.append(PointerType(scalar.acc.type))
        param_names.append(f"out_{index}")
    for index, value in enumerate(closure):
        param_types.append(value.type)
        param_names.append(f"cl_{index}")

    task_name = name or f"{function.name}.{header.name}.task"
    suffix = 0
    while task_name in module.functions:
        suffix += 1
        task_name = f"{function.name}.{header.name}.task{suffix}"
    task = module.add_function(
        task_name, FunctionType(VOID, tuple(param_types)), param_names
    )

    begin_arg, end_arg = task.args[0], task.args[1]
    hist_args = {
        id(base): task.args[2 + i] for i, base in enumerate(hist_bases)
    }
    out_args = {
        id(scalar.acc): task.args[2 + len(hist_bases) + i]
        for i, scalar in enumerate(plan.scalars)
    }
    closure_args = {
        id(value): task.args[2 + len(hist_bases) + len(plan.scalars) + i]
        for i, value in enumerate(closure)
    }

    # ---- clone blocks -----------------------------------------------------------
    entry = task.add_block("entry")
    block_map: dict[int, BasicBlock] = {}
    ordered_blocks = [b for b in function.blocks if b in loop.blocks]
    for block in ordered_blocks:
        block_map[id(block)] = task.add_block(f"{block.name}")
    exit_block = task.add_block("task.exit")

    IRBuilder(entry).br(block_map[id(header)])

    acc_identity: dict[int, Value] = {}
    for scalar in plan.scalars:
        is_float = isinstance(scalar.acc.type, FloatType)
        identity = identity_value(scalar.op, is_float)
        acc_identity[id(scalar.acc)] = (
            const_float(identity) if is_float else const_int(identity)
        )

    value_map: dict[int, Value] = {}

    def mapped(value: Value) -> Value:
        if id(value) in value_map:
            return value_map[id(value)]
        if id(value) in hist_args:
            return hist_args[id(value)]
        if id(value) in closure_args:
            return closure_args[id(value)]
        if isinstance(value, BasicBlock):
            if id(value) in block_map:
                return block_map[id(value)]
            return exit_block  # edges leaving the loop
        if value is plan.bounds.end:
            # handled only via the test rewrite below
            return end_arg
        return value  # constants, globals, declared functions

    # First pass: create clones so forward references resolve.
    clones: list[tuple[Instruction, Instruction]] = []
    for block in ordered_blocks:
        new_block = block_map[id(block)]
        for instruction in block.instructions:
            clone = _shallow_clone(instruction)
            value_map[id(instruction)] = clone
            clones.append((instruction, clone))
            new_block.append(clone)

    # Second pass: remap operands.
    for original, clone in clones:
        for index, operand in enumerate(original.operands):
            clone.set_operand(index, mapped(operand))

    # Rewrite the header PHIs: iterator starts at begin, accumulators at
    # their identity; the test compares against the end parameter.
    new_header = block_map[id(header)]
    new_entry_pred = entry
    for phi in header.phis():
        clone = value_map[id(phi)]
        assert isinstance(clone, PhiInst)
        # Incoming from outside the loop becomes the entry edge.
        for index in range(0, len(clone.operands), 2):
            pred = clone.operands[index + 1]
            if pred not in task.blocks or pred is exit_block:
                clone.set_operand(index + 1, new_entry_pred)
                if phi is iterator:
                    clone.set_operand(index, begin_arg)
                elif id(phi) in acc_identity:
                    clone.set_operand(index, acc_identity[id(phi)])

    # The exit test: replace the end bound with the parameter.  The
    # driver always passes a half-open [begin, end) range, so the
    # predicate becomes slt.
    test_clone = value_map[id(header.terminator.condition)]
    new_test = ICmpInst("slt", value_map[id(iterator)], end_arg, "task.cmp")
    new_header.insert(len(new_header.instructions) - 1, new_test)
    test_clone.replace_all_uses_with(new_test)

    # Exit block: write back partial accumulator values, return.
    exit_builder = IRBuilder(exit_block)
    for scalar in plan.scalars:
        exit_builder.store(value_map[id(scalar.acc)], out_args[id(scalar.acc)])
    exit_builder.ret()

    # Clean up the now-unused original test clone if it became dead.
    if not test_clone.uses:
        test_clone.drop_all_references()
        test_clone.parent.remove(test_clone)

    from ..passes.simplify import remove_trivial_phis

    remove_trivial_phis(task)
    from ..ir.verifier import verify_function

    verify_function(task)
    return OutlinedTask(
        plan=plan, task=task, closure=closure, hist_bases=hist_bases
    )


def _shallow_clone(instruction: Instruction) -> Instruction:
    """Clone one instruction with its original operands (remapped later)."""
    if isinstance(instruction, BinaryInst):
        return BinaryInst(instruction.opcode, instruction.lhs,
                          instruction.rhs, instruction.name)
    if isinstance(instruction, ICmpInst):
        return ICmpInst(instruction.predicate, instruction.lhs,
                        instruction.rhs, instruction.name)
    if isinstance(instruction, FCmpInst):
        return FCmpInst(instruction.predicate, instruction.lhs,
                        instruction.rhs, instruction.name)
    if isinstance(instruction, LoadInst):
        return LoadInst(instruction.pointer, instruction.name)
    if isinstance(instruction, StoreInst):
        return StoreInst(instruction.value, instruction.pointer)
    if isinstance(instruction, GEPInst):
        return GEPInst(instruction.base, instruction.index, instruction.name)
    if isinstance(instruction, PhiInst):
        clone = PhiInst(instruction.type, instruction.name)
        for value, block in instruction.incoming:
            clone._append_operand(value)
            clone._append_operand(block)
        return clone
    if isinstance(instruction, BranchInst):
        if instruction.is_conditional:
            then_block, else_block = instruction.targets()
            return BranchInst(instruction.condition, then_block, else_block)
        return BranchInst(instruction.targets()[0])
    if isinstance(instruction, CallInst):
        return CallInst(instruction.callee, list(instruction.args),
                        instruction.name)
    if isinstance(instruction, SelectInst):
        return SelectInst(instruction.condition, instruction.if_true,
                          instruction.if_false, instruction.name)
    if isinstance(instruction, CastInst):
        return CastInst(instruction.opcode, instruction.value,
                        instruction.type, instruction.name)
    if isinstance(instruction, AllocaInst):
        return AllocaInst(instruction.allocated_type, instruction.count,
                          instruction.name)
    if isinstance(instruction, ReturnInst):
        raise OutlineError("return inside a reduction loop")
    raise OutlineError(f"cannot clone {instruction!r}")
