"""SSA IR interpreter with dynamic instruction accounting.

Executes modules produced by the frontend.  Besides producing results
(used to validate transformations: privatized parallel execution must
match sequential execution bit-for-bit for integer data), it counts
dynamically executed instructions per basic block — the measure behind
the runtime-coverage experiment (Figures 12–14) and the simulated
machine times of Figure 15.
"""

from __future__ import annotations

import math

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
)
from ..ir.module import Module
from ..ir.types import FloatType, IntType
from ..ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    UndefValue,
    Value,
)
from .memory import Buffer, Memory, Pointer


class InterpreterError(Exception):
    """Raised on runtime errors (OOB, budget exhausted, missing main)."""


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("integer division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _c_rem(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


_INT_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "sdiv": _c_div,
    "srem": _c_rem,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "ashr": lambda a, b: a >> b,
}

#: Integer opcodes whose result can leave the operand range; it wraps
#: to the instruction type's width in two's complement, as the folder
#: (``ConstantInt``) computes it.
_WRAPPING = frozenset({"add", "sub", "mul", "shl", "sdiv"})

#: Shifts, whose count must lie in ``0 .. width - 1``: C leaves any
#: other count undefined, and checking first keeps a huge count from
#: building a huge int before the wrap.
_SHIFTS = frozenset({"shl", "ashr"})

_FLOAT_BINOPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b,
}

_ICMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
}

_FCMP = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}


class Interpreter:
    """Executes IR functions against a :class:`Memory` instance.

    Parameters
    ----------
    module:
        The module to execute.
    memory:
        Optional pre-built memory (lets callers share or snapshot state).
    seed:
        Seed of the deterministic ``rand()`` intrinsic.
    max_instructions:
        Execution budget; exceeded budgets raise :class:`InterpreterError`.
    """

    def __init__(
        self,
        module: Module,
        memory: Memory | None = None,
        seed: int = 12345,
        max_instructions: int = 200_000_000,
    ):
        self.module = module
        self.memory = memory or Memory(module)
        self.seed = seed & 0x7FFFFFFF
        self.max_instructions = max_instructions
        self.instructions_executed = 0
        #: Dynamic instruction count per basic block (by id).
        self.block_counts: dict[int, int] = {}
        #: Lines printed through the print intrinsics.
        self.output: list[str] = []
        self._clock = 0
        #: id(header block) -> handler; lets the parallel executor
        #: intercept a loop and run it as privatized shards.  The
        #: handler receives (interpreter, frame, header) and returns the
        #: block execution continues from.
        self.loop_overrides: dict[int, object] = {}

    # -- public API --------------------------------------------------------

    def run_main(self):
        """Execute ``main()`` and return its value."""
        if "main" not in self.module.functions:
            raise InterpreterError("module has no main function")
        return self.call(self.module.get_function("main"), [])

    def call(self, function: Function | str, args: list):
        """Call a function (by object or name) with Python-level args."""
        if isinstance(function, str):
            function = self.module.get_function(function)
        if function.is_declaration:
            return self._intrinsic(function, args)
        return self._run(function, args)

    def instructions_in_blocks(self, blocks) -> int:
        """Dynamic instructions attributed to the given blocks."""
        return sum(self.block_counts.get(id(b), 0) for b in blocks)

    # -- execution ----------------------------------------------------------

    def _run(self, function: Function, args: list):
        frame: dict[int, object] = {}
        for argument, value in zip(function.args, args):
            frame[id(argument)] = value
        block = function.entry
        previous: BasicBlock | None = None
        while True:
            handler = self.loop_overrides.get(id(block))
            if handler is not None:
                previous, block = block, handler(self, frame, block)
                continue
            count = len(block.instructions)
            self.instructions_executed += count
            self.block_counts[id(block)] = (
                self.block_counts.get(id(block), 0) + count
            )
            if self.instructions_executed > self.max_instructions:
                raise InterpreterError("instruction budget exhausted")

            # PHIs evaluate simultaneously from the incoming edge.
            phis = block.phis()
            if phis:
                incoming = [
                    self._value(phi.incoming_for_block(previous), frame)
                    for phi in phis
                ]
                for phi, value in zip(phis, incoming):
                    frame[id(phi)] = value

            for instruction in block.instructions[len(phis):]:
                if isinstance(instruction, BranchInst):
                    if instruction.is_conditional:
                        taken = self._value(instruction.condition, frame)
                        target = instruction.targets()[0 if taken else 1]
                    else:
                        target = instruction.targets()[0]
                    previous, block = block, target
                    break
                if isinstance(instruction, ReturnInst):
                    if instruction.return_value is None:
                        return None
                    return self._value(instruction.return_value, frame)
                self._execute(instruction, frame)
            else:
                raise InterpreterError(
                    f"block {block.name} fell through without terminator"
                )

    def _execute(self, instruction, frame) -> None:
        if isinstance(instruction, BinaryInst):
            lhs = self._value(instruction.lhs, frame)
            rhs = self._value(instruction.rhs, frame)
            opcode = instruction.opcode
            if opcode in _FLOAT_BINOPS:
                result = _FLOAT_BINOPS[opcode](lhs, rhs)
            else:
                if opcode in _SHIFTS and not \
                        0 <= rhs < instruction.type.width:
                    raise InterpreterError(
                        f"{opcode} by {rhs}: shift count outside "
                        f"0..{instruction.type.width - 1}"
                    )
                result = _INT_BINOPS[opcode](lhs, rhs)
                if opcode in _WRAPPING:
                    width = instruction.type.width
                    if width > 1:
                        half = 1 << (width - 1)
                        result = ((result + half) & (2 * half - 1)) - half
                    else:
                        result &= 1
            frame[id(instruction)] = result
        elif isinstance(instruction, ICmpInst):
            frame[id(instruction)] = _ICMP[instruction.predicate](
                self._value(instruction.lhs, frame),
                self._value(instruction.rhs, frame),
            )
        elif isinstance(instruction, FCmpInst):
            frame[id(instruction)] = _FCMP[instruction.predicate](
                self._value(instruction.lhs, frame),
                self._value(instruction.rhs, frame),
            )
        elif isinstance(instruction, LoadInst):
            pointer = self._value(instruction.pointer, frame)
            frame[id(instruction)] = pointer.load()
        elif isinstance(instruction, StoreInst):
            pointer = self._value(instruction.pointer, frame)
            pointer.store(self._value(instruction.value, frame))
        elif isinstance(instruction, GEPInst):
            pointer = self._value(instruction.base, frame)
            delta = self._value(instruction.index, frame)
            frame[id(instruction)] = pointer.displaced(delta)
        elif isinstance(instruction, CallInst):
            args = [self._value(a, frame) for a in instruction.args]
            frame[id(instruction)] = self.call(instruction.callee, args)
        elif isinstance(instruction, SelectInst):
            taken = self._value(instruction.condition, frame)
            chosen = instruction.if_true if taken else instruction.if_false
            frame[id(instruction)] = self._value(chosen, frame)
        elif isinstance(instruction, CastInst):
            frame[id(instruction)] = self._cast(instruction, frame)
        elif isinstance(instruction, AllocaInst):
            buffer = Buffer(
                instruction.allocated_type,
                instruction.count,
                instruction.name or "alloca",
            )
            frame[id(instruction)] = Pointer(buffer, 0)
        elif isinstance(instruction, PhiInst):
            raise InterpreterError("phi outside block head")
        else:
            raise InterpreterError(f"cannot execute {instruction!r}")

    def _cast(self, instruction: CastInst, frame):
        value = self._value(instruction.value, frame)
        opcode = instruction.opcode
        if opcode == "sitofp":
            return float(value)
        if opcode == "fptosi":
            return int(value)
        if opcode in ("zext", "sext"):
            return int(value)
        if opcode == "trunc":
            return int(value)
        if opcode in ("fpext", "fptrunc"):
            return float(value)
        raise InterpreterError(f"unknown cast {opcode}")

    def _value(self, value: Value, frame):
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, ConstantFloat):
            return value.value
        if isinstance(value, GlobalVariable):
            return self.memory.pointer_to(value)
        if isinstance(value, UndefValue):
            return 0.0 if isinstance(value.type, FloatType) else 0
        key = id(value)
        if key in frame:
            return frame[key]
        raise InterpreterError(f"use of undefined value {value!r}")

    # -- intrinsics ---------------------------------------------------------

    def _intrinsic(self, function: Function, args: list):
        name = function.name
        self.instructions_executed += 1
        if name == "sqrt":
            return math.sqrt(args[0])
        if name == "log":
            return math.log(args[0])
        if name == "exp":
            return math.exp(args[0])
        if name == "fabs":
            return abs(args[0])
        if name == "sin":
            return math.sin(args[0])
        if name == "cos":
            return math.cos(args[0])
        if name == "floor":
            return math.floor(args[0])
        if name == "ceil":
            return math.ceil(args[0])
        if name == "pow":
            return math.pow(args[0], args[1])
        if name == "fmin":
            return min(args[0], args[1])
        if name == "fmax":
            return max(args[0], args[1])
        if name == "fmod":
            return math.fmod(args[0], args[1])
        if name == "abs":
            return abs(args[0])
        if name == "min":
            return min(args[0], args[1])
        if name == "max":
            return max(args[0], args[1])
        if name == "rand":
            self.seed = (self.seed * 1103515245 + 12345) & 0x7FFFFFFF
            return self.seed
        if name == "srand":
            self.seed = args[0] & 0x7FFFFFFF
            return None
        if name == "clock":
            self._clock += 1
            return self._clock
        if name == "print_int":
            self.output.append(str(args[0]))
            return None
        if name == "print_double":
            self.output.append(f"{args[0]:.6f}")
            return None
        raise InterpreterError(f"unknown intrinsic {name}")
