"""Instruction set of the SSA IR.

The instruction set is the subset of LLVM needed to express lowered
mini-C programs and, importantly, everything the paper's constraint
language talks about: PHI nodes, additions, integer comparisons,
conditional/unconditional branches, loads, stores and single-index
address computations (``gep``).

Every instruction is itself a :class:`~repro.ir.values.Value` (its
result), carries a string :attr:`Instruction.opcode`, and maintains the
def-use graph through :meth:`Instruction.set_operand`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .types import INT1, VOID, PointerType, Type
from .values import Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .block import BasicBlock
    from .function import Function

#: Integer binary opcodes (two's complement, signed division semantics).
INT_BINARY_OPCODES = (
    "add",
    "sub",
    "mul",
    "sdiv",
    "srem",
    "and",
    "or",
    "xor",
    "shl",
    "ashr",
)

#: Floating point binary opcodes.
FLOAT_BINARY_OPCODES = ("fadd", "fsub", "fmul", "fdiv")

#: Predicates understood by ``icmp``.
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")

#: Predicates understood by ``fcmp`` (ordered comparisons only).
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")

#: Value-cast opcodes.
CAST_OPCODES = ("sitofp", "fptosi", "zext", "sext", "trunc", "fpext", "fptrunc")

#: Commutative opcodes, used by the associativity post-check (§3.1.2).
COMMUTATIVE_OPCODES = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})


class Instruction(Value):
    """Base class of all instructions.

    Subclasses pass their operands to ``__init__``; the base class wires
    up use-lists.  ``parent`` is set when the instruction is inserted
    into a basic block.
    """

    __slots__ = ("parent", "_operands")

    opcode: str = "<abstract>"

    def __init__(self, type: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(type, name)
        self.parent: "BasicBlock | None" = None
        self._operands: list[Value] = []
        for operand in operands:
            self._append_operand(operand)

    # -- operand management ----------------------------------------------

    @property
    def operands(self) -> tuple[Value, ...]:
        """The operand tuple (read-only view; use :meth:`set_operand`)."""
        return tuple(self._operands)

    def operand(self, index: int) -> Value:
        """Return operand ``index``."""
        return self._operands[index]

    def set_operand(self, index: int, value: Value) -> None:
        """Replace operand ``index``, keeping use-lists consistent."""
        old = self._operands[index]
        if old is value:
            return
        old.remove_use(self, index)
        self._operands[index] = value
        value.add_use(self, index)
        self._bump_epoch()

    def _append_operand(self, value: Value) -> None:
        index = len(self._operands)
        self._operands.append(value)
        value.add_use(self, index)
        if self.parent is not None:
            self._bump_epoch()

    def _pop_operands(self, count: int) -> None:
        for _ in range(count):
            index = len(self._operands) - 1
            self._operands[index].remove_use(self, index)
            self._operands.pop()
        if count:
            self._bump_epoch()

    def _bump_epoch(self) -> None:
        """Count an operand change against the containing function."""
        block = self.parent
        if block is not None and block.parent is not None:
            block.parent.epoch += 1

    def drop_all_references(self) -> None:
        """Detach this instruction from its operands (before deletion)."""
        self._pop_operands(len(self._operands))

    # -- classification ----------------------------------------------------

    def is_terminator(self) -> bool:
        """Return True for branch/return instructions."""
        return isinstance(self, (BranchInst, ReturnInst))

    @property
    def function(self) -> "Function | None":
        """The function containing this instruction, if inserted."""
        return self.parent.parent if self.parent is not None else None

    def short_name(self) -> str:
        return self.name or self.opcode

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short_name()}>"


class BinaryInst(Instruction):
    """An arithmetic/bitwise binary operation (``add``, ``fmul``, ...)."""

    __slots__ = ("opcode",)

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in INT_BINARY_OPCODES and opcode not in FLOAT_BINARY_OPCODES:
            raise ValueError(f"unknown binary opcode {opcode!r}")
        if lhs.type != rhs.type:
            raise TypeError(f"operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = opcode

    @property
    def lhs(self) -> Value:
        """Left operand."""
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        """Right operand."""
        return self.operand(1)

    def is_commutative(self) -> bool:
        """True for operators where operand order does not matter."""
        return self.opcode in COMMUTATIVE_OPCODES


class ICmpInst(Instruction):
    """Signed integer comparison producing an i1."""

    __slots__ = ("predicate",)

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise TypeError(f"operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(INT1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        """Left operand."""
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        """Right operand."""
        return self.operand(1)


class FCmpInst(Instruction):
    """Ordered floating point comparison producing an i1."""

    __slots__ = ("predicate",)

    opcode = "fcmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise TypeError(f"operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(INT1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        """Left operand."""
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        """Right operand."""
        return self.operand(1)


class AllocaInst(Instruction):
    """Stack allocation of ``count`` elements of ``allocated_type``.

    The mini-C frontend allocates local arrays with an alloca; scalar
    locals never touch memory, since lowering builds their SSA values
    and PHI nodes directly.
    """

    __slots__ = ("allocated_type", "count")

    opcode = "alloca"

    def __init__(self, allocated_type: Type, count: int = 1, name: str = ""):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type
        self.count = count


class LoadInst(Instruction):
    """Load a value through a pointer."""

    __slots__ = ()

    opcode = "load"

    def __init__(self, pointer: Value, name: str = ""):
        if not pointer.type.is_pointer():
            raise TypeError(f"load requires a pointer, got {pointer.type}")
        super().__init__(pointer.type.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        """The address operand."""
        return self.operand(0)


class StoreInst(Instruction):
    """Store a value through a pointer (produces no result)."""

    __slots__ = ()

    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        if not pointer.type.is_pointer():
            raise TypeError(f"store requires a pointer, got {pointer.type}")
        if pointer.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: {value.type} into {pointer.type}"
            )
        super().__init__(VOID, [value, pointer])

    @property
    def value(self) -> Value:
        """The stored value."""
        return self.operand(0)

    @property
    def pointer(self) -> Value:
        """The address operand."""
        return self.operand(1)


class GEPInst(Instruction):
    """Single-index pointer arithmetic: ``result = base + index``.

    Multi-dimensional C arrays are lowered to explicit flattened index
    arithmetic feeding one ``gep``, matching the flat-array representation
    whose affine analysis the paper discusses (§6.1, Polly and flat
    arrays).
    """

    __slots__ = ()

    opcode = "gep"

    def __init__(self, base: Value, index: Value, name: str = ""):
        if not base.type.is_pointer():
            raise TypeError(f"gep requires a pointer base, got {base.type}")
        if not index.type.is_integer():
            raise TypeError(f"gep index must be integer, got {index.type}")
        super().__init__(base.type, [base, index], name)

    @property
    def base(self) -> Value:
        """The base pointer."""
        return self.operand(0)

    @property
    def index(self) -> Value:
        """The element offset."""
        return self.operand(1)


class PhiInst(Instruction):
    """SSA PHI node; operands are interleaved ``value, block`` pairs."""

    __slots__ = ()

    opcode = "phi"

    def __init__(self, type: Type, name: str = ""):
        super().__init__(type, [], name)

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        """Append an incoming (value, predecessor block) pair."""
        if value.type != self.type:
            raise TypeError(
                f"phi incoming type mismatch: {value.type} vs {self.type}"
            )
        self._append_operand(value)
        self._append_operand(block)

    def set_incoming(self, pairs: Sequence[tuple[Value, "BasicBlock"]]) -> None:
        """Replace the incoming pairs with ``pairs``, in their order."""
        self._pop_operands(len(self._operands))
        for value, block in pairs:
            self.add_incoming(value, block)

    @property
    def incoming(self) -> list[tuple[Value, "BasicBlock"]]:
        """The list of (value, predecessor) pairs."""
        ops = self._operands
        return list(zip(ops[::2], ops[1::2]))

    @property
    def incoming_count(self) -> int:
        """``len(self.incoming)`` without building the pair list."""
        return len(self._operands) // 2

    def incoming_for_block(self, block: "BasicBlock") -> Value:
        """Return the value flowing in from predecessor ``block``."""
        for value, pred in self.incoming:
            if pred is block:
                return value
        raise KeyError(f"{block} is not an incoming block of {self}")

    def incoming_values(self) -> list[Value]:
        """The incoming values only (no blocks)."""
        return self._operands[::2]


class BranchInst(Instruction):
    """Unconditional (1 operand) or conditional (3 operands) branch.

    The constraint atoms ``x = branch(y)`` and ``x = branch(y, z, w)``
    from Fig. 5 of the paper inspect these instructions.
    """

    __slots__ = ()

    opcode = "br"

    def __init__(
        self,
        target_or_cond: Value,
        if_true: "BasicBlock | None" = None,
        if_false: "BasicBlock | None" = None,
    ):
        if if_true is None:
            super().__init__(VOID, [target_or_cond])
        else:
            if target_or_cond.type != INT1:
                raise TypeError("branch condition must be i1")
            if if_false is None:
                raise ValueError("conditional branch needs two targets")
            super().__init__(VOID, [target_or_cond, if_true, if_false])

    @property
    def is_conditional(self) -> bool:
        """True if this branch has a condition and two targets."""
        return len(self._operands) == 3

    @property
    def condition(self) -> Value:
        """The i1 condition (conditional branches only)."""
        if not self.is_conditional:
            raise ValueError("unconditional branch has no condition")
        return self.operand(0)

    def targets(self) -> list["BasicBlock"]:
        """Successor blocks in operand order."""
        if self.is_conditional:
            return [self.operand(1), self.operand(2)]
        return [self.operand(0)]


class ReturnInst(Instruction):
    """Function return, with or without a value."""

    __slots__ = ()

    opcode = "ret"

    def __init__(self, value: Value | None = None):
        super().__init__(VOID, [] if value is None else [value])

    @property
    def return_value(self) -> Value | None:
        """The returned value, or None for ``ret void``."""
        return self.operand(0) if self._operands else None


class CallInst(Instruction):
    """Direct call; operand 0 is the callee, the rest are arguments.

    Purity of the callee matters to the reduction specifications: pure
    calls (``sqrt``, ``log``, ``fabs``, ``fmin``...) are legal inside a
    reduction's computation, impure calls are not (§2, §3.1.1).
    """

    __slots__ = ()

    opcode = "call"

    def __init__(self, callee: "Function", args: Sequence[Value], name: str = ""):
        expected = callee.type.param_types
        if len(args) != len(expected):
            raise TypeError(
                f"call to {callee.name}: expected {len(expected)} args, "
                f"got {len(args)}"
            )
        for arg, param_type in zip(args, expected):
            if arg.type != param_type:
                raise TypeError(
                    f"call to {callee.name}: argument type {arg.type} does "
                    f"not match parameter type {param_type}"
                )
        super().__init__(callee.type.return_type, [callee, *args], name)

    @property
    def callee(self) -> "Function":
        """The called function."""
        return self.operand(0)

    @property
    def args(self) -> tuple[Value, ...]:
        """The actual arguments."""
        return self.operands[1:]


class SelectInst(Instruction):
    """Ternary select: ``cond ? if_true : if_false``."""

    __slots__ = ()

    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = ""):
        if cond.type != INT1:
            raise TypeError("select condition must be i1")
        if if_true.type != if_false.type:
            raise TypeError("select arm types differ")
        super().__init__(if_true.type, [cond, if_true, if_false], name)

    @property
    def condition(self) -> Value:
        """The i1 selector."""
        return self.operand(0)

    @property
    def if_true(self) -> Value:
        """Value when the condition is true."""
        return self.operand(1)

    @property
    def if_false(self) -> Value:
        """Value when the condition is false."""
        return self.operand(2)


class CastInst(Instruction):
    """Value conversion (``sitofp``, ``zext``, ...)."""

    __slots__ = ("opcode",)

    def __init__(self, opcode: str, value: Value, to_type: Type, name: str = ""):
        if opcode not in CAST_OPCODES:
            raise ValueError(f"unknown cast opcode {opcode!r}")
        super().__init__(to_type, [value], name)
        self.opcode = opcode

    @property
    def value(self) -> Value:
        """The converted operand."""
        return self.operand(0)
