"""Core value hierarchy of the SSA IR.

Everything that can appear as an operand is a :class:`Value`: constants,
function arguments, global variables, basic blocks (as branch targets) and
instructions themselves.  This mirrors ``LLVM::Value``, which is the
universe the paper's constraint solver enumerates (§3.2: *"the set of all
instructions, constants, function arguments, basic block labels and global
variables that are used in the function"*).

Values track their uses, so analyses can walk def-use chains in O(uses).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .types import DOUBLE, INT1, INT64, FloatType, IntType, PointerType, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instructions import Instruction


class Use:
    """A single (user, operand-index) edge in the def-use graph."""

    __slots__ = ("user", "index")

    def __init__(self, user: "Instruction", index: int):
        self.user = user
        self.index = index

    def __repr__(self) -> str:
        return f"Use({self.user!r}, {self.index})"


class Value:
    """Base class for all IR values.

    Parameters
    ----------
    type:
        The IR type of the value.
    name:
        Optional human-readable name; the printer generates ``%N`` names
        for anonymous values.
    """

    __slots__ = ("type", "name", "uses")

    def __init__(self, type: Type, name: str = ""):
        self.type = type
        self.name = name
        self.uses: list[Use] = []

    # -- def-use maintenance -------------------------------------------------

    def add_use(self, user: "Instruction", index: int) -> None:
        """Record that ``user`` reads this value as operand ``index``."""
        self.uses.append(Use(user, index))

    def remove_use(self, user: "Instruction", index: int) -> None:
        """Remove a previously recorded use edge."""
        for i, use in enumerate(self.uses):
            if use.user is user and use.index == index:
                del self.uses[i]
                return
        raise ValueError(f"use ({user}, {index}) not found on {self}")

    def users(self) -> Iterator["Instruction"]:
        """Iterate over the instructions that use this value (with repeats)."""
        for use in self.uses:
            yield use.user

    def replace_all_uses_with(self, replacement: "Value") -> None:
        """Rewrite every use of this value to use ``replacement`` instead."""
        if replacement is self:
            return
        for use in list(self.uses):
            use.user.set_operand(use.index, replacement)

    # -- classification helpers ----------------------------------------------

    def is_constant(self) -> bool:
        """Return True for compile-time constants (including undef)."""
        return isinstance(self, Constant)

    def short_name(self) -> str:
        """Best-effort short identifier used in diagnostics."""
        return self.name or f"<{type(self).__name__}>"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.type} {self.short_name()}>"


class Constant(Value):
    """Base class of compile-time constant values."""

    __slots__ = ()


class ConstantInt(Constant):
    """An integer constant; the value is wrapped to the type's bit width."""

    __slots__ = ("value",)

    def __init__(self, type: IntType, value: int):
        super().__init__(type)
        self.value = _wrap_signed(int(value), type.width)

    def short_name(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"<ConstantInt {self.type} {self.value}>"


class ConstantFloat(Constant):
    """A floating point constant."""

    __slots__ = ("value",)

    def __init__(self, type: FloatType, value: float):
        super().__init__(type)
        self.value = float(value)

    def short_name(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return f"<ConstantFloat {self.type} {self.value}>"


class UndefValue(Constant):
    """An undefined value of a given type (used for unreachable PHI inputs)."""

    __slots__ = ()

    def short_name(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a :class:`~repro.ir.function.Function`."""

    __slots__ = ("index",)

    def __init__(self, type: Type, name: str, index: int):
        super().__init__(type, name)
        self.index = index


class GlobalVariable(Value):
    """A module-level array or scalar.

    Globals always have pointer type; ``element_type`` is the pointee and
    ``size`` the number of elements (1 for scalars).  The optional
    ``initializer`` is a Python list used by the interpreter.
    """

    __slots__ = ("element_type", "size", "initializer")

    def __init__(
        self,
        name: str,
        element_type: Type,
        size: int = 1,
        initializer: list | None = None,
    ):
        super().__init__(PointerType(element_type), name)
        self.element_type = element_type
        self.size = size
        self.initializer = initializer

    def short_name(self) -> str:
        return f"@{self.name}"


def _wrap_signed(value: int, width: int) -> int:
    """Wrap ``value`` to a signed two's-complement integer of ``width`` bits."""
    mask = (1 << width) - 1
    value &= mask
    sign = 1 << (width - 1)
    if width > 1 and value & sign:
        value -= 1 << width
    return value


def const_int(value: int, type: IntType | None = None) -> ConstantInt:
    """Convenience constructor for integer constants (defaults to i64)."""
    return ConstantInt(type or INT64, value)


def const_float(value: float, type: FloatType | None = None) -> ConstantFloat:
    """Convenience constructor for float constants (defaults to double)."""
    return ConstantFloat(type or DOUBLE, value)


def const_bool(value: bool) -> ConstantInt:
    """Convenience constructor for i1 constants."""
    return ConstantInt(INT1, 1 if value else 0)
