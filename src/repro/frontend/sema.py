"""Semantic analysis helpers: intrinsics, constant folding, signatures.

Sema is deliberately light: the mini-C type system has only ``int``
(64-bit), ``double`` and pointers, so most checking happens naturally
during lowering.  This module owns the pieces lowering consumes:

* the intrinsic table (with purity — the property the reduction
  specifications test on calls, §3.1.1);
* compile-time evaluation of constant expressions (array dimensions,
  ``const int`` globals, which behave like ``#define``);
* collection of function signatures before bodies are lowered.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast_nodes import (
    Binary,
    CType,
    Expr,
    FloatLit,
    IntLit,
    Program,
    Unary,
    Var,
)


class SemaError(Exception):
    """Raised on semantic errors (unknown names, bad types, bad dims)."""


@dataclass(frozen=True)
class Intrinsic:
    """An external function known to the compiler."""

    name: str
    return_base: str
    param_bases: tuple[str, ...]
    pure: bool


#: Math intrinsics, all pure — including ``fmin``/``fmax``, which §6.1
#: highlights: our system knows they are pure while the icc model does not.
INTRINSICS: dict[str, Intrinsic] = {
    intrinsic.name: intrinsic
    for intrinsic in (
        Intrinsic("sqrt", "double", ("double",), True),
        Intrinsic("log", "double", ("double",), True),
        Intrinsic("exp", "double", ("double",), True),
        Intrinsic("fabs", "double", ("double",), True),
        Intrinsic("sin", "double", ("double",), True),
        Intrinsic("cos", "double", ("double",), True),
        Intrinsic("floor", "double", ("double",), True),
        Intrinsic("ceil", "double", ("double",), True),
        Intrinsic("pow", "double", ("double", "double"), True),
        Intrinsic("fmin", "double", ("double", "double"), True),
        Intrinsic("fmax", "double", ("double", "double"), True),
        Intrinsic("fmod", "double", ("double", "double"), True),
        Intrinsic("abs", "int", ("int",), True),
        Intrinsic("min", "int", ("int", "int"), True),
        Intrinsic("max", "int", ("int", "int"), True),
        # Impure intrinsics: used by negative tests and by corpus code that
        # must *not* be detected as a reduction.
        Intrinsic("rand", "int", (), False),
        Intrinsic("srand", "void", ("int",), False),
        Intrinsic("clock", "int", (), False),
        Intrinsic("print_int", "void", ("int",), False),
        Intrinsic("print_double", "void", ("double",), False),
    )
}


@dataclass
class Signature:
    """Resolved function signature."""

    name: str
    return_type: CType
    param_types: list[CType]
    param_names: list[str]
    pure: bool = False
    is_intrinsic: bool = False


def collect_signatures(program: Program) -> dict[str, Signature]:
    """Signatures of every function defined or declared in ``program``."""
    signatures: dict[str, Signature] = {}
    for function in program.functions:
        signatures[function.name] = Signature(
            function.name,
            function.return_type,
            [p.type for p in function.params],
            [p.name for p in function.params],
        )
    return signatures


def intrinsic_signature(name: str) -> Signature | None:
    """The signature of intrinsic ``name``, or None."""
    intrinsic = INTRINSICS.get(name)
    if intrinsic is None:
        return None
    return Signature(
        intrinsic.name,
        CType(intrinsic.return_base),
        [CType(base) for base in intrinsic.param_bases],
        [f"x{i}" for i in range(len(intrinsic.param_bases))],
        pure=intrinsic.pure,
        is_intrinsic=True,
    )


class ConstEvaluator:
    """Evaluates compile-time integer expressions.

    ``const int`` globals are treated like preprocessor constants: they
    are inlined at every use and may appear in array dimensions.
    """

    def __init__(self) -> None:
        self.constants: dict[str, int | float] = {}

    def define(self, name: str, value: int | float) -> None:
        """Register a named compile-time constant."""
        self.constants[name] = value

    def try_eval(self, expr: Expr) -> int | float | None:
        """Evaluate ``expr`` if it is compile-time constant, else None."""
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, FloatLit):
            return expr.value
        if isinstance(expr, Var):
            return self.constants.get(expr.name)
        if isinstance(expr, Unary):
            inner = self.try_eval(expr.operand)
            if inner is None:
                return None
            if expr.op == "-":
                return -inner
            if expr.op == "!":
                return int(not inner)
            if expr.op == "~" and isinstance(inner, int):
                return ~inner
            return None
        if isinstance(expr, Binary):
            lhs = self.try_eval(expr.lhs)
            rhs = self.try_eval(expr.rhs)
            if lhs is None or rhs is None:
                return None
            return _fold_binary(expr.op, lhs, rhs)
        return None

    def eval_int(self, expr: Expr, context: str) -> int:
        """Evaluate ``expr`` to an int, raising :class:`SemaError` if not."""
        value = self.try_eval(expr)
        if not isinstance(value, int):
            raise SemaError(f"{context}: expected a constant integer")
        return value


def _fold_binary(op: str, lhs, rhs):
    both_int = isinstance(lhs, int) and isinstance(rhs, int)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if rhs == 0:
            return None
        return _c_div(lhs, rhs) if both_int else lhs / rhs
    if op == "%":
        if rhs == 0 or not both_int:
            return None
        return _c_rem(lhs, rhs)
    if op in ("<<", ">>"):
        # Only counts the interpreter shifts by: any other count is
        # left to run (and fail) as a shift.
        if not both_int or not 0 <= rhs <= 63:
            return None
        return lhs << rhs if op == "<<" else lhs >> rhs
    comparisons = {
        "==": lhs == rhs,
        "!=": lhs != rhs,
        "<": lhs < rhs,
        "<=": lhs <= rhs,
        ">": lhs > rhs,
        ">=": lhs >= rhs,
    }
    if op in comparisons:
        return int(comparisons[op])
    return None


def _c_div(a: int, b: int) -> int:
    """C-style truncating integer division."""
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _c_rem(a: int, b: int) -> int:
    """C-style remainder (sign of the dividend)."""
    return a - _c_div(a, b) * b
