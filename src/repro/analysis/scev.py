"""Scalar evolution: affine analysis of integer expressions in loops.

This is the analysis behind two very different consumers:

* the paper's reduction specifications need *"indices affine in the loop
  iterator"* where coefficients may be arbitrary loop-invariant values
  (``x[2*i]``, ``a[i*stride + j]``);
* the Polly baseline needs the *polyhedral* notion: induction variables
  may only be multiplied by compile-time constants, so a flattened
  access like ``a[i*nx + j]`` with parametric ``nx`` is **not** affine —
  which is exactly the delinearization failure §6.1 blames for Polly's
  low coverage on flat arrays.

Affine forms are represented as integer-coefficient sums of monomials.
A monomial is a (parameters, induction-variable) pair: parameters are
loop-invariant values, and at most one induction variable may appear.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    CastInst,
    ICmpInst,
    Instruction,
    PhiInst,
)
from ..ir.values import Argument, Constant, ConstantInt, GlobalVariable, Value
from .loops import Loop, LoopInfo

#: A monomial: sorted tuple of loop-invariant factors plus at most one IV.
Monomial = tuple[tuple[Value, ...], "Value | None"]

_CONST_MONO: Monomial = ((), None)


def _mono(params: tuple[Value, ...], iv: Value | None) -> Monomial:
    ordered = tuple(sorted(params, key=id))
    return (ordered, iv)


class Affine:
    """An affine (in the IVs) integer expression.

    Stored as ``{monomial: coefficient}``; the constant term uses the
    empty monomial.  Products of two induction variables are not
    representable and cause analysis failure upstream.
    """

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {}
        for mono, coeff in (terms or {}).items():
            if coeff != 0:
                self.terms[mono] = coeff

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, value: int) -> "Affine":
        """The constant affine form ``value``."""
        return cls({_CONST_MONO: value})

    @classmethod
    def parameter(cls, value: Value) -> "Affine":
        """A single loop-invariant symbol."""
        return cls({_mono((value,), None): 1})

    @classmethod
    def induction(cls, phi: Value) -> "Affine":
        """A single induction variable."""
        return cls({_mono((), phi): 1})

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Affine") -> "Affine":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return Affine(terms)

    def __sub__(self, other: "Affine") -> "Affine":
        return self + other.scaled(-1)

    def scaled(self, factor: int) -> "Affine":
        """Multiply every coefficient by an integer."""
        return Affine({m: c * factor for m, c in self.terms.items()})

    def multiply(self, other: "Affine") -> "Affine | None":
        """Polynomial product; None if any monomial would hold two IVs."""
        terms: dict[Monomial, int] = {}
        for (params_a, iv_a), coeff_a in self.terms.items():
            for (params_b, iv_b), coeff_b in other.terms.items():
                if iv_a is not None and iv_b is not None:
                    return None
                mono = _mono(params_a + params_b, iv_a or iv_b)
                terms[mono] = terms.get(mono, 0) + coeff_a * coeff_b
        return Affine(terms)

    # -- queries -----------------------------------------------------------

    @property
    def constant_term(self) -> int:
        """The coefficient of the empty monomial."""
        return self.terms.get(_CONST_MONO, 0)

    def induction_variables(self) -> set[Value]:
        """All IVs appearing in the expression."""
        return {iv for (_, iv) in self.terms if iv is not None}

    def parameters(self) -> set[Value]:
        """All loop-invariant symbols appearing in the expression."""
        result: set[Value] = set()
        for params, _ in self.terms:
            result.update(params)
        return result

    def is_constant(self) -> bool:
        """True if no symbols appear at all."""
        return all(m == _CONST_MONO for m in self.terms)

    def iv_coefficients_constant(self) -> bool:
        """True if every IV-carrying monomial has no parameter factors.

        This is the polyhedral-affinity condition the Polly baseline
        enforces: ``2*i`` passes, ``nx*i`` fails.
        """
        for params, iv in self.terms:
            if iv is not None and params:
                return False
        return True

    def has_parameter_products(self) -> bool:
        """True if any monomial multiplies two or more symbols.

        Relative to an inner loop an enclosing loop's IV is just a
        parameter, so flattened accesses like ``i*cols + j`` appear as
        a parameter product — the polyhedral baseline must reject those
        (delinearization failure) even though the expression is affine
        in the inner iterator.
        """
        for params, iv in self.terms:
            if len(params) >= 2 or (iv is not None and params):
                return True
        return False

    def coefficient_of(self, iv: Value) -> int:
        """Constant coefficient of ``iv`` (0 if absent or symbolic)."""
        return self.terms.get(_mono((), iv), 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Affine) and other.terms == self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "Affine(0)"
        parts = []
        for (params, iv), coeff in self.terms.items():
            symbols = [p.short_name() for p in params]
            if iv is not None:
                symbols.append(f"{iv.short_name()}~iv")
            parts.append("*".join([str(coeff)] + symbols) if symbols else str(coeff))
        return f"Affine({' + '.join(parts)})"


@dataclass
class InductionVariable:
    """A canonical induction variable: ``phi = [init, pre], [phi+step, latch]``."""

    phi: PhiInst
    init: Value
    step: Value
    loop: Loop


@dataclass
class LoopBounds:
    """The exit condition of a canonical counted loop.

    ``iterator`` runs from ``start`` by ``step`` while
    ``icmp predicate (iterator, end)`` holds.
    """

    iterator: PhiInst
    start: Value
    step: Value
    end: Value
    predicate: str


class ScalarEvolution:
    """Per-function affine expression analysis."""

    def __init__(self, function: Function, loop_info: LoopInfo | None = None):
        self.function = function
        self.loop_info = loop_info or LoopInfo(function)
        self._iv_cache: dict[int, InductionVariable | None] = {}

    # -- invariance ------------------------------------------------------------

    def is_loop_invariant(self, value: Value, loop: Loop) -> bool:
        """True if ``value`` cannot change between iterations of ``loop``."""
        if isinstance(value, (Constant, Argument, GlobalVariable)):
            return True
        if isinstance(value, Instruction):
            return value.parent not in loop.blocks
        if isinstance(value, BasicBlock):
            return False
        return False

    # -- induction variables ---------------------------------------------------

    def induction_variable_for_phi(self, phi: PhiInst) -> InductionVariable | None:
        """Recognise ``phi`` as a canonical IV of its header's loop."""
        cached = self._iv_cache.get(id(phi))
        if cached is not None or id(phi) in self._iv_cache:
            return cached
        self._iv_cache[id(phi)] = None
        result = self._match_induction(phi)
        self._iv_cache[id(phi)] = result
        return result

    def _match_induction(self, phi: PhiInst) -> InductionVariable | None:
        block = phi.parent
        if block is None:
            return None
        loop = self.loop_info.loop_with_header(block)
        if loop is None or phi.incoming_count != 2:
            return None
        init = None
        next_value = None
        for value, pred in phi.incoming:
            if pred in loop.blocks:
                next_value = value
            else:
                init = value
        if init is None or next_value is None:
            return None
        if not isinstance(next_value, BinaryInst) or next_value.opcode != "add":
            return None
        if next_value.lhs is phi:
            step = next_value.rhs
        elif next_value.rhs is phi:
            step = next_value.lhs
        else:
            return None
        if not self.is_loop_invariant(step, loop):
            return None
        if not self.is_loop_invariant(init, loop):
            return None
        return InductionVariable(phi, init, step, loop)

    def induction_variable(self, loop: Loop) -> InductionVariable | None:
        """The first canonical IV found in ``loop``'s header."""
        for phi in loop.header.phis():
            candidate = self.induction_variable_for_phi(phi)
            if candidate is not None and candidate.loop is loop:
                return candidate
        return None

    def loop_bounds(self, loop: Loop) -> LoopBounds | None:
        """Recognise the canonical counted-loop exit condition.

        The header must end in a conditional branch whose condition is an
        integer comparison between a canonical IV of the loop and a
        loop-invariant end value — the shape required by conditions
        ``test = int_comparison(iterator, iter_end)`` etc. of Fig. 5.
        """
        terminator = loop.header.terminator
        from ..ir.instructions import BranchInst

        if not isinstance(terminator, BranchInst) or not terminator.is_conditional:
            return None
        condition = terminator.condition
        if not isinstance(condition, ICmpInst):
            return None
        for lhs, rhs, predicate in (
            (condition.lhs, condition.rhs, condition.predicate),
            (condition.rhs, condition.lhs, _swap_predicate(condition.predicate)),
        ):
            if isinstance(lhs, PhiInst):
                iv = self.induction_variable_for_phi(lhs)
                # Compare loops by header: callers may hold Loop objects
                # from a different LoopInfo instance.
                if iv is not None and iv.loop.header is loop.header:
                    if self.is_loop_invariant(rhs, loop):
                        return LoopBounds(lhs, iv.init, iv.step, rhs, predicate)
        return None

    # -- affine forms ------------------------------------------------------------

    def affine_at(self, value: Value, loop: Loop) -> Affine | None:
        """Affine form of ``value`` relative to ``loop``.

        IVs of ``loop`` and of every enclosing loop appear as induction
        symbols; anything invariant with respect to ``loop`` appears as a
        parameter symbol.  Returns None for non-affine expressions.
        """
        return self._affine(value, loop, set())

    def _affine(self, value: Value, loop: Loop, visiting: set[int]) -> Affine | None:
        if isinstance(value, ConstantInt):
            return Affine.constant(value.value)
        if self.is_loop_invariant(value, loop):
            return Affine.parameter(value)
        if id(value) in visiting:
            return None
        visiting = visiting | {id(value)}

        if isinstance(value, PhiInst):
            iv = self.induction_variable_for_phi(value)
            if iv is not None and self._loop_encloses(iv.loop, loop):
                return Affine.induction(value)
            return None
        if isinstance(value, BinaryInst):
            lhs = self._affine(value.lhs, loop, visiting)
            rhs = self._affine(value.rhs, loop, visiting)
            if lhs is None or rhs is None:
                return None
            if value.opcode == "add":
                return lhs + rhs
            if value.opcode == "sub":
                return lhs - rhs
            if value.opcode == "mul":
                return lhs.multiply(rhs)
            if value.opcode == "shl":
                if rhs.is_constant():
                    return lhs.scaled(1 << rhs.constant_term)
                return None
            return None
        if isinstance(value, CastInst) and value.opcode in ("sext", "zext", "trunc"):
            return self._affine(value.value, loop, visiting)
        return None

    @staticmethod
    def _loop_encloses(outer: Loop, inner: Loop) -> bool:
        node: Loop | None = inner
        while node is not None:
            if node is outer:
                return True
            node = node.parent
        return False


def _swap_predicate(predicate: str) -> str:
    swap = {
        "slt": "sgt",
        "sgt": "slt",
        "sle": "sge",
        "sge": "sle",
        "eq": "eq",
        "ne": "ne",
    }
    return swap[predicate]
