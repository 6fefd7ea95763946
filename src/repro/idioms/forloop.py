"""The for-loop idiom specification — Fig. 5 of the paper.

A for loop is a 11-tuple of IR values (we fold the paper's separate
``loop_begin``/``loop_jump`` labels into one ``header`` block, since
in SSA form the iterator PHI, the exit test and the conditional
branch all live in the same block):

    (entry, header, body, latch, exit,
     test, iterator, next_iter, iter_begin, iter_step, iter_end)

with the constraint conjunction below, a direct transliteration of the
figure.  ``entry`` branches unconditionally to ``header``; ``header``
ends in ``br test, body, exit``; ``body``…``latch`` span a SESE region;
``latch`` branches back to ``header``; the iterator is a PHI of the
initial value (from ``entry``) and ``iterator + step`` (from ``latch``);
begin/step/end are constants or defined before the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.loops import Loop
from ..constraints import (
    Assignment,
    ConstraintAnd,
    ConstraintOr,
    DefDominatesBlock,
    Distinct,
    Dominates,
    EndsInCondBranch,
    EndsInUncondBranch,
    IdiomSpec,
    InBlock,
    IsConstantLike,
    Opcode,
    PhiIncomingFromBlock,
    PhiOfTwo,
    SESERegion,
    SolverContext,
)
from ..constraints.predicates import natural_loop
from ..ir.block import BasicBlock
from ..ir.instructions import PhiInst
from ..ir.values import Value

#: Enumeration order: each label is proposable from the ones before it.
#: §3.3 stresses that this ordering determines solver performance; see
#: ``benchmarks/bench_solver_order.py`` for the ablation.
FOR_LOOP_LABEL_ORDER: tuple[str, ...] = (
    "header",
    "test",
    "body",
    "exit",
    "entry",
    "latch",
    "iterator",
    "next_iter",
    "iter_begin",
    "iter_step",
    "iter_end",
)


def loop_invariant_in(value_label: str, entry_label: str) -> ConstraintOr:
    """Fig. 5's ``x ∈ constant ∨ x dominate→ entry`` pattern."""
    return ConstraintOr(
        IsConstantLike(value_label),
        DefDominatesBlock(value_label, entry_label),
    )


def for_loop_constraint() -> ConstraintAnd:
    """The conjunction of Fig. 5 (see module docstring for label names)."""
    return ConstraintAnd(
        EndsInUncondBranch("entry", "header"),
        EndsInCondBranch("header", "test", "body", "exit"),
        EndsInUncondBranch("latch", "header"),
        SESERegion("body", "latch"),
        Dominates("header", "exit"),
        Opcode("test", "icmp", ("iterator", "iter_end"), commutative=True),
        PhiOfTwo("iterator", "next_iter", "iter_begin"),
        InBlock("iterator", "header"),
        PhiIncomingFromBlock("iterator", "next_iter", "latch"),
        PhiIncomingFromBlock("iterator", "iter_begin", "entry"),
        Opcode("next_iter", "add", ("iterator", "iter_step"), commutative=True),
        loop_invariant_in("iter_begin", "entry"),
        loop_invariant_in("iter_step", "entry"),
        loop_invariant_in("iter_end", "entry"),
        Distinct("header", "body", "exit", "entry"),
        natural_loop("header", "body", "latch", "entry", "exit"),
    )


def for_loop_spec() -> IdiomSpec:
    """The complete for-loop idiom specification."""
    return IdiomSpec("for-loop", FOR_LOOP_LABEL_ORDER, for_loop_constraint())


@dataclass
class ForLoopMatch:
    """A solved for-loop tuple, with the :class:`Loop` it corresponds to."""

    header: BasicBlock
    body: BasicBlock
    latch: BasicBlock
    entry: BasicBlock
    exit: BasicBlock
    iterator: PhiInst
    next_iter: Value
    iter_begin: Value
    iter_step: Value
    iter_end: Value
    test: Value
    loop: Loop

    @classmethod
    def from_assignment(
        cls, ctx: SolverContext, assignment: Assignment
    ) -> "ForLoopMatch":
        """Build a match record from a solver assignment."""
        header = assignment["header"]
        loop = ctx.loop_info.loop_with_header(header)
        assert loop is not None
        return cls(
            header=header,
            body=assignment["body"],
            latch=assignment["latch"],
            entry=assignment["entry"],
            exit=assignment["exit"],
            iterator=assignment["iterator"],
            next_iter=assignment["next_iter"],
            iter_begin=assignment["iter_begin"],
            iter_step=assignment["iter_step"],
            iter_end=assignment["iter_end"],
            test=assignment["test"],
            loop=loop,
        )
