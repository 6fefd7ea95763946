"""The record :func:`~repro.idioms.detect.find_for_loops` returns.

The for-loop idiom itself (Fig. 5 of the paper) is the shipped
``constraints/specs/forloop.icsl``: an 11-tuple of IR values whose
labels name the fields below.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.loops import Loop
from ..constraints import Assignment, SolverContext
from ..ir.block import BasicBlock
from ..ir.instructions import PhiInst
from ..ir.values import Value


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
