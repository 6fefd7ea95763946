"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .instructions import BranchInst, Instruction, PhiInst
from .types import LABEL
from .values import Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .function import Function


class BasicBlock(Value):
    """A basic block.

    Blocks are values (of label type) so they can appear as branch and
    PHI operands — matching LLVM, where block labels are part of the
    value universe the constraint solver searches (§3.2).
    """

    __slots__ = ("parent", "instructions")

    def __init__(self, name: str = ""):
        super().__init__(LABEL, name)
        self.parent: "Function | None" = None
        self.instructions: list[Instruction] = []

    # -- structure ---------------------------------------------------------

    def append(self, instruction: Instruction) -> Instruction:
        """Append ``instruction`` and set its parent."""
        if instruction.parent is not None:
            raise ValueError(f"{instruction} already belongs to a block")
        if self.terminator is not None:
            raise ValueError(f"block {self.name} is already terminated")
        instruction.parent = self
        self.instructions.append(instruction)
        if self.parent is not None:
            self.parent.epoch += 1
        return instruction

    def insert(self, index: int, instruction: Instruction) -> Instruction:
        """Insert ``instruction`` at position ``index``."""
        if instruction.parent is not None:
            raise ValueError(f"{instruction} already belongs to a block")
        instruction.parent = self
        self.instructions.insert(index, instruction)
        if self.parent is not None:
            self.parent.epoch += 1
        return instruction

    def remove(self, instruction: Instruction) -> None:
        """Detach ``instruction`` from this block (uses are untouched)."""
        self.instructions.remove(instruction)
        instruction.parent = None
        if self.parent is not None:
            self.parent.epoch += 1

    @property
    def terminator(self) -> Instruction | None:
        """The final branch/return, or None while under construction."""
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def phis(self) -> list[PhiInst]:
        """The PHI nodes at the head of the block."""
        result = []
        for instruction in self.instructions:
            if isinstance(instruction, PhiInst):
                result.append(instruction)
            else:
                break
        return result

    # -- CFG -----------------------------------------------------------------

    def successors(self) -> list["BasicBlock"]:
        """Successor blocks (empty for return blocks)."""
        terminator = self.terminator
        if isinstance(terminator, BranchInst):
            return terminator.targets()
        return []

    def predecessors(self) -> list["BasicBlock"]:
        """Predecessor blocks, each once, in deterministic function order.

        Read off this block's use-list: a predecessor is a block of the
        same function whose terminating branch names this block.  Phi
        incoming-block operands and branches not (or no longer) ending a
        block of this function are not edges.
        """
        function = self.parent
        if function is None:
            return []
        preds = []
        for use in self.uses:
            branch = use.user
            block = branch.parent
            if (
                isinstance(branch, BranchInst)
                and block is not None
                and block.parent is function
                and block.instructions[-1] is branch
                and block not in preds
            ):
                preds.append(block)
        if len(preds) > 1:
            preds.sort(key=function.blocks.index)
        return preds

    def short_name(self) -> str:
        return self.name or "<block>"

    def __repr__(self) -> str:
        return f"<BasicBlock %{self.short_name()}>"

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)
