"""Functions: argument lists plus an ordered collection of basic blocks."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .block import BasicBlock
from .instructions import Instruction
from .types import FunctionType
from .values import Argument, Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .module import Module


class Function(Value):
    """A function definition or declaration.

    Declarations (``is_declaration == True``) have no blocks and model
    external routines; the ``pure`` flag marks functions without side
    effects, the property the reduction specifications check for calls
    inside the reduction scope (§2: *"all the function calls that are
    present are pure"*).

    ``epoch`` counts mutations: every block, instruction or operand
    change made through the IR's methods bumps it, so the function's
    analysis cache (:mod:`repro.analysis.cache`) can tell whether what
    it keeps is still current.
    """

    def __init__(
        self,
        name: str,
        type: FunctionType,
        param_names: list[str] | None = None,
        pure: bool = False,
    ):
        super().__init__(type, name)
        self.blocks: list[BasicBlock] = []
        self.pure = pure
        self.parent: "Module | None" = None
        #: Mutation counter; see the class docstring.
        self.epoch = 0
        #: The function's :class:`~repro.analysis.cache.
        #: FunctionAnalyses`, made by
        #: :func:`~repro.analysis.cache.function_analyses` on first use.
        self.analysis_cache = None
        #: ``(SolverContext, module stamp)`` left by the last
        #: ``find_reductions(module)`` run without ``extended``;
        #: ``find_extended_reductions``
        #: takes it off and reuses the context if the stamp
        #: (:func:`repro.idioms.detect.module_stamp`) still holds.
        self.solver_handoff: tuple | None = None
        names = param_names or [f"arg{i}" for i in range(len(type.param_types))]
        if len(names) != len(type.param_types):
            raise ValueError("parameter name/type count mismatch")
        self.args: list[Argument] = [
            Argument(param_type, param_name, index)
            for index, (param_type, param_name) in enumerate(
                zip(type.param_types, names)
            )
        ]

    # -- structure -----------------------------------------------------------

    @property
    def is_declaration(self) -> bool:
        """True if the function has no body."""
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        """The entry block (first block)."""
        if not self.blocks:
            raise ValueError(f"function {self.name} has no body")
        return self.blocks[0]

    def add_block(self, name: str = "") -> BasicBlock:
        """Create, name-uniquify, append and return a new basic block."""
        block = BasicBlock(name or f"bb{len(self.blocks)}")
        return self.append_block(block)

    def append_block(self, block: BasicBlock) -> BasicBlock:
        """Append an existing block to this function."""
        if block.parent is not None:
            raise ValueError(f"{block} already belongs to a function")
        block.parent = self
        self.epoch += 1
        existing = {b.name for b in self.blocks}
        if not block.name or block.name in existing:
            base = block.name or "bb"
            suffix = len(self.blocks)
            while f"{base}{suffix}" in existing:
                suffix += 1
            block.name = f"{base}{suffix}"
        self.blocks.append(block)
        return block

    def instructions(self) -> Iterator[Instruction]:
        """Iterate over all instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    def short_name(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} {self.name}>"
