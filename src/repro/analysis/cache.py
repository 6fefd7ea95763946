"""One analysis cache per function, keyed on its mutation epoch.

The paper's implementation ran inside LLVM, whose analysis manager
builds each analysis of a function once and keeps it until the IR
changes.  :func:`function_analyses` does the same here: the passes,
the verifier, the solver context, the baselines and the transform
planner all ask ``function_analyses(function).cfg`` (or ``dom``,
``postdom``, ``loop_info``, ``scev``, ``control_deps``) instead of
building their own.  The solver's candidate indexes (``value_index``)
and flow verdicts (``flow_memo``) are kept here too, so a new solver
context for an unchanged function builds little but its search state.

Every IR mutation bumps :attr:`~repro.ir.function.Function.epoch`.
The first request after a bump drops everything the cache held, so a
kept analysis always describes the function as it is now.  Each
analysis is built on first request by its own constructor, imported
then, and callers must not mutate what they get.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.block import BasicBlock
    from ..ir.function import Function
    from ..ir.instructions import Instruction
    from ..ir.values import Value
    from .cfg import CFG
    from .dominators import DominatorTree
    from .loops import LoopInfo
    from .scev import ScalarEvolution


class ValueIndex(NamedTuple):
    """A function's values as the solver enumerates them.  Callers must
    not mutate the lists."""

    #: ``values(F)`` from §3.2, the candidate universe: arguments,
    #: blocks, instructions and the constants and globals they use,
    #: each once.
    universe: list[Value]
    #: The arguments, constants and globals of ``universe``, in order.
    constant_like: list[Value]
    #: The instructions of each opcode, in block order.
    by_opcode: dict[str, list[Instruction]]
    #: Each instruction's block-order position.
    position: dict[Instruction, int]
    #: The blocks ending in an unconditional branch, in block order,
    #: and the same blocks by branch target.
    uncond_blocks: list[BasicBlock]
    uncond_sources: dict[BasicBlock, list[BasicBlock]]


class FunctionAnalyses:
    """The analyses of one function, kept while its epoch holds."""

    __slots__ = ("function", "epoch", "_built")

    def __init__(self, function: Function):
        self.function = function
        #: The function's epoch when the kept analyses were built.
        self.epoch = function.epoch
        self._built: dict[str, object] = {}

    def _get(self, name: str, build):
        """The kept analysis ``name``, built by ``build()`` if the
        function changed since it was kept, or it never was."""
        epoch = self.function.epoch
        if epoch != self.epoch:
            self.epoch = epoch
            self._built = {}
        built = self._built.get(name)
        if built is None:
            built = self._built[name] = build()
        return built

    @property
    def cfg(self) -> CFG:
        """Successor and predecessor maps."""
        from .cfg import CFG

        return self._get("cfg", lambda: CFG(self.function))

    @property
    def dom(self) -> DominatorTree:
        """The dominator tree."""
        from .dominators import DominatorTree

        return self._get("dom", lambda: DominatorTree.compute(
            self.function, self.cfg))

    @property
    def postdom(self) -> DominatorTree:
        """The post-dominator tree."""
        from .dominators import DominatorTree

        return self._get("postdom", lambda: DominatorTree.compute_post(
            self.function, self.cfg))

    @property
    def loop_info(self) -> LoopInfo:
        """The natural loops, with nesting resolved."""
        from .loops import LoopInfo

        return self._get("loop_info", lambda: LoopInfo(
            self.function, self.cfg, self.dom))

    @property
    def scev(self) -> ScalarEvolution:
        """Scalar evolution over :attr:`loop_info`."""
        from .scev import ScalarEvolution

        return self._get("scev", lambda: ScalarEvolution(
            self.function, self.loop_info))

    @property
    def control_deps(self) -> dict[BasicBlock, set[BasicBlock]]:
        """Each block's controlling blocks (post-dominance frontiers)."""
        from .controldep import control_dependences

        return self._get("control_deps", lambda: control_dependences(
            self.function, self.postdom, self.cfg))

    @property
    def value_index(self) -> ValueIndex:
        """The function's values as the solver enumerates them."""
        return self._get("value_index", self._index_values)

    def flow_memo(self, callee_purity: tuple[bool, ...]) -> dict:
        """Flow-slice verdicts
        (:class:`~repro.constraints.flow.ComputedOnlyFrom`) for the
        given purity of the function's callees, in first-call order: a
        verdict depends on nothing else outside the function."""
        return self._get("flow_memos", dict).setdefault(callee_purity, {})

    def _index_values(self) -> ValueIndex:
        from ..ir.instructions import BranchInst
        from ..ir.values import Constant, GlobalVariable

        args = self.function.args
        index = ValueIndex(list(args), list(args), {}, {}, [], {})
        seen: set[int] = set()
        for block in self.function.blocks:
            index.universe.append(block)
            terminator = block.terminator
            if (isinstance(terminator, BranchInst)
                    and not terminator.is_conditional):
                index.uncond_blocks.append(block)
                index.uncond_sources.setdefault(
                    terminator.targets()[0], []).append(block)
            for instruction in block.instructions:
                index.universe.append(instruction)
                index.by_opcode.setdefault(instruction.opcode, []).append(
                    instruction)
                index.position[instruction] = len(index.position)
                # The operand list itself: ``.operands`` copies it.
                for operand in instruction._operands:
                    if (isinstance(operand, (Constant, GlobalVariable))
                            and id(operand) not in seen):
                        seen.add(id(operand))
                        index.universe.append(operand)
                        index.constant_like.append(operand)
        return index

def function_analyses(function: Function) -> FunctionAnalyses:
    """``function``'s analysis cache, made on first request."""
    cache = function.analysis_cache
    if cache is None:
        cache = function.analysis_cache = FunctionAnalyses(function)
    return cache
