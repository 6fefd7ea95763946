"""Natural loop detection and loop-nest information.

Loops are discovered from back edges (edges whose target dominates their
source).  The resulting :class:`Loop` objects expose the header, latch,
body and nesting depth — the structural facts the for-loop constraint of
Fig. 5 encodes, and that the baselines (Polly/icc models) consume.
"""

from __future__ import annotations

from ..ir.block import BasicBlock
from ..ir.function import Function
from .cfg import CFG
from .dominators import DominatorTree


class Loop:
    """One natural loop.

    Attributes
    ----------
    header:
        The unique entry block of the loop (target of the back edge).
    latches:
        Source blocks of back edges to the header.
    blocks:
        All blocks of the loop, header included.
    parent:
        The innermost enclosing loop, or None for top-level loops.
    children:
        Loops nested immediately inside this one.
    """

    def __init__(self, header: BasicBlock):
        self.header = header
        self.latches: list[BasicBlock] = []
        self.blocks: set[BasicBlock] = {header}
        self.parent: "Loop | None" = None
        self.children: list["Loop"] = []

    @property
    def depth(self) -> int:
        """Nesting depth; 1 for outermost loops."""
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def is_innermost(self) -> bool:
        """True if no loop nests inside this one."""
        return not self.children

    def exit_targets(self) -> list[BasicBlock]:
        """Blocks outside the loop that are branched to from inside."""
        targets = []
        for block in self.blocks:
            for successor in block.successors():
                if successor not in self.blocks and successor not in targets:
                    targets.append(successor)
        return targets

    def __repr__(self) -> str:
        return f"<Loop header={self.header.name} depth={self.depth}>"


class LoopInfo:
    """All natural loops of a function, with nesting resolved."""

    def __init__(self, function: Function, cfg: CFG | None = None,
                 tree: DominatorTree | None = None):
        self.function = function
        cfg = cfg if cfg is not None else CFG(function)
        tree = tree if tree is not None else DominatorTree.compute(
            function, cfg
        )
        reachable = cfg.reachable()

        loops_by_header: dict[BasicBlock, Loop] = {}
        for block in reachable:
            for successor in cfg.successors[block]:
                if successor in reachable and tree.dominates(successor, block):
                    loop = loops_by_header.setdefault(successor, Loop(successor))
                    loop.latches.append(block)
                    self._collect_body(loop, block, cfg, reachable)

        self.loops: list[Loop] = list(loops_by_header.values())
        self._assign_nesting()
        self._by_block: dict[BasicBlock, Loop] = {}
        for loop in sorted(self.loops, key=lambda l: len(l.blocks), reverse=True):
            for block in loop.blocks:
                self._by_block[block] = loop

    @staticmethod
    def _collect_body(
        loop: Loop,
        latch: BasicBlock,
        cfg: CFG,
        reachable: set[BasicBlock],
    ) -> None:
        """Walk backwards from the latch to the header, collecting blocks."""
        work = [latch]
        while work:
            block = work.pop()
            if block in loop.blocks:
                continue
            loop.blocks.add(block)
            for pred in cfg.predecessors[block]:
                if pred in reachable:
                    work.append(pred)

    def _assign_nesting(self) -> None:
        for loop in self.loops:
            best: Loop | None = None
            for other in self.loops:
                if other is loop or loop.header not in other.blocks:
                    continue
                if not loop.blocks <= other.blocks:
                    continue
                if best is None or len(other.blocks) < len(best.blocks):
                    best = other
            loop.parent = best
            if best is not None:
                best.children.append(loop)

    def innermost_loop_of(self, block: BasicBlock) -> Loop | None:
        """The innermost loop containing ``block``, or None."""
        return self._by_block.get(block)

    def top_level_loops(self) -> list[Loop]:
        """Loops not nested in any other loop."""
        return [l for l in self.loops if l.parent is None]

    def loop_with_header(self, header: BasicBlock) -> Loop | None:
        """The loop whose header is ``header``, or None."""
        for loop in self.loops:
            if loop.header is header:
                return loop
        return None
