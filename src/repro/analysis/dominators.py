"""Dominator and post-dominator trees (Cooper–Harvey–Kennedy algorithm).

These back the ``dominate``/``postdominate`` constraint atoms and the
SESE region construction; dominance frontiers drive PHI placement in
the mem2reg pass (which compilation no longer runs: lowering builds
SSA directly).  Post-dominators are computed as dominators of the
reversed CFG, with a virtual root joining all exit blocks.
"""

from __future__ import annotations

from typing import Hashable

from ..ir.block import BasicBlock
from ..ir.function import Function
from .cfg import CFG


class _VirtualExit:
    """Sentinel root of the reversed CFG when there are multiple exits."""

    def __repr__(self) -> str:  # pragma: no cover - debugging only
        return "<virtual-exit>"


_VIRTUAL_EXIT = _VirtualExit()


def _reverse_post_order(root: Hashable, successors: dict) -> list:
    """Reverse post-order of an arbitrary digraph from ``root``."""
    visited = {root}
    post: list = []
    stack = [(root, iter(successors.get(root, [])))]
    while stack:
        node, children = stack[-1]
        advanced = False
        for child in children:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(successors.get(child, []))))
                advanced = True
                break
        if not advanced:
            post.append(node)
            stack.pop()
    post.reverse()
    return post


def _chk_idoms(root: Hashable, order: list, preds: dict) -> dict:
    """Cooper–Harvey–Kennedy iterative dominator computation.

    ``order`` must be a reverse post-order starting with ``root``;
    ``preds`` maps each node to its predecessors.  Returns the immediate
    dominator map with ``idom[root] is None``.
    """
    index = {node: i for i, node in enumerate(order)}
    idom: dict = {node: None for node in order}
    idom[root] = root

    def intersect(a, b):
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in order:
            if node is root:
                continue
            new_idom = None
            for pred in preds.get(node, []):
                if idom.get(pred) is None:
                    continue
                new_idom = pred if new_idom is None else intersect(pred, new_idom)
            if new_idom is not None and idom[node] is not new_idom:
                idom[node] = new_idom
                changed = True
    idom[root] = None
    return idom


class DominatorTree:
    """Immediate-dominator tree over the (reachable) blocks of a function.

    Use :meth:`compute` for dominators and :meth:`compute_post` for
    post-dominators.  In the post-dominator tree, blocks immediately
    post-dominated by the virtual exit have ``idom`` None.
    """

    def __init__(
        self,
        root: BasicBlock | None,
        idom: dict[BasicBlock, BasicBlock | None],
        order: list[BasicBlock],
    ):
        self.root = root
        self.idom = idom
        self._order = order
        self._depth: dict[BasicBlock, int] = {}
        #: Tree children of every block, in ``order``; built on the
        #: first :meth:`children` call.
        self._children: dict[BasicBlock, list[BasicBlock]] | None = None
        for block in order:
            parent = idom.get(block)
            self._depth[block] = 0 if parent is None else self._depth[parent] + 1

    @classmethod
    def compute(cls, function: Function,
                cfg: CFG | None = None) -> "DominatorTree":
        """Dominator tree of the forward CFG rooted at the entry block.

        ``cfg`` reuses an already-built graph (the successor/
        predecessor maps are pure function state, so sharing is safe).
        """
        cfg = cfg if cfg is not None else CFG(function)
        order = cfg.reverse_post_order()
        reachable = set(order)
        preds = {
            block: [p for p in cfg.predecessors[block] if p in reachable]
            for block in order
        }
        idom = _chk_idoms(function.entry, order, preds)
        return cls(function.entry, idom, order)

    @classmethod
    def compute_post(cls, function: Function,
                     cfg: CFG | None = None) -> "DominatorTree":
        """Post-dominator tree (dominators of the reversed CFG)."""
        cfg = cfg if cfg is not None else CFG(function)
        reachable = cfg.reachable()
        exits = [b for b in cfg.exit_blocks() if b in reachable]
        if not exits:
            return cls(None, {}, [])
        root = _VIRTUAL_EXIT
        successors: dict = {root: list(exits)}
        for block in reachable:
            successors[block] = [
                p for p in cfg.predecessors[block] if p in reachable
            ]
        preds: dict = {root: []}
        for block in reachable:
            preds[block] = list(cfg.successors[block])
        for exit_block in exits:
            preds[exit_block] = preds[exit_block] + [root]

        order = _reverse_post_order(root, successors)
        idom = _chk_idoms(root, order, preds)
        stripped = {
            block: (None if parent is root else parent)
            for block, parent in idom.items()
            if block is not root
        }
        block_order = [b for b in order if b is not root]
        return cls(None, stripped, block_order)

    # -- queries -----------------------------------------------------------

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` (post-)dominates ``b``, reflexively."""
        node: BasicBlock | None = b
        while node is not None:
            if node is a:
                return True
            node = self.idom.get(node)
        return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` and ``a`` is not ``b``."""
        return a is not b and self.dominates(a, b)

    def children(self, block: BasicBlock) -> list[BasicBlock]:
        """Blocks whose immediate dominator is ``block``, in tree order."""
        if self._children is None:
            self._children = {}
            for child in self._order:
                parent = self.idom.get(child)
                if parent is not None:
                    self._children.setdefault(parent, []).append(child)
        return list(self._children.get(block, ()))

    def depth(self, block: BasicBlock) -> int:
        """Distance from the tree root (virtual root depth 0)."""
        return self._depth.get(block, 0)

    def blocks(self) -> list[BasicBlock]:
        """All blocks covered by the tree, in traversal order."""
        return list(self._order)


def dominance_frontiers(
    function: Function,
    tree: DominatorTree | None = None,
    cfg: CFG | None = None,
) -> dict[BasicBlock, set[BasicBlock]]:
    """Dominance frontier of every reachable block (Cooper et al. style).

    ``cfg`` reuses an already-built graph, as in
    :meth:`DominatorTree.compute`.
    """
    cfg = cfg if cfg is not None else CFG(function)
    tree = tree if tree is not None else DominatorTree.compute(function, cfg)
    reachable = cfg.reachable()
    frontiers: dict[BasicBlock, set[BasicBlock]] = {b: set() for b in reachable}
    for block in reachable:
        preds = [p for p in cfg.predecessors[block] if p in reachable]
        if len(preds) < 2:
            continue
        for pred in preds:
            runner: BasicBlock | None = pred
            while runner is not None and runner is not tree.idom.get(block):
                frontiers[runner].add(block)
                runner = tree.idom.get(runner)
    return frontiers
