"""SSA construction for scalar variables while lowering.

The algorithm is Braun et al., "Simple and Efficient Construction of
Static Single Assignment Form" (CC 2013).  A read looks the variable
up in the current block and, failing that, in its predecessors,
placing a PHI where control flow joins; a PHI in a block whose
predecessors are not all known yet (a loop header before its back
edge) stays incomplete until the block is sealed.  PHIs that turn out
to merge one value are removed on the spot.

The result is the IR LLVM's mem2reg makes of clang's allocas, PHI for
PHI and in the same order, which is the form the paper's idiom
specifications match: PHIs of a block sit in reverse declaration
order, incoming pairs follow mem2reg's renaming walk over the
dominator tree, and a read before any write yields the variable's one
``undef``.
"""

from __future__ import annotations

from ..analysis.cache import function_analyses
from ..ir import BasicBlock, Function, PhiInst, Type, UndefValue, Value


class Variable:
    """A scalar local or parameter, held in SSA values instead of memory.

    ``defs`` maps a block to the variable's latest value in it (Braun et
    al.'s ``currentDef``).  ``order`` is the declaration position, which
    orders the PHIs of a block; ``name`` names them.
    """

    __slots__ = ("type", "name", "order", "defs", "_undef")

    def __init__(self, type: Type, name: str, order: int):
        self.type = type
        self.name = name
        self.order = order
        self.defs: dict[BasicBlock, Value] = {}
        self._undef: UndefValue | None = None

    @property
    def undef(self) -> UndefValue:
        """The variable's one undefined value, read before any write."""
        if self._undef is None:
            self._undef = UndefValue(self.type)
        return self._undef


class SSABuilder:
    """Definitions, PHIs and sealing for one function's variables.

    The caller reports every edge as it emits the branch (:meth:`edge`)
    and every block as it starts filling it (:meth:`enter`).  A block
    must be entered only once all its forward predecessors exist; any
    later predecessor is a back edge from inside the loop the block
    heads, and such a header is entered unsealed and sealed
    (:meth:`seal`) after its last back edge.  :meth:`finish` puts the
    incoming pairs in their final order once the function is complete.
    """

    def __init__(self, entry: BasicBlock):
        self.entry = entry
        #: Predecessors of every block, as the caller branches to it.
        self._preds: dict[BasicBlock, list[BasicBlock]] = {}
        self._sealed: set[BasicBlock] = {entry}
        #: PHIs placed in a block before it was sealed.
        self._incomplete: dict[BasicBlock, list[PhiInst]] = {}
        self._phi_variables: dict[PhiInst, Variable] = {}
        #: Removed trivial PHI → the value that replaced it.
        self._replaced: dict[PhiInst, Value] = {}
        #: Immediate dominator and depth of every reachable block.
        self._idom: dict[BasicBlock, BasicBlock | None] = {entry: None}
        self._depth: dict[BasicBlock, int] = {entry: 0}

    # -- control flow ----------------------------------------------------------

    def edge(self, source: BasicBlock, target: BasicBlock) -> None:
        """Record the branch ``source → target``."""
        preds = self._preds.setdefault(target, [])
        if source not in preds:
            preds.append(source)

    def enter(self, block: BasicBlock, seal: bool = True) -> None:
        """Start ``block``, all of whose forward predecessors exist.

        Records the block's immediate dominator, the common dominator
        of its reachable predecessors, and seals the block unless it is
        a loop header that waits for its back edge.
        """
        idom = None
        for pred in self._preds.get(block, ()):
            if pred in self._depth:
                idom = pred if idom is None else self._common_dominator(idom, pred)
        if idom is not None:
            self._idom[block] = idom
            self._depth[block] = self._depth[idom] + 1
        if seal:
            self._sealed.add(block)

    def _common_dominator(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        depth, idom = self._depth, self._idom
        while a is not b:
            if depth[a] < depth[b]:
                a, b = b, a
            a = idom[a]
        return a

    def seal(self, block: BasicBlock) -> None:
        """Complete the PHIs a loop header got before its back edge."""
        self._sealed.add(block)
        preds = self._preds[block]
        for phi in self._incomplete.pop(block, ()):
            variable = self._phi_variables[phi]
            for pred in preds:
                phi.add_incoming(self.read(variable, pred), pred)
            self._remove_if_trivial(phi)

    # -- definitions -------------------------------------------------------------

    def write(self, variable: Variable, block: BasicBlock, value: Value) -> None:
        """``variable`` holds ``value`` from here on in ``block``."""
        variable.defs[block] = value

    def read(self, variable: Variable, block: BasicBlock) -> Value:
        """The variable's value at the end of ``block`` so far."""
        value, preds = self._find(variable, block)
        if preds is None:
            return value
        # A new PHI at a sealed join: fill it and the PHIs its operands
        # create, depth first, with an explicit stack of
        # ``[phi, predecessors, next predecessor]`` frames.
        stack = [[value, preds, 0]]
        while True:
            frame = stack[-1]
            phi, preds, index = frame
            if index < len(preds):
                operand, more = self._find(variable, preds[index])
                if more is not None:
                    stack.append([operand, more, 0])
                    continue
            else:
                operand = self._remove_if_trivial(phi)
                stack.pop()
                if not stack:
                    return operand
                frame = stack[-1]
                phi, preds, index = frame
            phi.add_incoming(operand, preds[index])
            frame[2] = index + 1

    def _find(
        self, variable: Variable, block: BasicBlock
    ) -> tuple[Value, list[BasicBlock] | None]:
        """Braun et al.'s ``readVariable`` for ``block``, one step.

        Walks single-predecessor chains and caches the answer in every
        block it passed.  A new PHI at a sealed join comes back with the
        predecessors it still needs operands from; otherwise the second
        item is None.
        """
        defs = variable.defs
        chain = []
        preds = None
        while True:
            value = defs.get(block)
            if value is not None:
                value = self._current(value)
                break
            if block not in self._sealed:
                value = self._new_phi(variable, block)
                self._incomplete.setdefault(block, []).append(value)
                break
            block_preds = self._preds.get(block)
            if not block_preds:
                value = variable.undef
                break
            if len(block_preds) == 1:
                chain.append(block)
                block = block_preds[0]
                continue
            value = self._new_phi(variable, block)
            preds = block_preds
            break
        defs[block] = value
        for visited in chain:
            defs[visited] = value
        return value, preds

    def _current(self, value: Value) -> Value:
        """``value``, or what replaced it if it was a removed PHI."""
        while value.__class__ is PhiInst and value.parent is None:
            value = self._replaced[value]
        return value

    def _new_phi(self, variable: Variable, block: BasicBlock) -> PhiInst:
        phi = PhiInst(variable.type, variable.name)
        index = 0
        for existing in block.instructions:
            if (
                existing.__class__ is not PhiInst
                or self._phi_variables[existing].order < variable.order
            ):
                break
            index += 1
        block.insert(index, phi)
        self._phi_variables[phi] = variable
        return phi

    def _remove_if_trivial(self, phi: PhiInst) -> Value:
        """Remove ``phi`` if it merges one value (or only itself), then
        the PHIs that this makes trivial; returns what ``phi`` now is."""
        work = [phi]
        while work:
            candidate = work.pop()
            if candidate.parent is None:
                continue
            same = None
            for value in candidate.incoming_values():
                if value is same or value is candidate:
                    continue
                if same is not None:
                    break
                same = value
            else:
                if same is None:
                    same = self._phi_variables[candidate].undef
                work.extend(
                    user for user in candidate.users()
                    if user is not candidate and user.__class__ is PhiInst
                )
                candidate.replace_all_uses_with(same)
                candidate.drop_all_references()
                candidate.parent.remove(candidate)
                self._replaced[candidate] = same
        return self._current(phi)

    # -- incoming order -------------------------------------------------------------

    def finish(self, function: Function) -> None:
        """Order every PHI's incoming pairs as mem2reg's renaming walk
        added them: by the predecessor's place in a preorder walk of the
        dominator tree that visits children in reverse post-order.
        Unreachable predecessors go last, in their order.

        Every PHI of a block got its pairs in the order of the block's
        predecessor list, so the order is worked out once per block, and
        only for blocks where that list may be out of order: a loop
        header's preheader, for one, dominates its back edges.
        """
        joins = [
            block for block in dict.fromkeys(
                phi.parent for phi in self._phi_variables
                if phi.parent is not None and phi.incoming_count > 1
            )
            if not self._dominance_ordered(block)
        ]
        if not joins:
            return
        children: dict[BasicBlock, list[BasicBlock]] = {}
        for block in function_analyses(function).cfg.reverse_post_order():
            idom = self._idom[block]
            if idom is not None:
                children.setdefault(idom, []).append(block)
        rank: dict[BasicBlock, int] = {}
        walk = [self.entry]
        while walk:
            block = walk.pop()
            rank[block] = len(rank)
            walk.extend(reversed(children.get(block, ())))
        last = len(rank)
        for block in joins:
            preds = self._preds[block]
            ordered = sorted(preds, key=lambda pred: rank.get(pred, last))
            if ordered == preds:
                continue
            for phi in block.phis():
                value_of = {pred: value for value, pred in phi.incoming}
                phi.set_incoming([(value_of[pred], pred) for pred in ordered])

    def _dominance_ordered(self, block: BasicBlock) -> bool:
        """True if ``block`` has two predecessors and the first dominates
        the second (or the second is unreachable), so that every walk
        of the dominator tree meets them in list order."""
        preds = self._preds[block]
        if len(preds) != 2:
            return False
        first, second = preds
        depth = self._depth
        if second not in depth:
            return True
        if first not in depth:
            return False
        idom = self._idom
        while depth[second] > depth[first]:
            second = idom[second]
        return second is first
