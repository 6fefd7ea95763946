"""Constraint interface and solver context.

The paper (§3.2) describes idiom specifications as a set of labels ``I``
plus a boolean predicate ``c`` over ``LLVM::Value^I``, built from atomic
constraints combined with ∧ and ∨.  Detection means enumerating

    { x ∈ values(F)^I  |  c(x) = true }.

:class:`Constraint` is the Python analogue of the paper's abstract C++
``Constraint`` interface (Fig. 7): every constraint knows

* the ``labels`` it mentions,
* how to :meth:`~Constraint.check` a full assignment of those labels,
* how to :meth:`~Constraint.partial_check` an assignment in which only
  some labels are bound (used by the backtracking solver to prune), and
* optionally how to :meth:`~Constraint.propose` candidate values for a
  yet-unbound label — the paper's ``next_solution`` candidate iterator,
  which is what turns brute-force enumeration into a guided search.

:class:`SolverContext` is the paper's ``FunctionWrapper``: one function
plus every cached analysis the atomic constraints consult.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..analysis.cfg import CFG
from ..analysis.controldep import control_dependences
from ..analysis.dominators import DominatorTree
from ..analysis.loops import LoopInfo
from ..analysis.purity import PurityAnalysis
from ..analysis.scev import ScalarEvolution
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import BranchInst, Instruction
from ..ir.module import Module
from ..ir.values import Argument, Constant, GlobalVariable, Value

#: A (partial) assignment of labels to IR values.
Assignment = Mapping[str, Value]

#: Sentinel returned by :meth:`Constraint.compile_partial` when the
#: partial verdict is constant-true for the given bound label set — the
#: plan compiler drops the check from the schedule slice and accounts
#: the skipped evaluation in :attr:`SolverStats.evals_pruned`.
PARTIAL_VACUOUS = object()

#: The value-kind lattice consulted by :meth:`Constraint.label_kinds`
#: and the lint pass's domain analysis (ICSL003): child -> parent.
#: ``any`` is the top; ``block`` and ``value`` are disjoint below it
#: (a basic block is never an SSA value candidate and vice versa), so
#: a label required to be both is unsatisfiable.
KIND_PARENT: dict[str, str] = {
    "block": "any",
    "value": "any",
    "instruction": "value",
    "constlike": "value",
    "phi": "instruction",
    "load": "instruction",
    "store": "instruction",
    "cmp": "instruction",
}


def _kind_ancestry(kind: str) -> tuple[str, ...]:
    chain = [kind]
    while chain[-1] != "any":
        chain.append(KIND_PARENT[chain[-1]])
    return tuple(chain)


def kind_meet(a: str, b: str) -> str | None:
    """Greatest lower bound of two kinds, or None when incompatible
    (the lattice is a tree, so the meet is whichever is the deeper of
    an ancestor/descendant pair)."""
    if a == b:
        return a
    if b in _kind_ancestry(a):
        return a
    if a in _kind_ancestry(b):
        return b
    return None


def kind_join(a: str, b: str) -> str:
    """Least upper bound of two kinds (lowest common ancestor)."""
    ancestry = _kind_ancestry(a)
    for candidate in _kind_ancestry(b):
        if candidate in ancestry:
            return candidate
    return "any"


class SolverContext:
    """A function plus cached analyses — the ``FunctionWrapper`` of Fig. 7.

    The cheap, universally-consulted analyses (CFG, dominators, the
    value universe and the opcode index) are built eagerly; the heavier
    ones (post-dominators, loops, SCEV, control dependences, purity)
    are computed on first access and cached.  Laziness only moves the
    cost to the first constraint that consults the analysis — verdicts
    are unchanged, and a spec set that never touches e.g. SCEV never
    pays for it.
    """

    def __init__(self, function: Function, module: Module | None = None):
        self.function = function
        self.module = module
        self.cfg = CFG(function)
        self.dom = DominatorTree.compute(function, self.cfg)
        #: ``values(F)`` from §3.2 — the candidate universe.
        self.universe: list[Value] = function.value_universe()
        self._by_opcode: dict[str, list[Instruction]] = {}
        #: Block-order position of every instruction: use-list
        #: proposals sort by it, so they enumerate in opcode-index order.
        self.instruction_position: dict[Instruction, int] = {}
        for position, instruction in enumerate(function.instructions()):
            self._by_opcode.setdefault(instruction.opcode, []).append(
                instruction
            )
            self.instruction_position[instruction] = position
        #: The function-wide lists proposals hand out uncopied (the
        #: block list and the opcode-index lists), by ``id``.  The plan
        #: engine memoizes them as they are and hashes each one once
        #: (:attr:`~repro.constraints.solver.SharedSolverCache.id_sets`);
        #: holding them here keeps their ids from being recycled.
        self.shared_lists: dict[int, list] = {
            id(shared): shared
            for shared in (function.blocks, *self._by_opcode.values())
        }
        self._uncond_sources: dict[Value, list[BasicBlock]] | None = None
        self._uncond_blocks: list[BasicBlock] | None = None
        self._constant_like: list[Value] | None = None
        self._solver_cache = None
        #: Memoized flow-slice verdicts, keyed by the checking
        #: constraint and the identities of its bound label values —
        #: an analysis cache like the lazy properties below (the
        #: verdict is a pure function of this context and those
        #: bindings), consulted by
        #: :class:`~repro.constraints.flow.ComputedOnlyFrom`.
        self.flow_memo: dict[tuple, bool] = {}
        self._postdom = None
        self._loop_info = None
        self._scev = None
        self._control_deps = None
        self._purity = None

    @property
    def postdom(self) -> DominatorTree:
        if self._postdom is None:
            self._postdom = DominatorTree.compute_post(
                self.function, self.cfg
            )
        return self._postdom

    @property
    def loop_info(self) -> LoopInfo:
        if self._loop_info is None:
            self._loop_info = LoopInfo(self.function, self.cfg, self.dom)
        return self._loop_info

    @property
    def scev(self) -> ScalarEvolution:
        if self._scev is None:
            self._scev = ScalarEvolution(self.function, self.loop_info)
        return self._scev

    @property
    def control_deps(self):
        if self._control_deps is None:
            self._control_deps = control_dependences(
                self.function, self.postdom, self.cfg
            )
        return self._control_deps

    @property
    def purity(self) -> PurityAnalysis | None:
        if self.module is not None and self._purity is None:
            self._purity = PurityAnalysis(self.module)
        return self._purity

    @property
    def solver_cache(self):
        """The search state shared by every spec run on this context.

        Holds memoized proposals (keyed by conjunct identity, so specs
        sharing conjunct objects — e.g. the ``extends for-loop`` family
        — hit each other's entries) and solved base-spec prefixes.
        Created lazily; see :class:`~repro.constraints.solver.
        SharedSolverCache`.
        """
        if self._solver_cache is None:
            from .solver import SharedSolverCache

            self._solver_cache = SharedSolverCache()
        return self._solver_cache

    def reset_solver_cache(self) -> None:
        """Drop the shared search state; the next search starts an
        empty :attr:`solver_cache`.

        The analyses and :attr:`flow_memo` stay.  A context kept across
        requests is reset between them, so each request's effort
        counters are those of a fresh context.
        """
        if self._solver_cache is not None:
            self._solver_cache.clear()
            self._solver_cache = None

    def instructions_with_opcode(self, opcode: str) -> list[Instruction]:
        """All instructions of the function with the given opcode, in
        block order.  Callers must not mutate the returned list."""
        return self._by_opcode.get(opcode, [])

    def blocks(self) -> list[BasicBlock]:
        """All basic blocks of the function.  Callers must not mutate
        the returned list."""
        return self.function.blocks

    def uncond_branch_blocks(self, target: Value | None = None) -> list[BasicBlock]:
        """Blocks ending in an unconditional branch, in block order.

        With ``target``, only the blocks branching to it.  Indexed on
        first use; callers must not mutate the returned list.
        """
        if self._uncond_blocks is None:
            self._uncond_blocks = []
            self._uncond_sources = {}
            for block in self.function.blocks:
                terminator = block.terminator
                if isinstance(terminator, BranchInst) and not terminator.is_conditional:
                    self._uncond_blocks.append(block)
                    self._uncond_sources.setdefault(
                        terminator.targets()[0], []
                    ).append(block)
        if target is None:
            return self._uncond_blocks
        return self._uncond_sources.get(target, [])

    def constant_like(self) -> list[Value]:
        """The constants, arguments and globals of :attr:`universe`, in
        universe order.  Indexed on first use; callers must not mutate
        the returned list."""
        if self._constant_like is None:
            self._constant_like = [
                v
                for v in self.universe
                if isinstance(v, (Constant, Argument, GlobalVariable))
            ]
        return self._constant_like

    def is_pure_call_target(self, function: Function) -> bool:
        """Purity of a callee (module-wide analysis when available)."""
        if self.purity is not None:
            return self.purity.is_pure(function)
        return function.pure


class Constraint:
    """Base class of all constraints.

    Subclasses set :attr:`labels` to the tuple of label names they
    constrain and implement :meth:`check`.
    """

    labels: tuple[str, ...] = ()

    def check(self, ctx: SolverContext, assignment: Assignment) -> bool:
        """Evaluate the constraint; all of ``self.labels`` are bound."""
        raise NotImplementedError

    def partial_check(self, ctx: SolverContext, assignment: Assignment) -> bool:
        """Evaluate with possibly-unbound labels; True means "may hold".

        The default implementation is the paper's ``c_k`` construction
        (§3.3): a constraint whose labels are not yet all assigned is
        replaced by constant true.

        Contract: overrides must agree with :meth:`check` once *all*
        labels are bound (``c_n = c``) — the solver prunes with this
        method only and never re-walks the tree with ``check`` on full
        assignments.  The differential tests enforce this.
        """
        if all(label in assignment for label in self.labels):
            return self.check(ctx, assignment)
        return True

    def propose(
        self, ctx: SolverContext, assignment: Assignment, label: str
    ) -> Iterable[Value] | None:
        """Candidate values for ``label`` under ``assignment``.

        Returning None means "no specific candidates"; the solver then
        falls back to other constraints or the full universe.
        """
        return None

    def never_proposes(self, bound: frozenset, label: str,
                       slot_of: Mapping[str, int]) -> bool:
        """Whether :meth:`propose` returns None for ``label`` on every
        assignment binding exactly ``bound``.

        True lets the plan compiler skip the call (the memo key is
        still recorded, so ``proposal_cache_hits`` is unchanged).  Must
        never answer True where :meth:`propose` can return a list.  The
        default answers True only when the class keeps the base
        :meth:`propose`; ``slot_of`` is the plan's label → slot table
        (see :meth:`compile_partial`).
        """
        return type(self).propose is Constraint.propose

    def propose_implies_partial(self, bound: frozenset, label: str) -> bool:
        """Whether this constraint's own proposals pre-satisfy its check.

        True asserts: whenever exactly ``bound`` is bound and this
        constraint's :meth:`partial_check` held on the path so far,
        :meth:`propose` for ``label`` returns a list (never None) every
        element of which satisfies :meth:`partial_check` at
        ``bound | {label}``.  The solver draws candidates from the
        intersection of all proposals — a subset of this constraint's
        list — so its check at the depth binding ``label`` is implied
        and the plan compiler drops it (counted in
        ``SolverStats.evals_pruned``).  Only the ⊆ direction is
        required; proposals narrower than the satisfying set are fine.

        The default is conservative (False).  Overrides must hold for
        *every* context and assignment matching ``bound`` — a
        value-dependent ``propose`` that can return None must answer
        False for that pattern.
        """
        return False

    # -- plan compilation (the flat-evaluation-plan engine) -------------------

    def compile_partial(self, bound: frozenset, slot_of: Mapping[str, int]):
        """Lower this constraint's partial check for one exact bound set.

        The plan compiler knows, for every depth of the enumeration
        order, precisely which of this constraint's labels are bound
        (``bound``).  The return value is one of

        * :data:`PARTIAL_VACUOUS` — the verdict is constant-true for
          this bound set, so the plan skips the check entirely (counted
          in ``SolverStats.evals_pruned``);
        * a callable ``fn(ctx, slots, view) -> bool`` — a specialized
          evaluator reading values straight out of the solver's slot
          list (``slots[slot_of[label]]``), agreeing with
          :meth:`partial_check` on every assignment binding exactly
          ``bound``;
        * ``None`` — no specialization; the plan wraps
          :meth:`partial_check` generically (never pruned).

        The default lowers the paper's ``c_k`` construction: vacuous
        until every label is bound, then :meth:`compile_check` (or a
        generic :meth:`check` wrapper).  Subclasses that override
        :meth:`partial_check` get ``None`` here unless they also
        override this method — an unmirrored custom partial verdict is
        never silently treated as vacuous.
        """
        if type(self).partial_check is not Constraint.partial_check:
            return None
        if not set(self.labels) <= bound:
            return PARTIAL_VACUOUS
        lowered = self.compile_check(slot_of)
        if lowered is not None:
            return lowered
        # Fully bound with no specialization: wrap check() directly —
        # the bound-set scan partial_check would repeat is already
        # decided at compile time.
        check = self.check

        def run(ctx, slots, view):
            return check(ctx, view)

        return run

    def compile_check(self, slot_of: Mapping[str, int]):
        """A slot-indexed ``fn(ctx, slots, view) -> bool`` agreeing with
        :meth:`check` on full assignments, or None for no
        specialization."""
        return None

    def structural_key(self):
        """A hashable identity for duplicate elimination, or None.

        Two constraints in one spec with equal keys must be
        semantically identical on full assignments of their labels —
        the plan compiler then evaluates only the first.  The default
        recognizes atoms stamped with a ``spec_atom`` tag (the ICSL
        loader's named predicates and flow atoms).
        """
        atom = getattr(self, "spec_atom", None)
        if atom is not None:
            try:
                hash(atom)
            except TypeError:
                return None  # e.g. flow atoms tag themselves with a dict
            return ("named", atom)
        return None

    def implied_structural_keys(self) -> tuple:
        """Keys of constraints this one logically implies when it holds
        on a full assignment (e.g. strict dominance implies dominance).
        A later conjunct whose key appears here is redundant once this
        one passed."""
        return ()

    # -- static analysis (the lint pass) --------------------------------------

    def label_kinds(self) -> tuple[tuple[str, str], ...]:
        """``(label, kind)`` requirements this constraint imposes.

        Kinds name positions in the lint pass's value-kind lattice
        (``repro.constraints.analysis.KIND_PARENT``): ``block``,
        ``value``, ``instruction``, ``constlike``, ``phi``, ``load``,
        ``store``, ``cmp`` — or ``any`` for no requirement.  A label may
        appear more than once; the analyzer meets all requirements and
        reports a conflict (ICSL003) when the meet is empty.  The
        default imposes nothing.
        """
        return ()

    def proposable_labels(self, bound: frozenset) -> frozenset:
        """Own labels :meth:`propose` is *guaranteed* to enumerate
        (return non-None) for, given exactly ``bound`` already bound.

        This is the static mirror of :meth:`propose` consumed by the
        lint pass's use-before-bind analysis (ICSL002): a depth whose
        label no conjunct guarantees to propose falls back to the full
        value universe at runtime.  Must underapproximate — never name
        a label ``propose`` could answer None for.
        """
        return frozenset()

    # -- composition sugar ----------------------------------------------------

    def __and__(self, other: "Constraint") -> "Constraint":
        from .logical import ConstraintAnd

        return ConstraintAnd(self, other)

    def __or__(self, other: "Constraint") -> "Constraint":
        from .logical import ConstraintOr

        return ConstraintOr(self, other)


class IdiomSpec:
    """A named idiom: an ordered label tuple plus its root constraint.

    The label order is the solver's enumeration order; §3.3 notes the
    choice "will be very important for the runtime behavior", so specs
    curate it explicitly (each label should be proposable from the
    labels before it).
    """

    def __init__(self, name: str, label_order: tuple[str, ...],
                 constraint: Constraint, base: "IdiomSpec | None" = None,
                 origin: tuple | None = None,
                 lint_ignores: "Mapping[str, tuple] | Iterable[str]" = ()):
        self.name = name
        self.label_order = tuple(label_order)
        self.constraint = constraint
        missing = set(constraint_labels(constraint)) - set(self.label_order)
        if missing:
            raise ValueError(
                f"spec {name!r}: labels {sorted(missing)} missing from order"
            )
        #: ``(path, line)`` of the defining ``idiom`` header, or None
        #: for specs built in Python (spans for lint diagnostics).
        self.origin = origin
        #: Spec-level lint suppressions: ``code -> (path, line)`` of the
        #: ``# lint: ignore[...]`` comment (None span for API specs).
        if isinstance(lint_ignores, Mapping):
            self.lint_ignores = dict(lint_ignores)
        else:
            self.lint_ignores = {code: None for code in lint_ignores}
        #: The spec named by ``extends`` in ICSL, regardless of whether
        #: the current enumeration order still permits prefix replay.
        #: The lint pass consults this to report (ICSL008) a reorder
        #: that broke the full-prefix property.
        self.declared_base = base
        #: The spec this one extends (``extends`` in ICSL).  When the
        #: extension's label order starts with the base's and the base's
        #: conjunct objects are reused verbatim, the solver can replay
        #: the base's solved prefix instead of re-enumerating it (see
        #: :class:`~repro.constraints.solver.SharedSolverCache`).
        self.base = base if base is not None and self._extends(base) else None

    def _extends(self, base: "IdiomSpec") -> bool:
        """Whether this spec's enumeration order starts with ``base``'s."""
        n = len(base.label_order)
        return (
            len(self.label_order) > n and self.label_order[:n] == base.label_order
        )

    def shared_prefix_len(self) -> int:
        """Length of the label-order prefix shared with the declared
        base (reported by lint's ICSL008).  Zero when there is no
        declared base or the orders diverge immediately; equals the
        base's full order length exactly when :attr:`base` is set —
        any shorter shared prefix buys nothing, because the search
        then starts from depth 0."""
        base = self.declared_base
        if base is None:
            return 0
        n = 0
        for mine, theirs in zip(self.label_order, base.label_order):
            if mine != theirs:
                break
            n += 1
        return n

    def reordered(self, label_order: tuple[str, ...]) -> "IdiomSpec":
        """The same spec with a different enumeration order (ablation).

        The declared base travels along: an order that restores (or
        keeps) the base's prefix re-enables full replay; any other
        order searches from depth 0.
        """
        return IdiomSpec(self.name, label_order, self.constraint,
                         base=self.declared_base, origin=self.origin,
                         lint_ignores=self.lint_ignores)


def top_level_conjuncts(constraint: Constraint) -> list[Constraint]:
    """The spec's top-level conjunct list — its root And's children, or
    the root itself.  One definition shared by the interpreted engine,
    the plan compiler, the ICSL ``extends`` loader and the lint pass, so
    "conjunct index i" means the same thing everywhere."""
    from .logical import ConstraintAnd

    if isinstance(constraint, ConstraintAnd):
        return list(constraint.children)
    return [constraint]


def constraint_labels(constraint: Constraint) -> set[str]:
    """All labels mentioned anywhere in a constraint tree."""
    from .logical import ConstraintAnd, ConstraintOr

    if isinstance(constraint, (ConstraintAnd, ConstraintOr)):
        result: set[str] = set()
        for child in constraint.children:
            result |= constraint_labels(child)
        return result
    return set(constraint.labels)
