"""Generalized graph domination — the paper's flow constraints.

§3.1.2 describes the key non-structural constraint family: a condition
specifies *a set of allowed input values* for an expression computing a
single output, and requires that **every path to the output value in
both the control dominance graph and the data flow graph passes through
at least one allowed input**.  Memory reads and impure calls are the
potential "origins" that must be explicitly allowed.

:class:`FlowPolicy` describes the allowed set for one slice, and
:class:`FlowChecker` performs the combined data/control walk:

* data edges: instruction operands, PHI incomings, pure-call arguments;
* control edges: from any in-loop instruction to the branch conditions
  it is control dependent on (the spec loop's own header is exempt —
  the iteration space is part of the idiom, §3.1.1 condition 1);
* loads are allowed origins only if their base pointer is loop
  invariant, is not one of the forbidden bases (e.g. the histogram
  array itself) and is never stored to inside the loop — and their
  index expression must itself be allowed-composed (this is what lets
  tpacf's binary-search histogram index through, §6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.loops import Loop
from ..ir.block import BasicBlock
from ..ir.instructions import (
    AllocaInst,
    BranchInst,
    CallInst,
    GEPInst,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
)
from ..ir.values import Constant, Value
from .core import Assignment, Constraint, SolverContext


def root_base(pointer: Value) -> Value:
    """Strip ``gep`` chains from a pointer to find the underlying array."""
    while isinstance(pointer, GEPInst):
        pointer = pointer.base
    return pointer


def stored_bases(loop: Loop) -> set[int]:
    """ids of every base pointer stored to anywhere inside ``loop``."""
    result: set[int] = set()
    for block in loop.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, StoreInst):
                result.add(id(root_base(instruction.pointer)))
    return result


@dataclass
class FlowPolicy:
    """The allowed-input set for one generalized-domination slice."""

    #: Values accepted as origins outright (e.g. the accumulator PHI for
    #: the data slice of a scalar reduction, or the histogram load).
    extra_sources: tuple[Value, ...] = ()
    #: Values rejected outright (e.g. the loop iterator: the paper's
    #: reduction conditions compose updates from array values and loop
    #: constants only, never the iterator itself).
    rejected: tuple[Value, ...] = ()
    #: Base pointers loads may never come from (the histogram array).
    forbidden_bases: tuple[Value, ...] = ()
    #: Whether in-loop memory reads are allowed at all.
    allow_loads: bool = True
    #: Values additionally allowed inside *address* computations — the
    #: loop iterator may index arrays even though it may not feed the
    #: reduced value itself.
    index_sources: tuple[Value, ...] = ()
    #: When True, load indices must be affine in the loop nest (the
    #: scalar reduction condition 3); when False, indices only need to
    #: be allowed-composed (histograms: binary-search indices etc.).
    require_affine_index: bool = False

    def __post_init__(self) -> None:
        self._source_ids = {id(v) for v in self.extra_sources}
        self._rejected_ids = {id(v) for v in self.rejected}
        self._forbidden_ids = {id(v) for v in self.forbidden_bases}

    def for_index(self) -> "FlowPolicy":
        """The derived policy used for address computations."""
        merged = self.extra_sources + tuple(
            v for v in self.index_sources if id(v) not in self._source_ids
        )
        index_ids = {id(v) for v in self.index_sources}
        return FlowPolicy(
            extra_sources=merged,
            rejected=tuple(v for v in self.rejected if id(v) not in index_ids),
            forbidden_bases=self.forbidden_bases,
            allow_loads=self.allow_loads,
            index_sources=self.index_sources,
            require_affine_index=self.require_affine_index,
        )


@dataclass
class FlowResult:
    """Outcome of a generalized graph domination check."""

    ok: bool
    reason: str = ""
    #: Every value visited on the data walk (used for the
    #: "accumulator is only used inside its own update" post-check).
    visited: set[int] = field(default_factory=set)
    #: The loads accepted as origins.
    loads: list[LoadInst] = field(default_factory=list)
    #: The pure calls traversed.
    calls: list[CallInst] = field(default_factory=list)


class FlowChecker:
    """Performs generalized graph domination walks within one loop."""

    def __init__(
        self,
        ctx: SolverContext,
        loop: Loop,
        exempt_blocks: tuple[BasicBlock, ...] = (),
    ):
        self.ctx = ctx
        self.loop = loop
        self.exempt = {id(b) for b in exempt_blocks}
        self._stored_bases = stored_bases(loop)

    def check(
        self,
        output: Value,
        data_policy: FlowPolicy,
        control_policy: FlowPolicy | None = None,
    ) -> FlowResult:
        """Check that ``output`` is computed only from allowed inputs.

        ``control_policy`` (defaults to ``data_policy``) governs branch
        conditions: for reductions it must not include the accumulator,
        which is how the §2 counterexample (``t1 <= sx``) is rejected.
        """
        control_policy = control_policy or data_policy
        result = FlowResult(True)
        # Two visited sets: a value may be legal for the data slice but
        # still need re-examination under the stricter control policy.
        data_seen: set[int] = set()
        control_seen: set[int] = set()

        def fail(reason: str) -> bool:
            result.ok = False
            if not result.reason:
                result.reason = reason
            return False

        def visit(value: Value, policy: FlowPolicy, seen: set[int]) -> bool:
            if id(value) in seen:
                return True
            seen.add(id(value))
            if seen is data_seen:
                result.visited.add(id(value))
            if id(value) in policy._rejected_ids:
                return fail(f"forbidden value {value.short_name()}")
            if id(value) in policy._source_ids:
                return True
            if isinstance(value, Constant):
                return True
            if not isinstance(value, Instruction):
                # Arguments, globals, block labels: fixed before the loop.
                return True
            if value.parent not in self.loop.blocks:
                # Defined outside the loop: loop invariant.
                return True
            if not self._visit_control(value, control_policy, control_seen,
                                       fail, visit):
                return False
            if isinstance(value, LoadInst):
                return self._visit_load(value, policy, seen, fail, visit,
                                        result)
            if isinstance(value, CallInst):
                if not self.ctx.is_pure_call_target(value.callee):
                    return fail(
                        f"impure call to {value.callee.name}"
                    )
                result.calls.append(value)
                return all(visit(a, policy, seen) for a in value.args)
            if isinstance(value, PhiInst):
                if value.parent is self.loop.header:
                    # A PHI at the spec loop's header is a loop-carried
                    # intermediate result (the §2 counterexample: a
                    # condition reading another accumulator).  Only the
                    # explicitly allowed sources (the accumulator, the
                    # iterator inside addresses) may cross iterations.
                    return fail(
                        f"loop-carried value {value.short_name()} is not an "
                        f"allowed source"
                    )
                for incoming_value, pred in value.incoming:
                    if not visit(incoming_value, policy, seen):
                        return False
                    if not self._visit_edge_control(
                        pred, control_policy, control_seen, visit
                    ):
                        return False
                return True
            if isinstance(value, (StoreInst, BranchInst, AllocaInst)):
                return fail(f"illegal value kind {value.opcode}")
            return all(visit(op, policy, seen) for op in value.operands)

        try:
            ok = visit(output, data_policy, data_seen)
        finally:
            # ``visit`` closes over itself and ``self``: break that
            # cycle, or it keeps the whole SolverContext alive until
            # the next full garbage collection.
            visit = None
        result.ok = ok and result.ok
        return result

    # -- helpers -----------------------------------------------------------

    def _visit_load(self, load: LoadInst, policy: FlowPolicy, seen, fail,
                    visit, result: FlowResult) -> bool:
        if not policy.allow_loads:
            return fail("loads are not allowed in this slice")
        pointer = load.pointer
        base = root_base(pointer)
        if id(base) in policy._forbidden_ids:
            return fail(
                f"load from forbidden base {base.short_name()}"
            )
        if isinstance(base, Instruction) and base.parent in self.loop.blocks:
            return fail(
                f"load base {base.short_name()} is not loop invariant"
            )
        if id(base) in self._stored_bases:
            return fail(
                f"load from base {base.short_name()} that the loop stores to"
            )
        if isinstance(pointer, GEPInst):
            if policy.require_affine_index:
                if self.ctx.scev.affine_at(pointer.index, self.loop) is None:
                    return fail(
                        f"load index {pointer.index.short_name()} is not "
                        f"affine in the loop iterator"
                    )
                result.loads.append(load)
                return True
            # Address computations use the derived index policy: the
            # iterator is permitted there even when the value slice
            # rejects it.
            index_seen: set[int] = set()
            if not visit(pointer.index, policy.for_index(), index_seen):
                return False
            result.loads.append(load)
            return True
        result.loads.append(load)
        return True

    def _visit_control(self, value: Instruction, policy: FlowPolicy,
                       seen, fail, visit) -> bool:
        block = value.parent
        if block is None:
            return True
        for controller in self.ctx.control_deps.get(block, ()):
            if id(controller) in self.exempt:
                continue
            if controller not in self.loop.blocks:
                continue
            terminator = controller.terminator
            if isinstance(terminator, BranchInst) and terminator.is_conditional:
                if not visit(terminator.condition, policy, seen):
                    return False
        return True

    def _visit_edge_control(self, pred: BasicBlock, policy: FlowPolicy,
                            seen, visit) -> bool:
        """PHI selection depends on which predecessor edge was taken."""
        if pred not in self.loop.blocks or id(pred) in self.exempt:
            return True
        terminator = pred.terminator
        if isinstance(terminator, BranchInst) and terminator.is_conditional:
            if not visit(terminator.condition, policy, seen):
                return False
        for controller in self.ctx.control_deps.get(pred, ()):
            if id(controller) in self.exempt or controller not in self.loop.blocks:
                continue
            terminator = controller.terminator
            if isinstance(terminator, BranchInst) and terminator.is_conditional:
                if not visit(terminator.condition, policy, seen):
                    return False
        return True


class ComputedOnlyFrom(Constraint):
    """Constraint adapter for generalized graph domination.

    ``policy_factory(ctx, assignment)`` builds the (data, control)
    policies once the structural labels are bound; ``output`` and
    ``header`` name the sliced value and the spec loop's header block.
    """

    def __init__(self, output: str, header: str, policy_factory,
                 extra_labels: tuple[str, ...] = ()):
        self.labels = tuple(dict.fromkeys((output, header) + extra_labels))
        self.output_label = output
        self.header_label = header
        self.policy_factory = policy_factory
        #: What the flow memo knows this check by: the policy's
        #: description for a declarative flow, so a memo kept with the
        #: function pins no registry's constraint objects and serves
        #: every registry; the constraint itself otherwise.
        self.memo_key = None

    def label_kinds(self):
        pairs = [(self.output_label, "value"), (self.header_label, "block")]
        pairs.extend(
            (label, "value")
            for label in self.labels
            if label != self.output_label and label != self.header_label
        )
        return tuple(pairs)

    def check(self, ctx: SolverContext, assignment: Assignment) -> bool:
        # The verdict is a pure function of the function's analyses,
        # its callees' purity and this policy's bound label values, and
        # the same slice is re-checked across specs sharing conjuncts,
        # across prefix replays and across requests for an unchanged
        # function — see ``SolverContext.flow_memo``.  Value ids are
        # stable while the memo lives: the function's analysis cache
        # keeps its values alive.
        key = (self.memo_key or self,) + tuple(
            id(assignment[label]) for label in self.labels
        )
        memo = ctx.flow_memo
        verdict = memo.get(key)
        if verdict is None:
            verdict = self._check(ctx, assignment)
            memo[key] = verdict
        return verdict

    def _check(self, ctx: SolverContext, assignment: Assignment) -> bool:
        header = assignment[self.header_label]
        if not isinstance(header, BasicBlock):
            return False
        loop = ctx.loop_info.loop_with_header(header)
        if loop is None:
            return False
        data_policy, control_policy = self.policy_factory(ctx, assignment)
        checker = FlowChecker(ctx, loop, exempt_blocks=(header,))
        return checker.check(
            assignment[self.output_label], data_policy, control_policy
        ).ok


def declarative_flow(
    output: str,
    header: str,
    sources: tuple[str, ...] = (),
    rejected: tuple[str, ...] = (),
    forbidden: tuple[str, ...] = (),
    index: tuple[str, ...] = (),
    affine: bool = False,
    loads: bool = True,
) -> ComputedOnlyFrom:
    """A :class:`ComputedOnlyFrom` whose policies are described by label
    names instead of a Python factory — the ICSL ``flow(...)`` atom.

    The data slice allows the ``sources`` labels as origins and rejects
    the ``rejected`` ones; the control slice is derived by additionally
    rejecting the sources (§3.1.1: branch conditions may not observe
    partial results — this is what rejects the §2 ``t1 <= sx``
    counterexample).  ``forbidden`` names base pointers loads may never
    come from, ``index`` names values allowed inside address
    computations only, ``affine`` requires load indices affine in the
    loop nest, and ``loads=False`` forbids in-loop reads entirely.
    """
    sources = tuple(sources)
    rejected = tuple(rejected)
    forbidden = tuple(forbidden)
    index = tuple(index)

    def factory(ctx, assignment):
        def resolve(names: tuple[str, ...]):
            return tuple(assignment[n] for n in names)

        data = FlowPolicy(
            extra_sources=resolve(sources),
            rejected=resolve(rejected),
            forbidden_bases=resolve(forbidden),
            allow_loads=loads,
            index_sources=resolve(index),
            require_affine_index=affine,
        )
        control = FlowPolicy(
            rejected=resolve(rejected) + resolve(sources),
            forbidden_bases=resolve(forbidden),
            allow_loads=loads,
            index_sources=resolve(index),
            require_affine_index=affine,
        )
        return data, control

    extra = tuple(dict.fromkeys(sources + rejected + forbidden + index))
    constraint = ComputedOnlyFrom(output, header, factory, extra_labels=extra)
    constraint.memo_key = ("flow", output, header, sources, rejected,
                           forbidden, index, affine, loads)
    constraint.spec_atom = (
        "flow",
        {
            "output": output,
            "header": header,
            "sources": sources,
            "rejected": rejected,
            "forbidden": forbidden,
            "index": index,
            "affine": affine,
            "loads": loads,
        },
    )
    return constraint
