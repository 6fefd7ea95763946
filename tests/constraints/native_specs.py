"""The six shipped idiom specs, built in Python: the reference that the
``.icsl`` files under ``src/repro/constraints/specs/`` are checked
against.

Detection only ever loads the ``.icsl`` files (through
:class:`~repro.idioms.IdiomRegistry`).  These builders are a second,
independent transliteration of the paper's figures from the same named
predicate atoms (:mod:`repro.constraints.predicates`) and flow policies,
so ``test_file_spec_matches_native_spec`` can compare the two solution
for solution.

Each builder constructs a fresh for-loop conjunction and declares no
``base``, so a native spec never replays a solved for-loop prefix: its
search counters are those of one plain depth-first search, which is
what the naive-walk and enumeration-order comparisons
(``test_incremental.py``, ``benchmarks/bench_solver_order.py``) need.

Label names follow Fig. 5 (for loop), §3.1.1 (scalar reduction),
§3.1.2 (histogram) and the §8 extension idioms; the ``.icsl`` headers
explain each condition.
"""

from repro.constraints import (
    Assignment,
    ComputedOnlyFrom,
    ConstraintAnd,
    ConstraintOr,
    DefDominatesBlock,
    Distinct,
    Dominates,
    EndsInCondBranch,
    EndsInUncondBranch,
    FlowPolicy,
    IdiomSpec,
    InBlock,
    IsConstantLike,
    Opcode,
    PhiIncomingFromBlock,
    PhiOfTwo,
    SESERegion,
    SolverContext,
    declarative_flow,
)
from repro.constraints.predicates import (
    guard_matches_candidate,
    load_before_store,
    natural_loop,
    ordering_cmp,
    same_join,
    store_directly_in_loop,
    store_in_subloop,
    update_in_loop,
)

# -- for loop (Fig. 5) --------------------------------------------------------

#: Each label is proposable from the ones before it (§3.3).
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
    """The conjunction of Fig. 5, built afresh on every call."""
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
    return IdiomSpec("for-loop", FOR_LOOP_LABEL_ORDER, for_loop_constraint())


# -- scalar reduction (§3.1.1) ------------------------------------------------

SCALAR_REDUCTION_LABEL_ORDER: tuple[str, ...] = FOR_LOOP_LABEL_ORDER + (
    "acc",
    "acc_update",
    "acc_init",
)


def _reduction_policies(ctx: SolverContext, assignment: Assignment):
    """Data slice: the accumulator, affine loads, invariants.  Control
    slice: the same minus the accumulator."""
    acc = assignment["acc"]
    iterator = assignment["iterator"]
    data = FlowPolicy(
        extra_sources=(acc,),
        rejected=(iterator,),
        index_sources=(iterator,),
        require_affine_index=True,
    )
    control = FlowPolicy(
        extra_sources=(),
        rejected=(iterator, acc),
        index_sources=(iterator,),
        require_affine_index=True,
    )
    return data, control


def scalar_reduction_spec() -> IdiomSpec:
    constraint = ConstraintAnd(
        for_loop_constraint(),
        PhiOfTwo("acc", "acc_update", "acc_init"),
        InBlock("acc", "header"),
        PhiIncomingFromBlock("acc", "acc_update", "latch"),
        PhiIncomingFromBlock("acc", "acc_init", "entry"),
        Distinct("acc", "iterator"),
        Distinct("acc", "acc_update"),
        loop_invariant_in("acc_init", "entry"),
        update_in_loop("header", "acc_update"),
        ComputedOnlyFrom(
            "acc_update",
            "header",
            _reduction_policies,
            extra_labels=("acc", "iterator"),
        ),
    )
    return IdiomSpec(
        "scalar-reduction", SCALAR_REDUCTION_LABEL_ORDER, constraint
    )


# -- histogram (§3.1.2) -------------------------------------------------------

HISTOGRAM_LABEL_ORDER: tuple[str, ...] = FOR_LOOP_LABEL_ORDER + (
    "hist_store",
    "gep_st",
    "base",
    "idx",
    "gep_ld",
    "hist_load",
    "update",
)


def _idx_policies(ctx: SolverContext, assignment: Assignment):
    """Allowed inputs for the bin index (condition 3)."""
    iterator = assignment["iterator"]
    base = assignment["base"]
    policy = FlowPolicy(
        rejected=(iterator,),
        forbidden_bases=(base,),
        index_sources=(iterator,),
    )
    return policy, policy


def _update_policies(ctx: SolverContext, assignment: Assignment):
    """Allowed inputs for the new bin value (condition 5)."""
    iterator = assignment["iterator"]
    base = assignment["base"]
    load = assignment["hist_load"]
    data = FlowPolicy(
        extra_sources=(load,),
        rejected=(iterator,),
        forbidden_bases=(base,),
        index_sources=(iterator,),
    )
    control = FlowPolicy(
        rejected=(iterator, load),
        forbidden_bases=(base,),
        index_sources=(iterator,),
    )
    return data, control


def histogram_spec() -> IdiomSpec:
    constraint = ConstraintAnd(
        for_loop_constraint(),
        Opcode("hist_store", "store", ("update", "gep_st")),
        Opcode("gep_st", "gep", ("base", "idx")),
        Opcode("gep_ld", "gep", ("base", "idx")),
        Opcode("hist_load", "load", ("gep_ld",)),
        loop_invariant_in("base", "entry"),
        store_directly_in_loop("header", "hist_store"),
        load_before_store("hist_load", "hist_store"),
        ComputedOnlyFrom(
            "idx",
            "header",
            _idx_policies,
            extra_labels=("iterator", "base"),
        ),
        ComputedOnlyFrom(
            "update",
            "header",
            _update_policies,
            extra_labels=("iterator", "base", "hist_load"),
        ),
    )
    return IdiomSpec("histogram", HISTOGRAM_LABEL_ORDER, constraint)


# -- §8 extension idioms ------------------------------------------------------

DOT_PRODUCT_LABEL_ORDER: tuple[str, ...] = FOR_LOOP_LABEL_ORDER + (
    "acc", "update", "acc_init", "product", "load_a", "load_b",
    "gep_a", "gep_b", "base_a", "base_b",
)


def dot_product_spec() -> IdiomSpec:
    """``acc' = acc + a[i] * b[i]`` with two distinct arrays."""
    constraint = ConstraintAnd(
        for_loop_constraint(),
        PhiOfTwo("acc", "update", "acc_init"),
        InBlock("acc", "header"),
        PhiIncomingFromBlock("acc", "update", "latch"),
        PhiIncomingFromBlock("acc", "acc_init", "entry"),
        loop_invariant_in("acc_init", "entry"),
        Opcode("update", "fadd", ("acc", "product"), commutative=True),
        Opcode("product", "fmul", ("load_a", "load_b"), commutative=True),
        Opcode("load_a", "load", ("gep_a",)),
        Opcode("load_b", "load", ("gep_b",)),
        Opcode("gep_a", "gep", ("base_a", None)),
        Opcode("gep_b", "gep", ("base_b", None)),
        Distinct("base_a", "base_b"),
        Distinct("acc", "iterator"),
        declarative_flow("update", "header", sources=("acc",),
                         rejected=("iterator",), index=("iterator",),
                         affine=True),
    )
    return IdiomSpec("dot-product", DOT_PRODUCT_LABEL_ORDER, constraint)


ARGMINMAX_LABEL_ORDER: tuple[str, ...] = FOR_LOOP_LABEL_ORDER + (
    "best", "best_update", "best_init",
    "candidate",
    "pos", "pos_update", "pos_init", "pos_candidate",
    "cmp",
)


def argminmax_spec() -> IdiomSpec:
    """``if (cmp(a[i], best)) { best = a[i]; pos = i; }``"""
    constraint = ConstraintAnd(
        for_loop_constraint(),
        PhiOfTwo("best", "best_update", "best_init"),
        InBlock("best", "header"),
        PhiIncomingFromBlock("best", "best_update", "latch"),
        PhiIncomingFromBlock("best", "best_init", "entry"),
        loop_invariant_in("best_init", "entry"),
        PhiOfTwo("pos", "pos_update", "pos_init"),
        InBlock("pos", "header"),
        PhiIncomingFromBlock("pos", "pos_update", "latch"),
        PhiIncomingFromBlock("pos", "pos_init", "entry"),
        loop_invariant_in("pos_init", "entry"),
        Distinct("best", "pos", "iterator"),
        PhiOfTwo("best_update", "best", "candidate"),
        PhiOfTwo("pos_update", "pos", "pos_candidate"),
        same_join("best_update", "pos_update"),
        Opcode("cmp", ("fcmp", "icmp"), (None, None)),
        ordering_cmp("cmp"),
        guard_matches_candidate("cmp", "best", "candidate"),
    )
    return IdiomSpec("argminmax", ARGMINMAX_LABEL_ORDER, constraint)


NESTED_ARRAY_LABEL_ORDER: tuple[str, ...] = FOR_LOOP_LABEL_ORDER + (
    "arr_store", "gep_st", "base", "idx", "gep_ld", "arr_load", "update",
)


def nested_array_reduction_spec() -> IdiomSpec:
    """An array reduction carried by a non-innermost loop (SP's ``rms``)."""
    constraint = ConstraintAnd(
        for_loop_constraint(),
        Opcode("arr_store", "store", ("update", "gep_st")),
        Opcode("gep_st", "gep", ("base", "idx")),
        Opcode("gep_ld", "gep", ("base", "idx")),
        Opcode("arr_load", "load", ("gep_ld",)),
        loop_invariant_in("base", "entry"),
        store_in_subloop("header", "arr_store"),
        load_before_store("arr_load", "arr_store"),
        declarative_flow("idx", "header", rejected=("iterator",),
                         forbidden=("base",)),
        declarative_flow("update", "header", sources=("arr_load",),
                         rejected=("iterator",), forbidden=("base",),
                         index=("iterator",)),
    )
    return IdiomSpec(
        "nested-array-reduction", NESTED_ARRAY_LABEL_ORDER, constraint
    )


#: Idiom name → builder, one per shipped ``.icsl`` idiom.
NATIVE_SPECS = {
    "for-loop": for_loop_spec,
    "scalar-reduction": scalar_reduction_spec,
    "histogram": histogram_spec,
    "dot-product": dot_product_spec,
    "argminmax": argminmax_spec,
    "nested-array-reduction": nested_array_reduction_spec,
}
