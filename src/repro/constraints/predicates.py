"""Named predicate atoms: the Python predicates ICSL spec files name.

The Fig. 5-style structural atoms cover most of an idiom, but each of
the shipped idioms also needs a handful of conditions that are cheap to
state as Python predicates (e.g. "the bound blocks form a natural loop
headed by ``header``").  So that ``.icsl`` files can state them, every
such predicate lives here as a **named factory**: given label names it
returns a :class:`~repro.constraints.atomic.Predicate` bound to those
labels, and the factory's name doubles as an ICSL atom —

    natural_loop(header, body, latch, entry, exit)
    update_in_loop(header, acc_update)

Use :func:`register_predicate_atom` to add new named predicates; the
spec-file parser resolves atoms through :data:`PREDICATE_ATOMS`, and a
spec built in Python calls the same factories.
"""

from __future__ import annotations

from typing import Callable

from ..ir.block import BasicBlock
from ..ir.instructions import (
    FCmpInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
)
from ..ir.values import Value
from .atomic import Predicate

#: name -> factory(*label_names) -> Predicate
PREDICATE_ATOMS: dict[str, Callable[..., Predicate]] = {}


def register_predicate_atom(name: str):
    """Register ``factory`` as the named ICSL predicate atom ``name``."""

    def decorate(factory: Callable[..., Predicate]):
        PREDICATE_ATOMS[name] = factory
        factory.atom_name = name
        return factory

    return decorate


#: Value-kind requirements each named predicate imposes on its label
#: positions (see :meth:`Constraint.label_kinds`); consumed by the lint
#: pass's domain analysis (ICSL003).
_PREDICATE_KINDS: dict[str, tuple[str, ...]] = {
    "natural_loop": ("block", "block", "block", "block", "block"),
    "update_in_loop": ("block", "instruction"),
    "store_directly_in_loop": ("block", "store"),
    "load_before_store": ("load", "store"),
    "ordering_cmp": ("cmp",),
    "same_join": ("phi", "phi"),
    "guard_matches_candidate": ("cmp", "value", "value"),
    "store_in_subloop": ("block", "store"),
}


def _named(name: str, labels: tuple[str, ...], fn) -> Predicate:
    predicate = Predicate(
        labels, fn, name=name, kinds=_PREDICATE_KINDS.get(name)
    )
    predicate.spec_atom = (name, labels)
    return predicate


@register_predicate_atom("natural_loop")
def natural_loop(header: str, body: str, latch: str, entry: str,
                 exit: str) -> Predicate:
    """The bound blocks form a natural loop headed by ``header``, with
    ``body``/``latch`` inside it and ``entry``/``exit`` outside."""

    def fn(ctx, assignment):
        head = assignment[header]
        if not isinstance(head, BasicBlock):
            return False
        loop = ctx.loop_info.loop_with_header(head)
        if loop is None:
            return False
        return (
            assignment[body] in loop.blocks
            and assignment[latch] in loop.blocks
            and assignment[entry] not in loop.blocks
            and assignment[exit] not in loop.blocks
        )

    return _named("natural_loop", (header, body, latch, entry, exit), fn)


@register_predicate_atom("update_in_loop")
def update_in_loop(header: str, update: str) -> Predicate:
    """``update`` is an instruction computed inside the natural loop
    headed by ``header`` (it changes per iteration)."""

    def fn(ctx, assignment):
        head = assignment[header]
        upd = assignment[update]
        if not isinstance(head, BasicBlock) or not isinstance(upd, Instruction):
            return False
        loop = ctx.loop_info.loop_with_header(head)
        return loop is not None and upd.parent in loop.blocks

    return _named("update_in_loop", (header, update), fn)


@register_predicate_atom("store_directly_in_loop")
def store_directly_in_loop(header: str, store: str) -> Predicate:
    """``store``'s innermost enclosing loop is the loop headed by
    ``header`` (not a nested loop — §6.1's SP miss)."""

    def fn(ctx, assignment):
        head = assignment[header]
        st = assignment[store]
        if not isinstance(head, BasicBlock) or not isinstance(st, StoreInst):
            return False
        loop = ctx.loop_info.loop_with_header(head)
        if loop is None or st.parent not in loop.blocks:
            return False
        return ctx.loop_info.innermost_loop_of(st.parent) is loop

    return _named("store_directly_in_loop", (header, store), fn)


@register_predicate_atom("load_before_store")
def load_before_store(load: str, store: str) -> Predicate:
    """``load`` and ``store`` form one read-modify-write: both in the
    same block, the read before the write."""

    def fn(ctx, assignment):
        ld = assignment[load]
        st = assignment[store]
        if not isinstance(ld, LoadInst) or not isinstance(st, StoreInst):
            return False
        block = ld.parent
        if block is None or block is not st.parent:
            return False
        return block.instructions.index(ld) < block.instructions.index(st)

    return _named("load_before_store", (load, store), fn)


# -- extension-idiom predicates (§8 future work) ------------------------------

#: Comparison predicates establishing an ordering (min/max tracking).
ORDERING_PREDICATES = frozenset(
    {"olt", "ogt", "slt", "sgt", "ole", "oge", "sle", "sge"}
)


@register_predicate_atom("ordering_cmp")
def ordering_cmp(cmp: str) -> Predicate:
    """``cmp`` is a comparison that establishes an ordering (one of the
    less/greater predicates — equality tests track no best value)."""

    def fn(ctx, assignment):
        value = assignment[cmp]
        if isinstance(value, (FCmpInst, ICmpInst)):
            return value.predicate in ORDERING_PREDICATES
        return False

    return _named("ordering_cmp", (cmp,), fn)


@register_predicate_atom("same_join")
def same_join(a: str, b: str) -> Predicate:
    """``a`` and ``b`` are PHIs in the same join block — the pair of
    selections one guard produces (argmin/argmax's value and index)."""

    def fn(ctx, assignment):
        first = assignment[a]
        second = assignment[b]
        return (
            isinstance(first, PhiInst)
            and isinstance(second, PhiInst)
            and first.parent is second.parent
        )

    return _named("same_join", (a, b), fn)


def structurally_equal(a: Value, b: Value, depth: int = 0) -> bool:
    """Value equivalence modulo cross-block redundancy.

    The frontend only CSEs within blocks, so a guard's ``a[i]`` load
    and the assigned ``a[i]`` load are distinct instructions; they are
    still the same value because the loads read the same address with
    no intervening store (the idiom's flow conditions guarantee the
    array is read-only in the loop).
    """
    if a is b:
        return True
    if depth > 6:
        return False
    from ..ir.instructions import BinaryInst, CastInst, GEPInst
    from ..ir.values import ConstantFloat, ConstantInt

    if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
        return a.value == b.value
    if isinstance(a, ConstantFloat) and isinstance(b, ConstantFloat):
        return a.value == b.value
    if isinstance(a, LoadInst) and isinstance(b, LoadInst):
        return structurally_equal(a.pointer, b.pointer, depth + 1)
    if isinstance(a, GEPInst) and isinstance(b, GEPInst):
        return a.base is b.base and structurally_equal(
            a.index, b.index, depth + 1
        )
    if isinstance(a, BinaryInst) and isinstance(b, BinaryInst):
        return a.opcode == b.opcode and structurally_equal(
            a.lhs, b.lhs, depth + 1
        ) and structurally_equal(a.rhs, b.rhs, depth + 1)
    if isinstance(a, CastInst) and isinstance(b, CastInst):
        return a.opcode == b.opcode and structurally_equal(
            a.value, b.value, depth + 1
        )
    return False


@register_predicate_atom("guard_matches_candidate")
def guard_matches_candidate(cmp: str, best: str, candidate: str) -> Predicate:
    """The guard compares (a value structurally equal to) ``candidate``
    against the tracked ``best`` value."""

    def fn(ctx, assignment):
        guard = assignment[cmp]
        tracked = assignment[best]
        wanted = assignment[candidate]
        if not isinstance(guard, (FCmpInst, ICmpInst)):
            return False
        if guard.lhs is tracked:
            other = guard.rhs
        elif guard.rhs is tracked:
            other = guard.lhs
        else:
            return False
        return structurally_equal(other, wanted)

    return _named("guard_matches_candidate", (cmp, best, candidate), fn)


@register_predicate_atom("store_in_subloop")
def store_in_subloop(header: str, store: str) -> Predicate:
    """``store`` sits in a loop *strictly inside* the loop headed by
    ``header`` — the complement of :func:`store_directly_in_loop`, so
    the nested-array-reduction idiom never double-reports a regular
    histogram."""

    def fn(ctx, assignment):
        head = assignment[header]
        st = assignment[store]
        if not isinstance(head, BasicBlock) or not isinstance(st, StoreInst):
            return False
        loop = ctx.loop_info.loop_with_header(head)
        if loop is None or st.parent not in loop.blocks:
            return False
        return ctx.loop_info.innermost_loop_of(st.parent) is not loop

    return _named("store_in_subloop", (header, store), fn)
