"""Logical combinators: conjunction and disjunction of constraints.

These correspond to the ``ConstraintAnd``/``ConstraintOr`` classes the
paper's C++ DSL provides (Fig. 7) and to the ∧/∨ operators of the
description language (Fig. 5).
"""

from __future__ import annotations

from typing import Iterable

from ..ir.values import Value
from .core import Assignment, Constraint, SolverContext


def intersect_proposals(
    proposals: list[list[Value]], id_sets: dict | None = None
) -> list[Value]:
    """Intersect candidate lists, keeping the order of the smallest.

    Shared by :meth:`ConstraintAnd.propose` and the compiled solver's
    proposal path so the two can never diverge in ordering or dedup
    semantics (the solver guarantees identical enumeration).

    ``id_sets`` maps the ids of function-wide lists to their id-sets
    (None until first needed); such a list is hashed once and its set
    reused.  Every other list is hashed afresh.
    """
    if len(proposals) == 1:
        return proposals[0]
    proposals.sort(key=len)
    result = proposals[0]
    for other in proposals[1:]:
        key = id(other)
        other_ids = id_sets.get(key) if id_sets else None
        if other_ids is None:
            other_ids = {id(v) for v in other}
            if id_sets is not None and key in id_sets:
                id_sets[key] = other_ids
        result = [v for v in result if id(v) in other_ids]
    return result


def _flatten(kind, constraints):
    flat: list[Constraint] = []
    for constraint in constraints:
        if isinstance(constraint, kind):
            flat.extend(constraint.children)
        else:
            flat.append(constraint)
    return flat


#: Marker for a child whose partial verdict is constant-true at the
#: bound set being compiled (see :func:`_compile_children`).
_CHILD_VACUOUS = object()


def _generic_child(child: Constraint):
    partial = child.partial_check

    def run(ctx, slots, view):
        return partial(ctx, view)

    return run


def _compile_children(children, bound, slot_of):
    """Lower each child for one bound set; vacuous children become
    :data:`_CHILD_VACUOUS`, unlowerable ones a ``partial_check``
    wrapper."""
    from .core import PARTIAL_VACUOUS

    subs = []
    for child in children:
        lowered = child.compile_partial(bound, slot_of)
        if lowered is PARTIAL_VACUOUS:
            subs.append(_CHILD_VACUOUS)
        elif lowered is None:
            subs.append(_generic_child(child))
        else:
            subs.append(lowered)
    return subs


class ConstraintAnd(Constraint):
    """Conjunction; proposals are intersected across children."""

    def __init__(self, *children: Constraint):
        self.children: list[Constraint] = _flatten(ConstraintAnd, children)
        labels: list[str] = []
        for child in self.children:
            from .core import constraint_labels

            for label in constraint_labels(child):
                if label not in labels:
                    labels.append(label)
        self.labels = tuple(labels)

    def check(self, ctx: SolverContext, assignment: Assignment) -> bool:
        return all(c.check(ctx, assignment) for c in self.children)

    def partial_check(self, ctx: SolverContext, assignment: Assignment) -> bool:
        return all(c.partial_check(ctx, assignment) for c in self.children)

    def compile_partial(self, bound, slot_of):
        """Compose the children's lowered partial checks (``all`` of
        them).  A vacuous child contributes constant-true and drops out
        of the conjunction; if every child drops out the whole node is
        vacuous."""
        subs = [
            fn
            for fn in _compile_children(self.children, bound, slot_of)
            if fn is not _CHILD_VACUOUS
        ]
        if not subs:
            from .core import PARTIAL_VACUOUS

            return PARTIAL_VACUOUS
        if len(subs) == 1:
            return subs[0]

        def run(ctx, slots, view):
            for fn in subs:
                if not fn(ctx, slots, view):
                    return False
            return True

        return run

    def propose(
        self, ctx: SolverContext, assignment: Assignment, label: str
    ) -> Iterable[Value] | None:
        proposals: list[list[Value]] = []
        for child in self.children:
            if label not in getattr(child, "labels", ()):  # fast path
                from .core import constraint_labels

                if label not in constraint_labels(child):
                    continue
            candidates = child.propose(ctx, assignment, label)
            if candidates is not None:
                proposals.append(list(candidates))
        if not proposals:
            return None
        return intersect_proposals(proposals)

    def label_kinds(self):
        pairs: list[tuple[str, str]] = []
        for child in self.children:
            pairs.extend(child.label_kinds())
        return tuple(pairs)

    def proposable_labels(self, bound):
        # Any one child's guaranteed proposal suffices — propose()
        # collects from every child mentioning the label.
        proposable: set[str] = set()
        for child in self.children:
            proposable |= child.proposable_labels(bound)
        return frozenset(proposable)


class ConstraintOr(Constraint):
    """Disjunction.

    A disjunct whose labels are all bound and whose check fails is
    eliminated; if any disjunct may still hold the Or may hold.
    Proposals are the union of the children's proposals, and only
    usable when *every* live child can propose.
    """

    def __init__(self, *children: Constraint):
        self.children: list[Constraint] = _flatten(ConstraintOr, children)
        labels: list[str] = []
        for child in self.children:
            from .core import constraint_labels

            for label in constraint_labels(child):
                if label not in labels:
                    labels.append(label)
        self.labels = tuple(labels)

    def check(self, ctx: SolverContext, assignment: Assignment) -> bool:
        return any(c.check(ctx, assignment) for c in self.children)

    def partial_check(self, ctx: SolverContext, assignment: Assignment) -> bool:
        return any(c.partial_check(ctx, assignment) for c in self.children)

    def compile_partial(self, bound, slot_of):
        """Compose the children's lowered partial checks (``any`` of
        them).  One vacuous child makes the disjunction constant-true,
        hence the whole node vacuous."""
        subs = _compile_children(self.children, bound, slot_of)
        if any(fn is _CHILD_VACUOUS for fn in subs):
            from .core import PARTIAL_VACUOUS

            return PARTIAL_VACUOUS
        if len(subs) == 1:
            return subs[0]

        def run(ctx, slots, view):
            for fn in subs:
                if fn(ctx, slots, view):
                    return True
            return False

        return run

    def propose(
        self, ctx: SolverContext, assignment: Assignment, label: str
    ) -> Iterable[Value] | None:
        # Disjuncts already ruled out do not vote.  One live child that
        # never proposes makes the union unusable: abstain before
        # building any of it.
        live = [
            child for child in self.children
            if child.partial_check(ctx, assignment)
        ]
        if any(type(child).propose is Constraint.propose for child in live):
            return None
        union: list[Value] = []
        seen: set[int] = set()
        for child in live:
            candidates = child.propose(ctx, assignment, label)
            if candidates is None:
                return None
            for value in candidates:
                if id(value) not in seen:
                    seen.add(id(value))
                    union.append(value)
        return union

    def never_proposes(self, bound, label, slot_of):
        # propose() abstains as soon as one live child does, and a
        # child whose partial verdict is vacuous at ``bound`` is live
        # on every assignment.
        from .core import PARTIAL_VACUOUS

        return any(
            child.never_proposes(bound, label, slot_of)
            and child.compile_partial(bound, slot_of) is PARTIAL_VACUOUS
            for child in self.children
        )

    def label_kinds(self):
        # A disjunction only pins a label to the *join* of what its
        # children require — and a child not mentioning the label
        # leaves it unconstrained whenever that disjunct is the one
        # satisfied, widening the join to "any".
        from .core import constraint_labels, kind_join, kind_meet

        pairs: list[tuple[str, str]] = []
        for label in self.labels:
            joined: str | None = None
            for child in self.children:
                required = "any"
                if label in constraint_labels(child):
                    met: str | None = "any"
                    for own, kind in child.label_kinds():
                        if own == label and met is not None:
                            met = kind_meet(met, kind)
                    if met is None:
                        continue  # unsatisfiable disjunct: no vote
                    required = met
                joined = (
                    required if joined is None
                    else kind_join(joined, required)
                )
            if joined is not None and joined != "any":
                pairs.append((label, joined))
        return tuple(pairs)

    def proposable_labels(self, bound):
        # propose() abstains the moment any live child abstains, and a
        # child can only be ruled out dynamically — so a guaranteed
        # proposal needs *every* child to guarantee one.
        proposable: frozenset | None = None
        for child in self.children:
            own = child.proposable_labels(bound)
            proposable = own if proposable is None else proposable & own
        return proposable or frozenset()
