"""The constraint-object interpreter: the reference search that the plan
engine (:func:`repro.constraints.detect`) is checked against.

:func:`detect_interpreted` walks a :class:`~repro.constraints.solver.
CompiledSpec`'s per-depth conjunct index over the constraint objects
themselves.  It accepts and rejects exactly the partial assignments the
plan engine does and returns the same solutions in the same order with
the same search counters, except that it evaluates every conjunct the
plan compiler prunes: its ``constraint_evals`` equals the plan engine's
``constraint_evals + evals_pruned``.  That reconciliation is the one
check of the pruning accounting that the brute-force oracle cannot make.

``incremental=False`` selects the naive full-tree walk (the original
Fig. 6 formulation: every conjunct re-checked at every binding) instead
of the per-depth index, and never replays a base prefix.

Both engines share one :class:`~repro.constraints.SharedSolverCache`
layout (proposal memo keys, solved base prefixes), so a cache filled by
one is read by the other with the same hits.
"""

from repro.constraints import SharedSolverCache, SolverContext, SolverStats
from repro.constraints.core import IdiomSpec
from repro.constraints.logical import intersect_proposals
from repro.constraints.solver import CompiledSpec, compile_spec
from repro.ir.values import Value


def propose(
    compiled: CompiledSpec,
    ctx: SolverContext,
    assignment: dict[str, Value],
    label: str,
    memo: dict,
    stats: SolverStats,
) -> list[Value] | None:
    """Candidates for ``label``; mirrors ``ConstraintAnd.propose``
    (intersection, ordered by the smallest proposal) with proposal
    lookups memoized in the shared cache.

    A conjunct's proposal only depends on the bindings of its own
    labels, so the memo key is the conjunct's identity plus that
    restriction — shared conjunct objects hit across specs.
    """
    proposals: list[list[Value]] = []
    for i in compiled.proposers.get(label, ()):
        conjunct = compiled.conjuncts[i]
        # The conjunct object itself is part of the key: identity
        # addressing that also pins it alive in the shared cache
        # (value ids are stable — the context keeps the function's
        # values alive for the cache's whole lifetime).
        key = (
            conjunct,
            label,
            tuple(
                (l, id(assignment[l]))
                for l in sorted(compiled.labelsets[i])
                if l in assignment
            ),
        )
        try:
            candidates = memo[key]
            stats.proposal_cache_hits += 1
        except KeyError:
            candidates = conjunct.propose(ctx, assignment, label)
            if candidates is not None:
                candidates = list(candidates)
            memo[key] = candidates
        if candidates is not None:
            proposals.append(candidates)
    if not proposals:
        return None
    return intersect_proposals(proposals)


def detect_interpreted(
    ctx: SolverContext,
    spec: IdiomSpec,
    stats: SolverStats | None = None,
    limit: int | None = None,
    cache: SharedSolverCache | None = None,
    incremental: bool = True,
) -> list[dict[str, Value]]:
    """The reference search: ``detect`` over the constraint objects."""
    compiled = compile_spec(spec)
    order = spec.label_order
    conjuncts = compiled.conjuncts
    results: list[dict[str, Value]] = []
    assignment: dict[str, Value] = {}
    stats = stats if stats is not None else SolverStats()
    cache = cache if cache is not None else ctx.solver_cache
    memo = cache.proposal_memo
    all_indices = tuple(range(len(conjuncts)))
    # The bound-label set at depth k is always exactly order[:k] (the
    # replayed prefix is an order prefix too) — precompute the
    # frozensets once instead of rebuilding one per search node.
    prefix_sets = [
        frozenset(order[:k]) for k in range(len(order) + 1)
    ]

    def partial_ok(k: int) -> bool:
        indices = compiled.schedule[k] if incremental else all_indices
        for i in indices:
            stats.constraint_evals += 1
            if not conjuncts[i].partial_check(ctx, assignment):
                return False
        return True

    def recurse(k: int) -> bool:
        if limit is not None and len(results) >= limit:
            return False
        if k == len(order):
            results.append(dict(assignment))
            stats.solutions += 1
            return True
        label = order[k]
        candidates = propose(compiled, ctx, assignment, label, memo, stats)
        if candidates is None:
            candidates = ctx.universe
            stats.fallbacks_to_universe += 1
        stats.record_candidates(label, prefix_sets[k], len(candidates))
        for value in candidates:
            assignment[label] = value
            stats.assignments_tried += 1
            if partial_ok(k):
                if not recurse(k + 1):
                    assignment.pop(label, None)
                    return False
            else:
                stats.partial_rejections += 1
        assignment.pop(label, None)
        return True

    prefix = _base_prefix_solutions(
        ctx, spec, compiled, stats, cache, incremental, limit
    )
    if prefix is None:
        recurse(0)
    else:
        stats.prefix_reuses += 1
        k = compiled.prefix_len
        for base_solution in prefix:
            if limit is not None and len(results) >= limit:
                break
            assignment.clear()
            assignment.update(base_solution)
            # Re-validate the extension conjuncts that touch base
            # labels — the base search never saw them.  (The base's own
            # conjuncts hold exactly: a base solution satisfies them by
            # construction, which is what makes the replay sound.)
            ok = True
            for i in compiled.replay_indices:
                stats.constraint_evals += 1
                if not conjuncts[i].partial_check(ctx, assignment):
                    stats.partial_rejections += 1
                    ok = False
                    break
            if ok:
                recurse(k)
        assignment.clear()
    return results


def _base_prefix_solutions(
    ctx: SolverContext,
    spec: IdiomSpec,
    compiled: CompiledSpec,
    stats: SolverStats,
    cache: SharedSolverCache,
    incremental: bool,
    limit: int | None,
):
    """Solved base-prefix tuples for an extending spec, or None.

    The base's solution list is computed at most once per cache (the
    first extending spec pays; later specs replay for free) by a nested
    :func:`detect_interpreted` whose search effort is charged to the
    caller's ``stats``.  A ``limit``-bounded search never *computes*
    the base (full base enumeration could dwarf the bounded search it
    serves) — it only replays a list some unbounded search already paid
    for.
    """
    if not incremental or compiled.prefix_len == 0:
        return None
    base = spec.base
    solutions = cache.solutions_for(base)
    if solutions is None:
        if limit is not None:
            return None
        base_stats = SolverStats()
        # Stay on the reference walk: its base search must not be
        # silently routed through the compiled plan.
        solutions = detect_interpreted(ctx, base, stats=base_stats,
                                       cache=cache)
        cache.store_solutions(base, solutions)
        # Charge the base search's effort — but not its solution count
        # (or prefix-reuse tally) — to the caller: the prefix work
        # happened on this detect's dime.
        base_stats.solutions = 0
        base_stats.prefix_reuses = 0
        stats.merge(base_stats)
    return solutions
