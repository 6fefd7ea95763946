"""The backtracking detection algorithm (Fig. 6 of the paper).

Given an :class:`~repro.constraints.core.IdiomSpec` — a label order
``i1..in`` and a root constraint ``c`` — :func:`detect` enumerates all
assignments ``x ∈ values(F)^I`` with ``c(x) = true`` by depth-first
search: bind the next label to each candidate, prune with the partial
predicate ``c_k`` (every atom with unbound labels replaced by true),
recurse.

Candidates for the next label come from constraint *proposals*
(successors of a bound block, operands of a bound instruction, ...);
only when nothing proposes does the solver fall back to the whole value
universe, which is what makes a well-chosen label order crucial (§3.3).

The search is **incremental**: each spec is pre-compiled
(:class:`CompiledSpec`) into a per-depth index of top-level conjuncts
that mention the label bound at that depth.  Binding label ``k`` then
re-checks only the newly-decidable/affected conjuncts instead of
re-walking the whole constraint tree — sound because a conjunct's
partial verdict only depends on the bindings of its own labels, so
unaffected conjuncts keep the verdict they produced at an earlier
depth.  :func:`detect` runs that search through the flat-plan engine
(:mod:`~repro.constraints.plan`), which lowers the index into per-depth
plan data that one generic search loop runs; it is the one search
engine.  The test reference ``detect_interpreted``
(``tests/constraints/reference_solver.py``) walks the same index over
the constraint objects.  Conjunct evaluations are counted in
:attr:`SolverStats.constraint_evals` (the CoreDiag-flavored metric: how
much redundant constraint evaluation was eliminated).

Search state is shared **across** ``detect`` calls on one
:class:`~repro.constraints.core.SolverContext` through
:class:`SharedSolverCache`: proposal lookups are memoized by conjunct
*identity* (the ``extends for-loop`` family reuses the same conjunct
objects, so the scalar and histogram specs hit each other's entries),
and a spec with a :attr:`~repro.constraints.core.IdiomSpec.base` replays
the base's solved prefix tuples instead of re-enumerating the shared
for-loop search space — the Bailleux & Boufkhad view of the extension
idioms as *constraint reductions* of one for-loop formulation.  Passing
``cache=SharedSolverCache()`` gives one search private state, which the
differential tests compare against the shared cache.

:func:`detect_brute_force` is the exponential §3.2 strawman, kept for
differential testing and for the ablation benchmark.
:func:`suggest_order` is an automatic label-order heuristic scored by
proposability, for specs whose author did not curate an order; given a
:class:`SolverStats` from previous runs it instead follows the
cheapest *measured* continuation at every step, conditioned on the
bound label set (cost-aware ordering).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..ir.values import Value
from .core import (
    Constraint,
    IdiomSpec,
    SolverContext,
    constraint_labels,
    top_level_conjuncts,
)


@dataclass
class SolverStats:
    """Search effort counters, used by the enumeration-order ablation."""

    assignments_tried: int = 0
    partial_rejections: int = 0
    solutions: int = 0
    fallbacks_to_universe: int = 0
    candidates_per_label: dict[str, int] = field(default_factory=dict)
    #: Observed candidate-list sizes conditioned on the *bound prefix*:
    #: ``(label, frozenset of labels bound when the proposal was made)``
    #: maps to ``(visits, total candidates)``.  Unlike the flat
    #: per-label totals above, this does not conflate a label's position
    #: in the enumeration order with its proposal quality — a label that
    #: saw few candidates only because the search was already pruned is
    #: distinguishable from one that proposes cheaply from nothing.
    candidates_per_prefix: dict[tuple[str, frozenset[str]], tuple[int, int]] = (
        field(default_factory=dict)
    )
    #: Top-level conjunct ``partial_check`` evaluations — the redundant
    #: work the incremental index eliminates.
    constraint_evals: int = 0
    #: Proposal lookups answered from the (shared) memo table.
    proposal_cache_hits: int = 0
    #: Searches that replayed a base spec's solved prefix instead of
    #: re-enumerating it.
    prefix_reuses: int = 0
    #: Schedule slots the plan compiler's redundancy pass removed
    #: (vacuous, duplicate or implied conjunct checks), counted once
    #: per search that ran under the pruned plan.
    conjuncts_pruned: int = 0
    #: Constraint evaluations the interpreted engine would have
    #: performed that the compiled plan skipped — position-exact, so
    #: ``interpreted.constraint_evals == plan.constraint_evals +
    #: plan.evals_pruned`` for the same search.
    evals_pruned: int = 0
    #: Always 0: no search path increments it.  The field stays
    #: because it is part of :meth:`canonical`, so it is inside every
    #: saved feedback artifact's fingerprint — dropping it would make
    #: those artifacts fail their fingerprint check on load.
    trie_reuses: int = 0

    def record_candidates(self, label: str, bound: frozenset[str],
                          count: int) -> None:
        """Record one proposal of ``count`` candidates for ``label``
        made while exactly ``bound`` labels were assigned."""
        self.candidates_per_label[label] = (
            self.candidates_per_label.get(label, 0) + count
        )
        visits, total = self.candidates_per_prefix.get((label, bound), (0, 0))
        self.candidates_per_prefix[(label, bound)] = (visits + 1,
                                                      total + count)

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Accumulate ``other``'s counters into this one (in place).

        Used to aggregate feedback across runs — several functions, or
        several enumeration orders of the same spec — before handing the
        result to :func:`suggest_order`.  Returns ``self``.

        Every counter is a sum, so merging is **commutative and
        associative** (property-tested): a corpus-wide aggregate is the
        same whichever order the per-unit statistics arrive in — the
        property that makes the pipeline's persisted feedback artifact
        byte-identical between ``jobs=1`` and ``jobs=N`` runs.
        """
        self.assignments_tried += other.assignments_tried
        self.partial_rejections += other.partial_rejections
        self.solutions += other.solutions
        self.fallbacks_to_universe += other.fallbacks_to_universe
        self.constraint_evals += other.constraint_evals
        self.proposal_cache_hits += other.proposal_cache_hits
        self.prefix_reuses += other.prefix_reuses
        self.conjuncts_pruned += other.conjuncts_pruned
        self.evals_pruned += other.evals_pruned
        self.trie_reuses += other.trie_reuses
        for label, count in other.candidates_per_label.items():
            self.candidates_per_label[label] = (
                self.candidates_per_label.get(label, 0) + count
            )
        for key, (visits, total) in other.candidates_per_prefix.items():
            seen_visits, seen_total = self.candidates_per_prefix.get(
                key, (0, 0)
            )
            self.candidates_per_prefix[key] = (seen_visits + visits,
                                               seen_total + total)
        return self

    # -- serialization ----------------------------------------------------

    def canonical(self) -> tuple:
        """The counters as nested, deterministically-ordered tuples.

        Two stats objects describe the same observations if and only if
        their canonical forms are equal, regardless of dict insertion
        order — the comparison (and fingerprint) form the feedback
        store hashes.
        """
        return (
            self.assignments_tried,
            self.partial_rejections,
            self.solutions,
            self.fallbacks_to_universe,
            self.constraint_evals,
            self.proposal_cache_hits,
            self.prefix_reuses,
            self.conjuncts_pruned,
            self.evals_pruned,
            self.trie_reuses,
            tuple(sorted(self.candidates_per_label.items())),
            tuple(sorted(
                (label, tuple(sorted(bound)), visits, total)
                for (label, bound), (visits, total)
                in self.candidates_per_prefix.items()
            )),
        )

    def to_jsonable(self) -> dict:
        """Plain-JSON form, deterministically ordered.

        The inverse of :meth:`from_jsonable`.  ``candidates_per_prefix``
        keys are ``(label, frozenset)`` pairs, which JSON cannot
        express as object keys; they serialize as sorted
        ``[label, [bound...], visits, total]`` rows, so two equal stats
        objects always produce byte-identical JSON.
        """
        return {
            "assignments_tried": self.assignments_tried,
            "partial_rejections": self.partial_rejections,
            "solutions": self.solutions,
            "fallbacks_to_universe": self.fallbacks_to_universe,
            "constraint_evals": self.constraint_evals,
            "proposal_cache_hits": self.proposal_cache_hits,
            "prefix_reuses": self.prefix_reuses,
            "conjuncts_pruned": self.conjuncts_pruned,
            "evals_pruned": self.evals_pruned,
            "trie_reuses": self.trie_reuses,
            "candidates_per_label": dict(
                sorted(self.candidates_per_label.items())
            ),
            "candidates_per_prefix": [
                [label, sorted(bound), visits, total]
                for (label, bound), (visits, total) in sorted(
                    self.candidates_per_prefix.items(),
                    key=lambda item: (item[0][0], tuple(sorted(item[0][1]))),
                )
            ],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "SolverStats":
        """Rebuild a stats object from :meth:`to_jsonable` data."""
        return cls(
            assignments_tried=data.get("assignments_tried", 0),
            partial_rejections=data.get("partial_rejections", 0),
            solutions=data.get("solutions", 0),
            fallbacks_to_universe=data.get("fallbacks_to_universe", 0),
            constraint_evals=data.get("constraint_evals", 0),
            proposal_cache_hits=data.get("proposal_cache_hits", 0),
            prefix_reuses=data.get("prefix_reuses", 0),
            conjuncts_pruned=data.get("conjuncts_pruned", 0),
            evals_pruned=data.get("evals_pruned", 0),
            trie_reuses=data.get("trie_reuses", 0),
            candidates_per_label=dict(data.get("candidates_per_label", {})),
            candidates_per_prefix={
                (label, frozenset(bound)): (visits, total)
                for label, bound, visits, total
                in data.get("candidates_per_prefix", [])
            },
        )

    def copy(self) -> "SolverStats":
        """An independent deep copy (merge mutates in place)."""
        return SolverStats().merge(self)


class SharedSolverCache:
    """Search state hoisted out of individual ``detect`` calls.

    One instance lives on each :class:`~repro.constraints.core.
    SolverContext` (``ctx.solver_cache``); every spec run on that
    context shares it.  It holds

    * ``proposal_memo`` — conjunct proposal lookups, keyed by the
      conjunct's identity plus the bindings of its own labels.  Conjunct
      objects shared between specs (the ``extends`` family) therefore
      share entries across detects;
    * ``base_solutions`` — complete solution lists of base specs, keyed
      by spec identity.  An extending spec replays these as its solved
      prefix (see :attr:`CompiledSpec.prefix_len`); the scalar and
      histogram idioms both extend ``for-loop``, so its search runs
      once per context instead of once per spec;
    * ``intersection_memo`` — plan-engine memo of
      :func:`~repro.constraints.logical.intersect_proposals` results,
      keyed by the identities of the memoized proposal lists being
      intersected (pure function of lists that live in
      ``proposal_memo``, so entries stay valid for the cache's
      lifetime);
    * ``id_sets`` — the id-sets of the function-wide lists in
      ``proposal_memo`` (the context's block and opcode-index lists,
      and proposals made with no label bound), each built once, for
      :func:`~repro.constraints.logical.intersect_proposals`;
    * ``depth_memo`` — plan-engine memo of a whole depth's final
      candidate list, keyed ``(plan step, bound-dependency value ids)``.
      A hit replaces the per-row proposal lookups and the intersection
      with one dict probe; since every row's memo entry necessarily
      exists by then, a per-row lookup would score one
      ``proposal_cache_hits`` per row, which the plan engine mirrors
      in bulk.
    """

    def __init__(self) -> None:
        #: Keys hold the conjunct/spec *objects* themselves (constraints
        #: hash by identity), which both addresses them by identity and
        #: pins them against garbage collection — a recycled ``id()``
        #: can therefore never alias a stale entry.
        self.proposal_memo: dict = {}
        self.base_solutions: dict[IdiomSpec, list[dict[str, Value]]] = {}
        self.intersection_memo: dict[tuple, list[Value]] = {}
        self.depth_memo: dict[tuple, tuple[list[Value], bool]] = {}
        #: ``id`` of a function-wide list in ``proposal_memo`` → its
        #: id-set, None until an intersection first needs it.
        #: Per-binding lists get no entry: a set each would outlive
        #: its one use.
        self.id_sets: dict[int, set[int] | None] = {}

    def solutions_for(self, spec: IdiomSpec):
        """Cached full solution list for ``spec``, or None."""
        return self.base_solutions.get(spec)

    def store_solutions(self, spec: IdiomSpec, solutions) -> None:
        """Record the complete solution list of ``spec``."""
        self.base_solutions[spec] = solutions


class CompiledSpec:
    """A spec pre-compiled for the incremental solver.

    * ``conjuncts`` — the root constraint flattened into top-level
      conjuncts (the root itself when it is not a conjunction);
    * ``schedule[k]`` — indices of the conjuncts that mention the label
      bound at depth ``k`` and therefore must be (re-)checked there;
    * ``proposers[label]`` — indices of the conjuncts that mention
      ``label`` and may propose candidates for it;
    * ``prefix_len`` / ``replay_indices`` — when the spec has a
      :attr:`~repro.constraints.core.IdiomSpec.base` whose conjunct
      objects it reuses verbatim, the base's label count and the
      indices of the *extension* conjuncts that touch base labels (the
      ones that must be re-validated when a solved base prefix is
      replayed).
    """

    def __init__(self, spec: IdiomSpec):
        self.spec = spec
        self.conjuncts: list[Constraint] = top_level_conjuncts(
            spec.constraint
        )
        self.labelsets: list[frozenset[str]] = [
            frozenset(constraint_labels(c)) for c in self.conjuncts
        ]
        order = spec.label_order
        self.schedule: list[tuple[int, ...]] = [
            tuple(
                i for i, labels in enumerate(self.labelsets)
                if order[k] in labels
            )
            for k in range(len(order))
        ]
        self.proposers: dict[str, tuple[int, ...]] = {
            label: tuple(
                i for i, labels in enumerate(self.labelsets)
                if label in labels
            )
            for label in order
        }
        #: True for conjuncts that override the base ``propose``.
        self.can_propose: list[bool] = [
            type(c).propose is not Constraint.propose for c in self.conjuncts
        ]
        self._compile_prefix()

    def _compile_prefix(self) -> None:
        """Validate and index the shared base prefix, if any.

        Prefix replay is only sound when the base's conjunct *objects*
        appear verbatim among this spec's conjuncts (ICSL ``extends``
        guarantees that: base conjuncts are prepended by reference), so
        a base solution is known to satisfy them exactly.
        """
        self.prefix_len = 0
        self.replay_indices: tuple[int, ...] = ()
        base = self.spec.base
        if base is None:
            return
        base_conjuncts = top_level_conjuncts(base.constraint)
        own_ids = {id(c) for c in self.conjuncts}
        if any(id(c) not in own_ids for c in base_conjuncts):
            return  # conjuncts were rebuilt, not shared: cannot replay
        base_ids = {id(c) for c in base_conjuncts}
        prefix_set = frozenset(base.label_order)
        self.prefix_len = len(base.label_order)
        self.replay_indices = tuple(
            i
            for i, c in enumerate(self.conjuncts)
            if id(c) not in base_ids and (self.labelsets[i] & prefix_set)
        )


def compile_spec(spec: IdiomSpec) -> CompiledSpec:
    """The compiled form of ``spec`` (cached on the spec object)."""
    compiled = getattr(spec, "_compiled", None)
    if compiled is None or compiled.spec is not spec:
        compiled = CompiledSpec(spec)
        spec._compiled = compiled
    return compiled


#: ``plan.detect_plan``, bound on the first :func:`detect`: the plan
#: engine is loaded by the process that searches, not by every process
#: that imports the solver (a serving parent forks its workers first).
_detect_plan = None


def detect(
    ctx: SolverContext,
    spec: IdiomSpec,
    stats: SolverStats | None = None,
    limit: int | None = None,
    cache: SharedSolverCache | None = None,
) -> list[dict[str, Value]]:
    """All assignments satisfying ``spec`` in ``ctx``'s function.

    Runs the flat-plan engine (:func:`~repro.constraints.plan.
    detect_plan`): slot-indexed atom closures and compile-time
    redundancy pruning (recorded in ``SolverStats.evals_pruned``).
    ``constraint_evals`` counts only the evaluations actually
    performed.

    ``cache`` defaults to ``ctx.solver_cache`` — the per-context shared
    state (memoized proposals, solved base prefixes).  Pass a fresh
    :class:`SharedSolverCache` for fully per-call state.
    """
    global _detect_plan
    if _detect_plan is None:
        from .plan import detect_plan as _detect_plan
    return _detect_plan(ctx, spec, stats=stats, limit=limit, cache=cache)


def detect_brute_force(
    ctx: SolverContext, spec: IdiomSpec, stats: SolverStats | None = None
) -> list[dict[str, Value]]:
    """Enumerate ``values(F)^I`` and filter — exponential, tests only."""
    order = spec.label_order
    root = spec.constraint
    results = []
    stats = stats if stats is not None else SolverStats()
    for combo in itertools.product(ctx.universe, repeat=len(order)):
        stats.assignments_tried += 1
        assignment = dict(zip(order, combo))
        if root.check(ctx, assignment):
            results.append(assignment)
            stats.solutions += 1
    return results


#: Memoized :func:`suggest_order` results, keyed by
#: ``(spec name, current order, seeded prefix, cache token)``.  The
#: token names the *feedback content* (the feedback store passes its
#: fingerprint), so persistent serving workers that re-derive orders
#: for every feedback refresh pay the greedy computation once per
#: (spec, store-state) pair instead of once per request.  Bounded: the
#: cache resets when it outgrows ``_ORDER_CACHE_LIMIT`` distinct keys.
_ORDER_CACHE: dict[tuple, tuple[str, ...]] = {}
_ORDER_CACHE_LIMIT = 512


def suggest_order(
    spec: IdiomSpec,
    feedback: SolverStats | None = None,
    prefix: tuple[str, ...] = (),
    cache_token: str | None = None,
) -> tuple[str, ...]:
    """An automatic enumeration order scored by proposability (§3.3).

    ``prefix`` seeds the greedy placement with labels already decided
    (they open the returned order verbatim).  A spec that ``extends``
    a base must keep the base's label order as its prefix for the
    solver's prefix replay to stay available, so the feedback store
    reorders such specs with ``prefix=spec.base.label_order`` — the
    measured statistics of a replayed search all start at the
    fully-bound base prefix, which is exactly where the seeded greedy
    placement resumes.

    ``cache_token`` memoizes the result (see :data:`_ORDER_CACHE`);
    pass a value that changes whenever ``feedback`` does.

    Greedy: repeatedly pick the label with the best chance of being
    *proposed* rather than enumerated from the universe — a label
    mentioned by a proposing conjunct whose other labels are already
    placed scores highest, single-label proposing atoms seed the order,
    and ties fall back to the curated order for determinism.  The
    result is a permutation of ``spec.label_order``, so solutions are
    unchanged by construction (and by test).

    ``feedback`` switches on **cost-aware** ordering: given the
    :class:`SolverStats` of previous runs of this spec (on a
    representative function — :meth:`SolverStats.merge` aggregates
    several runs), the order follows the cheapest *measured
    continuation* at every step.  The statistics are conditioned on the
    bound prefix — :attr:`SolverStats.candidates_per_prefix` keys
    ``(label, bound label set)`` — because a proposal's candidate list
    depends only on which labels are assigned, never on the order they
    were assigned in.  A flat per-label total would conflate a label's
    position in the observed order with its proposal quality (a label
    deep in the order sees few candidates merely because the search was
    already pruned); the conditioned signal does not.  At each step the
    label with the smallest mean observed candidate list *for exactly
    the current bound set* wins; labels never measured under that bound
    set are assumed expensive, so the heuristic never trades measured
    territory for unmeasured territory — feedback from a run of some
    order is therefore never worse than that order itself.  Where
    nothing was measured (or with ``feedback=None``) the static
    heuristic decides, unchanged.
    """
    prefix = tuple(prefix)
    if cache_token is not None:
        # The constraint object itself disambiguates same-named specs
        # (a user file replacing a built-in keeps the name but not the
        # constraint objects) — identity addressing that also pins the
        # object, so a recycled id() can never alias a stale entry.
        cache_key = (spec.name, spec.constraint, spec.label_order,
                     prefix, cache_token)
        cached = _ORDER_CACHE.get(cache_key)
        if cached is not None:
            return cached
    compiled = compile_spec(spec)
    original = spec.label_order
    position = {label: i for i, label in enumerate(original)}
    per_prefix = dict(feedback.candidates_per_prefix) if feedback else {}
    unknown = [label for label in prefix if label not in position]
    if unknown:
        raise ValueError(
            f"spec {spec.name!r}: prefix labels {unknown} are not in the "
            f"label order"
        )
    placed: list[str] = list(prefix)
    placed_set: set[str] = set(prefix)

    def score(label: str) -> float:
        best = 0.0
        for i, labels in enumerate(compiled.labelsets):
            if label not in labels:
                continue
            others = labels - {label}
            bound = (
                len(others & placed_set) / len(others) if others else 1.0
            )
            value = bound
            if compiled.can_propose[i]:
                value += 0.5 + bound
            best = max(best, value)
        return best

    def observed_cost(label: str) -> float | None:
        """Mean measured candidate-list size for binding ``label`` with
        exactly the current ``placed_set`` bound, or None if that
        continuation was never observed."""
        entry = per_prefix.get((label, frozenset(placed_set)))
        if entry is None:
            return None
        visits, total = entry
        return total / max(1, visits)

    while len(placed) < len(original):
        remaining = [label for label in original if label not in placed_set]
        costs = {label: observed_cost(label) for label in remaining}
        if any(cost is not None for cost in costs.values()):
            # Cost-aware step: cheapest measured continuation first;
            # unmeasured continuations are assumed expensive.
            best_label = min(
                remaining,
                key=lambda label: (
                    costs[label] is None,
                    costs[label] if costs[label] is not None else 0.0,
                    -score(label),
                    position[label],
                ),
            )
        else:
            best_label = min(
                remaining,
                key=lambda label: (-score(label), position[label]),
            )
        placed.append(best_label)
        placed_set.add(best_label)
    result = tuple(placed)
    if cache_token is not None:
        if len(_ORDER_CACHE) >= _ORDER_CACHE_LIMIT:
            _ORDER_CACHE.clear()
        _ORDER_CACHE[cache_key] = result
    return result
