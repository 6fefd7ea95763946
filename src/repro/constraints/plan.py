"""Flat evaluation plans — the compiled constraint engine.

The reference solver (:mod:`.solver`) *interprets* a tree of
Python constraint objects per candidate: every search node walks the
depth's conjunct slice, dispatches ``partial_check`` through a method
lookup, and rebuilds memo keys with per-lookup sorting.  At corpus
scale that interpreter overhead dominates the search itself.  This
module lowers each :class:`~repro.constraints.solver.CompiledSpec`
depth-slice once, per spec, into a :class:`FlatPlan`:

* **slot-indexed bindings** — the partial assignment is a flat list
  indexed by label-order position (slot ``k`` is the label bound at
  depth ``k``); atom closures read ``slots[i]`` directly instead of
  hashing label strings into a dict;
* **precomputed atom closures** — every scheduled ``(depth, conjunct)``
  pair is lowered via :meth:`Constraint.compile_partial` for its exact
  bound label set, eliminating the ``partial_check`` dispatch and the
  per-call bound-set discovery;
* **redundancy pruning** (CoreDiag-style) — conjuncts whose partial
  verdict is constant-true for a depth's bound set (the vacuous checks
  the ``c_k`` construction generates), structural duplicates, and
  conjuncts implied by an earlier conjunct in the chosen order (strict
  dominance ⇒ dominance, ``sese`` ⇒ both dominance legs) are dropped
  from the slice at compile time.  Every skipped evaluation the
  interpreted engine *would* have counted is recorded in
  :attr:`SolverStats.evals_pruned`, position-exactly, so
  ``interpreted.constraint_evals == plan.constraint_evals +
  plan.evals_pruned`` holds per search — fingerprint accounting stays
  honest;
* **one search loop** — :func:`_search` runs every plan as data: an
  iterative depth-first search in a single frame that reads
  ``plan.steps`` (one candidate iterator per depth, counters in
  locals) and replays a base spec's solved prefix when
  :attr:`~repro.constraints.core.IdiomSpec.base` allows it.

The constraint-object interpreter ``detect_interpreted`` in
``tests/constraints/reference_solver.py`` is the test reference;
:func:`detect_plan` is bit-identical to it in solutions, assignments tried, rejections,
universe fallbacks, proposal cache hits and candidate statistics, and
eval-exact modulo the recorded pruning.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ..ir.values import Value
from .core import (
    PARTIAL_VACUOUS,
    IdiomSpec,
    SolverContext,
    constraint_labels,
    top_level_conjuncts,
)
from .logical import intersect_proposals
from .solver import SolverStats, compile_spec

#: Slot value marking an unbound label.
_UNBOUND = object()

#: Proposal-memo probe default: distinguishes a miss from a memoized
#: None (an abstaining row).
_MISSING = object()

#: Stand-in bound when no solution limit is set: one comparison against
#: a never-reached integer replaces a None test per search node.
_NO_LIMIT = 1 << 62


class SlotView(Mapping):
    """A live ``Mapping`` view of the solver's slot list.

    Generic fallbacks (``partial_check`` wrappers, ``propose``
    implementations) receive this instead of a dict: lookups translate
    label → slot through the plan's table and unbound slots read as
    missing keys.  One instance per search, always current — the view
    wraps the mutable slot list itself.
    """

    __slots__ = ("_slots", "_slot_of", "_order")

    def __init__(self, slots: list, slot_of: dict, order: tuple):
        self._slots = slots
        self._slot_of = slot_of
        self._order = order

    def __getitem__(self, label: str) -> Value:
        value = self._slots[self._slot_of[label]]
        if value is _UNBOUND:
            raise KeyError(label)
        return value

    def get(self, label: str, default=None):
        slot = self._slot_of.get(label)
        if slot is None:
            return default
        value = self._slots[slot]
        return default if value is _UNBOUND else value

    def __contains__(self, label: object) -> bool:
        slot = self._slot_of.get(label)
        return slot is not None and self._slots[slot] is not _UNBOUND

    def __iter__(self) -> Iterator[str]:
        slots = self._slots
        for i, label in enumerate(self._order):
            if slots[i] is not _UNBOUND:
                yield label

    def __len__(self) -> int:
        return sum(1 for value in self._slots if value is not _UNBOUND)


def _generic_partial(constraint):
    """Wrap an unlowerable constraint's ``partial_check`` for the plan
    runtime (never pruned; reads bindings through the slot view)."""
    partial = constraint.partial_check

    def run(ctx, slots, view):
        return partial(ctx, view)

    return run


class CheckChain:
    """A lowered conjunct slice with O(1)-per-candidate accounting.

    Built from ``(closure, pruned_before)`` pairs in schedule order:
    ``pruned_before`` is how many vacuous/redundant conjuncts the
    interpreted engine would have evaluated immediately before this
    closure.  Rather than charging counters check by check, the chain
    precomputes what each outcome costs: ``checks`` holds
    ``(closure, fail_evals, fail_pruned)`` rows, where a failure at
    index ``i`` charges ``fail_evals = i + 1`` evaluations and
    ``fail_pruned`` skipped ones (the pruned entries the interpreter
    would have reached before short-circuiting); a full pass charges
    ``pass_evals`` and ``pass_pruned`` (which folds in ``tail_pruned``,
    the pruned entries after the last kept check).
    """

    __slots__ = ("checks", "pass_evals", "pass_pruned")

    def __init__(self, checks, tail_pruned):
        rows = []
        running = 0
        for i, (fn, pruned_before) in enumerate(checks):
            running += pruned_before
            rows.append((fn, i + 1, running))
        self.checks = tuple(rows)
        self.pass_evals = len(rows)
        self.pass_pruned = running + tail_pruned


class PlanStep:
    """One depth of a flat plan (depth ``k`` binds slot ``k``).

    ``chain`` is the depth's :class:`CheckChain` — the lowered conjunct
    slice with its precomputed eval/pruned accounting.
    """

    __slots__ = ("label", "chain", "proposers", "dep_slots", "prefix_key")

    def __init__(self, label, chain, proposers, prefix_key):
        self.label = label
        self.chain = chain
        #: ``(conjunct, key_pairs, const_key, silent)`` rows;
        #: ``key_pairs`` are the pre-sorted ``(label, slot)`` pairs of
        #: the conjunct's labels bound at this depth — the memo key
        #: builds from them without per-lookup sorting, and matches the
        #: interpreted engine's key byte for byte (the caches are
        #: engine-interoperable).  When no labels are bound the key is
        #: a compile-time constant (``const_key``).  ``silent`` rows
        #: never propose at this depth
        #: (:meth:`~repro.constraints.core.Constraint.never_proposes`):
        #: the search records their memo key but skips the call.
        self.proposers = proposers
        #: Sorted union of the slots all proposer rows read — the
        #: value ids at these slots determine every row's proposal, so
        #: ``(step, ids)`` keys a whole-depth candidate memo.
        deps = sorted({s for _, pairs, _, _ in proposers for _, s in pairs})
        self.dep_slots = tuple(deps)
        #: ``(label, bound-prefix set)`` — this depth's
        #: ``SolverStats.candidates_per_prefix`` key.
        self.prefix_key = prefix_key


class PruneDecision:
    """One conjunct the plan compiler dropped from a schedule slice.

    The typed record behind every ``SolverStats.evals_pruned`` unit:
    rather than dropping checks silently, :func:`_compile_slice` logs
    *which* conjunct was pruned *where* and *why*, and the lint pass
    (:mod:`repro.constraints.analysis`) surfaces the records as
    position-exact diagnostics.  ``len(plan.pruning_decisions) ==
    plan.conjuncts_pruned`` by construction.

    ``reason`` is one of

    * ``"vacuous"`` — the partial verdict is constant-true for the
      slice's bound set (the ``c_k`` construction's padding);
    * ``"duplicate"`` — an earlier conjunct with the *same* structural
      key already ran (``established_by``);
    * ``"implied-conjunct"`` — an earlier conjunct *implies* this one
      (``established_by``; e.g. ``sese`` ⇒ its dominance legs);
    * ``"implied-proposal"`` — the depth's candidates come from this
      conjunct's own proposals, which pre-satisfy its check.

    ``where`` names the slice kind (``"depth"`` or ``"replay"``),
    ``depth`` the bound-prefix length there, ``index`` the conjunct's
    position in ``CompiledSpec.conjuncts``.
    """

    __slots__ = ("reason", "where", "depth", "index", "conjunct",
                 "established_by")

    def __init__(self, reason, where, depth, index, conjunct,
                 established_by=None):
        self.reason = reason
        self.where = where
        self.depth = depth
        self.index = index
        self.conjunct = conjunct
        self.established_by = established_by

    def __repr__(self):  # pragma: no cover - debug aid
        return (
            f"<PruneDecision {self.reason} conjunct={self.index}"
            f" {self.where}@{self.depth}>"
        )


def _compile_slice(entries, slot_of, bound_of, *, where, depth,
                   known_keys=None, implied=None):
    """Lower one ordered conjunct slice into kept checks.

    ``entries`` yields ``(index, conjunct, labelset)`` in schedule
    order; ``bound_of(labelset)`` names the exact bound label subset at
    this point.  Returns ``(checks, tail_pruned, decisions)``
    where ``decisions`` is the list of :class:`PruneDecision` records
    (one per dropped conjunct, so ``len(decisions)`` is the slice's
    pruned count).  ``known_keys`` seeds the redundancy pass with
    structural keys already established to hold, mapped to the
    establishing conjunct (the base conjuncts of a replay).
    ``implied`` holds ids of conjuncts whose verdict at this depth is
    implied by their own proposals (see
    :meth:`Constraint.propose_implies_partial`) — dropped like
    duplicates, and their structural keys still count as established.
    """
    checks = []
    pending = 0
    decisions: list[PruneDecision] = []
    established: dict = dict(known_keys) if known_keys else {}
    for index, conjunct, labelset in entries:
        bound = bound_of(labelset)
        lowered = conjunct.compile_partial(frozenset(bound), slot_of)
        if lowered is PARTIAL_VACUOUS:
            pending += 1
            decisions.append(
                PruneDecision("vacuous", where, depth, index, conjunct)
            )
            continue
        key = conjunct.structural_key() if labelset <= bound else None
        if key is not None and key in established:
            pending += 1
            by = established[key]
            reason = (
                "duplicate" if by.structural_key() == key
                else "implied-conjunct"
            )
            decisions.append(
                PruneDecision(reason, where, depth, index, conjunct,
                              established_by=by)
            )
            continue
        if implied is not None and id(conjunct) in implied:
            pending += 1
            decisions.append(
                PruneDecision("implied-proposal", where, depth, index,
                              conjunct)
            )
            if key is not None:
                established.setdefault(key, conjunct)
                for implied_key in conjunct.implied_structural_keys():
                    established.setdefault(implied_key, conjunct)
            continue
        if lowered is None:
            lowered = _generic_partial(conjunct)
        checks.append((lowered, pending))
        pending = 0
        if key is not None:
            established.setdefault(key, conjunct)
            for implied_key in conjunct.implied_structural_keys():
                established.setdefault(implied_key, conjunct)
    return tuple(checks), pending, decisions


class FlatPlan:
    """The compiled execution plan of one spec (cached on the spec)."""

    def __init__(self, spec: IdiomSpec):
        self.spec = spec
        compiled = compile_spec(spec)
        order = spec.label_order
        self.order = order
        self.slot_of = {label: i for i, label in enumerate(order)}
        conjuncts = compiled.conjuncts
        labelsets = compiled.labelsets

        #: Schedule slots eliminated by the redundancy pass, summed over
        #: all depths (and replay slices) — a static property of the
        #: plan, charged once per search to ``SolverStats``.
        self.conjuncts_pruned = 0
        #: The typed record of every eliminated slot (one
        #: :class:`PruneDecision` per ``conjuncts_pruned`` unit), in
        #: compile order — consumed by the lint pass.
        self.pruning_decisions: list[PruneDecision] = []
        self.steps: list[PlanStep] = []
        for k, label in enumerate(order):
            bound_after = set(order[: k + 1])
            bound_before = frozenset(order[:k])
            # Conjuncts that propose for this depth's label and whose
            # proposals pre-satisfy their own partial check: candidates
            # come from the proposal intersection, so these checks are
            # implied and compile away.
            implied = {
                id(conjuncts[i])
                for i in compiled.proposers.get(label, ())
                if conjuncts[i].propose_implies_partial(bound_before, label)
            }
            checks, tail, decisions = _compile_slice(
                (
                    (i, conjuncts[i], labelsets[i])
                    for i in compiled.schedule[k]
                ),
                self.slot_of,
                lambda labelset, _b=bound_after: labelset & _b,
                where="depth",
                depth=k,
                implied=implied or None,
            )
            self.conjuncts_pruned += len(decisions)
            self.pruning_decisions.extend(decisions)
            proposers = []
            for i in compiled.proposers.get(label, ()):
                key_pairs = tuple(
                    (l, self.slot_of[l])
                    for l in sorted(labelsets[i])
                    if l in bound_before
                )
                const_key = (
                    (conjuncts[i], label, ()) if not key_pairs else None
                )
                silent = conjuncts[i].never_proposes(
                    bound_before, label, self.slot_of
                )
                proposers.append((conjuncts[i], key_pairs, const_key, silent))
            self.steps.append(
                PlanStep(label, CheckChain(checks, tail), tuple(proposers),
                         (label, bound_before))
            )

        # -- full-prefix replay (mirrors the interpreted engine) ----------
        self.prefix_len = compiled.prefix_len
        self.replay_chain: CheckChain | None = None
        if self.prefix_len:
            prefix_set = set(order[: self.prefix_len])
            base_keys = self._base_established_keys(spec.base, prefix_set)
            checks, tail, decisions = _compile_slice(
                (
                    (i, conjuncts[i], labelsets[i])
                    for i in compiled.replay_indices
                ),
                self.slot_of,
                lambda labelset, _p=prefix_set: labelset & _p,
                where="replay",
                depth=self.prefix_len,
                known_keys=base_keys,
            )
            self.conjuncts_pruned += len(decisions)
            self.pruning_decisions.extend(decisions)
            self.replay_chain = CheckChain(checks, tail)

        #: ``(slot, label)`` pairs a replayed base tuple binds.
        self.prefix_slots = tuple(enumerate(order[: self.prefix_len]))

        # The search binds into a per-plan slot buffer (all-unbound
        # between searches — _search restores it on every exit), so
        # detect_plan allocates nothing per call.
        self._unbound = [_UNBOUND] * len(order)
        self._slots = list(self._unbound)
        self._view = SlotView(self._slots, self.slot_of, order)

    @staticmethod
    def _base_established_keys(base, prefix_set):
        """Structural keys known to hold on every replayed base tuple —
        the keys (and implications) of base conjuncts fully bound
        within the prefix — mapped to the establishing conjunct (for
        the pruning record's provenance)."""
        keys: dict = {}
        for conjunct in top_level_conjuncts(base.constraint):
            if set(constraint_labels(conjunct)) <= prefix_set:
                key = conjunct.structural_key()
                if key is not None:
                    keys.setdefault(key, conjunct)
                    for implied_key in conjunct.implied_structural_keys():
                        keys.setdefault(implied_key, conjunct)
        return keys


def compile_plan(spec: IdiomSpec) -> FlatPlan:
    """The flat plan of ``spec`` (cached on the spec object)."""
    plan = getattr(spec, "_plan", None)
    if plan is None or plan.spec is not spec:
        plan = FlatPlan(spec)
        spec._plan = plan
    return plan


def detect_plan(
    ctx: SolverContext,
    spec: IdiomSpec,
    stats=None,
    limit: int | None = None,
    cache=None,
):
    """All assignments satisfying ``spec`` — the compiled engine.

    Equivalent to the interpreted reference (``detect_interpreted`` in
    ``tests/constraints/reference_solver.py``): identical
    solutions in identical order, identical search counters
    (``assignments_tried``, ``partial_rejections``, ``solutions``,
    ``fallbacks_to_universe``, candidate statistics, proposal cache
    hits, prefix reuses), and ``constraint_evals + evals_pruned`` equal
    to the interpreted engine's ``constraint_evals``.
    """
    plan = compile_plan(spec)
    stats = stats if stats is not None else SolverStats()
    cache = cache if cache is not None else ctx.solver_cache
    results: list[dict[str, Value]] = []
    stats.conjuncts_pruned += plan.conjuncts_pruned
    frontier = None
    if plan.prefix_len:
        frontier = _base_solutions(ctx, spec, stats, cache, limit)
        if frontier is not None:
            stats.prefix_reuses += 1
    _search(plan, ctx, cache, results,
            _NO_LIMIT if limit is None else limit, stats, frontier)
    return results


def _memoizable(cand, pairs, shared_lists, id_sets):
    """The proposal ``cand`` as the memo stores it.

    A function-wide list — one the context owns, or one proposed with
    no label bound (``pairs`` empty), which is made once per context —
    gets an ``id_sets`` slot, so intersections hash it once.  The
    context's own lists are stored uncopied; every other proposal is
    copied into a fresh list.
    """
    if cand is None:
        return None
    if id(cand) not in shared_lists:
        cand = list(cand)
        if pairs:
            return cand
    id_sets.setdefault(id(cand), None)
    return cand


def _search(plan, ctx, cache, results, limit_v, stats, frontier):
    """Run ``plan``'s depth-first search, appending to ``results``.

    ``frontier`` is None for a search from depth 0, or the base spec's
    solved prefix tuples to replay: each is bound into the first
    ``plan.prefix_len`` slots, re-validated against the replay chain
    and searched on from there.  The search is iterative and runs in
    this one frame: ``iters[k]`` is depth ``k``'s candidate iterator,
    ``k`` the depth being bound, and every counter a local, flushed
    into ``stats`` once at the end.  Once ``limit_v`` solutions exist
    the next descent aborts the whole search — the interpreted
    engine's limit check at the top of each recursion.
    """
    steps = plan.steps
    n = len(steps)
    order = plan.order
    slots = plan._slots
    view = plan._view
    memo = cache.proposal_memo
    id_sets = cache.id_sets
    shared_lists = ctx.shared_lists
    isect_memo = cache.intersection_memo
    depth_memo = cache.depth_memo
    universe = ctx.universe
    n_tried = n_evals = n_pruned = n_rejected = 0
    n_hits = n_fallbacks = n_solutions = 0
    visits = [0] * n
    sizes = [0] * n
    iters: list = [None] * n
    if frontier is None:
        start, replay, frontier = 0, None, (None,)
    else:
        start, replay = plan.prefix_len, plan.replay_chain
    try:
        for node in frontier:
            if len(results) >= limit_v:
                break
            if replay is not None:
                for i, label in plan.prefix_slots:
                    slots[i] = node[label]
                rejected = False
                for fn, fail_evals, fail_pruned in replay.checks:
                    if not fn(ctx, slots, view):
                        n_evals += fail_evals
                        n_pruned += fail_pruned
                        n_rejected += 1
                        rejected = True
                        break
                if rejected:
                    continue
                n_evals += replay.pass_evals
                n_pruned += replay.pass_pruned
            k = start
            while True:
                # Enter depth k: emit a full assignment, or open the
                # depth's candidate iterator.
                if len(results) >= limit_v:
                    break
                if k == n:
                    results.append(dict(zip(order, slots)))
                    n_solutions += 1
                    k -= 1
                else:
                    step = steps[k]
                    rows = step.proposers
                    if rows:
                        # Keys grow by tuple concatenation: on CPython
                        # 3.11 a comprehension costs a frame per call.
                        ids = ()
                        for s in step.dep_slots:
                            ids += (id(slots[s]),)
                        dkey = (step, ids)
                        entry = depth_memo.get(dkey)
                        if entry is not None:
                            candidates, fell_back = entry
                            n_hits += len(rows)
                            if fell_back:
                                n_fallbacks += 1
                        else:
                            label = step.label
                            proposals = []
                            for conjunct, pairs, key, silent in rows:
                                if key is None:
                                    bound = ()
                                    for l, s in pairs:
                                        bound += ((l, id(slots[s])),)
                                    key = (conjunct, label, bound)
                                cand = memo.get(key, _MISSING)
                                if cand is _MISSING:
                                    cand = None if silent else _memoizable(
                                        conjunct.propose(ctx, view, label),
                                        pairs, shared_lists, id_sets,
                                    )
                                    memo[key] = cand
                                else:
                                    n_hits += 1
                                if cand is not None:
                                    proposals.append(cand)
                            if not proposals:
                                candidates = universe
                                n_fallbacks += 1
                            elif len(proposals) == 1:
                                candidates = proposals[0]
                            else:
                                ikey = tuple(map(id, proposals))
                                candidates = isect_memo.get(ikey)
                                if candidates is None:
                                    candidates = intersect_proposals(
                                        proposals, id_sets
                                    )
                                    isect_memo[ikey] = candidates
                            depth_memo[dkey] = (candidates, not proposals)
                    else:
                        candidates = universe
                        n_fallbacks += 1
                    visits[k] += 1
                    sizes[k] += len(candidates)
                    iters[k] = iter(candidates)
                # Advance the deepest open iterator to its next accepted
                # candidate (then descend), popping exhausted depths.
                while k >= start:
                    chain = steps[k].chain
                    checks = chain.checks
                    for value in iters[k]:
                        slots[k] = value
                        n_tried += 1
                        for fn, fail_evals, fail_pruned in checks:
                            if not fn(ctx, slots, view):
                                n_evals += fail_evals
                                n_pruned += fail_pruned
                                n_rejected += 1
                                break
                        else:
                            n_evals += chain.pass_evals
                            n_pruned += chain.pass_pruned
                            break
                    else:
                        slots[k] = _UNBOUND
                        k -= 1
                        continue
                    k += 1
                    break
                if k < start:
                    break
    finally:
        slots[:] = plan._unbound

    # Visited depths are contiguous from ``start``: a depth is entered
    # only through an accepted candidate one level up.
    per_label = stats.candidates_per_label
    per_prefix = stats.candidates_per_prefix
    for k in range(start, n):
        count = visits[k]
        if not count:
            break
        step = steps[k]
        total = sizes[k]
        per_label[step.label] = per_label.get(step.label, 0) + total
        prev = per_prefix.get(step.prefix_key)
        per_prefix[step.prefix_key] = (
            (count, total) if prev is None
            else (prev[0] + count, prev[1] + total)
        )
    stats.assignments_tried += n_tried
    stats.constraint_evals += n_evals
    stats.evals_pruned += n_pruned
    stats.partial_rejections += n_rejected
    stats.proposal_cache_hits += n_hits
    stats.fallbacks_to_universe += n_fallbacks
    stats.solutions += n_solutions


def _base_solutions(ctx, spec, stats, cache, limit):
    """Solved base-prefix tuples, or None.  The first extending spec on
    a cache computes them and is charged the base search's effort (not
    its solutions); a ``limit``-bounded search only replays them."""
    base = spec.base
    solutions = cache.solutions_for(base)
    if solutions is None:
        if limit is not None:
            return None
        base_stats = SolverStats()
        solutions = detect_plan(ctx, base, stats=base_stats, cache=cache)
        cache.store_solutions(base, solutions)
        base_stats.solutions = 0
        base_stats.prefix_reuses = 0
        stats.merge(base_stats)
    return solutions
