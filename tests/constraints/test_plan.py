"""Differential suite for the compiled plan engine.

The interpreted reference (``detect_interpreted`` in
``reference_solver.py``) is the oracle; :func:`repro.constraints.detect`
(the plan engine) must match it

* in **solutions** — the identical list, order included;
* in **statistics** — every :class:`SolverStats` counter equal, except
  the eval reconciliation invariant ``interpreted.constraint_evals ==
  compiled.constraint_evals + compiled.evals_pruned`` (the compiled
  engine performs fewer evaluations but accounts for every skipped one
  position-exactly).

The matrix runs every shipped ``.icsl`` spec over the differential C
corpus, then hypothesis-randomized label/conjunct orders over the
mini-specs, plus targeted coverage of the search loop's other paths: an
``extends`` order that keeps only part of the base's prefix, every
shipped spec under a solution ``limit`` (full-prefix replay included)
on every corpus function, and the plan cache.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (
    ConstraintAnd,
    IdiomSpec,
    SharedSolverCache,
    SolverContext,
    SolverStats,
    detect,
)
from repro.constraints.plan import _UNBOUND, compile_plan, detect_plan
from repro.idioms import BUILTIN_IDIOMS, IdiomRegistry
from repro.workloads.corpus import all_programs
from reference_solver import detect_interpreted
from test_differential import CORPUS, MINI_SPECS, contexts_for, solution_set

REGISTRY = IdiomRegistry()


# -- the reusable differential check ------------------------------------------


def assert_stats_reconcile(interpreted: SolverStats, compiled: SolverStats):
    """Every counter equal; evals equal modulo the recorded pruning."""
    assert compiled.assignments_tried == interpreted.assignments_tried
    assert compiled.partial_rejections == interpreted.partial_rejections
    assert compiled.solutions == interpreted.solutions
    assert compiled.fallbacks_to_universe == interpreted.fallbacks_to_universe
    assert compiled.candidates_per_label == interpreted.candidates_per_label
    assert compiled.candidates_per_prefix == interpreted.candidates_per_prefix
    assert compiled.proposal_cache_hits == interpreted.proposal_cache_hits
    assert compiled.prefix_reuses == interpreted.prefix_reuses
    assert (compiled.constraint_evals + compiled.evals_pruned
            == interpreted.constraint_evals)


def assert_engines_agree(ctx, spec):
    """Run both engines on fresh caches; returns the compiled stats."""
    interp_stats, comp_stats = SolverStats(), SolverStats()
    interpreted = detect_interpreted(ctx, spec, stats=interp_stats,
                                     cache=SharedSolverCache())
    compiled = detect(ctx, spec, stats=comp_stats, cache=SharedSolverCache())
    assert compiled == interpreted  # the list: solutions AND their order
    assert_stats_reconcile(interp_stats, comp_stats)
    return comp_stats


# -- compiled ≡ interpreted on every shipped spec -----------------------------


@pytest.mark.parametrize("idiom", sorted(BUILTIN_IDIOMS))
@pytest.mark.parametrize("program", sorted(CORPUS))
def test_compiled_matches_interpreted_full_specs(idiom, program):
    spec = REGISTRY.spec(idiom)
    for ctx in contexts_for(CORPUS[program]):
        stats = assert_engines_agree(ctx, spec)
        # The redundancy pass must actually have fired on the full
        # specs (their c_k construction generates vacuous checks).
        assert stats.conjuncts_pruned > 0


@pytest.mark.parametrize("program", sorted(CORPUS))
def test_compiled_matches_interpreted_shared_cache(program):
    """One shared cache accumulated across all six specs — prefix
    replay included — must agree engine to engine: the caches are
    interoperable (same memo keys), so the compiled engine sees the
    same hits, reuses and candidate lists the interpreter sees."""
    for ctx in contexts_for(CORPUS[program]):
        interp_stats, comp_stats = SolverStats(), SolverStats()
        interp_cache, comp_cache = SharedSolverCache(), SharedSolverCache()
        for name in sorted(BUILTIN_IDIOMS):
            spec = REGISTRY.spec(name)
            interpreted = detect_interpreted(ctx, spec, stats=interp_stats,
                                             cache=interp_cache)
            compiled = detect(ctx, spec, stats=comp_stats, cache=comp_cache)
            assert compiled == interpreted, name
        assert interp_stats.prefix_reuses > 0  # replay actually engaged
        assert_stats_reconcile(interp_stats, comp_stats)


def test_detect_routes_engines():
    """``detect`` runs the plan engine (observable through its pruning
    counters); the interpreted reference prunes nothing, and its naive
    full-tree walk finds the same solutions."""
    spec = REGISTRY.spec("scalar-reduction")
    ctx = contexts_for(CORPUS["scalar-sum"])[0]
    default_stats = SolverStats()
    default = detect(ctx, spec, stats=default_stats,
                     cache=SharedSolverCache())
    assert default_stats.evals_pruned > 0
    interp_stats = SolverStats()
    interpreted = detect_interpreted(ctx, spec, stats=interp_stats,
                                     cache=SharedSolverCache())
    assert interp_stats.evals_pruned == 0
    assert interp_stats.conjuncts_pruned == 0
    assert default == interpreted
    naive_stats = SolverStats()
    naive = detect_interpreted(ctx, spec, stats=naive_stats,
                               cache=SharedSolverCache(), incremental=False)
    assert naive == interpreted
    assert naive_stats.evals_pruned == 0


# -- hypothesis: random label and conjunct orders -----------------------------

_HYPO_PROGRAMS = ("scalar-sum", "histogram", "argminmax")
_HYPO_CONTEXTS = {
    name: contexts_for(CORPUS[name]) for name in _HYPO_PROGRAMS
}


@given(
    idiom=st.sampled_from(sorted(MINI_SPECS)),
    program=st.sampled_from(_HYPO_PROGRAMS),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_random_orders_compiled_matches_interpreted(idiom, program, data):
    """Any label enumeration order and any conjunct order must leave
    the two engines in lockstep — the plan's schedule, pruning pass and
    memo-key construction are order-sensitive by design, so this is
    where a position-accounting bug would surface."""
    base = MINI_SPECS[idiom]()
    labels = tuple(
        data.draw(st.permutations(list(base.label_order)), label="labels")
    )
    conjuncts = list(base.constraint.children)
    shuffled = data.draw(st.permutations(conjuncts), label="conjuncts")
    spec = IdiomSpec(f"{base.name}-shuffled", labels,
                     ConstraintAnd(*shuffled))
    for ctx in _HYPO_CONTEXTS[program]:
        assert_engines_agree(ctx, spec)
        # Solution *sets* are also order-independent (the order of
        # discovery moves, the set of witnesses cannot).
        found = solution_set(detect(ctx, spec), labels)
        baseline = solution_set(detect(ctx, base), base.label_order)
        canon = {
            tuple(t[labels.index(l)] for l in base.label_order)
            for t in found
        }
        assert canon == baseline


# -- an extends order that keeps only part of the base prefix ---------------


def _partial_prefix_spec(depth: int = 8) -> IdiomSpec:
    """scalar-reduction with its tail rotated so only the first
    ``depth`` labels still match the declared for-loop base — full
    prefix replay is off, and the search starts from depth 0."""
    scalar = REGISTRY.spec("scalar-reduction")
    order = scalar.label_order
    rotated = order[:depth] + (order[depth + 1], order[depth],) + order[depth + 2:]
    spec = scalar.reordered(rotated)
    assert spec.base is None  # full-prefix replay impossible...
    assert spec.declared_base is not None  # ...but the base is declared
    return spec


def test_partial_prefix_order_matches_interpreted():
    """An order that leaves the base's order after depth 8 searches
    from depth 0 in lockstep with the reference: same solutions, and
    every counter equal (evals reconciled)."""
    spec = _partial_prefix_spec()
    assert spec.shared_prefix_len() == 8
    assert compile_plan(spec).prefix_len == 0
    for program in ("scalar-sum", "nested-sum", "iterator-carried"):
        for ctx in contexts_for(CORPUS[program]):
            stats = assert_engines_agree(ctx, spec)
            assert stats.prefix_reuses == 0
            assert stats.trie_reuses == 0


# -- limit-bounded searches ---------------------------------------------------


def test_limit_bounded_search_matches_interpreted():
    """``limit`` aborts the search mid-descent; the abort must stop on
    exactly the reference's last node.  Every shipped spec, every
    corpus function, limits 1-3, with the for-loop base already solved
    into both caches so full-prefix replay also runs bounded."""
    specs = [REGISTRY.spec(name) for name in sorted(BUILTIN_IDIOMS)]
    bases = {spec.base for spec in specs if spec.base is not None}
    plans = [compile_plan(spec) for spec in specs]
    replays = 0
    for program in all_programs():
        module = program.compile()
        for function in module.defined_functions():
            for limit in (1, 2, 3):
                ctx = SolverContext(function, module)
                interp_cache, comp_cache = (SharedSolverCache(),
                                            SharedSolverCache())
                for base in bases:
                    interp_cache.store_solutions(base, detect_interpreted(
                        ctx, base, cache=interp_cache))
                    comp_cache.store_solutions(base, detect(
                        ctx, base, cache=comp_cache))
                for spec, plan in zip(specs, plans):
                    interp_stats, comp_stats = SolverStats(), SolverStats()
                    interpreted = detect_interpreted(
                        ctx, spec, stats=interp_stats, limit=limit,
                        cache=interp_cache,
                    )
                    compiled = detect(ctx, spec, stats=comp_stats,
                                      limit=limit, cache=comp_cache)
                    assert compiled == interpreted, (program.name, spec.name)
                    assert len(compiled) <= limit
                    assert_stats_reconcile(interp_stats, comp_stats)
                    assert all(slot is _UNBOUND for slot in plan._slots)
                    replays += comp_stats.prefix_reuses
    assert replays > 0  # bounded full-prefix replay actually ran


# -- plan construction invariants ---------------------------------------------


def test_plan_is_cached_per_spec_and_slots_are_restored():
    spec = REGISTRY.spec("histogram")
    plan = compile_plan(spec)
    assert compile_plan(spec) is plan  # cached on the spec object
    assert plan.conjuncts_pruned > 0
    ctx = contexts_for(CORPUS["histogram"])[0]
    detect_plan(ctx, spec, cache=SharedSolverCache())
    # The search restores the reusable per-plan slot buffer on every
    # exit — a stale binding would leak one search's values into the
    # next.
    assert all(slot is _UNBOUND for slot in plan._slots)


def test_import_repro_loads_no_numpy():
    """The solver has no array fast path: importing the package must
    not pull numpy in (it used to cost a third of ``import repro``)."""
    probe = "import repro, sys; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_reordered_spec_compiles_its_own_plan():
    spec = REGISTRY.spec("scalar-reduction")
    rotated = _partial_prefix_spec()
    assert compile_plan(spec) is not compile_plan(rotated)
    assert compile_plan(rotated).order == rotated.label_order
