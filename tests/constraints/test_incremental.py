"""Tests for the incremental solver core.

The indexed ``partial_check`` path (re-check only conjuncts mentioning
the newest binding) must accept and reject **exactly** the same partial
assignments as the naive full-tree walk — same solutions in the same
order, same ``assignments_tried``, same ``partial_rejections`` — while
strictly reducing ``constraint_evals``.  The naive walk is the test
reference ``detect_interpreted(..., incremental=False)``
(``reference_solver.py``); it runs the Python specs of
``native_specs.py``, which declare no base, so neither side replays a
solved for-loop prefix.  Plus property tests that
:func:`~repro.constraints.solver.suggest_order` (and label reordering
in general) never changes the solution set.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (
    SolverContext,
    SolverStats,
    compile_spec,
    detect,
    suggest_order,
)
from repro.frontend import compile_source
from repro.idioms import BUILTIN_IDIOMS, default_registry

from native_specs import NATIVE_SPECS, scalar_reduction_spec
from reference_solver import detect_interpreted
from test_differential import CORPUS, contexts_for, solution_set


@pytest.mark.parametrize("idiom", sorted(NATIVE_SPECS))
@pytest.mark.parametrize("program", sorted(CORPUS))
def test_incremental_equals_naive_tree_walk(idiom, program):
    spec = NATIVE_SPECS[idiom]()
    for ctx in contexts_for(CORPUS[program]):
        inc_stats, naive_stats = SolverStats(), SolverStats()
        incremental = detect(ctx, spec, stats=inc_stats)
        naive = detect_interpreted(ctx, spec, stats=naive_stats,
                                   incremental=False)
        # Identical enumeration: same solutions in the same order...
        assert incremental == naive
        # ...from identical accept/reject decisions at every depth.
        assert inc_stats.assignments_tried == naive_stats.assignments_tried
        assert inc_stats.partial_rejections == naive_stats.partial_rejections
        assert inc_stats.solutions == naive_stats.solutions
        assert inc_stats.fallbacks_to_universe == (
            naive_stats.fallbacks_to_universe
        )
        # The index only pays for conjuncts the newest binding affects.
        assert inc_stats.constraint_evals <= naive_stats.constraint_evals
        if naive_stats.assignments_tried:
            assert inc_stats.constraint_evals < naive_stats.constraint_evals


def test_compiled_schedule_covers_every_conjunct():
    """Each conjunct is checked at every depth that binds one of its
    labels — and at least once (so solutions satisfy all conjuncts)."""
    for factory in NATIVE_SPECS.values():
        spec = factory()
        compiled = compile_spec(spec)
        scheduled = set()
        for k, indices in enumerate(compiled.schedule):
            label = spec.label_order[k]
            for i in indices:
                assert label in compiled.labelsets[i]
            scheduled.update(indices)
        assert scheduled == set(range(len(compiled.conjuncts)))


def test_proposal_memoization_hits_on_repeated_lookups():
    module = compile_source(
        """
        double a[64]; int n;
        double f(void) {
            double s = 0.0; double t = 0.0;
            for (int i = 0; i < n; i++) s = s + a[i];
            for (int j = 0; j < n; j++) t = t + a[j+1];
            return s + t;
        }
        """
    )
    ctx = SolverContext(module.get_function("f"), module)
    stats = SolverStats()
    solutions = detect(ctx, scalar_reduction_spec(), stats=stats)
    assert len(solutions) == 2
    assert stats.proposal_cache_hits > 0


@pytest.mark.parametrize("idiom", sorted(NATIVE_SPECS))
def test_suggest_order_is_a_permutation(idiom):
    spec = NATIVE_SPECS[idiom]()
    order = suggest_order(spec)
    assert sorted(order) == sorted(spec.label_order)


@pytest.mark.parametrize("idiom", sorted(NATIVE_SPECS))
@pytest.mark.parametrize("program", sorted(CORPUS))
def test_suggest_order_preserves_solution_set(idiom, program):
    spec = NATIVE_SPECS[idiom]()
    reordered = spec.reordered(suggest_order(spec))
    for ctx in contexts_for(CORPUS[program]):
        assert solution_set(
            detect(ctx, spec), spec.label_order
        ) == solution_set(detect(ctx, reordered), spec.label_order)


@pytest.mark.parametrize("idiom", sorted(NATIVE_SPECS))
def test_cost_aware_suggest_order_preserves_solution_set(idiom):
    """Feeding observed SolverStats back into the ordering (the
    cost-aware flag) may permute labels but never changes solutions."""
    spec = NATIVE_SPECS[idiom]()
    for program in ("scalar-sum", "histogram"):
        for ctx in contexts_for(CORPUS[program]):
            feedback = SolverStats()
            baseline = detect(ctx, spec, stats=feedback)
            order = suggest_order(spec, feedback=feedback)
            assert sorted(order) == sorted(spec.label_order)
            assert solution_set(
                detect(ctx, spec.reordered(order)), spec.label_order
            ) == solution_set(baseline, spec.label_order)


def test_cost_aware_suggest_order_reacts_to_observed_cost():
    """Among measured continuations at the same bound prefix, the one
    with the smaller mean candidate list wins — the runtime feedback,
    not just the static score, decides."""
    spec = default_registry().spec("for-loop")
    static = suggest_order(spec)
    feedback = SolverStats()
    feedback.candidates_per_prefix = {
        (static[0], frozenset()): (1, 10 ** 6),
        (static[1], frozenset()): (1, 3),
    }
    cost_aware = suggest_order(spec, feedback=feedback)
    assert sorted(cost_aware) == sorted(spec.label_order)
    assert cost_aware != static
    assert cost_aware[0] == static[1]


def test_cost_aware_suggest_order_replays_the_observed_order():
    """Feedback conditioned on the bound prefix never trades measured
    territory for unmeasured territory: stats from a run of some order
    reproduce that order, so feedback is never worse than the run that
    produced it."""
    spec = default_registry().spec("for-loop")
    for observed_order in (
        spec.label_order,
        tuple(reversed(spec.label_order)),
    ):
        reordered = spec.reordered(observed_order)
        for ctx in contexts_for(CORPUS["scalar-sum"]):
            feedback = SolverStats()
            detect(ctx, reordered, stats=feedback)
            assert suggest_order(spec, feedback=feedback) == observed_order


def test_solver_stats_merge_accumulates_counters():
    spec = default_registry().spec("for-loop")
    ctx = contexts_for(CORPUS["scalar-sum"])[0]
    a, b = SolverStats(), SolverStats()
    detect(ctx, spec, stats=a)
    detect(ctx, spec.reordered(suggest_order(spec)), stats=b)
    merged = SolverStats().merge(a).merge(b)
    assert merged.constraint_evals == a.constraint_evals + b.constraint_evals
    assert merged.assignments_tried == (
        a.assignments_tried + b.assignments_tried
    )
    for key, (visits, total) in a.candidates_per_prefix.items():
        b_visits, b_total = b.candidates_per_prefix.get(key, (0, 0))
        assert merged.candidates_per_prefix[key] == (
            visits + b_visits, total + b_total
        )


def test_suggest_order_without_feedback_is_static():
    """The flag off (no feedback) reproduces the static heuristic."""
    for factory in NATIVE_SPECS.values():
        spec = factory()
        assert suggest_order(spec) == suggest_order(
            spec, feedback=SolverStats()
        )


def test_suggest_order_starts_proposable():
    """The heuristic must not open with a universe-fallback label."""
    spec = default_registry().spec("for-loop")
    ctx = contexts_for(CORPUS["scalar-sum"])[0]
    order = suggest_order(spec)
    stats = SolverStats()
    detect(ctx, spec.reordered(order), stats=stats)
    # Binding the first suggested label never falls back to enumerating
    # the whole universe: some conjunct proposes it from nothing.
    first = order[0]
    assert stats.candidates_per_label.get(first, 0) < len(ctx.universe)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_label_order_preserves_solution_set(data):
    """§3.3: enumeration order affects effort, never the solution set.

    Random permutations subsume ``suggest_order`` — the solver must be
    order-independent for the heuristic to be free to pick anything.
    """
    spec = default_registry().spec("for-loop")
    order = tuple(
        data.draw(st.permutations(list(spec.label_order)), label="order")
    )
    module = compile_source(CORPUS["scalar-sum"])
    ctx = SolverContext(module.get_function("f"), module)
    baseline = solution_set(detect(ctx, spec), spec.label_order)
    permuted = solution_set(
        detect(ctx, spec.reordered(order)), spec.label_order
    )
    assert permuted == baseline


def test_builtin_coverage_matches_registry():
    assert set(NATIVE_SPECS) == set(BUILTIN_IDIOMS)
    assert {spec.name for spec in
            (factory() for factory in NATIVE_SPECS.values())} == set(
        BUILTIN_IDIOMS
    )
