"""Ablation: label enumeration order (§3.3) and incremental checking.

"There is no canonical order on the set I ... The exact choice of this
enumeration does not affect the functionality but will be very
important for the runtime behavior of this method."

Three experiments — the third compares the incremental solver (check
only conjuncts affected by the newest binding) against the naive
full-tree walk, plus the automatic ``suggest_order`` heuristic against
the curated order.  The original two:

* on EP's kernel, the curated order versus a *structure-scrambled*
  order (blocks bound before the branch structure that would propose
  them) — bounded but measurably worse;
* on a small kernel (mri-q's Q accumulation), the curated order versus
  the fully *reversed* order, where early value labels cannot be
  proposed at all and the solver falls back to enumerating the whole
  value universe — the §3.2 blow-up in miniature.  (On EP-sized
  functions the reversed order is intractable, which is exactly the
  paper's point.)

The specs are the Python transliterations in
``tests/constraints/native_specs.py``: they declare no base, so each
run is one plain search with no replayed for-loop prefix, and the
recorded counts compare order against order only.
"""

import time

from conftest import write_artifact
from repro.constraints import (
    SolverContext,
    SolverStats,
    detect,
    suggest_order,
)
from repro.evaluation.render import table
from repro.workloads import program
from native_specs import (
    SCALAR_REDUCTION_LABEL_ORDER,
    for_loop_spec,
    scalar_reduction_spec,
)
from reference_solver import detect_interpreted

#: Blocks and values bound before the branch structure.
SCRAMBLED_ORDER = (
    "body", "exit", "latch", "entry", "header", "test", "iterator",
    "next_iter", "iter_begin", "iter_step", "iter_end", "acc",
    "acc_update", "acc_init",
)


def _run(ctx, spec):
    stats = SolverStats()
    started = time.perf_counter()
    solutions = detect(ctx, spec, stats=stats)
    return solutions, stats, time.perf_counter() - started


def test_enumeration_order_ablation(benchmark):
    curated = scalar_reduction_spec()
    assert set(SCRAMBLED_ORDER) == set(SCALAR_REDUCTION_LABEL_ORDER)

    ep_module = program("EP").fresh_module()
    ep_ctx = SolverContext(
        ep_module.get_function("gaussian_pairs"), ep_module
    )

    def run_curated():
        return _run(ep_ctx, curated)

    solutions, _, _ = benchmark.pedantic(run_curated, rounds=3,
                                         iterations=1)
    assert len(solutions) == 2  # lsx and lsy

    rows = []
    scrambled = curated.reordered(SCRAMBLED_ORDER)
    for name, ctx_spec in (
        ("EP / curated", (ep_ctx, curated)),
        ("EP / scrambled blocks", (ep_ctx, scrambled)),
    ):
        ctx, spec = ctx_spec
        solutions, stats, elapsed = _run(ctx, spec)
        assert len(solutions) == 2
        rows.append([name, len(solutions), stats.assignments_tried,
                     stats.fallbacks_to_universe,
                     f"{elapsed * 1000:.1f} ms"])

    # The miniature §3.2 blow-up: full reversal on a small function.
    mri_module = program("mri-q").fresh_module()
    mri_ctx = SolverContext(mri_module.get_function("compute_q"),
                            mri_module)
    reversed_spec = curated.reordered(
        tuple(reversed(curated.label_order))
    )
    for name, spec in (("mri-q / curated", curated),
                       ("mri-q / reversed", reversed_spec)):
        solutions, stats, elapsed = _run(mri_ctx, spec)
        assert len(solutions) == 1
        rows.append([name, len(solutions), stats.assignments_tried,
                     stats.fallbacks_to_universe,
                     f"{elapsed * 1000:.1f} ms"])

    # Cost-aware suggest_order, fed the curated run's per-(label,
    # bound-set) statistics: never worse than the curated order itself.
    # Fresh contexts per run so both measurements are cold-cache.
    for name, function in (("EP", "gaussian_pairs"),
                           ("mri-q", "compute_q")):
        def fresh_ctx():
            module = program(name).fresh_module()
            return SolverContext(module.get_function(function), module)

        _, curated_stats, _ = _run(fresh_ctx(), curated)
        aware = curated.reordered(
            suggest_order(curated, feedback=curated_stats)
        )
        solutions, stats, elapsed = _run(fresh_ctx(), aware)
        assert stats.constraint_evals <= curated_stats.constraint_evals
        rows.append([f"{name} / feedback-aware", len(solutions),
                     stats.assignments_tried,
                     stats.fallbacks_to_universe,
                     f"{elapsed * 1000:.1f} ms"])

    text = table(
        ["configuration", "solutions", "assignments",
         "universe fallbacks", "time"],
        rows,
        title="§3.3 ablation: enumeration order vs search effort",
    )
    print()
    print(write_artifact("ablation_solver_order.txt", text))
    assert rows[1][2] > rows[0][2]  # scrambled works harder on EP
    assert rows[3][2] > rows[2][2]  # reversed works harder on mri-q


def _naive_walk(ctx, spec, stats):
    """The full-tree walk: every conjunct re-checked at every binding."""
    return detect_interpreted(ctx, spec, stats=stats, incremental=False)


def test_incremental_solver_ablation():
    """Incremental conjunct indexing vs the naive full-tree walk.

    Acceptance metric for the incremental solver: on the for-loop spec
    the indexed path performs strictly fewer per-solution constraint
    evaluations than re-walking the whole tree at every binding, with
    no change in the solutions found.
    """
    spec = for_loop_spec()
    rows = []
    for workload, function in (("EP", "gaussian_pairs"),
                               ("mri-q", "compute_q")):
        module = program(workload).fresh_module()
        ctx = SolverContext(module.get_function(function), module)
        runs = {}
        for mode, search in (("incremental", detect),
                             ("naive", _naive_walk)):
            stats = SolverStats()
            started = time.perf_counter()
            solutions = search(ctx, spec, stats=stats)
            elapsed = time.perf_counter() - started
            runs[mode] = (solutions, stats)
            per_solution = stats.constraint_evals / max(1, stats.solutions)
            rows.append([f"{workload} / {mode}", len(solutions),
                         stats.constraint_evals, f"{per_solution:.0f}",
                         stats.proposal_cache_hits,
                         f"{elapsed * 1000:.1f} ms"])
        inc_solutions, inc_stats = runs["incremental"]
        naive_solutions, naive_stats = runs["naive"]
        # No change in solutions found...
        assert inc_solutions == naive_solutions
        assert inc_stats.assignments_tried == naive_stats.assignments_tried
        # ...with strictly fewer per-solution constraint evaluations.
        assert inc_stats.constraint_evals < naive_stats.constraint_evals

    # The automatic order heuristic is usable end-to-end.
    module = program("mri-q").fresh_module()
    ctx = SolverContext(module.get_function("compute_q"), module)
    auto = spec.reordered(suggest_order(spec))
    stats = SolverStats()
    solutions = detect(ctx, auto, stats=stats)
    assert {id(s["header"]) for s in solutions} == {
        id(s["header"]) for s in detect(ctx, spec)
    }
    rows.append(["mri-q / suggest_order", len(solutions),
                 stats.constraint_evals,
                 f"{stats.constraint_evals / max(1, stats.solutions):.0f}",
                 stats.proposal_cache_hits, "-"])

    # Cost-aware ordering: feedback is the SolverStats of a previous
    # run of the shipped (curated) order on the same function — the
    # per-(label, bound-set) statistics follow the cheapest measured
    # continuation, so the suggested order is never worse than the
    # order that produced the feedback.  Acceptance bar: ≤ curated
    # constraint evals on both EP and mri-q.
    for workload, function in (("EP", "gaussian_pairs"),
                               ("mri-q", "compute_q")):
        fb_module = program(workload).fresh_module()
        fb_ctx = SolverContext(fb_module.get_function(function), fb_module)
        curated_stats = SolverStats()
        curated_solutions = detect(fb_ctx, spec, stats=curated_stats)
        cost_aware = spec.reordered(
            suggest_order(spec, feedback=curated_stats)
        )
        aware_stats = SolverStats()
        aware_solutions = detect(fb_ctx, cost_aware, stats=aware_stats)
        assert {id(s["header"]) for s in aware_solutions} == {
            id(s["header"]) for s in curated_solutions
        }
        assert aware_stats.constraint_evals <= curated_stats.constraint_evals
        rows.append(
            [f"{workload} / suggest_order+feedback", len(aware_solutions),
             aware_stats.constraint_evals,
             f"{aware_stats.constraint_evals / max(1, aware_stats.solutions):.0f}",
             aware_stats.proposal_cache_hits, "-"])

    text = table(
        ["configuration", "solutions", "constraint evals",
         "evals/solution", "proposal cache hits", "time"],
        rows,
        title="incremental solver: constraint evaluations vs naive walk",
    )
    print()
    print(write_artifact("ablation_incremental_solver.txt", text))
