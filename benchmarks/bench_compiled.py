"""Compiled-engine micro-benchmark: flat plans vs the interpreter.

The PR-7 acceptance measurement, recorded under ``compiled_engine`` in
``results/BENCH_pipeline.json``:

* **differential**: on every function of the 40-program corpus, every
  shipped spec's compiled detection (``detect``) equals the interpreted
  reference's (``detect_interpreted``, in
  ``tests/constraints/reference_solver.py``) — the identical solution
  list —
  and the eval accounting reconciles (``interpreted.constraint_evals ==
  compiled.constraint_evals + compiled.evals_pruned``);
* **speedup**: corpus-wide detection wall-clock, compiled/shared vs
  interpreted/per-call (a fresh cache per call).  Legs are interleaved
  round by round and the per-round ratio's **median** is reported —
  legs inside one round share machine conditions, so the ratio is
  robust to load swings that wreck absolute best-of-N timings.  The
  acceptance bar is ≥ 5x (``REPRO_MIN_SOLVER_SPEEDUP`` overrides for
  noisy CI runners; the recorded number carries the real story), and
  the compiled engine must never be slower in any single round.
"""

import json
import os
import statistics
import time

from conftest import RESULTS_DIR, write_artifact
from repro.constraints import (
    SharedSolverCache,
    SolverContext,
    SolverStats,
    detect,
)
from repro.constraints.plan import compile_plan
from repro.evaluation.render import table
from repro.idioms import IdiomRegistry
from repro.workloads import corpus
from reference_solver import detect_interpreted

#: Interleaved measurement rounds (median-of-rounds reported).
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "5"))

#: The asserted speedup floor, compiled/shared vs interpreted/per-call.
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_SOLVER_SPEEDUP", "5.0"))

LEGS = (
    ("interpreted/per-call", detect_interpreted, False),
    ("interpreted/shared", detect_interpreted, True),
    ("compiled/shared", detect, True),
    ("compiled/per-call", detect, False),
)


def _corpus_contexts():
    """One solver context per defined function of the whole corpus."""
    contexts = []
    for program in corpus.all_programs():
        module = program.compile()
        for function in module.defined_functions():
            contexts.append(SolverContext(function, module))
    return contexts


def _run_leg(contexts, specs, search, shared):
    """One corpus-wide detection pass; returns (wall, stats)."""
    stats = SolverStats()
    started = time.perf_counter()
    for ctx in contexts:
        cache = SharedSolverCache()
        for spec in specs:
            search(ctx, spec, stats=stats,
                   cache=cache if shared else SharedSolverCache())
    return time.perf_counter() - started, stats


def test_compiled_engine_differential_and_speedup():
    registry = IdiomRegistry()
    specs = [registry.spec(name) for name in registry.names()]
    contexts = _corpus_contexts()
    for spec in specs:  # plan compilation is one-time, off the clock
        compile_plan(spec)

    # -- differential: every function, every spec, both engines ------
    mismatches = 0
    for ctx in contexts:
        for spec in specs:
            interpreted = detect_interpreted(ctx, spec,
                                             cache=SharedSolverCache())
            compiled = detect(ctx, spec, cache=SharedSolverCache())
            if compiled != interpreted:
                mismatches += 1
    assert mismatches == 0

    # -- interleaved wall-clock measurement ---------------------------
    _run_leg(contexts, specs, detect, True)  # warm the caches/JIT
    best: dict = {}
    stats_of: dict = {}
    ratios = []
    for _ in range(ROUNDS):
        walls = {}
        for label, search, shared in LEGS:
            wall, stats = _run_leg(contexts, specs, search, shared)
            walls[label] = wall
            stats_of[label] = stats
            if label not in best or wall < best[label]:
                best[label] = wall
        # The compiled path is never slower, in any single round.
        assert walls["compiled/shared"] <= walls["interpreted/per-call"]
        assert walls["compiled/shared"] <= walls["interpreted/shared"]
        ratios.append(
            walls["interpreted/per-call"] / walls["compiled/shared"]
        )
    speedup = statistics.median(ratios)
    assert speedup >= MIN_SPEEDUP, (
        f"compiled engine {speedup:.2f}x < {MIN_SPEEDUP}x floor "
        f"(round ratios: {[round(r, 2) for r in ratios]})"
    )

    # -- eval accounting reconciles across engines --------------------
    interp = stats_of["interpreted/per-call"]
    comp = stats_of["compiled/per-call"]
    assert (comp.constraint_evals + comp.evals_pruned
            == interp.constraint_evals)
    assert comp.conjuncts_pruned > 0

    # -- record into BENCH_pipeline.json ------------------------------
    path = os.path.join(RESULTS_DIR, "BENCH_pipeline.json")
    payload = {}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    payload["compiled_engine"] = {
        "rounds": ROUNDS,
        "contexts": len(contexts),
        "specs": len(specs),
        "legs": {
            label: {
                "wall_seconds": round(best[label], 4),
                "constraint_evals": stats_of[label].constraint_evals,
                "evals_pruned": stats_of[label].evals_pruned,
            }
            for label, _, _ in LEGS
        },
        "round_ratios": [round(r, 3) for r in ratios],
        "speedup_median": round(speedup, 3),
        "speedup_best_of_best": round(
            best["interpreted/per-call"] / best["compiled/shared"], 3
        ),
        "asserted_floor": MIN_SPEEDUP,
    }
    write_artifact("BENCH_pipeline.json", json.dumps(payload, indent=2))

    rows = [
        [label, f"{best[label] * 1000:.0f} ms",
         stats_of[label].constraint_evals,
         stats_of[label].evals_pruned]
        for label, _, _ in LEGS
    ]
    text = table(
        ["engine/cache", "wall (best)", "constraint evals", "evals pruned"],
        rows,
        title=(
            f"corpus detection: compiled {speedup:.2f}x vs interpreted "
            f"(median of {ROUNDS} interleaved rounds)"
        ),
    )
    print()
    print(write_artifact("bench_compiled.txt", text))
