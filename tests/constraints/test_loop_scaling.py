"""The base search on functions with many loops.

Corpus functions have one to three loops, so the function-wide
proposal paths (use-list opcode proposals, shared function-wide lists
and their id-sets, rows that never propose) barely run there.  These
tests build straight-line functions with up to 34 loops:

* a timer-free linearity guard: the proposal elements a ``for-loop``
  search builds, scans or hashes, counted per loop, may grow at most
  1.3x from 4 to 34 loops (re-scanning function-wide lists per loop
  made it about 6x);
* compiled ≡ interpreted on every registry spec — solutions in order
  and every counter — on fresh caches and on one shared cache.
"""

import builtins

import pytest

from repro import compile_source
from repro.constraints import (
    Opcode,
    SharedSolverCache,
    SolverContext,
    SolverStats,
    detect,
)
from repro.constraints import logical, plan
from repro.idioms import BUILTIN_IDIOMS, IdiomRegistry
from reference_solver import detect_interpreted
from test_plan import assert_engines_agree, assert_stats_reconcile

REGISTRY = IdiomRegistry()

#: One loop each: a sum, a histogram and a dot product, dealt in turn.
KERNELS = (
    "    for (int i{j} = 0; i{j} < n; i{j}++) s = s + a[i{j}];",
    "    for (int i{j} = 0; i{j} < n; i{j}++) hist[keys[i{j}]]++;",
    "    for (int i{j} = 0; i{j} < n; i{j}++) d = d + a[i{j}] * b[i{j}];",
)


def mixed_loops(count: int) -> str:
    """One function running ``count`` loops in sequence."""
    body = "\n".join(KERNELS[j % 3].format(j=j) for j in range(count))
    return (
        "double a[64]; double b[64]; int hist[8]; int keys[64]; int n;\n"
        "double f(void) {\n    double s = 0.0;\n    double d = 0.0;\n"
        f"{body}\n    return s + d;\n}}\n"
    )


def _context(loops):
    module = compile_source(mixed_loops(loops))
    return SolverContext(module.get_function("f"), module)


def test_for_loop_proposal_work_per_loop_is_flat(monkeypatch):
    """Counts instead of timing.  Built: elements the plan copies into
    the proposal memo.  Hashed: ``id`` calls in the proposal logic
    (intersection sets, disjunction unions).  Scanned: opcode operand
    matches."""
    touched = [0]

    def counting_list(items=()):
        result = builtins.list(items)
        touched[0] += len(result)
        return result

    def counting_id(value):
        touched[0] += 1
        return builtins.id(value)

    operand_match = Opcode._operand_match

    def counting_match(self, instruction, assignment):
        touched[0] += 1
        return operand_match(self, instruction, assignment)

    spec = REGISTRY.spec("for-loop")
    plan.compile_plan(spec)
    monkeypatch.setattr(plan, "list", counting_list, raising=False)
    monkeypatch.setattr(logical, "id", counting_id, raising=False)
    monkeypatch.setattr(Opcode, "_operand_match", counting_match)
    per_loop = []
    for loops in (4, 34):
        ctx = _context(loops)
        touched[0] = 0
        assert len(detect(ctx, spec)) == loops
        per_loop.append(touched[0] / loops)
    assert per_loop[1] <= 1.3 * per_loop[0], per_loop


@pytest.mark.parametrize("idiom", sorted(BUILTIN_IDIOMS))
@pytest.mark.parametrize("loops", [1, 8, 34])
def test_compiled_matches_interpreted_on_long_functions(idiom, loops):
    assert_engines_agree(_context(loops), REGISTRY.spec(idiom))


@pytest.mark.parametrize("loops", [1, 8, 34])
def test_compiled_matches_interpreted_shared_cache_on_long_functions(loops):
    ctx = _context(loops)
    interp_stats, comp_stats = SolverStats(), SolverStats()
    interp_cache, comp_cache = SharedSolverCache(), SharedSolverCache()
    for name in ("for-loop",) + tuple(
        sorted(set(BUILTIN_IDIOMS) - {"for-loop"})
    ):
        spec = REGISTRY.spec(name)
        interpreted = detect_interpreted(ctx, spec, stats=interp_stats,
                                         cache=interp_cache)
        compiled = detect(ctx, spec, stats=comp_stats, cache=comp_cache)
        assert compiled == interpreted, name
    assert interp_stats.prefix_reuses > 0
    assert_stats_reconcile(interp_stats, comp_stats)
