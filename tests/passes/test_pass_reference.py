"""CFG cleanup passes against reference implementations, plus a
timer-free linearity guard for ``compile_source``.

``merge_straightline_blocks`` makes one forward sweep in which every
block absorbs its whole chain; the reference below is the pair-at-a-
time fixpoint that restarts its scan after each merge.  Chain merging
is confluent, so both must print the same IR whatever the order of the
function's block list.
"""

import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import compile_source, lower_source
from repro.ir import BranchInst, print_module
from repro.passes.simplify import (
    dead_code_elimination,
    merge_straightline_blocks,
    remove_trivial_phis,
    remove_unreachable_blocks,
)
from repro.workloads.corpus import all_programs

_TESTS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_TESTS / "frontend"))
sys.path.insert(0, str(_TESTS / "ir"))
from test_pipeline_property import programs  # noqa: E402
from test_predecessors import scan_predecessors  # noqa: E402


def fixpoint_merge_straightline_blocks(function):
    """Reference: merge one ``A -> B`` pair, then rescan from the top."""
    merged = 0
    changed = True
    while changed:
        changed = False
        for block in list(function.blocks):
            terminator = block.terminator
            if not isinstance(terminator, BranchInst) or terminator.is_conditional:
                continue
            successor = terminator.targets()[0]
            if successor is block:
                continue
            preds = scan_predecessors(successor)
            if len(preds) != 1 or preds[0] is not block:
                continue
            for phi in list(successor.phis()):
                value = phi.incoming_for_block(block)
                phi.replace_all_uses_with(value)
                phi.drop_all_references()
                successor.remove(phi)
            block.remove(terminator)
            terminator.drop_all_references()
            for instruction in list(successor.instructions):
                successor.remove(instruction)
                block.append(instruction)
            successor.replace_all_uses_with(block)
            function.blocks.remove(successor)
            successor.parent = None
            merged += 1
            changed = True
            break
    return merged


def _before_merge(source, permutation):
    """``source`` lowered and cleaned up to just before block merging,
    with every function's non-entry blocks reordered by
    ``permutation(count)`` (a list of indices into ``blocks[1:]``)."""
    module = lower_source(source)
    for function in module.defined_functions():
        remove_unreachable_blocks(function)
        dead_code_elimination(function)
        remove_trivial_phis(function)
        rest = function.blocks[1:]
        order = permutation(len(rest))
        function.blocks[1:] = [rest[i] for i in order]
    return module


def _assert_sweep_matches_fixpoint(source, permutation):
    swept = _before_merge(source, permutation)
    reference = _before_merge(source, permutation)
    merged = [merge_straightline_blocks(f) for f in swept.defined_functions()]
    expected = [
        fixpoint_merge_straightline_blocks(f)
        for f in reference.defined_functions()
    ]
    assert merged == expected
    assert print_module(swept) == print_module(reference)


def _shuffled(seed):
    def permutation(count):
        order = list(range(count))
        random.Random(seed).shuffle(order)
        return order

    return permutation


def test_merge_sweep_matches_fixpoint_on_corpus():
    for seed, bench in enumerate(all_programs()):
        _assert_sweep_matches_fixpoint(bench.source, range)
        _assert_sweep_matches_fixpoint(bench.source, _shuffled(seed))


@given(source=programs(), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_merge_sweep_matches_fixpoint_in_any_block_order(source, seed):
    _assert_sweep_matches_fixpoint(source, _shuffled(seed))


def _sequential_loops(count):
    loops = "\n".join(
        f"    for (int i{j} = 0; i{j} < n; i{j}++) s = s + a[i{j}];"
        for j in range(count)
    )
    return (
        "double a[64]; int n;\n"
        f"double f(void) {{\n    double s = 0.0;\n{loops}\n    return s;\n}}\n"
    )


def test_compile_source_branch_queries_scale_linearly(monkeypatch):
    """Counts ``BranchInst.targets`` calls instead of timing: a 4x
    longer function may cost at most 6x the CFG queries.  Scanning all
    blocks per predecessor query, and restarting the merge scan after
    every merge, made this ratio about 31x."""
    calls = [0]
    targets = BranchInst.targets

    def counting(self):
        calls[0] += 1
        return targets(self)

    monkeypatch.setattr(BranchInst, "targets", counting)
    counts = []
    for loops in (4, 16):
        calls[0] = 0
        compile_source(_sequential_loops(loops))
        counts.append(calls[0])
    assert counts[1] < 6 * counts[0], counts
