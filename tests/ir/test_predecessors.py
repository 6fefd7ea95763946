"""``BasicBlock.predecessors()`` against the full-scan reference.

Predecessors are read off the block's use-list; the reference scans
every block of the function for a terminator naming the block, which
is what the use-list walk must reproduce — same blocks, same order —
at every point of the compile pipeline, not only on its output.
"""

import sys
from pathlib import Path

from hypothesis import given, settings

from repro.frontend import lower_source
from repro.ir import (
    INT1,
    INT64,
    BranchInst,
    FunctionType,
    IRBuilder,
    Module,
    const_int,
)
from repro.passes.cse import local_cse
from repro.passes.licm import hoist_invariant_loads
from repro.passes.mem2reg import promote_allocas
from repro.passes.simplify import (
    dead_code_elimination,
    merge_straightline_blocks,
    remove_trivial_phis,
    remove_unreachable_blocks,
)
from repro.workloads.corpus import all_programs

_TESTS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_TESTS / "frontend"))
sys.path.insert(0, str(_TESTS / "passes"))
from alloca_form import guarded_sum_module, join_module  # noqa: E402
from test_pipeline_property import programs  # noqa: E402

#: ``compile_source``'s pass sequence, per defined function, in order.
PIPELINE = (
    remove_unreachable_blocks,
    dead_code_elimination,
    remove_trivial_phis,
    merge_straightline_blocks,
    hoist_invariant_loads,
    local_cse,
)


def scan_predecessors(block):
    """Reference: every block of the function whose successors name
    ``block``, each once, in function block order."""
    if block.parent is None:
        return []
    return [b for b in block.parent.blocks if block in b.successors()]


def _assert_matches_reference(module, after):
    for function in module.defined_functions():
        for block in function.blocks:
            assert block.predecessors() == scan_predecessors(block), (
                f"{function.name}/{block.name} after {after}"
            )


def _check_pipeline(source):
    module = lower_source(source)
    _assert_matches_reference(module, "lowering")
    for function in module.defined_functions():
        for pass_fn in PIPELINE:
            pass_fn(function)
            _assert_matches_reference(module, pass_fn.__name__)


def test_corpus_predecessors_match_reference_after_every_pass():
    for bench in all_programs():
        _check_pipeline(bench.source)


@given(source=programs())
@settings(max_examples=40, deadline=None)
def test_generated_predecessors_match_reference_after_every_pass(source):
    _check_pipeline(source)


def test_mem2reg_predecessors_match_reference():
    """mem2reg, which compilation no longer runs, on alloca-form IR."""
    for module in (join_module(), guarded_sum_module()):
        _assert_matches_reference(module, "building")
        for function in module.defined_functions():
            for pass_fn in (remove_unreachable_blocks, promote_allocas,
                            *PIPELINE[1:]):
                pass_fn(function)
                _assert_matches_reference(module, pass_fn.__name__)


def _function():
    module = Module("m")
    return module.add_function("f", FunctionType(INT64, ()), [])


def test_conditional_branch_to_one_block_lists_it_once():
    fn = _function()
    entry, join = fn.add_block("entry"), fn.add_block("join")
    IRBuilder(entry).cond_br(const_int(1, INT1), join, join)
    IRBuilder(join).ret(const_int(0))
    assert join.predecessors() == [entry]
    assert join.predecessors() == scan_predecessors(join)


def test_detached_branch_is_not_an_edge():
    fn = _function()
    entry, exit_ = fn.add_block("entry"), fn.add_block("exit")
    IRBuilder(entry).br(exit_)
    IRBuilder(exit_).ret(const_int(0))
    stale = entry.terminator
    entry.remove(stale)  # still holds ``exit`` as its operand
    assert exit_.uses and exit_.uses[0].user is stale
    IRBuilder(entry).ret(const_int(1))
    assert exit_.predecessors() == []
    assert exit_.predecessors() == scan_predecessors(exit_)
    # Unparented but never inserted: a fresh branch is no edge either.
    BranchInst(exit_)
    assert exit_.predecessors() == []


def test_phi_incoming_block_is_not_an_edge():
    fn = _function()
    entry, body, join = (fn.add_block(n) for n in ("entry", "body", "join"))
    IRBuilder(entry).br(join)
    IRBuilder(body).br(join)
    b = IRBuilder(join)
    phi = b.phi(INT64, "p")
    phi.add_incoming(const_int(1), entry)
    phi.add_incoming(const_int(2), body)
    b.ret(phi)
    # ``join`` names ``entry`` only as a phi incoming block.
    assert entry.predecessors() == []
    assert join.predecessors() == [entry, body]
    assert all(
        blk.predecessors() == scan_predecessors(blk) for blk in fn.blocks
    )


def test_predecessors_follow_block_order_within_the_function():
    fn = _function()
    entry, left, right, join = (
        fn.add_block(n) for n in ("entry", "left", "right", "join")
    )
    IRBuilder(entry).cond_br(const_int(1, INT1), left, right)
    IRBuilder(join).ret(const_int(0))
    IRBuilder(right).br(join)  # join's use-list now lists right first
    IRBuilder(left).br(join)
    # A branch of another function naming ``join`` is no edge of it.
    other = fn.parent.add_function("g", FunctionType(INT64, ()), [])
    IRBuilder(other.add_block("entry")).br(join)
    assert [u.user.parent for u in join.uses][0] is right
    assert join.predecessors() == [left, right]
    assert join.predecessors() == scan_predecessors(join)
