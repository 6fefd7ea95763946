"""Every IR mutation bumps the containing function's epoch.

Cached analyses are keyed on the epoch (each function's analysis
cache, and the solver context that ``find_reductions`` hands to
``find_extended_reductions``), so a mutation that forgets to bump it
would let a stale analysis through.
"""

import pytest

from repro.ir import (
    INT64,
    BasicBlock,
    BinaryInst,
    FunctionType,
    IRBuilder,
    Module,
    PhiInst,
    const_int,
)
from repro.passes.simplify import (
    merge_straightline_blocks,
    remove_unreachable_blocks,
)


@pytest.fixture
def function():
    """``f(x)``: entry → body → exit, plus a dead block."""
    module = Module("m")
    fn = module.add_function("f", FunctionType(INT64, (INT64,)), ["x"])
    entry, body, exit_ = (fn.add_block(n) for n in ("entry", "body", "exit"))
    dead = fn.add_block("dead")
    builder = IRBuilder(entry)
    builder.br(body)
    builder.position_at_end(body)
    total = builder.add(fn.args[0], const_int(1), "total")
    builder.br(exit_)
    builder.position_at_end(exit_)
    builder.ret(total)
    builder.position_at_end(dead)
    builder.br(exit_)
    return fn


def bumps(fn, mutate) -> int:
    before = fn.epoch
    mutate()
    return fn.epoch - before


def test_block_methods_bump(function):
    body = function.blocks[1]
    extra = BinaryInst("add", const_int(1), const_int(2), "extra")
    assert bumps(function, lambda: body.insert(0, extra)) > 0
    assert bumps(function, lambda: body.remove(extra)) > 0
    other = BasicBlock("tail")
    function.append_block(other)
    assert bumps(function, lambda: other.append(
        BinaryInst("add", const_int(1), const_int(2)))) > 0


def test_append_block_bumps(function):
    assert bumps(function, lambda: function.append_block(BasicBlock("b"))) > 0
    assert bumps(function, lambda: function.add_block("c")) > 0


def test_operand_methods_bump_on_attached_instructions(function):
    total = function.blocks[1].instructions[0]
    assert bumps(function, lambda: total.set_operand(1, const_int(5))) > 0
    phi = PhiInst(INT64, "p")
    function.blocks[2].insert(0, phi)
    assert bumps(function, lambda: phi.add_incoming(
        const_int(0), function.blocks[1])) > 0
    assert bumps(function, phi.drop_all_references) > 0
    # A no-op replacement changes nothing.
    assert bumps(function, lambda: total.set_operand(1, total.operand(1))) \
        == 0


def test_detached_instructions_do_not_bump(function):
    loose = BinaryInst("add", const_int(1), const_int(2))
    assert bumps(function, lambda: loose.set_operand(0, const_int(3))) == 0
    assert bumps(function, loose.drop_all_references) == 0


def test_cleanup_passes_bump_for_their_direct_list_edits(function):
    assert bumps(function, lambda: remove_unreachable_blocks(function)) > 0
    assert bumps(function, lambda: merge_straightline_blocks(function)) > 0
    assert [b.name for b in function.blocks] == ["entry"]
    # Nothing left to do: no bump.
    assert bumps(function, lambda: remove_unreachable_blocks(function)) == 0
    assert bumps(function, lambda: merge_straightline_blocks(function)) == 0
