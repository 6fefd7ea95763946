"""Tests for instruction construction and invariants."""

import pytest

from repro.ir import (
    DOUBLE,
    INT64,
    BasicBlock,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    Function,
    FunctionType,
    GEPInst,
    GlobalVariable,
    ICmpInst,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    const_bool,
    const_float,
    const_int,
)


def test_binary_rejects_unknown_opcode():
    with pytest.raises(ValueError):
        BinaryInst("frob", const_int(1), const_int(2))


def test_binary_rejects_type_mismatch():
    with pytest.raises(TypeError):
        BinaryInst("add", const_int(1), const_float(2.0))


def test_binary_result_type_follows_operands():
    add = BinaryInst("add", const_int(1), const_int(2))
    fmul = BinaryInst("fmul", const_float(1.0), const_float(2.0))
    assert add.type == INT64
    assert fmul.type == DOUBLE


def test_commutativity_classification():
    assert BinaryInst("add", const_int(1), const_int(2)).is_commutative()
    assert BinaryInst("fmul", const_float(1.0),
                      const_float(2.0)).is_commutative()
    assert not BinaryInst("sub", const_int(1), const_int(2)).is_commutative()
    assert not BinaryInst("fdiv", const_float(1.0),
                          const_float(2.0)).is_commutative()


def test_icmp_produces_i1():
    cmp = ICmpInst("slt", const_int(1), const_int(2))
    assert str(cmp.type) == "i1"
    with pytest.raises(ValueError):
        ICmpInst("ult", const_int(1), const_int(2))


def test_fcmp_predicates():
    cmp = FCmpInst("ole", const_float(1.0), const_float(2.0))
    assert cmp.predicate == "ole"
    with pytest.raises(ValueError):
        FCmpInst("ueq", const_float(1.0), const_float(2.0))


def test_load_store_type_checking():
    array = GlobalVariable("a", DOUBLE, 10)
    load = LoadInst(array)
    assert load.type == DOUBLE
    store = StoreInst(const_float(1.0), array)
    assert store.value.value == 1.0
    with pytest.raises(TypeError):
        StoreInst(const_int(1), array)
    with pytest.raises(TypeError):
        LoadInst(const_int(1))


def test_gep_types():
    array = GlobalVariable("a", DOUBLE, 10)
    gep = GEPInst(array, const_int(3))
    assert gep.type == array.type
    with pytest.raises(TypeError):
        GEPInst(const_int(1), const_int(0))
    with pytest.raises(TypeError):
        GEPInst(array, const_float(1.0))


def test_phi_incoming_api():
    block_a = BasicBlock("a")
    block_b = BasicBlock("b")
    phi = PhiInst(INT64)
    assert phi.incoming_count == 0
    phi.add_incoming(const_int(1), block_a)
    phi.add_incoming(const_int(2), block_b)
    assert phi.incoming_count == len(phi.incoming) == 2
    assert phi.incoming is not phi.incoming  # a fresh list per call
    assert phi.incoming_values()[0].value == 1
    assert phi.incoming_for_block(block_b).value == 2
    with pytest.raises(KeyError):
        phi.incoming_for_block(BasicBlock("c"))
    with pytest.raises(TypeError):
        phi.add_incoming(const_float(1.0), block_a)


def test_branch_forms():
    target = BasicBlock("t")
    other = BasicBlock("e")
    uncond = BranchInst(target)
    assert not uncond.is_conditional
    assert uncond.targets() == [target]
    cond = BranchInst(const_bool(True), target, other)
    assert cond.is_conditional
    assert cond.targets() == [target, other]
    with pytest.raises(ValueError):
        uncond.condition
    with pytest.raises(TypeError):
        BranchInst(const_int(1), target, other)


def test_return_forms():
    assert ReturnInst().return_value is None
    assert ReturnInst(const_int(3)).return_value.value == 3


def test_call_checks_signature():
    callee = Function("sqrt", FunctionType(DOUBLE, (DOUBLE,)), ["x"],
                      pure=True)
    call = CallInst(callee, [const_float(4.0)])
    assert call.callee is callee
    assert call.type == DOUBLE
    with pytest.raises(TypeError):
        CallInst(callee, [])
    with pytest.raises(TypeError):
        CallInst(callee, [const_int(4)])


def test_select_checks_types():
    sel = SelectInst(const_bool(True), const_float(1.0), const_float(2.0))
    assert sel.type == DOUBLE
    with pytest.raises(TypeError):
        SelectInst(const_int(1), const_float(1.0), const_float(2.0))
    with pytest.raises(TypeError):
        SelectInst(const_bool(True), const_float(1.0), const_int(2))


def test_cast_opcodes():
    cast = CastInst("sitofp", const_int(1), DOUBLE)
    assert cast.type == DOUBLE
    with pytest.raises(ValueError):
        CastInst("bitcastify", const_int(1), DOUBLE)


def test_terminator_classification():
    assert BranchInst(BasicBlock("x")).is_terminator()
    assert ReturnInst().is_terminator()
    assert not BinaryInst("add", const_int(1), const_int(1)).is_terminator()
