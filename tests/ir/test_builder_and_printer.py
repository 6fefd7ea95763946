"""Tests for IRBuilder, the printer and function/module structure."""

import pytest

from repro.analysis.cache import function_analyses
from repro.ir import (
    DOUBLE,
    INT64,
    FunctionType,
    IRBuilder,
    Module,
    const_float,
    const_int,
    print_function,
    print_module,
    verify_function,
)


def _sum_function():
    module = Module("m")
    array = module.add_global("a", DOUBLE, 16)
    fn = module.add_function("total", FunctionType(DOUBLE, (INT64,)), ["n"])
    entry = fn.add_block("entry")
    header = fn.add_block("header")
    body = fn.add_block("body")
    exit_ = fn.add_block("exit")
    b = IRBuilder(entry)
    b.br(header)
    b.position_at_end(header)
    iv = b.phi(INT64, "i")
    acc = b.phi(DOUBLE, "s")
    cond = b.icmp("slt", iv, fn.args[0], "cmp")
    b.cond_br(cond, body, exit_)
    b.position_at_end(body)
    ptr = b.gep(array, iv, "ptr")
    val = b.load(ptr, "v")
    nxt = b.fadd(acc, val, "ns")
    niv = b.add(iv, const_int(1), "ni")
    b.br(header)
    iv.add_incoming(const_int(0), entry)
    iv.add_incoming(niv, body)
    acc.add_incoming(const_float(0.0), entry)
    acc.add_incoming(nxt, body)
    b.position_at_end(exit_)
    b.ret(acc)
    return module, fn


def test_builder_constructs_verified_function():
    module, fn = _sum_function()
    verify_function(fn)
    assert len(fn.blocks) == 4
    assert fn.entry.name == "entry"


def test_builder_requires_position():
    b = IRBuilder()
    with pytest.raises(ValueError):
        b.add(const_int(1), const_int(2))


def test_block_append_after_terminator_rejected():
    module, fn = _sum_function()
    b = IRBuilder(fn.entry)
    with pytest.raises(ValueError):
        b.add(const_int(1), const_int(2))


def test_printer_output_contains_expected_lines():
    module, fn = _sum_function()
    text = print_function(fn)
    assert "define double @total(i64 %n)" in text
    assert "%i = phi i64 [ 0, %entry ], [ %ni, %body ]" in text
    assert "%cmp = icmp slt i64 %i, %n" in text
    assert "br i1 %cmp, label %body, label %exit" in text
    assert "%ptr = gep double* @a, i64 %i" in text
    assert "ret double %s" in text


def test_print_module_lists_globals_and_declarations():
    module, fn = _sum_function()
    module.add_function("sqrt", FunctionType(DOUBLE, (DOUBLE,)), ["x"],
                        pure=True)
    text = print_module(module)
    assert "@a = global [16 x double]" in text
    assert "declare pure double @sqrt(double)" in text
    assert "define double @total" in text


def test_module_name_collisions_rejected():
    module = Module("m")
    module.add_global("g", DOUBLE, 1)
    with pytest.raises(ValueError):
        module.add_global("g", DOUBLE, 1)
    module.add_function("f", FunctionType(DOUBLE, ()), [])
    with pytest.raises(ValueError):
        module.add_function("f", FunctionType(DOUBLE, ()), [])


def test_function_block_names_uniquified():
    module = Module("m")
    fn = module.add_function("f", FunctionType(DOUBLE, ()), [])
    first = fn.add_block("x")
    second = fn.add_block("x")
    assert first.name != second.name


def test_value_universe_contents():
    module, fn = _sum_function()
    universe = function_analyses(fn).value_index.universe
    kinds = {type(v).__name__ for v in universe}
    assert "Argument" in kinds
    assert "BasicBlock" in kinds
    assert "PhiInst" in kinds
    assert "ConstantInt" in kinds
    assert "GlobalVariable" in kinds
