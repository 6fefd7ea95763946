"""Round-trip tests: print → parse → print must be a fixed point.

Run over handwritten snippets and, property-style, over every function
of the 40-program corpus — exercising every instruction kind the
pipeline can produce.  The parser is the test-side reference
``reference_ir_parser.py``: nothing in the package reads IR text.
"""

import pytest

from repro.frontend import compile_source
from repro.ir import print_module, verify_module
from repro.ir.types import DOUBLE, INT64, PointerType
from repro.workloads import all_programs
from reference_ir_parser import IRParseError, parse_module, parse_type


def _roundtrip(module):
    text = print_module(module)
    reparsed = parse_module(text)
    verify_module(reparsed)
    assert print_module(reparsed) == text
    return reparsed


def test_parse_type_spellings():
    assert parse_type("i64") == INT64
    assert parse_type("double") == DOUBLE
    assert parse_type("double*") == PointerType(DOUBLE)
    assert parse_type("i1*").pointee.width == 1
    with pytest.raises(IRParseError):
        parse_type("quux")


def test_roundtrip_simple_sum():
    module = compile_source(
        """
        double a[16]; int n;
        double f(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s = s + a[i];
            return s;
        }
        """
    )
    _roundtrip(module)


def test_roundtrip_covers_all_instruction_kinds():
    module = compile_source(
        """
        double scale = 1.5;
        double a[16]; int keys[16]; int hist[8]; int n;
        double mixed(int m, double *p) {
            double buf[4];
            buf[0] = p[0];
            double s = scale;
            for (int i = 0; i < n; i++) {
                if (a[i] > 0.5 && i < m) {
                    hist[keys[i] % 8] = hist[keys[i] % 8] + 1;
                    s = fmax(s, a[i]);
                } else {
                    s = s + (double) (i > 2 ? 1 : 0);
                }
            }
            return s + buf[0];
        }
        """
    )
    reparsed = _roundtrip(module)
    opcodes = {
        i.opcode for f in reparsed.defined_functions()
        for i in f.instructions()
    }
    for expected in ("phi", "br", "icmp", "fcmp", "load", "store", "gep",
                     "call", "select", "add", "fadd", "srem", "sitofp",
                     "alloca", "ret"):
        assert expected in opcodes, expected


def test_roundtrip_preserves_global_initializers():
    module = compile_source(
        "double scale = 2.5; int f(void) { return 0; }"
    )
    reparsed = _roundtrip(module)
    assert reparsed.get_global("scale").initializer == [2.5]


def test_roundtrip_preserves_purity_flags():
    module = compile_source(
        "double f(double x) { return sqrt(x) + rand(); }"
    )
    reparsed = _roundtrip(module)
    assert reparsed.get_function("sqrt").pure
    assert not reparsed.get_function("rand").pure


def test_parse_error_on_garbage():
    with pytest.raises(IRParseError):
        parse_module("this is not ir")


def test_parse_error_on_unknown_block():
    text = """define void @f() {
entry:
  br label %nowhere
}"""
    with pytest.raises(IRParseError, match="unknown block"):
        parse_module(text)


@pytest.mark.parametrize(
    "prog",
    all_programs(),
    ids=[f"{p.suite}-{p.name}" for p in all_programs()],
)
def test_roundtrip_whole_corpus(prog):
    """The printer/parser pair is a bijection over realistic IR."""
    module = prog.compile()
    _roundtrip(module)


def test_reparsed_module_detects_same_reductions():
    """Semantic round trip: detection results survive serialization."""
    from repro.idioms import find_reductions

    prog = next(p for p in all_programs() if p.name == "EP")
    module = prog.compile()
    reparsed = parse_module(print_module(module))
    original = find_reductions(module).counts()
    recovered = find_reductions(reparsed).counts()
    assert original == recovered == (2, 1)
