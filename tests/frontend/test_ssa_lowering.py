"""SSA construction during lowering (Braun et al., CC 2013).

Lowering keeps scalar locals and parameters in SSA values: no alloca,
load or store for them, a PHI only where a read needs one, and one
``undef`` per variable for reads before any write.  The control-flow
shapes that join values (short-circuit conditions, ``break`` and
``continue``, code after ``return``) must verify and compute what the
program says, and the lowering must not emit much that the cleanup
passes then delete.
"""

import pytest

from repro.frontend import compile_source, lower_source
from repro.ir import (
    AllocaInst,
    GEPInst,
    GlobalVariable,
    LoadInst,
    StoreInst,
    UndefValue,
    verify_module,
)
from repro.runtime import Interpreter, Memory
from repro.workloads.corpus import all_programs


def _instructions(module):
    return [i for f in module.defined_functions() for i in f.instructions()]


def _instruction_count(module) -> int:
    return len(_instructions(module))


def _call(module, name, *args):
    interp = Interpreter(module, Memory(module), max_instructions=100_000)
    return interp.call(module.get_function(name), list(args))


def test_no_scalar_memory_traffic_and_arrays_stay_allocas():
    module = lower_source(
        """
        double g; double a[8];
        double f(int n, double *p, double w) {
            double buf[4];
            int k = n * 2;
            double s = w;
            for (int i = 0; i < n; i++) { s = s + p[i] * a[i] + k; }
            buf[1] = s;
            g = buf[1];
            return g + w;
        }
        """
    )
    instructions = _instructions(module)
    allocas = [i for i in instructions if isinstance(i, AllocaInst)]
    assert [(a.name, a.count) for a in allocas] == [("buf", 4)]
    for instruction in instructions:
        if isinstance(instruction, (LoadInst, StoreInst)):
            # Only array elements and globals live in memory.
            assert isinstance(instruction.pointer, (GEPInst, GlobalVariable))


def test_corpus_lowering_reads_no_scalar_through_memory():
    for program in all_programs():
        for instruction in _instructions(lower_source(program.source)):
            if isinstance(instruction, (LoadInst, StoreInst)):
                assert not isinstance(instruction.pointer, AllocaInst), (
                    program.name
                )


def _header_phis(source):
    fn = lower_source(source).get_function("f")
    header = next(b for b in fn.blocks if b.name == "for.cond")
    return [p.name for p in header.phis()]


def test_loop_carried_variable_gets_one_header_phi():
    phis = _header_phis(
        """
        int f(int n) {
            int s = 0; int k = 3;
            for (int i = 0; i < n; i++) { s = s + k; }
            return s;
        }
        """
    )
    # Reverse declaration order, as mem2reg placed them; ``k`` is only
    # read in the loop, so it needs none.
    assert phis == ["i", "s"]


def test_read_before_write_yields_the_variables_one_undef():
    module = lower_source(
        """
        int f(int c) {
            int x; int y;
            if (c > 0) { y = x; } else { y = x + 1; }
            return y + x;
        }
        """
    )
    undefs = [
        operand
        for instruction in _instructions(module)
        for operand in instruction.operands
        if isinstance(operand, UndefValue)
    ]
    assert len(undefs) >= 3
    assert all(u is undefs[0] for u in undefs)


def test_constant_read_from_a_variable_is_not_folded():
    fn = compile_source(
        "double f(void) { int k = 3; double d = k; return d + k * 2; }"
    ).get_function("f")
    opcodes = [i.opcode for i in fn.instructions()]
    # ``sitofp 3`` twice and ``mul 3, 2``, as mem2reg left the loads'
    # replacements; literal-only arithmetic still folds.
    assert opcodes.count("sitofp") == 2
    assert "mul" in opcodes


JOINS = """
int land(int p, int q) {
    int x;
    if (p > 0 && q > 0) { x = 1; } else { x = 2; }
    return x;
}
int lor(int p, int q) {
    int x = 5;
    if (p > 0 || (q > 0 && p > q)) { x = x + 1; } else if (q < 3) { x = 2; }
    return x;
}
int loops(int p) {
    int s = 0; int i = 0;
    while (i < p) {
        i = i + 1;
        if (i % 3 == 0) continue;
        if (s > 20) break;
        s = s + i;
    }
    for (int j = 0; j < p; j++) {
        if (j == 2) continue;
        if (j > 6 && s > 3) { s = s - 1; continue; }
        s += j;
    }
    return s * 100 + i;
}
int after_return(int p) {
    int x = p;
    if (p > 1) { x = 1; return x + 10; x = 7; } else { x = x + 3; }
    for (int i = 0; i < 3; i++) { x = x + i; break; x = 99; }
    return x;
}
"""


def _land(p, q):
    return 1 if p > 0 and q > 0 else 2


def _lor(p, q):
    if p > 0 or (q > 0 and p > q):
        return 6
    return 2 if q < 3 else 5


def _loops(p):
    s = i = 0
    while i < p:
        i += 1
        if i % 3 == 0:
            continue
        if s > 20:
            break
        s += i
    for j in range(p):
        if j == 2:
            continue
        if j > 6 and s > 3:
            s -= 1
            continue
        s += j
    return s * 100 + i


def _after_return(p):
    if p > 1:
        return 11
    return p + 3


@pytest.mark.parametrize("compile_", [lower_source, compile_source])
def test_joins_verify_and_interpret_correctly(compile_):
    module = compile_(JOINS)
    if compile_ is compile_source:
        verify_module(module)
    else:
        # Before pruning, the PHIs still carry the unreachable blocks'
        # incoming values, which no dominator tree covers.
        verify_module(module, check_dominance=False)
    for p in range(-2, 12):
        for q in (-1, 0, 1, 4):
            assert _call(module, "land", p, q) == _land(p, q)
            assert _call(module, "lor", p, q) == _lor(p, q)
        assert _call(module, "loops", p) == _loops(p)
        assert _call(module, "after_return", p) == _after_return(p)


def _lowered_to_final_ratio(programs) -> float:
    lowered = final = 0
    for program in programs:
        lowered += _instruction_count(lower_source(program.source))
        final += _instruction_count(compile_source(program.source))
    return lowered / final


def test_lowering_emits_little_that_the_passes_delete(generator):
    """Timer-free guard: lowering through allocas emitted 1.61x (corpus)
    and 1.88x (seed 7) the instructions the passes keep; SSA lowering
    emits about 1.13x on both."""
    assert _lowered_to_final_ratio(all_programs()) <= 1.2
    assert _lowered_to_final_ratio(generator.generate(7)) <= 1.2
