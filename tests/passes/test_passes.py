"""Tests for mem2reg, DCE, CSE, LICM and CFG simplification."""

import pytest

from repro import frontend
from repro.analysis.loops import LoopInfo
from repro.frontend import compile_source, lower_source
from repro.ir import (
    AllocaInst,
    GEPInst,
    LoadInst,
    Module,
    PhiInst,
    verify_module,
)
from repro.passes import promote_allocas, promotable_allocas
from repro.passes.cse import local_cse
from repro.passes.licm import hoist_invariant_loads
from repro.passes.simplify import (
    dead_code_elimination,
    merge_straightline_blocks,
    remove_trivial_phis,
    remove_unreachable_blocks,
)
from repro.ir import print_module
from repro.runtime import Interpreter, Memory
from repro.workloads import program

from alloca_form import guarded_sum_module, join_module


SOURCE = """
double a[32]; int n;
double f(void) {
    double s = 0.0;
    double unusedcalc = 0.0;
    for (int i = 0; i < n; i++) {
        unusedcalc = unusedcalc + 1.0;
        if (a[i] > 0.25) {
            s = s + a[i];
        }
    }
    return s;
}
"""


def _run(module: Module) -> float:
    memory = Memory(module)
    memory.buffers["n"].data[0] = 20
    for i in range(32):
        memory.buffers["a"].data[i] = (i * 0.37) % 1.0
    interp = Interpreter(module, memory)
    return interp.call(module.get_function("f"), [])


def _promote(module: Module) -> int:
    promoted = 0
    for fn in module.defined_functions():
        remove_unreachable_blocks(fn)
        promoted += promote_allocas(fn)
    verify_module(module)
    return promoted


def test_mem2reg_differential_semantics():
    """Alloca form and SSA form must compute the same value, and the
    value the SSA lowering of the same program computes."""
    before = guarded_sum_module()
    after = guarded_sum_module()
    assert _promote(after) == 3  # s, unusedcalc, i; not buf
    fn = after.get_function("f")
    assert [a.name for a in fn.instructions()
            if isinstance(a, AllocaInst)] == ["buf"]
    assert {p.name for p in fn.instructions()
            if isinstance(p, PhiInst)} >= {"s", "i"}
    assert abs(_run(before) - _run(after)) < 1e-12
    assert abs(_run(after) - _run(compile_source(SOURCE))) < 1e-12


def test_promotable_allocas_excludes_arrays():
    fn = guarded_sum_module().get_function("f")
    names = {a.name for a in promotable_allocas(fn)}
    assert names == {"s", "unusedcalc", "i"}  # not the array ``buf``


def test_mem2reg_inserts_phi_at_join():
    module = join_module()
    assert _promote(module) == 2  # c.addr and x
    fn = module.get_function("f")
    assert not any(isinstance(i, (AllocaInst, LoadInst))
                   for i in fn.instructions())
    phis = [i for i in fn.instructions() if isinstance(i, PhiInst)]
    assert len(phis) == 1
    assert phis[0].parent.name == "if.end"
    assert sorted(v.value for v in phis[0].incoming_values()) == [1, 2]


def test_mem2reg_finds_nothing_to_promote_in_lowered_ir():
    module = lower_source(SOURCE)
    for fn in module.defined_functions():
        remove_unreachable_blocks(fn)
        assert promote_allocas(fn) == 0


def test_dce_removes_dead_phi_cycles():
    module = compile_source(SOURCE)
    fn = module.get_function("f")
    # "unusedcalc" feeds only itself: the pipeline must have removed it.
    phi_names = {i.name for i in fn.instructions()
                 if isinstance(i, PhiInst)}
    assert not any("unused" in name for name in phi_names)


def test_cse_unifies_redundant_loads():
    module = lower_source(
        """
        double a[8];
        double f(int i) { return a[i] * a[i]; }
        """
    )
    fn = module.get_function("f")
    remove_unreachable_blocks(fn)
    before = sum(1 for i in fn.instructions() if isinstance(i, LoadInst))
    removed = local_cse(fn)
    after = sum(1 for i in fn.instructions() if isinstance(i, LoadInst))
    assert removed >= 1
    assert after < before


def test_cse_respects_intervening_stores():
    module = lower_source(
        """
        double a[8];
        double f(int i) {
            double x = a[i];
            a[i] = 0.0;
            return x + a[i];
        }
        """
    )
    fn = module.get_function("f")
    remove_unreachable_blocks(fn)
    local_cse(fn)
    loads = [
        i for i in fn.instructions()
        if isinstance(i, LoadInst) and isinstance(i.pointer, GEPInst)
    ]
    assert len(loads) == 2  # the store kills the first load's value


def test_licm_hoists_global_bound_load():
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
    fn = module.get_function("f")
    header = next(b for b in fn.blocks if b.name.startswith("for.cond"))
    header_loads = [
        i for i in header.instructions if isinstance(i, LoadInst)
    ]
    # The load of n must have been hoisted out of the loop.
    scalar_loads = [
        l for l in header_loads if not isinstance(l.pointer, GEPInst)
    ]
    assert not scalar_loads


def test_licm_does_not_hoist_stored_global():
    module = compile_source(
        """
        int n;
        void f(void) {
            for (int i = 0; i < n; i++) {
                n = n - 1;
            }
        }
        """
    )
    fn = module.get_function("f")
    loop_blocks = [b for b in fn.blocks if b.name.startswith("for")]
    loads_in_loop = [
        i for b in loop_blocks for i in b.instructions
        if isinstance(i, LoadInst)
    ]
    assert loads_in_loop  # still re-loaded every iteration


@pytest.mark.parametrize("key", [
    ("IS", "NAS"), ("MG", "NAS"), ("histo", "Parboil"), ("sad", "Parboil"),
    ("tpacf", "Parboil"), ("b+tree", "Rodinia"), ("kmeans", "Rodinia"),
])
def test_licm_hoists_in_block_order(key, monkeypatch):
    """Repeated compiles print one IR text: LICM must not visit loops
    or blocks in set (address) order, which reordered the hoisted
    loads of these programs' preheaders from one compile to the next.
    Hoisting never changes an edge, so each call builds one LoopInfo."""
    builds = [0]
    original_init = LoopInfo.__init__

    def counting_init(self, *args, **kwargs):
        builds[0] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(LoopInfo, "__init__", counting_init)
    calls = [0]

    def counted_hoist(function):
        calls[0] += 1
        before = builds[0]
        hoisted = hoist_invariant_loads(function)
        assert builds[0] - before == 1
        return hoisted

    monkeypatch.setattr(frontend, "hoist_invariant_loads", counted_hoist)
    bench = program(*key)
    texts = {print_module(bench.fresh_module()) for _ in range(6)}
    assert len(texts) == 1
    assert calls[0] > 0


def test_licm_hoists_doubly_nested_load_to_outer_preheader():
    module = compile_source(
        """
        double a[64]; int n; int m;
        double f(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++)
                    s = s + a[i * m + j];
            return s;
        }
        """
    )
    fn = module.get_function("f")
    loops = LoopInfo(fn).loops
    inner = next(l for l in loops if l.parent is not None)
    outer = inner.parent
    preheader = next(
        p for p in outer.header.predecessors() if p not in outer.blocks
    )
    global_loads = [
        i for i in fn.instructions()
        if isinstance(i, LoadInst) and i.pointer.name in ("n", "m")
    ]
    # n (both bounds) and m (inner subscript) climb past both loops.
    assert sorted(i.pointer.name for i in global_loads) == ["m", "n"]
    assert all(i.parent is preheader for i in global_loads)


def test_unreachable_block_removal():
    module = lower_source(
        """
        int f(void) {
            return 1;
            return 2;
        }
        """
    )
    fn = module.get_function("f")
    removed = remove_unreachable_blocks(fn)
    assert removed >= 1
    verify_module(module, check_dominance=False)


def test_merge_straightline_blocks_preserves_semantics():
    module = lower_source(SOURCE)
    for fn in module.defined_functions():
        remove_unreachable_blocks(fn)
        dead_code_elimination(fn)
        remove_trivial_phis(fn)
    expected = _run(module)
    for fn in module.defined_functions():
        merge_straightline_blocks(fn)
    verify_module(module)
    assert abs(_run(module) - expected) < 1e-12
