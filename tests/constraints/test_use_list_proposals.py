"""``Opcode`` proposes its instruction label from the use-list of a bound
operand.  It must propose exactly what the old scan of the opcode index
proposed, id for id and in the same order (the solver's counters
depend on candidate order), on every corpus context, on long synthetic
functions, and in each edge case: a bound constant, argument or global
(the scan still runs), a repeated operand, a commutative swap, and
several opcodes."""

import pytest

from repro import compile_source
from repro.constraints import ConstraintAnd, ConstraintOr, Opcode, SolverContext
from repro.idioms import BUILTIN_IDIOMS, IdiomRegistry
from repro.ir import Argument, ConstantInt, GlobalVariable, Instruction
from repro.workloads.corpus import all_programs
from test_loop_scaling import mixed_loops


def scan_opcode_proposals(atom, ctx, assignment):
    """Reference: every instruction with one of the atom's opcodes, in
    opcode-index order, filtered by the operand match."""
    candidates = []
    for opcode in atom.opcodes:
        candidates.extend(ctx.instructions_with_opcode(opcode))
    return [c for c in candidates if atom._operand_match(c, assignment)]


def _opcode_atoms(constraint):
    if isinstance(constraint, (ConstraintAnd, ConstraintOr)):
        for child in constraint.children:
            yield from _opcode_atoms(child)
    elif isinstance(constraint, Opcode):
        yield constraint


def _registry_atoms():
    registry = IdiomRegistry()
    atoms = {}
    for name in sorted(BUILTIN_IDIOMS):
        for atom in _opcode_atoms(registry.spec(name).constraint):
            atoms[id(atom)] = atom
    return list(atoms.values())


#: Atoms beyond the registry's: both operand orders, several opcodes
#: (ranked against block order), and a repeated opcode.
EXTRA_ATOMS = [
    Opcode("x", "add", ("a", "b")),
    Opcode("x", "add", ("a", "b"), commutative=True),
    Opcode("x", ("add", "icmp"), ("a", None)),
    Opcode("x", ("fcmp", "icmp"), ("a", "b"), commutative=True),
    Opcode("x", ("add", "add"), ("a", "b")),
]


def _assert_same(got, expected):
    assert [id(v) for v in got] == [id(v) for v in expected]


def _check_context(ctx, atoms):
    """Bind each operand label of each atom to every instruction, and
    every operand pair to each matching instruction's operands; returns
    how many proposals came from a use-list."""
    instructions = [v for v in ctx.universe if isinstance(v, Instruction)]
    from_uses = 0
    for atom in atoms:
        labels = [
            l for l in atom.operand_labels
            if l is not None and l != atom.x_label
        ]
        assignments = [{l: v} for l in labels for v in instructions]
        for opcode in atom.opcodes:
            for inst in ctx.instructions_with_opcode(opcode):
                ops = inst.operands
                pairs = list(zip(atom.operand_labels, ops))
                if atom.commutative:
                    pairs += list(zip(atom.operand_labels, reversed(ops)))
                assignments.append(
                    {l: v for l, v in pairs if l in labels}
                )
        for assignment in assignments:
            got = atom.propose(ctx, assignment, atom.x_label)
            _assert_same(got, scan_opcode_proposals(atom, ctx, assignment))
            if atom._users_of_bound_operand(ctx, assignment) is not None:
                from_uses += 1
    return from_uses


def test_use_list_proposals_match_the_scan_on_every_corpus_context():
    atoms = _registry_atoms() + EXTRA_ATOMS
    contexts = from_uses = 0
    for bench in all_programs():
        module = bench.fresh_module()
        for function in module.defined_functions():
            from_uses += _check_context(SolverContext(function, module), atoms)
            contexts += 1
    assert contexts > 40
    assert from_uses > 1000


@pytest.mark.parametrize("loops", [1, 2, 8, 34])
def test_use_list_proposals_match_the_scan_on_long_functions(loops):
    module = compile_source(mixed_loops(loops))
    atoms = _registry_atoms() + EXTRA_ATOMS
    for function in module.defined_functions():
        assert _check_context(SolverContext(function, module), atoms) > 0


EDGE_SOURCE = """
int n; int g;
int edge(int x) {
    int s = 0;
    for (int i = 0; i < n; i++) s = s + (i + i) + (x + i) + g;
    return s;
}
"""


@pytest.fixture(scope="module")
def edge():
    """The edge function's context, ``i``, its icmp, and the adds
    ``i + i``, ``x + i`` and ``i + 1``."""
    module = compile_source(EDGE_SOURCE)
    ctx = SolverContext(module.get_function("edge"), module)
    adds = ctx.instructions_with_opcode("add")
    i_plus_i, x_plus_i, i_plus_1 = adds[0], adds[2], adds[5]
    i = i_plus_i.operands[0]
    assert i_plus_i.operands == (i, i)
    assert x_plus_i.operands[1] is i and i_plus_1.operands[0] is i
    (cmp,) = ctx.instructions_with_opcode("icmp")
    return ctx, i, cmp, (i_plus_i, x_plus_i, i_plus_1)


def _propose(atom, ctx, assignment):
    got = atom.propose(ctx, assignment, atom.x_label)
    _assert_same(got, scan_opcode_proposals(atom, ctx, assignment))
    return got


def test_bound_constant_argument_or_global_falls_back_to_the_scan(edge):
    ctx = edge[0]
    one = next(
        v for v in ctx.universe
        if isinstance(v, ConstantInt) and v.value == 1
    )
    argument = next(v for v in ctx.universe if isinstance(v, Argument))
    global_g = next(
        v for v in ctx.universe
        if isinstance(v, GlobalVariable) and v.name == "g"
    )
    add = Opcode("x", "add", ("a", "b"), commutative=True)
    load = Opcode("x", "load", ("p",))
    for atom, assignment in (
        (add, {"b": one}),
        (add, {"a": argument}),
        (load, {"p": global_g}),
    ):
        assert atom._users_of_bound_operand(ctx, assignment) is None
        assert len(_propose(atom, ctx, assignment)) == 1


def test_repeated_operand_is_proposed_once(edge):
    ctx, i, _, (i_plus_i, _, _) = edge
    # i's use-list holds two entries for i + i.
    assert sum(1 for use in i.uses if use.user is i_plus_i) == 2
    atom = Opcode("x", "add", ("a", "a"))
    assert _propose(atom, ctx, {"a": i}) == [i_plus_i]


def test_commutative_swap_finds_the_operand_in_either_position(edge):
    ctx, i, _, (i_plus_i, x_plus_i, i_plus_1) = edge
    ordered = Opcode("x", "add", ("a", "b"))
    swapped = Opcode("x", "add", ("a", "b"), commutative=True)
    assert _propose(ordered, ctx, {"b": i}) == [i_plus_i, x_plus_i]
    assert _propose(swapped, ctx, {"a": i}) == [i_plus_i, x_plus_i, i_plus_1]


def test_several_opcodes_keep_the_opcode_rank_order(edge):
    ctx, i, cmp, (i_plus_i, _, i_plus_1) = edge
    # The icmp precedes every add in block order, but "add" ranks first.
    atom = Opcode("x", ("add", "icmp"), ("a", None))
    assert _propose(atom, ctx, {"a": i}) == [i_plus_i, i_plus_1, cmp]
    repeated = Opcode("x", ("add", "add"), ("a", None))
    assert repeated._users_of_bound_operand(ctx, {"a": i}) is None
    assert _propose(repeated, ctx, {"a": i}) == [i_plus_i, i_plus_1] * 2
