"""The per-context candidate indexes behind two universe-scanning
proposers must propose exactly what the scans proposed, in the same
order (the solver's counters depend on candidate order), as fresh
lists a caller may mutate."""

from repro.constraints import EndsInUncondBranch, IsConstantLike, SolverContext
from repro.ir import Argument, BranchInst, Constant, GlobalVariable
from repro.workloads.corpus import all_programs


def _uncond_target(block):
    terminator = block.terminator
    if isinstance(terminator, BranchInst) and not terminator.is_conditional:
        return terminator.targets()[0]
    return None


def scan_uncond_sources(ctx, wanted):
    """Reference: every block ending in ``br wanted``, in block order."""
    return [b for b in ctx.blocks() if _uncond_target(b) is wanted]


def scan_uncond_blocks(ctx):
    """Reference: every block ending in an unconditional branch."""
    return [b for b in ctx.blocks() if _uncond_target(b) is not None]


def scan_constant_like(ctx):
    """Reference: the universe filtered by ``IsConstantLike.check``."""
    return [
        v for v in ctx.universe
        if isinstance(v, (Constant, Argument, GlobalVariable))
    ]


def _contexts():
    for bench in all_programs():
        module = bench.fresh_module()
        for function in module.defined_functions():
            yield SolverContext(function, module)


def _assert_same(got, expected):
    assert [id(v) for v in got] == [id(v) for v in expected]


def test_proposals_match_the_scans_on_every_corpus_context():
    branch = EndsInUncondBranch("b", "t")
    constant = IsConstantLike("x")
    checked = 0
    for ctx in _contexts():
        _assert_same(branch.propose(ctx, {}, "b"), scan_uncond_blocks(ctx))
        # Targets include every block and a non-block value.
        for wanted in ctx.blocks() + ctx.universe[:1]:
            _assert_same(
                branch.propose(ctx, {"t": wanted}, "b"),
                scan_uncond_sources(ctx, wanted),
            )
        _assert_same(constant.propose(ctx, {}, "x"), scan_constant_like(ctx))
        checked += 1
    assert checked > 40


def test_mutating_a_proposal_leaves_the_next_one_intact():
    branch = EndsInUncondBranch("b", "t")
    constant = IsConstantLike("x")
    for ctx in _contexts():
        for wanted in ctx.blocks():
            first = branch.propose(ctx, {"t": wanted}, "b")
            first.append(wanted)
            _assert_same(
                branch.propose(ctx, {"t": wanted}, "b"),
                scan_uncond_sources(ctx, wanted),
            )
        for label, propose, scan in (
            ("b", branch.propose, scan_uncond_blocks),
            ("x", constant.propose, scan_constant_like),
        ):
            first = propose(ctx, {}, label)
            first.clear()
            _assert_same(propose(ctx, {}, label), scan(ctx))
