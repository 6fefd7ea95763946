"""Mini-C frontend: lexer, parser, sema and SSA lowering.

The main entry point is :func:`compile_source`, which runs the whole
pipeline (parse → lower to SSA → prune → cleanup → verify) and returns
a verified SSA :class:`~repro.ir.module.Module`.
"""

from ..ir import Module, verify_module
from ..passes.cse import local_cse
from ..passes.licm import hoist_invariant_loads
from ..passes.simplify import (
    dead_code_elimination,
    merge_straightline_blocks,
    remove_trivial_phis,
    remove_unreachable_blocks,
)
from .ast_nodes import Program
from .lexer import LexerError, Token, tokenize
from .lowering import LoweringError, lower_program, lower_source
from .parser import ParseError, Parser, parse
from .sema import INTRINSICS, SemaError

__all__ = [
    "compile_source",
    "parse",
    "Parser",
    "ParseError",
    "tokenize",
    "Token",
    "LexerError",
    "lower_source",
    "lower_program",
    "LoweringError",
    "SemaError",
    "INTRINSICS",
    "Program",
]


def compile_source(source: str, name: str = "module") -> Module:
    """Compile mini-C ``source`` to a verified SSA module.

    The output is in the canonical shape the idiom specifications
    expect: scalar locals as PHI-based SSA values, unreachable
    lowering scaffolding pruned, straight-line blocks merged.
    """
    module = lower_source(source, name)
    for function in module.defined_functions():
        remove_unreachable_blocks(function)
        dead_code_elimination(function)
        remove_trivial_phis(function)
        merge_straightline_blocks(function)
        hoist_invariant_loads(function)
        local_cse(function)
    verify_module(module)
    return module
