"""Constraint-based idiom description language and solver.

This package is the paper's primary contribution: a description
language for computational idioms (atomic constraints over SSA values,
combined with ∧/∨ plus generalized graph domination) and a generic
backtracking solver that finds all satisfying value tuples in a
function.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Constraint": "core",
    "ConstraintAnd": "logical",
    "ConstraintOr": "logical",
    "IdiomSpec": "core",
    "SolverContext": "core",
    "Assignment": "core",
    "constraint_labels": "core",
    "CFGEdge": "atomic",
    "EndsInUncondBranch": "atomic",
    "EndsInCondBranch": "atomic",
    "Dominates": "atomic",
    "StrictlyDominates": "atomic",
    "PostDominates": "atomic",
    "StrictlyPostDominates": "atomic",
    "Blocked": "atomic",
    "SESERegion": "atomic",
    "Opcode": "atomic",
    "PhiOfTwo": "atomic",
    "PhiIncomingFromBlock": "atomic",
    "InBlock": "atomic",
    "IsConstantLike": "atomic",
    "DefDominatesBlock": "atomic",
    "Distinct": "atomic",
    "Predicate": "atomic",
    "FlowPolicy": "flow",
    "FlowChecker": "flow",
    "FlowResult": "flow",
    "ComputedOnlyFrom": "flow",
    "declarative_flow": "flow",
    "root_base": "flow",
    "stored_bases": "flow",
    "detect": "solver",
    "detect_brute_force": "solver",
    "SolverStats": "solver",
    "SharedSolverCache": "solver",
    "CompiledSpec": "solver",
    "FlatPlan": "plan",
    "compile_plan": "plan",
    "detect_plan": "plan",
    "compile_spec": "solver",
    "suggest_order": "solver",
    "PREDICATE_ATOMS": "predicates",
    "register_predicate_atom": "predicates",
    "load_spec_file": "specfile",
    "parse_spec_text": "specfile",
    "render_spec_text": "specfile",
    "SpecFileError": "specfile",
    "BUILTIN_SPEC_FILES": "specfile",
    "builtin_spec_dir": "specfile",
    "builtin_spec_path": "specfile",
    "Diagnostic": "analysis",
    "DIAGNOSTIC_CODES": "analysis",
    "analyze_spec": "analysis",
    "analyze_registry": "analysis",
    "cross_spec_diagnostics": "analysis",
    "lint_spec_files": "analysis",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
