"""Compiler analyses: CFG, dominators, loops, purity, scalar evolution,
and the per-function cache that keeps them."""

from .._lazy import lazy_exports

_EXPORTS = {
    "CFG": "cfg",
    "FunctionAnalyses": "cache",
    "function_analyses": "cache",
    "DominatorTree": "dominators",
    "dominance_frontiers": "dominators",
    "Loop": "loops",
    "LoopInfo": "loops",
    "PurityAnalysis": "purity",
    "Affine": "scev",
    "InductionVariable": "scev",
    "LoopBounds": "scev",
    "ScalarEvolution": "scev",
    "defining_block": "defuse",
    "defined_in_loop": "defuse",
    "users_in_loop": "defuse",
    "users_outside_loop": "defuse",
    "live_out_values": "defuse",
    "transitive_operands": "defuse",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
