"""SSA intermediate representation substrate.

A compact, typed, LLVM-style SSA IR: values, instructions, basic blocks,
functions and modules, plus an :class:`IRBuilder`, a textual printer and
a structural verifier.  This is the universe over which the paper's
constraint solver operates.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "BasicBlock": "block",
    "IRBuilder": "builder",
    "Function": "function",
    "Module": "module",
    "Instruction": "instructions",
    "BinaryInst": "instructions",
    "ICmpInst": "instructions",
    "FCmpInst": "instructions",
    "AllocaInst": "instructions",
    "LoadInst": "instructions",
    "StoreInst": "instructions",
    "GEPInst": "instructions",
    "PhiInst": "instructions",
    "BranchInst": "instructions",
    "ReturnInst": "instructions",
    "CallInst": "instructions",
    "SelectInst": "instructions",
    "CastInst": "instructions",
    "INT_BINARY_OPCODES": "instructions",
    "FLOAT_BINARY_OPCODES": "instructions",
    "ICMP_PREDICATES": "instructions",
    "FCMP_PREDICATES": "instructions",
    "CAST_OPCODES": "instructions",
    "COMMUTATIVE_OPCODES": "instructions",
    "Type": "types",
    "VoidType": "types",
    "IntType": "types",
    "FloatType": "types",
    "PointerType": "types",
    "LabelType": "types",
    "FunctionType": "types",
    "INT1": "types",
    "INT32": "types",
    "INT64": "types",
    "FLOAT": "types",
    "DOUBLE": "types",
    "VOID": "types",
    "LABEL": "types",
    "Value": "values",
    "Use": "values",
    "Constant": "values",
    "ConstantInt": "values",
    "ConstantFloat": "values",
    "UndefValue": "values",
    "Argument": "values",
    "GlobalVariable": "values",
    "const_int": "values",
    "const_float": "values",
    "const_bool": "values",
    "print_function": "printer",
    "print_module": "printer",
    "VerificationError": "verifier",
    "verify_function": "verifier",
    "verify_module": "verifier",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
