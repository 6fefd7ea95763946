"""AST → SSA IR lowering.

Lowering follows the clang playbook the paper's constraint
specifications were written against, and builds SSA on the way:

* scalar locals and parameters never touch memory: each read and
  write goes through the SSA construction of Braun et al. ("Simple and
  Efficient Construction of Static Single Assignment Form", CC 2013;
  :mod:`repro.frontend.ssa`), which introduces the PHI nodes the
  for-loop and reduction specifications match (§3.1.1: *"due to the
  introduction of PHI nodes in the SSA intermediate representation"*)
  — the same PHI-based form LLVM's mem2reg produces from clang's
  allocas;
* local arrays stay ``alloca``s in the entry block, and global scalars
  and arrays are accessed through loads and stores;
* ``for`` loops are emitted in the canonical shape of Fig. 5 —
  dedicated header with the exit comparison, body region, separate
  latch holding the increment and the back edge;
* multi-dimensional arrays are flattened to explicit index arithmetic
  feeding a single-index ``gep``, the flat-array representation §6.1
  discusses.
"""

from __future__ import annotations

from ..ir import (
    DOUBLE,
    INT1,
    INT64,
    VOID,
    AllocaInst,
    BasicBlock,
    ConstantFloat,
    ConstantInt,
    Function,
    FunctionType,
    GlobalVariable,
    IRBuilder,
    Module,
    PointerType,
    Type,
    Value,
    const_bool,
    const_float,
    const_int,
)
from .ast_nodes import (
    Assign,
    Binary,
    Block,
    Break,
    Call,
    CastExpr,
    Continue,
    CType,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    FuncDef,
    If,
    IncDec,
    Index,
    IntLit,
    Program,
    Return,
    Stmt,
    Ternary,
    Unary,
    Var,
    VarDecl,
    While,
)
from .parser import parse
from .sema import (
    ConstEvaluator,
    SemaError,
    Signature,
    _fold_binary,
    collect_signatures,
    intrinsic_signature,
)
from .ssa import SSABuilder, Variable


class LoweringError(Exception):
    """Raised when source cannot be lowered (unknown names, bad types)."""


def _ir_scalar_type(base: str) -> Type:
    if base == "int":
        return INT64
    if base == "double":
        return DOUBLE
    if base == "void":
        return VOID
    raise LoweringError(f"no IR type for {base!r}")


def _ir_type(ctype: CType) -> Type:
    base = _ir_scalar_type(ctype.base)
    for _ in range(ctype.pointer):
        base = PointerType(base)
    return base


class _Slot:
    """A named storage location visible to expressions: an array, a
    global, or a pointer parameter (whose ``pointer`` is the argument)."""

    def __init__(
        self,
        pointer: Value,
        element_type: Type,
        dims: tuple[int, ...] = (),
        is_pointer_var: bool = False,
    ):
        self.pointer = pointer
        self.element_type = element_type
        self.dims = dims
        self.is_pointer_var = is_pointer_var


class ModuleLowering:
    """Lower a parsed :class:`Program` into an IR :class:`Module`."""

    def __init__(self, program: Program, name: str = "module"):
        self.program = program
        self.module = Module(name)
        self.consts = ConstEvaluator()
        self.signatures = collect_signatures(program)
        self.global_slots: dict[str, _Slot] = {}

    def run(self) -> Module:
        """Lower globals, declare functions, then lower every body."""
        self._lower_globals()
        for func_def in self.program.functions:
            self._declare_function(func_def)
        for func_def in self.program.functions:
            if func_def.body is not None:
                FunctionLowering(self, func_def).lower()
        return self.module

    # -- globals and declarations ---------------------------------------------

    def _lower_globals(self) -> None:
        for decl in self.program.globals:
            init_value = (
                self.consts.try_eval(decl.init) if decl.init is not None else None
            )
            if decl.is_const and not decl.type.is_array():
                if init_value is None:
                    raise SemaError(
                        f"const global {decl.name} needs a constant initializer"
                    )
                self.consts.define(decl.name, init_value)
                continue
            dims = tuple(
                self.consts.eval_int(d, f"dimension of {decl.name}")
                for d in decl.type.dims
            )
            size = 1
            for dim in dims:
                if dim <= 0:
                    raise SemaError(f"non-positive dimension in {decl.name}")
                size *= dim
            element_type = _ir_scalar_type(decl.type.base)
            initializer = None
            if init_value is not None:
                initializer = [
                    float(init_value) if element_type == DOUBLE else int(init_value)
                ]
            try:
                variable = self.module.add_global(
                    decl.name, element_type, size, initializer
                )
            except ValueError as exc:  # a redefinition
                raise SemaError(str(exc)) from None
            self.global_slots[decl.name] = _Slot(variable, element_type, dims)

    def _declare_function(self, func_def: FuncDef) -> Function:
        param_types = tuple(_ir_type(p.type) for p in func_def.params)
        ftype = FunctionType(_ir_type(func_def.return_type), param_types)
        try:
            return self.module.add_function(
                func_def.name, ftype, [p.name for p in func_def.params]
            )
        except ValueError as exc:  # a redefinition
            raise SemaError(str(exc)) from None

    def resolve_callee(self, name: str) -> tuple[Function, Signature]:
        """Find (declaring on demand) the IR function for a call."""
        if name in self.module.functions:
            signature = self.signatures.get(name) or intrinsic_signature(name)
            if signature is None:
                raise LoweringError(f"no signature for function {name!r}")
            return self.module.functions[name], signature
        signature = intrinsic_signature(name)
        if signature is None:
            raise LoweringError(f"call to unknown function {name!r}")
        ftype = FunctionType(
            _ir_scalar_type(signature.return_type.base),
            tuple(_ir_scalar_type(t.base) for t in signature.param_types),
        )
        function = self.module.add_function(
            name, ftype, signature.param_names, pure=signature.pure
        )
        return function, signature


class FunctionLowering:
    """Lowers one function body, building SSA as it goes.

    Scalar variables go through an :class:`~repro.frontend.ssa.SSABuilder`.
    Lowering enters every block only after emitting all branches into
    it, so the block is sealed on entry; a loop header is entered
    unsealed and sealed after its back edge.
    """

    def __init__(self, parent: ModuleLowering, func_def: FuncDef):
        self.parent = parent
        self.func_def = func_def
        self.function = parent.module.get_function(func_def.name)
        self.builder = IRBuilder()
        self.scopes: list[dict[str, _Slot | Variable]] = [{}]
        self.loop_stack: list[tuple[BasicBlock, BasicBlock]] = []
        self.entry_block: BasicBlock | None = None
        self._alloca_count = 0
        self._variable_count = 0
        self.ssa: SSABuilder | None = None
        #: Constants written to a variable, by id.  They are not folded
        #: where they are read back, just as the loads mem2reg replaced
        #: were not.
        self._variable_constants: dict[int, Value] = {}

    # -- plumbing -----------------------------------------------------------

    def _new_alloca(self, element_type: Type, count: int, name: str) -> Value:
        alloca = AllocaInst(element_type, count, name)
        assert self.entry_block is not None
        self.entry_block.insert(self._alloca_count, alloca)
        self._alloca_count += 1
        return alloca

    def _new_variable(self, type: Type, name: str) -> Variable:
        variable = Variable(type, name, self._variable_count)
        self._variable_count += 1
        return variable

    def _lookup(self, name: str) -> _Slot | Variable | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return self.parent.global_slots.get(name)

    def _define_local(self, name: str, slot: _Slot | Variable) -> None:
        self.scopes[-1][name] = slot

    def _terminated(self) -> bool:
        block = self.builder.block
        return block is not None and block.terminator is not None

    def _branch(self, target: BasicBlock) -> None:
        self.ssa.edge(self.builder.block, target)
        self.builder.br(target)

    def _cond_branch(
        self, condition: Value, if_true: BasicBlock, if_false: BasicBlock
    ) -> None:
        block = self.builder.block
        self.ssa.edge(block, if_true)
        self.ssa.edge(block, if_false)
        self.builder.cond_br(condition, if_true, if_false)

    def _enter(self, block: BasicBlock, seal: bool = True) -> None:
        self.builder.position_at_end(block)
        self.ssa.enter(block, seal)

    def _write(self, variable: Variable, value: Value) -> None:
        if isinstance(value, (ConstantInt, ConstantFloat)):
            self._variable_constants[id(value)] = value
        self.ssa.write(variable, self.builder.block, value)

    def _read(self, variable: Variable) -> Value:
        return self.ssa.read(variable, self.builder.block)

    # -- entry point -----------------------------------------------------------

    def lower(self) -> None:
        """Lower the whole function body."""
        entry = self.entry_block = self.function.add_block("entry")
        start = self.function.add_block("start")
        self.ssa = SSABuilder(entry)
        self.ssa.edge(entry, start)
        self._enter(start)
        for argument, param in zip(self.function.args, self.func_def.params):
            if param.type.pointer > 0:
                element = _ir_scalar_type(param.type.base)
                self._define_local(
                    param.name, _Slot(argument, element, is_pointer_var=True)
                )
            else:
                variable = self._new_variable(argument.type, f"{param.name}.addr")
                self._define_local(param.name, variable)
                self._write(variable, argument)
        self.lower_statement(self.func_def.body)
        if not self._terminated():
            return_type = self.function.type.return_type
            if return_type.is_void():
                self.builder.ret()
            elif return_type == DOUBLE:
                self.builder.ret(const_float(0.0))
            else:
                self.builder.ret(const_int(0))
        IRBuilder(entry).br(start)
        self.ssa.finish(self.function)

    # -- statements ---------------------------------------------------------

    def lower_statement(self, stmt: Stmt) -> None:
        if self._terminated():
            # Code after return/break: lower into a fresh unreachable
            # block, pruned later.
            self._enter(self.function.add_block("dead"))
        if isinstance(stmt, Block):
            self.scopes.append({})
            for child in stmt.statements:
                self.lower_statement(child)
            self.scopes.pop()
        elif isinstance(stmt, VarDecl):
            self._lower_var_decl(stmt)
        elif isinstance(stmt, ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, IncDec):
            delta = IntLit(1, line=stmt.line)
            op = "+=" if stmt.op == "++" else "-="
            self._lower_assign(Assign(stmt.target, op, delta, line=stmt.line))
        elif isinstance(stmt, If):
            self._lower_if(stmt)
        elif isinstance(stmt, For):
            self._lower_for(stmt)
        elif isinstance(stmt, While):
            self._lower_while(stmt)
        elif isinstance(stmt, Break):
            if not self.loop_stack:
                raise LoweringError("break outside of a loop")
            self._branch(self.loop_stack[-1][1])
        elif isinstance(stmt, Continue):
            if not self.loop_stack:
                raise LoweringError("continue outside of a loop")
            self._branch(self.loop_stack[-1][0])
        elif isinstance(stmt, Return):
            self._lower_return(stmt)
        else:
            raise LoweringError(f"cannot lower statement {stmt!r}")

    def _lower_var_decl(self, stmt: VarDecl) -> None:
        if stmt.type.pointer > 0:
            raise LoweringError("local pointer variables are not supported")
        element_type = _ir_scalar_type(stmt.type.base)
        if stmt.type.is_array():
            dims = tuple(
                self.parent.consts.eval_int(d, f"dimension of {stmt.name}")
                for d in stmt.type.dims
            )
            size = 1
            for dim in dims:
                size *= dim
            alloca = self._new_alloca(element_type, size, stmt.name)
            self._define_local(stmt.name, _Slot(alloca, element_type, dims))
            if stmt.init is not None:
                raise LoweringError("array initializers are not supported")
            return
        variable = self._new_variable(element_type, stmt.name)
        self._define_local(stmt.name, variable)
        if stmt.init is not None:
            value = self.lower_expr(stmt.init)
            self._write(variable, self._coerce(value, element_type))

    def _lower_assign(self, stmt: Assign) -> None:
        target = stmt.target
        variable = (
            self._lookup(target.name) if isinstance(target, Var) else None
        )
        if variable.__class__ is Variable:
            if stmt.op == "=":
                value = self.lower_expr(stmt.value)
            else:
                current = self._read(variable)
                rhs = self.lower_expr(stmt.value)
                value = self._arith(stmt.op[:-1], current, rhs)
            self._write(variable, self._coerce(value, variable.type))
            return
        address, element_type = self.lvalue_address(target)
        if stmt.op == "=":
            value = self.lower_expr(stmt.value)
            self.builder.store(self._coerce(value, element_type), address)
            return
        current = self.builder.load(address)
        rhs = self.lower_expr(stmt.value)
        op = stmt.op[:-1]
        result = self._arith(op, current, rhs)
        self.builder.store(self._coerce(result, element_type), address)

    def _lower_if(self, stmt: If) -> None:
        then_block = self.function.add_block("if.then")
        join_block = self.function.add_block("if.end")
        else_block = (
            self.function.add_block("if.else") if stmt.orelse else join_block
        )
        self.lower_branch_condition(stmt.cond, then_block, else_block)
        self._enter(then_block)
        self.lower_statement(stmt.then)
        if not self._terminated():
            self._branch(join_block)
        if stmt.orelse is not None:
            self._enter(else_block)
            self.lower_statement(stmt.orelse)
            if not self._terminated():
                self._branch(join_block)
        self._enter(join_block)

    def _lower_for(self, stmt: For) -> None:
        if stmt.init is not None:
            self.lower_statement(stmt.init)
        header = self.function.add_block("for.cond")
        body = self.function.add_block("for.body")
        latch = self.function.add_block("for.inc")
        exit_block = self.function.add_block("for.end")
        self._branch(header)
        self._enter(header, seal=False)
        if stmt.cond is not None:
            self.lower_branch_condition(stmt.cond, body, exit_block)
        else:
            self._branch(body)
        self._enter(body)
        self.loop_stack.append((latch, exit_block))
        self.lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self._terminated():
            self._branch(latch)
        self._enter(latch)
        if stmt.step is not None:
            self.lower_statement(stmt.step)
        self._branch(header)
        self.ssa.seal(header)
        self._enter(exit_block)

    def _lower_while(self, stmt: While) -> None:
        header = self.function.add_block("while.cond")
        body = self.function.add_block("while.body")
        exit_block = self.function.add_block("while.end")
        self._branch(header)
        self._enter(header, seal=False)
        self.lower_branch_condition(stmt.cond, body, exit_block)
        self._enter(body)
        self.loop_stack.append((header, exit_block))
        self.lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self._terminated():
            self._branch(header)
        self.ssa.seal(header)
        self._enter(exit_block)

    def _lower_return(self, stmt: Return) -> None:
        return_type = self.function.type.return_type
        if stmt.value is None:
            if not return_type.is_void():
                raise LoweringError(
                    f"{self.function.name}: return without value"
                )
            self.builder.ret()
            return
        value = self.lower_expr(stmt.value)
        self.builder.ret(self._coerce(value, return_type))

    # -- conditions -----------------------------------------------------------

    def lower_branch_condition(
        self, expr: Expr, true_block: BasicBlock, false_block: BasicBlock
    ) -> None:
        """Lower a condition with C short-circuit semantics."""
        if isinstance(expr, Binary) and expr.op == "&&":
            mid = self.function.add_block("land")
            self.lower_branch_condition(expr.lhs, mid, false_block)
            self._enter(mid)
            self.lower_branch_condition(expr.rhs, true_block, false_block)
            return
        if isinstance(expr, Binary) and expr.op == "||":
            mid = self.function.add_block("lor")
            self.lower_branch_condition(expr.lhs, true_block, mid)
            self._enter(mid)
            self.lower_branch_condition(expr.rhs, true_block, false_block)
            return
        if isinstance(expr, Unary) and expr.op == "!":
            self.lower_branch_condition(expr.operand, false_block, true_block)
            return
        condition = self._as_bool(self.lower_expr(expr))
        self._cond_branch(condition, true_block, false_block)

    # -- expressions -----------------------------------------------------------

    def lower_expr(self, expr: Expr) -> Value:
        """Lower an expression for its value."""
        if isinstance(expr, IntLit):
            return const_int(expr.value)
        if isinstance(expr, FloatLit):
            return const_float(expr.value)
        if isinstance(expr, Var):
            return self._lower_var(expr)
        if isinstance(expr, Index):
            address, _ = self.lvalue_address(expr)
            return self.builder.load(address, "ld")
        if isinstance(expr, Call):
            return self._lower_call(expr)
        if isinstance(expr, Binary):
            return self._lower_binary(expr)
        if isinstance(expr, Unary):
            return self._lower_unary(expr)
        if isinstance(expr, Ternary):
            return self._lower_ternary(expr)
        if isinstance(expr, CastExpr):
            value = self.lower_expr(expr.operand)
            return self._coerce(value, _ir_type(expr.target))
        raise LoweringError(f"cannot lower expression {expr!r}")

    def _lower_var(self, expr: Var) -> Value:
        constant = self.parent.consts.constants.get(expr.name)
        if constant is not None:
            if isinstance(constant, float):
                return const_float(constant)
            return const_int(constant)
        slot = self._lookup(expr.name)
        if slot is None:
            raise LoweringError(f"unknown variable {expr.name!r}")
        if slot.__class__ is Variable:
            return self._read(slot)
        if slot.dims or slot.is_pointer_var:
            # Arrays decay to a pointer to their first element.
            return slot.pointer
        return self.builder.load(slot.pointer, expr.name)

    def _lower_call(self, expr: Call) -> Value:
        callee, signature = self.parent.resolve_callee(expr.name)
        if len(expr.args) != len(signature.param_types):
            raise LoweringError(
                f"call to {expr.name}: expected "
                f"{len(signature.param_types)} arguments, got {len(expr.args)}"
            )
        args = []
        for arg_expr, param_ctype in zip(expr.args, signature.param_types):
            value = self.lower_expr(arg_expr)
            args.append(self._coerce(value, _ir_type(param_ctype)))
        name = "" if callee.type.return_type.is_void() else expr.name
        return self.builder.call(callee, args, name)

    def _lower_binary(self, expr: Binary) -> Value:
        if expr.op in ("&&", "||"):
            # Value context: both sides are evaluated (the corpus only
            # uses logical operators on pure operands in value position).
            lhs = self._as_bool(self.lower_expr(expr.lhs))
            rhs = self._as_bool(self.lower_expr(expr.rhs))
            opcode = "and" if expr.op == "&&" else "or"
            result = self.builder.binary(opcode, lhs, rhs, "logic")
            return result
        if expr.op in ("==", "!=", "<", "<=", ">", ">="):
            return self._compare(expr.op, expr.lhs, expr.rhs)
        lhs = self.lower_expr(expr.lhs)
        rhs = self.lower_expr(expr.rhs)
        return self._arith(expr.op, lhs, rhs)

    _ICMP = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt",
             ">=": "sge"}
    _FCMP = {"==": "oeq", "!=": "one", "<": "olt", "<=": "ole", ">": "ogt",
             ">=": "oge"}

    def _compare(self, op: str, lhs_expr: Expr, rhs_expr: Expr) -> Value:
        lhs = self.lower_expr(lhs_expr)
        rhs = self.lower_expr(rhs_expr)
        if lhs.type == DOUBLE or rhs.type == DOUBLE:
            lhs = self._coerce(lhs, DOUBLE)
            rhs = self._coerce(rhs, DOUBLE)
            return self.builder.fcmp(self._FCMP[op], lhs, rhs, "cmp")
        lhs = self._coerce(lhs, INT64)
        rhs = self._coerce(rhs, INT64)
        return self.builder.icmp(self._ICMP[op], lhs, rhs, "cmp")

    _INT_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
                "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr"}
    _FLOAT_OPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}

    def _arith(self, op: str, lhs: Value, rhs: Value) -> Value:
        folded = self._fold_constants(op, lhs, rhs)
        if folded is not None:
            return folded
        if lhs.type == DOUBLE or rhs.type == DOUBLE:
            if op not in self._FLOAT_OPS:
                raise LoweringError(f"operator {op!r} needs integer operands")
            lhs = self._coerce(lhs, DOUBLE)
            rhs = self._coerce(rhs, DOUBLE)
            return self.builder.binary(self._FLOAT_OPS[op], lhs, rhs, "f")
        if op not in self._INT_OPS:
            raise LoweringError(f"unknown operator {op!r}")
        lhs = self._coerce(lhs, INT64)
        rhs = self._coerce(rhs, INT64)
        return self.builder.binary(self._INT_OPS[op], lhs, rhs, "t")

    def _fold_constants(self, op: str, lhs: Value, rhs: Value) -> Value | None:
        """Fold arithmetic on literal operands (loop bounds like
        ``n - 1`` must lower to constants for the analyses to see a
        static iteration space)."""
        constants = self._variable_constants
        if id(lhs) in constants or id(rhs) in constants:
            return None
        if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
            value = _fold_binary(op, lhs.value, rhs.value)
            if isinstance(value, int):
                return const_int(value)
            return None
        lhs_const = isinstance(lhs, (ConstantInt, ConstantFloat))
        rhs_const = isinstance(rhs, (ConstantInt, ConstantFloat))
        if lhs_const and rhs_const:
            lhs_value = float(lhs.value)
            rhs_value = float(rhs.value)
            value = _fold_binary(op, lhs_value, rhs_value)
            if isinstance(value, float):
                return const_float(value)
            if isinstance(value, int):
                return const_float(float(value))
        return None

    def _lower_unary(self, expr: Unary) -> Value:
        if expr.op == "-":
            operand = self.lower_expr(expr.operand)
            if operand.type == DOUBLE:
                return self.builder.fsub(const_float(0.0), operand, "neg")
            return self.builder.sub(
                const_int(0), self._coerce(operand, INT64), "neg"
            )
        if expr.op == "!":
            operand = self._as_bool(self.lower_expr(expr.operand))
            return self.builder.binary("xor", operand, const_bool(True), "not")
        if expr.op == "~":
            operand = self._coerce(self.lower_expr(expr.operand), INT64)
            return self.builder.binary("xor", operand, const_int(-1), "bnot")
        raise LoweringError(f"unknown unary operator {expr.op!r}")

    def _lower_ternary(self, expr: Ternary) -> Value:
        condition = self._as_bool(self.lower_expr(expr.cond))
        if_true = self.lower_expr(expr.if_true)
        if_false = self.lower_expr(expr.if_false)
        if if_true.type == DOUBLE or if_false.type == DOUBLE:
            if_true = self._coerce(if_true, DOUBLE)
            if_false = self._coerce(if_false, DOUBLE)
        elif if_true.type != if_false.type:
            if_true = self._coerce(if_true, INT64)
            if_false = self._coerce(if_false, INT64)
        return self.builder.select(condition, if_true, if_false, "sel")

    # -- lvalues -----------------------------------------------------------

    def lvalue_address(self, expr: Expr) -> tuple[Value, Type]:
        """Address and element type of an assignable expression."""
        if isinstance(expr, Var):
            slot = self._lookup(expr.name)
            if slot is None:
                raise LoweringError(f"unknown variable {expr.name!r}")
            if slot.dims:
                raise LoweringError(f"cannot assign to array {expr.name!r}")
            if slot.is_pointer_var:
                raise LoweringError(
                    f"cannot reassign pointer parameter {expr.name!r}"
                )
            return slot.pointer, slot.element_type
        if isinstance(expr, Index):
            return self._index_address(expr)
        raise LoweringError(f"expression {expr!r} is not an lvalue")

    def _index_address(self, expr: Index) -> tuple[Value, Type]:
        if not isinstance(expr.base, Var):
            raise LoweringError("only named arrays can be indexed")
        slot = self._lookup(expr.base.name)
        if slot is None:
            raise LoweringError(f"unknown array {expr.base.name!r}")
        if slot.__class__ is Variable:
            raise LoweringError(f"{expr.base.name!r} is not an array")
        if slot.is_pointer_var:
            if len(expr.indices) != 1:
                raise LoweringError(
                    f"pointer {expr.base.name!r} takes exactly one index"
                )
            index = self._coerce(self.lower_expr(expr.indices[0]), INT64)
            address = self.builder.gep(slot.pointer, index, "arrayidx")
            return address, slot.element_type
        if not slot.dims:
            raise LoweringError(f"{expr.base.name!r} is not an array")
        if len(expr.indices) != len(slot.dims):
            raise LoweringError(
                f"array {expr.base.name!r} needs {len(slot.dims)} indices, "
                f"got {len(expr.indices)}"
            )
        flat = self._coerce(self.lower_expr(expr.indices[0]), INT64)
        for dimension, index_expr in zip(slot.dims[1:], expr.indices[1:]):
            scaled = self.builder.mul(flat, const_int(dimension), "mulidx")
            index = self._coerce(self.lower_expr(index_expr), INT64)
            flat = self.builder.add(scaled, index, "addidx")
        address = self.builder.gep(slot.pointer, flat, "arrayidx")
        return address, slot.element_type

    # -- coercions -----------------------------------------------------------

    def _as_bool(self, value: Value) -> Value:
        if value.type == INT1:
            return value
        if value.type == DOUBLE:
            return self.builder.fcmp("one", value, const_float(0.0), "tobool")
        return self.builder.icmp(
            "ne", self._coerce(value, INT64), const_int(0), "tobool"
        )

    def _coerce(self, value: Value, target: Type) -> Value:
        if value.type == target:
            return value
        if target == DOUBLE:
            if (
                isinstance(value, ConstantInt)
                and id(value) not in self._variable_constants
            ):
                return const_float(float(value.value))
            if value.type == INT1:
                value = self.builder.cast("zext", value, INT64, "ext")
            return self.builder.cast("sitofp", value, DOUBLE, "conv")
        if target == INT64:
            if (
                isinstance(value, ConstantFloat)
                and id(value) not in self._variable_constants
            ):
                return const_int(int(value.value))
            if value.type == INT1:
                return self.builder.cast("zext", value, INT64, "ext")
            if value.type == DOUBLE:
                return self.builder.cast("fptosi", value, INT64, "conv")
        if target == INT1:
            return self._as_bool(value)
        raise LoweringError(f"cannot convert {value.type} to {target}")


def lower_program(program: Program, name: str = "module") -> Module:
    """Lower a parsed program to SSA form, before the cleanup passes."""
    return ModuleLowering(program, name).run()


def lower_source(source: str, name: str = "module") -> Module:
    """Parse and lower mini-C source to SSA form, before the cleanup
    passes."""
    return lower_program(parse(source), name)
