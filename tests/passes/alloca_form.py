"""Hand-built alloca-form IR: the input mem2reg promotes.

Lowering builds SSA for scalar locals directly, so mem2reg's tests
spell out clang's form with an :class:`IRBuilder`: every local is an
``alloca`` at the head of the entry block, every read a load and every
write a store.
"""

from repro.ir import (
    DOUBLE,
    INT64,
    AllocaInst,
    FunctionType,
    IRBuilder,
    Module,
    const_float,
    const_int,
)


class AllocaFunction:
    """One function under construction in alloca form.

    ``params`` are ``(name, type)`` pairs; each parameter is stored to
    its own ``<name>.addr`` alloca on entry, as clang does.
    """

    def __init__(self, module: Module, name: str, return_type, params=()):
        self.function = module.add_function(
            name,
            FunctionType(return_type, tuple(t for _, t in params)),
            [n for n, _ in params],
        )
        self.entry = self.function.add_block("entry")
        self.builder = IRBuilder(self.entry)
        self.slots = {}
        self._allocas = 0
        for (param, param_type), argument in zip(params, self.function.args):
            self.local(param, param_type, name=f"{param}.addr")
            self.write(param, argument)

    def local(self, var: str, type_, count: int = 1, name: str = ""):
        """A new entry-block alloca for ``var``."""
        alloca = AllocaInst(type_, count, name or var)
        self.entry.insert(self._allocas, alloca)
        self._allocas += 1
        self.slots[var] = alloca
        return alloca

    def block(self, name: str):
        return self.function.add_block(name)

    def at(self, block) -> None:
        self.builder.position_at_end(block)

    def read(self, var: str):
        return self.builder.load(self.slots[var], var)

    def write(self, var: str, value) -> None:
        self.builder.store(value, self.slots[var])


def join_module() -> Module:
    """``int f(int c) { int x = 0; if (c > 0) x = 1; else x = 2;
    return x; }``"""
    module = Module("join")
    f = AllocaFunction(module, "f", INT64, [("c", INT64)])
    f.local("x", INT64)
    f.write("x", const_int(0))
    then, orelse, join = f.block("if.then"), f.block("if.else"), f.block("if.end")
    b = f.builder
    b.cond_br(b.icmp("sgt", f.read("c"), const_int(0)), then, orelse)
    f.at(then)
    f.write("x", const_int(1))
    b.br(join)
    f.at(orelse)
    f.write("x", const_int(2))
    b.br(join)
    f.at(join)
    b.ret(f.read("x"))
    return module


def guarded_sum_module() -> Module:
    """The alloca form of::

        double a[32]; int n;
        double f(void) {
            double s = 0.0;
            double unusedcalc = 0.0;
            double buf[4];
            for (int i = 0; i < n; i++) {
                unusedcalc = unusedcalc + 1.0;
                if (a[i] > 0.25) { s = s + a[i]; }
            }
            buf[0] = s;
            return buf[0];
        }
    """
    module = Module("guarded_sum")
    a = module.add_global("a", DOUBLE, 32)
    n = module.add_global("n", INT64, 1)
    f = AllocaFunction(module, "f", DOUBLE)
    b = f.builder
    f.local("s", DOUBLE)
    f.local("unusedcalc", DOUBLE)
    buf = f.local("buf", DOUBLE, count=4)
    f.local("i", INT64)
    f.write("s", const_float(0.0))
    f.write("unusedcalc", const_float(0.0))
    f.write("i", const_int(0))
    header, body, then, latch, exit_ = (
        f.block(name)
        for name in ("for.cond", "for.body", "if.then", "for.inc", "for.end")
    )
    b.br(header)
    f.at(header)
    b.cond_br(b.icmp("slt", f.read("i"), b.load(n, "n")), body, exit_)
    f.at(body)
    f.write("unusedcalc", b.fadd(f.read("unusedcalc"), const_float(1.0)))
    element = b.load(b.gep(a, f.read("i")))
    b.cond_br(b.fcmp("ogt", element, const_float(0.25)), then, latch)
    f.at(then)
    f.write("s", b.fadd(f.read("s"), b.load(b.gep(a, f.read("i")))))
    b.br(latch)
    f.at(latch)
    f.write("i", b.add(f.read("i"), const_int(1)))
    b.br(header)
    f.at(exit_)
    slot = b.gep(buf, const_int(0))
    b.store(f.read("s"), slot)
    b.ret(b.load(b.gep(buf, const_int(0))))
    return module
