"""Extending the constraint language with a new idiom.

The paper's key architectural claim (§3, §8) is that the constraint
formulation *decouples specification from detection*: new idioms are
new constraint programs, not new detection algorithms.  §3.4 adds that
such programs can be read from text at runtime, with no recompilation.

This example writes a *two-array dot product* idiom in ICSL — a for
loop whose accumulator update is ``acc + a[i] * b[i]`` over two
distinct arrays — reads it with ``parse_spec_text`` and runs the
unmodified generic solver on it.  ``extends for-loop`` reuses the
shipped Fig. 5 for-loop spec, so only the accumulator part is new.
(The package ships a similar ``dot-product`` idiom; this one has its
own name, so the two never shadow each other.)

Run with::

    python examples/custom_idiom.py
"""

from repro import compile_source
from repro.constraints import SolverContext, detect, parse_spec_text

SPEC = """
idiom two-array-dot extends for-loop {
  order: header test body exit entry latch iterator next_iter iter_begin iter_step iter_end acc update acc_init product load_a load_b gep_a gep_b base_a base_b

  # acc is a loop-carried PHI: acc_init on entry, update from the latch.
  phi2(acc, update, acc_init)
  inblock(acc, header)
  phiedge(acc, update, latch)
  phiedge(acc, acc_init, entry)
  invariant(acc_init, entry)
  # The update is acc + load(gep(base_a, _)) * load(gep(base_b, _)).
  opcode(update, fadd, acc, product) commutative
  opcode(product, fmul, load_a, load_b) commutative
  opcode(load_a, load, gep_a)
  opcode(load_b, load, gep_b)
  opcode(gep_a, gep, base_a, _)
  opcode(gep_b, gep, base_b, _)
  distinct(base_a, base_b)
  distinct(acc, iterator)
  # Only the accumulator, affine array reads and loop constants feed it.
  flow(update, header, sources=acc, rejected=iterator, index=iterator, affine)
}
"""

SOURCE = """
double xs[256]; double ys[256]; double ws[256]; int n;

double plain_dot(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + xs[i] * ys[i];
    return s;
}

double weighted_norm(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + ws[i] * ws[i];
    return s;
}

double plain_sum(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + xs[i];
    return s;
}
"""


def main() -> None:
    module = compile_source(SOURCE, "custom")
    spec = parse_spec_text(SPEC)["two-array-dot"]
    print(f"idiom {spec.name!r}: {len(spec.label_order)} labels")
    for function in module.defined_functions():
        ctx = SolverContext(function, module)
        solutions = detect(ctx, spec)
        if solutions:
            for solution in solutions:
                a = solution["base_a"].short_name()
                b = solution["base_b"].short_name()
                print(f"  {function.name}: dot product over {a} x {b}")
        else:
            print(f"  {function.name}: no dot product")
    # plain_dot matches; weighted_norm does not (same array twice —
    # distinct(base_a, base_b) rejects it); plain_sum has no product.


if __name__ == "__main__":
    main()
