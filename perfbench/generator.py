"""Seeded mini-C program generator for the ``lib-generated`` workload.

Every generated program is one function built from *kernels*: small
loop nests that either plant a reduction the detector must find or a
decoy it must reject.  Each kernel uses its own globals and locals
(suffixed with the kernel index), so kernels never interact and a
program's expected detections are the union of its kernels'.

Function sizes, in kernels, follow a bounded power law.  The sizes are
the distribution's quantiles rather than random draws, and the kernel
kinds of each size class are a fixed multiset, so every seed gives the
same mix of work; the seed deals the kinds to programs, picks their
constants and orders the programs.  That keeps latency and throughput
comparable across seeds while the large-function tail still shows any
pass or analysis that grows faster than linearly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Programs per generated set.
PROGRAMS = 48
#: Kernels per function: from corpus size up to this (a nested kernel
#: has three loops, every other kernel one).
MAX_KERNELS = 28
#: Power-law exponent of the size distribution (smaller = heavier tail).
ALPHA = 1.0


@dataclass(frozen=True)
class Program:
    """One generated program and the detections it must produce."""

    name: str
    source: str
    loops: int
    #: Sorted ``(category, tag)`` pairs; see :func:`detection_pairs`.
    expected: tuple[tuple[str, str], ...]


def _sum(k, rng):
    c = rng.choice(("0.5", "1.5", "2.0", "3.0"))
    body = (f"double s{k} = 0.0;\n"
            f"for (int i{k} = 0; i{k} < n; i{k}++) "
            f"{{ s{k} = s{k} + x{k}[i{k}] * {c}; }}\n"
            f"r = r + s{k};")
    return [f"double x{k}[64];"], body, 1, [("scalar", f"s{k}")]


def _guarded_sum(k, rng):
    t = rng.choice(("0.1", "0.25", "0.5"))
    body = (f"double s{k} = 0.0;\n"
            f"for (int i{k} = 0; i{k} < n; i{k}++) {{\n"
            f"  double v{k} = x{k}[i{k}];\n"
            f"  if (v{k} > {t}) {{ s{k} = s{k} + v{k}; }}\n"
            f"}}\n"
            f"r = r + s{k};")
    return [f"double x{k}[64];"], body, 1, [("scalar", f"s{k}")]


def _product(k, rng):
    body = (f"double p{k} = 1.0;\n"
            f"for (int i{k} = 0; i{k} < n; i{k}++) "
            f"{{ p{k} = p{k} * (1.0 + 0.001 * x{k}[i{k}]); }}\n"
            f"r = r + p{k};")
    return [f"double x{k}[64];"], body, 1, [("scalar", f"p{k}")]


def _max(k, rng):
    op = rng.choice((">", "<"))
    body = (f"double m{k} = x{k}[0];\n"
            f"for (int i{k} = 0; i{k} < n; i{k}++) "
            f"{{ m{k} = x{k}[i{k}] {op} m{k} ? x{k}[i{k}] : m{k}; }}\n"
            f"r = r + m{k};")
    return [f"double x{k}[64];"], body, 1, [("scalar", f"m{k}")]


def _count(k, rng):
    t = rng.choice(("0.0", "0.5"))
    body = (f"int c{k} = 0;\n"
            f"for (int i{k} = 0; i{k} < n; i{k}++) "
            f"{{ if (x{k}[i{k}] > {t}) {{ c{k} = c{k} + 1; }} }}\n"
            f"r = r + c{k};")
    return [f"double x{k}[64];"], body, 1, [("scalar", f"c{k}")]


def _histogram(k, rng):
    body = (f"for (int i{k} = 0; i{k} < n; i{k}++) "
            f"{{ h{k}[key{k}[i{k}]] = h{k}[key{k}[i{k}]] + 1.0; }}")
    return ([f"int key{k}[64];", f"double h{k}[16];"], body, 1,
            [("histogram", f"h{k}")])


def _binned_histogram(k, rng):
    body = (f"for (int i{k} = 0; i{k} < n; i{k}++) {{\n"
            f"  int b{k} = (int) (x{k}[i{k}] * 15.0);\n"
            f"  h{k}[b{k}] = h{k}[b{k}] + 1.0;\n"
            f"}}")
    return ([f"double x{k}[64];", f"double h{k}[16];"], body, 1,
            [("histogram", f"h{k}")])


def _dot(k, rng):
    body = (f"double s{k} = 0.0;\n"
            f"for (int i{k} = 0; i{k} < n; i{k}++) "
            f"{{ s{k} = s{k} + a{k}[i{k}] * b{k}[i{k}]; }}\n"
            f"r = r + s{k};")
    return ([f"double a{k}[64];", f"double b{k}[64];"], body, 1,
            [("scalar", f"s{k}"), ("dot-product", f"a{k}xb{k}")])


def _argminmax(k, rng):
    op, kind = rng.choice((("<", "argmin"), (">", "argmax")))
    body = (f"double best{k} = v{k}[0];\n"
            f"int pos{k} = 0;\n"
            f"for (int i{k} = 0; i{k} < n; i{k}++) {{\n"
            f"  if (v{k}[i{k}] {op} best{k}) "
            f"{{ best{k} = v{k}[i{k}]; pos{k} = i{k}; }}\n"
            f"}}\n"
            f"r = r + best{k} + pos{k};")
    return ([f"double v{k}[64];"], body, 1,
            [("argminmax", f"{kind}(best{k},pos{k})")])


def _nested(k, rng):
    body = (f"for (int o{k} = 0; o{k} < 4; o{k}++) {{\n"
            f"  for (int j{k} = 0; j{k} < 8; j{k}++) {{\n"
            f"    for (int m{k} = 0; m{k} < 8; m{k}++) {{\n"
            f"      double t{k} = src{k}[(o{k} * 8 + j{k}) * 8 + m{k}];\n"
            f"      acc{k}[m{k}] = acc{k}[m{k}] + t{k} * t{k};\n"
            f"    }}\n"
            f"  }}\n"
            f"}}")
    return ([f"double src{k}[256];", f"double acc{k}[8];"], body, 3,
            [("nested-array-reduction", f"acc{k}")])


# -- decoys: near misses that must not match ---------------------------------


def _recurrence(k, rng):
    """Loop-carried recurrence mixing * and +: no associative operator."""
    body = (f"double s{k} = 0.0;\n"
            f"for (int i{k} = 0; i{k} < n; i{k}++) "
            f"{{ s{k} = 0.5 * s{k} + x{k}[i{k}]; }}\n"
            f"r = r + s{k};")
    return [f"double x{k}[64];"], body, 1, []


def _alias_store(k, rng):
    """A histogram update that reads its own bins: the store aliases."""
    body = (f"for (int i{k} = 0; i{k} < n; i{k}++) "
            f"{{ h{k}[key{k}[i{k}]] = h{k}[key{k}[i{k}]] + h{k}[i{k}]; }}")
    return [f"int key{k}[64];", f"double h{k}[64];"], body, 1, []


def _impure_call(k, rng):
    """A sum whose update depends on the impure ``rand`` intrinsic."""
    body = (f"double s{k} = 0.0;\n"
            f"for (int i{k} = 0; i{k} < n; i{k}++) "
            f"{{ s{k} = s{k} + x{k}[i{k}] * (rand() % 3); }}\n"
            f"r = r + s{k};")
    return [f"double x{k}[64];"], body, 1, []


PLANTED = (_sum, _guarded_sum, _product, _max, _count, _histogram,
           _binned_histogram, _dot, _argminmax, _nested)
DECOYS = (_recurrence, _alias_store, _impure_call)
KINDS = PLANTED + DECOYS


def kernel_sizes(count: int = PROGRAMS) -> list[int]:
    """Kernels per function: quantiles of a bounded power law."""
    return [min(MAX_KERNELS,
                int((1.0 - (j + 0.5) / count) ** (-1.0 / ALPHA)))
            for j in range(count)]


def make_program(name: str, makers, rng: random.Random) -> Program:
    """One function made of the given kernels, in order."""
    decls = ["int n;"]
    body = ["double r = 0.0;"]
    expected: list[tuple[str, str]] = []
    loops = 0
    for k, maker in enumerate(makers):
        globals_, code, used, found = maker(k, rng)
        decls.extend(globals_)
        body.append(code)
        expected.extend(found)
        loops += used
    body.append("return r;")
    source = "\n".join(decls) + f"\ndouble {name}(void) {{\n" + \
        "\n".join(body) + "\n}\n"
    return Program(name, source, loops, tuple(sorted(expected)))


def generate(seed: int, count: int = PROGRAMS) -> list[Program]:
    """The seed's program set: fixed size and kind mix, seeded content."""
    rng = random.Random(seed)
    sizes = kernel_sizes(count)
    # Each size class gets a fixed multiset of kinds, cycling through all
    # of them, dealt to its programs in seeded order.
    pools: dict[int, list] = {}
    for size in sorted(set(sizes)):
        pool = [KINDS[i % len(KINDS)]
                for i in range(size * sizes.count(size))]
        rng.shuffle(pool)
        pools[size] = pool
    rng.shuffle(sizes)
    programs = []
    for j, size in enumerate(sizes):
        makers = [pools[size].pop() for _ in range(size)]
        programs.append(make_program(f"gen{seed}_{j}", makers, rng))
    return programs


def detection_pairs(report, extended) -> tuple[tuple[str, str], ...]:
    """``(category, tag)`` for every detection, sorted.

    The tag is the last ``:``-separated part of the detection's stable
    name with ``@`` dropped: the accumulator or array a kernel declared.
    """
    def tag(name: str) -> str:
        return name.rsplit(":", 1)[-1].replace("@", "")

    pairs = [("scalar", tag(s.name)) for s in report.scalars]
    pairs += [("histogram", tag(h.name)) for h in report.histograms]
    pairs += [("dot-product", tag(d.name)) for d in extended.dot_products]
    pairs += [("argminmax", tag(a.name)) for a in extended.argminmax]
    pairs += [("nested-array-reduction", tag(x.name))
              for x in extended.nested_array]
    return tuple(sorted(pairs))


def detection_names(report, extended) -> tuple[str, ...]:
    """Every detection's full stable name, in report order."""
    return (
        tuple(f"scalar {s.name} {s.op.value}" for s in report.scalars)
        + tuple(f"histogram {h.name} {h.op.value}" for h in report.histograms)
        + tuple(f"dot-product {d.name}" for d in extended.dot_products)
        + tuple(f"argminmax {a.name} {a.kind}" for a in extended.argminmax)
        + tuple(f"nested-array-reduction {x.name} {x.op.value}"
                for x in extended.nested_array)
    )
