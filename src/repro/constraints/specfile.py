"""External constraint-specification files (§3.4 future work).

§3.4: *"In the future such specifications may be read from external
files at runtime, avoiding the need for recompilation to experiment
with analysis passes."*  This module implements that: a small textual
language — ICSL, the *idiom constraint specification language* — whose
statements map 1:1 onto the atomic constraints, loaded at runtime into
ordinary :class:`~repro.constraints.core.IdiomSpec` objects the
unmodified solver executes.  The shipped ``specs/*.icsl`` files are
the package's only idiom specifications (the six built-in idioms); see
``docs/icsl.md`` for a tutorial.

Grammar (line oriented; ``#`` and ``;`` start comments)::

    idiom NAME [extends BASE] {
      order: label1 label2 ...
      ATOM(args) [commutative]
      ATOM(args) | ATOM(args)             # disjunction
      (ATOM(a) & ATOM(b)) | ATOM(c)       # nested conjunction group
    }

Each statement line is one conjunct of the idiom; within a line ``|``
and ``&`` combine atoms, with parentheses for grouping.  ``extends``
prepends every conjunct of a previously defined (or shipped built-in)
idiom; the extending idiom restates the full label order.

Structural atoms::

    edge(a, b)              CFG edge a -> b
    branch(block, target)   block ends in ``br target``
    condbranch(b, c, t, e)  block ends in ``br c, t, e``
    dominates(a, b)         postdominates / strictlydominates /
                            strictlypostdominates likewise
    blocked(a, via, c)      every path a->c passes via
    sese(begin, end)        single-entry single-exit region
    opcode(x, OP, ops...)   x is an OP instruction with those operands
                            (`_` skips a position)
    phi2(x, a, b)           x = Φ(a, b)
    phiedge(phi, v, block)  v flows into phi from block
    inblock(x, block)
    constant(x)             x ∈ constant (constants/arguments/globals)
    defdom(x, block)        x's definition dominates block
    invariant(x, block)     shorthand for constant(x) | defdom(x, block)
    distinct(a, b, ...)

Named predicate atoms (see :mod:`repro.constraints.predicates`)::

    natural_loop(header, body, latch, entry, exit)
    update_in_loop(header, update)
    store_directly_in_loop(header, store)
    load_before_store(load, store)

Generalized graph domination (§3.1.2)::

    flow(output, header, sources=a+b, rejected=i, forbidden=p,
         index=i, affine, noloads)

``output`` is the sliced value, ``header`` the loop header; ``sources``
are allowed origins, ``rejected`` forbidden values, ``forbidden`` base
pointers loads may not touch, ``index`` values additionally allowed in
address computations; ``affine`` requires affine load indices and
``noloads`` forbids in-loop reads.  The control slice automatically
rejects the sources (conditions may not observe partial results).
"""

from __future__ import annotations

import os
import re

from .atomic import (
    Blocked,
    CFGEdge,
    DefDominatesBlock,
    Distinct,
    Dominates,
    EndsInCondBranch,
    EndsInUncondBranch,
    InBlock,
    IsConstantLike,
    Opcode,
    PhiIncomingFromBlock,
    PhiOfTwo,
    PostDominates,
    Predicate,
    SESERegion,
    StrictlyDominates,
    StrictlyPostDominates,
)
from .core import Constraint, IdiomSpec, top_level_conjuncts
from .flow import ComputedOnlyFrom, declarative_flow
from .logical import ConstraintAnd, ConstraintOr
from .predicates import PREDICATE_ATOMS


class SpecFileError(Exception):
    """Raised on malformed specification files.

    ``line`` and ``column`` carry the 1-based source position the error
    was detected at (None when the error is not tied to one); ``path``
    names the file and ``source_line`` holds the offending source text,
    when known.  :meth:`render` formats the whole thing as a
    compiler-style diagnostic with a caret.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, path: str | None = None,
                 source_line: str | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.path = path
        self.source_line = source_line

    def render(self) -> str:
        """``path:line:col: error: message`` plus a caret excerpt."""
        where = self.path if self.path else "<spec>"
        if self.line is not None:
            where += f":{self.line}"
            if self.column is not None:
                where += f":{self.column}"
        message = str(self)
        prefix = f"line {self.line}: "
        if self.line is not None and message.startswith(prefix):
            message = message[len(prefix):]
        out = [f"{where}: error: {message}"]
        if self.source_line is not None and self.source_line.strip():
            text = self.source_line.rstrip()
            out.append(f"  {text}")
            caret = min((self.column or 1) - 1, len(text))
            out.append("  " + " " * caret + "^")
        return "\n".join(out)


#: The spec files shipped inside the package, in dependency order:
#: the three Fig. 5/§3.1 core idioms first, then the §8 extension
#: idioms (all extend ``for-loop``, so it must load first).
BUILTIN_SPEC_FILES: dict[str, str] = {
    "for-loop": "forloop.icsl",
    "scalar-reduction": "scalar_reduction.icsl",
    "histogram": "histogram.icsl",
    "dot-product": "dot_product.icsl",
    "argminmax": "argminmax.icsl",
    "nested-array-reduction": "nested_reduction.icsl",
}


def builtin_spec_dir() -> str:
    """Directory holding the shipped ``.icsl`` files."""
    return os.path.join(os.path.dirname(__file__), "specs")


def builtin_spec_path(name: str) -> str:
    """Path of the shipped spec file defining built-in idiom ``name``."""
    try:
        return os.path.join(builtin_spec_dir(), BUILTIN_SPEC_FILES[name])
    except KeyError:
        raise SpecFileError(f"no built-in spec named {name!r}") from None


# -- statement tokenizer / parser ---------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(),|&=+]")

#: Flags allowed after an atom's closing parenthesis.
_ATOM_FLAGS = frozenset({"commutative"})

#: Bare flags allowed inside a ``flow(...)`` argument list.
_FLOW_FLAGS = frozenset({"affine", "noloads"})

#: Keyword arguments of ``flow(...)`` (label lists joined with ``+``).
_FLOW_KEYWORDS = frozenset({"sources", "rejected", "forbidden", "index"})


def _tokenize(line: str) -> list[tuple[str, int]]:
    """``(token, 1-based column)`` pairs for one statement line."""
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(line):
        if line[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(line, pos)
        if match is None:
            raise SpecFileError(
                f"bad character {line[pos]!r} in {line.strip()!r}",
                column=pos + 1,
            )
        tokens.append((match.group(0), pos + 1))
        pos = match.end()
    return tokens


class _StatementParser:
    """Recursive-descent parser for one constraint statement line.

    ``line`` is the raw (indentation-preserving) statement source, so
    token columns match the file; ``display`` is the stripped form used
    in error messages.
    """

    def __init__(self, line: str, display: str | None = None):
        self.line = display if display is not None else line.strip()
        self.tokens = _tokenize(line)
        self.pos = 0

    def _column(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        if self.tokens:
            token, column = self.tokens[-1]
            return column + len(token)
        return 1

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise SpecFileError(
                f"unexpected end of statement: {self.line!r}",
                column=self._column(),
            )
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        column = self._column()
        got = self.next()
        if got != token:
            raise SpecFileError(
                f"expected {token!r} but found {got!r} in {self.line!r}",
                column=column,
            )

    def expect_ident(self) -> str:
        column = self._column()
        token = self.next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            raise SpecFileError(
                f"expected a name but found {token!r} in {self.line!r}",
                column=column,
            )
        return token

    # expression := and_expr ('|' and_expr)*
    def parse(self) -> Constraint:
        constraint = self._or_expr()
        if self.peek() is not None:
            raise SpecFileError(
                f"trailing {self.peek()!r} in statement {self.line!r}",
                column=self._column(),
            )
        return constraint

    def _or_expr(self) -> Constraint:
        disjuncts = [self._and_expr()]
        while self.peek() == "|":
            self.next()
            disjuncts.append(self._and_expr())
        if len(disjuncts) == 1:
            return disjuncts[0]
        return ConstraintOr(*disjuncts)

    def _and_expr(self) -> Constraint:
        conjuncts = [self._primary()]
        while self.peek() == "&":
            self.next()
            conjuncts.append(self._primary())
        if len(conjuncts) == 1:
            return conjuncts[0]
        return ConstraintAnd(*conjuncts)

    def _primary(self) -> Constraint:
        if self.peek() == "(":
            self.next()
            inner = self._or_expr()
            self.expect(")")
            return inner
        return self._atom()

    def _atom(self) -> Constraint:
        column = self._column()
        name = self.expect_ident()
        self.expect("(")
        positional: list[str] = []
        keywords: dict[str, list[str]] = {}
        if self.peek() != ")":
            while True:
                ident = self.expect_ident()
                if self.peek() == "=":
                    self.next()
                    values = [self.expect_ident()]
                    while self.peek() == "+":
                        self.next()
                        values.append(self.expect_ident())
                    keywords[ident] = values
                else:
                    positional.append(ident)
                if self.peek() == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        flags: set[str] = set()
        while self.peek() in _ATOM_FLAGS:
            flags.add(self.next())
        try:
            return _build_atom(name, positional, keywords, flags)
        except SpecFileError as exc:
            if exc.column is None:
                exc.column = column
            raise


# -- atom construction --------------------------------------------------------

_SIMPLE_ATOMS = {
    "edge": CFGEdge,
    "branch": EndsInUncondBranch,
    "condbranch": EndsInCondBranch,
    "dominates": Dominates,
    "postdominates": PostDominates,
    "strictlydominates": StrictlyDominates,
    "strictlypostdominates": StrictlyPostDominates,
    "blocked": Blocked,
    "sese": SESERegion,
    "phi2": PhiOfTwo,
    "phiedge": PhiIncomingFromBlock,
    "inblock": InBlock,
    "constant": IsConstantLike,
    "defdom": DefDominatesBlock,
    "distinct": Distinct,
}


def _build_flow(args: list[str], keywords: dict[str, list[str]]) -> Constraint:
    labels = [a for a in args if a not in _FLOW_FLAGS]
    flags = {a for a in args if a in _FLOW_FLAGS}
    if len(labels) != 2:
        raise SpecFileError(
            "flow(output, header, ...) needs exactly two positional labels"
        )
    unknown = set(keywords) - _FLOW_KEYWORDS
    if unknown:
        raise SpecFileError(
            f"unknown flow keyword(s) {sorted(unknown)}; "
            f"expected one of {sorted(_FLOW_KEYWORDS)}"
        )
    return declarative_flow(
        labels[0],
        labels[1],
        sources=tuple(keywords.get("sources", ())),
        rejected=tuple(keywords.get("rejected", ())),
        forbidden=tuple(keywords.get("forbidden", ())),
        index=tuple(keywords.get("index", ())),
        affine="affine" in flags,
        loads="noloads" not in flags,
    )


def _build_atom(
    name: str,
    args: list[str],
    keywords: dict[str, list[str]],
    flags: set[str],
) -> Constraint:
    if name == "flow":
        return _build_flow(args, keywords)
    if keywords:
        raise SpecFileError(
            f"atom {name!r} takes no keyword arguments "
            f"(got {sorted(keywords)})"
        )
    commutative = "commutative" in flags
    if name == "opcode":
        if len(args) < 2:
            raise SpecFileError("opcode(x, OP, ...) needs two arguments")
        x, op, *operands = args
        labels = tuple(None if o == "_" else o for o in operands)
        return Opcode(x, op, labels, commutative=commutative)
    if "_" in args:
        raise SpecFileError(f"atom {name!r} does not accept '_' wildcards")
    if name == "invariant":
        if len(args) != 2:
            raise SpecFileError("invariant(x, block) needs two arguments")
        value, block = args
        return ConstraintOr(
            IsConstantLike(value), DefDominatesBlock(value, block)
        )
    if name == "naturalloop":  # legacy alias of natural_loop
        name = "natural_loop"
    factory = _SIMPLE_ATOMS.get(name) or PREDICATE_ATOMS.get(name)
    if factory is None:
        raise SpecFileError(f"unknown atom {name!r}")
    try:
        return factory(*args)
    except TypeError:
        raise SpecFileError(
            f"atom {name!r} got {len(args)} argument(s)"
        ) from None


def _parse_statement(line: str, display: str | None = None) -> Constraint:
    return _StatementParser(line, display=display).parse()


# -- file-level parser --------------------------------------------------------

_IDIOM_HEADER_RE = re.compile(
    r"^idiom\s+(?P<name>[\w\-]+)"
    r"(?:\s+extends\s+(?P<base>[\w\-]+))?\s*\{$"
)


def _resolve_base(
    base_name: str,
    specs: dict[str, IdiomSpec],
    known: dict[str, IdiomSpec],
    loading: frozenset[str],
) -> IdiomSpec:
    base = specs.get(base_name) or known.get(base_name)
    if base is None and base_name in BUILTIN_SPEC_FILES:
        if base_name in loading:
            raise SpecFileError(
                f"circular extends through built-in idiom {base_name!r}"
            )
        builtin = load_spec_file(
            builtin_spec_path(base_name), _loading=loading | {base_name}
        )
        base = builtin.get(base_name)
    if base is None:
        raise SpecFileError(
            f"extends references unknown idiom {base_name!r}"
        )
    return base


def _base_conjuncts(base: IdiomSpec) -> list[Constraint]:
    return top_level_conjuncts(base.constraint)


#: ``# lint: ignore[ICSL001, ICSL002]`` — a lint suppression inside the
#: comment part of a line.  On a statement line it suppresses the named
#: diagnostics for that conjunct; on the header, order, or a standalone
#: comment line inside a block it suppresses them for the whole spec.
_LINT_IGNORE_RE = re.compile(
    r"(?:#|;)\s*lint:\s*ignore\[(?P<codes>[A-Za-z0-9_\s,]*)\]"
)


def _line_ignores(comment: str) -> tuple[str, ...]:
    match = _LINT_IGNORE_RE.search(comment)
    if match is None:
        return ()
    return tuple(
        code.strip()
        for code in match.group("codes").split(",")
        if code.strip()
    )


def parse_spec_text(
    text: str,
    known: dict[str, IdiomSpec] | None = None,
    _loading: frozenset[str] = frozenset(),
    path: str | None = None,
) -> dict[str, IdiomSpec]:
    """Parse specification source into named idiom specs.

    ``known`` supplies previously loaded idioms that ``extends`` clauses
    may reference (built-in idioms resolve automatically).  Errors carry
    the offending 1-based source position in :attr:`SpecFileError.line`
    / :attr:`SpecFileError.column` (plus ``path`` and the source line
    when known, so :meth:`SpecFileError.render` can show a caret).

    Each parsed conjunct is stamped with ``spec_span`` — ``(path, line,
    column)`` of its statement — and any ``# lint: ignore[...]``
    suppressions, consumed by :mod:`repro.constraints.analysis`.
    """
    known = known or {}
    specs: dict[str, IdiomSpec] = {}
    current_name: str | None = None
    block_start = 0
    order: tuple[str, ...] | None = None
    constraints: list[Constraint] = []
    current_base: IdiomSpec | None = None
    block_ignores: dict[str, tuple] = {}
    order_span: tuple | None = None

    def error(lineno: int, message: str, column: int | None = None,
              source: str | None = None) -> None:
        raise SpecFileError(
            f"line {lineno}: {message}", line=lineno, column=column,
            path=path, source_line=source,
        )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#")[0].split(";")[0]
        line = code.strip()
        ignores = _line_ignores(raw[len(code):])
        if not line:
            if ignores and current_name is not None:
                for ignore in ignores:
                    block_ignores.setdefault(ignore, (path, lineno))
            continue
        header = _IDIOM_HEADER_RE.match(line)
        if header:
            if current_name is not None:
                error(lineno, "nested idiom blocks are not allowed",
                      source=raw)
            current_name = header.group("name")
            block_start = lineno
            order = None
            order_span = None
            constraints = []
            current_base = None
            block_ignores = {
                ignore: (path, lineno) for ignore in ignores
            }
            base_name = header.group("base")
            if base_name is not None:
                try:
                    current_base = _resolve_base(
                        base_name, specs, known, _loading
                    )
                    constraints.extend(_base_conjuncts(current_base))
                except SpecFileError as exc:
                    if exc.line is None:
                        error(lineno, str(exc), source=raw)
                    raise
            continue
        if line == "}":
            if current_name is None:
                error(lineno, "unmatched '}'", source=raw)
            if order is None:
                error(lineno, f"idiom {current_name!r} has no order: line",
                      source=raw)
            if not constraints:
                error(lineno, f"idiom {current_name!r} has no constraints",
                      source=raw)
            try:
                specs[current_name] = IdiomSpec(
                    current_name, order, ConstraintAnd(*constraints),
                    base=current_base, origin=(path, block_start),
                    lint_ignores=block_ignores,
                )
                specs[current_name].order_span = order_span
            except ValueError as exc:
                error(lineno, str(exc), source=raw)
            current_name = None
            continue
        if current_name is None:
            error(lineno, f"statement outside idiom block: {line!r}",
                  source=raw)
        if line.startswith("order:"):
            order = tuple(line[len("order:"):].split())
            order_span = (path, lineno, len(code) - len(code.lstrip()) + 1)
            for ignore in ignores:
                block_ignores.setdefault(ignore, (path, lineno))
            continue
        try:
            conjunct = _parse_statement(code, display=line)
        except SpecFileError as exc:
            if exc.line is None:
                error(lineno, str(exc), column=exc.column, source=raw)
            raise
        conjunct.spec_span = (path, lineno, len(code) - len(code.lstrip()) + 1)
        if ignores:
            conjunct.lint_ignores = frozenset(ignores)
        constraints.append(conjunct)

    if current_name is not None:
        raise SpecFileError(
            f"line {block_start}: unterminated idiom {current_name!r}",
            line=block_start, path=path,
        )
    return specs


def load_spec_file(
    path: str,
    known: dict[str, IdiomSpec] | None = None,
    _loading: frozenset[str] = frozenset(),
) -> dict[str, IdiomSpec]:
    """Load idiom specifications from a file."""
    with open(path) as handle:
        return parse_spec_text(
            handle.read(), known=known, _loading=_loading, path=path
        )


# -- rendering (the parse inverse) --------------------------------------------

_RENDER_SIMPLE = {cls: name for name, cls in _SIMPLE_ATOMS.items()}


def _render_flow(params: dict) -> str:
    parts = [params["output"], params["header"]]
    for key in ("sources", "rejected", "forbidden", "index"):
        values = params.get(key, ())
        if values:
            parts.append(f"{key}={'+'.join(values)}")
    if params.get("affine"):
        parts.append("affine")
    if not params.get("loads", True):
        parts.append("noloads")
    return f"flow({', '.join(parts)})"


def _render_constraint(constraint: Constraint, nested: bool = False) -> str:
    if isinstance(constraint, ConstraintAnd):
        body = " & ".join(
            _render_constraint(c, nested=True) for c in constraint.children
        )
        return f"({body})" if nested else body
    if isinstance(constraint, ConstraintOr):
        body = " | ".join(
            _render_constraint(c, nested=True) for c in constraint.children
        )
        return f"({body})" if nested else body
    if isinstance(constraint, Opcode):
        atoms = []
        for opcode in constraint.opcodes:
            args = [constraint.x_label, opcode]
            args.extend(
                "_" if label is None else label
                for label in constraint.operand_labels
            )
            flag = " commutative" if constraint.commutative else ""
            atoms.append(f"opcode({', '.join(args)}){flag}")
        if len(atoms) == 1:
            return atoms[0]
        body = " | ".join(atoms)
        return f"({body})" if nested else body
    spec_atom = getattr(constraint, "spec_atom", None)
    if isinstance(constraint, (Predicate, ComputedOnlyFrom)):
        if spec_atom is None:
            raise SpecFileError(
                f"constraint {constraint!r} was not built from a named "
                f"atom and cannot be rendered"
            )
        name, args = spec_atom
        if name == "flow":
            return _render_flow(args)
        return f"{name}({', '.join(args)})"
    atom = _RENDER_SIMPLE.get(type(constraint))
    if atom is None:
        raise SpecFileError(
            f"no ICSL syntax for constraint type {type(constraint).__name__}"
        )
    return f"{atom}({', '.join(constraint.labels)})"


def render_spec_text(specs: dict[str, IdiomSpec]) -> str:
    """Render idiom specs back to ICSL source — the parse inverse.

    ``parse_spec_text(render_spec_text(specs))`` yields equivalent specs
    (``extends`` and the ``invariant``/``naturalloop`` shorthands render
    in their expanded forms, so the text is flattened but the constraint
    trees and solution sets are preserved).
    """
    blocks: list[str] = []
    for name, spec in specs.items():
        lines = [f"idiom {name} {{"]
        lines.append(f"  order: {' '.join(spec.label_order)}")
        spec_ignores = sorted(getattr(spec, "lint_ignores", ()))
        if spec_ignores:
            lines.append(f"  # lint: ignore[{', '.join(spec_ignores)}]")
        for conjunct in top_level_conjuncts(spec.constraint):
            rendered = _render_constraint(conjunct)
            ignores = sorted(getattr(conjunct, "lint_ignores", ()))
            if ignores:
                rendered += f"  # lint: ignore[{', '.join(ignores)}]"
            lines.append(f"  {rendered}")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
