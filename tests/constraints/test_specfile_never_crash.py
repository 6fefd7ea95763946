"""Never-crash property for ICSL text.

The ``.icsl`` files are the only way idiom specs enter the package, so
:func:`~repro.constraints.parse_spec_text` must turn *any* text into
specs or a :class:`~repro.constraints.SpecFileError` — never another
exception.  Two strategies: raw characters (mostly the language's own
punctuation and keywords, so the parser gets past its first line), and
structured text built from the grammar's pieces with random mistakes:
``idiom``/``extends``/``order:`` headers, atoms of random arity, ``&``
and ``|`` groups, ``# lint: ignore[...]`` comments and unclosed blocks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import SpecFileError, parse_spec_text
from repro.constraints.predicates import PREDICATE_ATOMS
from repro.constraints.specfile import BUILTIN_SPEC_FILES


def assert_parses_or_spec_error(text: str) -> None:
    try:
        specs = parse_spec_text(text, path="fuzz.icsl")
    except SpecFileError:
        return
    assert isinstance(specs, dict)


# -- raw characters -----------------------------------------------------------

_PIECES = (
    "idiom", "extends", "order:", "for-loop", "{", "}", "(", ")", ",",
    "|", "&", "=", "+", "_", "#", ";", "\n", " ", "\t", "x", "y",
    "commutative", "opcode", "flow", "affine", "sources", "lint: ignore[",
    "]", "ICSL001",
)


@given(st.lists(
    st.one_of(st.sampled_from(_PIECES), st.characters()), max_size=80,
).map("".join))
@settings(max_examples=300, deadline=None)
def test_raw_text_raises_only_spec_file_error(text):
    assert_parses_or_spec_error(text)


# -- structured text ----------------------------------------------------------

#: Mostly the labels an ``order: a b c`` line declares, so that some
#: generated specs are valid and the parse runs to its end.
_LABELS = ("a", "b", "c") * 4 + ("header", "entry", "_", "add")

_ATOM_NAMES = (
    "edge", "branch", "condbranch", "dominates", "postdominates",
    "strictlydominates", "strictlypostdominates", "blocked", "sese",
    "phi2", "phiedge", "inblock", "constant", "defdom", "distinct",
    "opcode", "invariant", "naturalloop", "flow", "nosuchatom",
) + tuple(sorted(PREDICATE_ATOMS))

_FLOW_ARGS = ("affine", "noloads", "sources=a+b", "rejected=c",
              "forbidden=a", "index=b", "bogus=a", "sources=")


#: True nine times in ten: most choices below are the well-formed one.
_mostly = st.sampled_from((True,) * 9 + (False,))

#: Well-formed atoms over the labels ``a b c``.
_VALID_ATOMS = (
    "branch(a, b)", "condbranch(a, b, c, a)", "dominates(a, b)",
    "sese(b, c)", "opcode(a, add, b, _) commutative", "phi2(a, b, c)",
    "phiedge(a, b, c)", "inblock(a, b)", "invariant(a, b)",
    "distinct(a, b, c)", "flow(a, b, sources=c, index=b, affine)",
    "load_before_store(a, b)", "same_join(b, c)",
)


@st.composite
def atoms(draw):
    if draw(_mostly):
        return draw(st.sampled_from(_VALID_ATOMS))
    name = draw(st.sampled_from(_ATOM_NAMES))
    args = draw(st.lists(
        st.sampled_from(_LABELS + _FLOW_ARGS), max_size=5,
    ))
    text = f"{name}({', '.join(args)})"
    if draw(st.booleans()):
        text += " commutative"
    return text


@st.composite
def statements(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        return draw(atoms())
    parts = draw(st.lists(statements(depth=depth + 1), min_size=1,
                          max_size=3))
    joined = f" {draw(st.sampled_from(['&', '|']))} ".join(parts)
    return f"({joined})" if draw(st.booleans()) else joined


_COMMENTS = ("", "  # a comment", "  # lint: ignore[ICSL001]",
             "  # lint: ignore[ICSL002, ICSL004]", "  ; semicolon comment",
             "  # lint: ignore[")


@st.composite
def blocks(draw):
    # Each sampled tuple repeats its well-formed choice, so that a good
    # share of the generated texts parse without error.
    name = draw(st.sampled_from(("fuzz",) * 4 + ("other", "for-loop",
                                                 "x y")))
    base = draw(st.sampled_from(
        ("",) * 12
        + tuple(f" extends {b}" for b in BUILTIN_SPEC_FILES)
        + (" extends fuzz", " extends nowhere")
    ))
    lines = [f"idiom {name}{base} {{" + draw(st.sampled_from(_COMMENTS))]
    if draw(_mostly):
        if draw(_mostly):
            order = draw(st.permutations(["a", "b", "c"]))
        else:
            order = draw(st.lists(st.sampled_from(_LABELS), max_size=5))
        lines.append("  order: " + " ".join(order)
                     + draw(st.sampled_from(_COMMENTS)))
    for _ in range(draw(st.sampled_from((1, 1, 2, 3, 0)))):
        lines.append("  " + draw(statements())
                     + draw(st.sampled_from(_COMMENTS)))
    if draw(_mostly):  # sometimes left unclosed
        lines.append("}")
    return "\n".join(lines)


@given(st.lists(blocks(), min_size=1, max_size=3).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_structured_text_raises_only_spec_file_error(text):
    assert_parses_or_spec_error(text)
