"""ICSL parse→render→parse round-trips and error-message quality."""

import pytest

from repro.constraints import (
    SolverContext,
    SpecFileError,
    detect,
    load_spec_file,
    parse_spec_text,
    render_spec_text,
)
from repro.constraints.specfile import BUILTIN_SPEC_FILES, builtin_spec_path
from repro.frontend import compile_source

from test_differential import CORPUS, contexts_for, solution_set

# -- round trips --------------------------------------------------------------


@pytest.mark.parametrize("idiom", sorted(BUILTIN_SPEC_FILES))
def test_builtin_spec_render_roundtrip(idiom):
    """render is a parse inverse: the rendered text reparses to specs
    with identical solution sets, and rendering is a fixpoint."""
    original = load_spec_file(builtin_spec_path(idiom))
    rendered = render_spec_text(original)
    reparsed = parse_spec_text(rendered)
    assert set(reparsed) == set(original)
    assert render_spec_text(reparsed) == rendered  # fixpoint
    for name in original:
        a, b = original[name], reparsed[name]
        assert a.label_order == b.label_order
        for ctx in contexts_for(CORPUS["scalar-sum"]):
            assert solution_set(
                detect(ctx, a), a.label_order
            ) == solution_set(detect(ctx, b), a.label_order)


def test_synthetic_spec_roundtrip_with_groups_and_flow():
    text = """
    idiom fancy {
      order: header test body exit entry latch iterator next_iter x
      condbranch(header, test, body, exit)
      branch(latch, header)
      (opcode(x, add, _, _) & inblock(x, body)) | constant(x)
      opcode(test, icmp, iterator, x) commutative | phi2(test, iterator, x)
      phi2(iterator, next_iter, x)
      natural_loop(header, body, latch, entry, exit)
      flow(next_iter, header, sources=iterator, rejected=x, index=iterator, affine)
      distinct(header, body)
    }
    """
    specs = parse_spec_text(text)
    rendered = render_spec_text(specs)
    reparsed = parse_spec_text(rendered)
    assert render_spec_text(reparsed) == rendered
    assert reparsed["fancy"].label_order == specs["fancy"].label_order


def test_roundtrip_preserves_solutions_on_parsed_custom_idiom():
    text = """
    idiom load-of {
      order: x p
      opcode(x, load, p)
      opcode(p, gep, _, _)
    }
    """
    specs = parse_spec_text(text)
    reparsed = parse_spec_text(render_spec_text(specs))
    module = compile_source("double a[4]; double f(int i) { return a[i]; }")
    ctx = SolverContext(module.get_function("f"), module)
    order = specs["load-of"].label_order
    assert solution_set(detect(ctx, specs["load-of"]), order) == solution_set(
        detect(ctx, reparsed["load-of"]), order
    )


def test_extends_renders_flattened_but_equivalent():
    scalar = load_spec_file(builtin_spec_path("scalar-reduction"))
    rendered = render_spec_text(scalar)
    assert "extends" not in rendered  # flattened on render
    reparsed = parse_spec_text(rendered)
    for ctx in contexts_for(CORPUS["scalar-sum"]):
        order = scalar["scalar-reduction"].label_order
        assert solution_set(
            detect(ctx, scalar["scalar-reduction"]), order
        ) == solution_set(detect(ctx, reparsed["scalar-reduction"]), order)


def test_native_python_predicates_render():
    """Natives share the named predicate factories, so they render."""
    from native_specs import for_loop_spec

    rendered = render_spec_text({"for-loop": for_loop_spec()})
    assert "natural_loop(header, body, latch, entry, exit)" in rendered


def test_handwritten_computed_only_from_is_not_renderable():
    from repro.constraints import ComputedOnlyFrom, IdiomSpec

    constraint = ComputedOnlyFrom("x", "h", lambda ctx, a: (None, None))
    spec = IdiomSpec("opaque", ("x", "h"), constraint)
    with pytest.raises(SpecFileError, match="cannot be rendered"):
        render_spec_text({"opaque": spec})


# -- error-message quality ----------------------------------------------------


def _error_for(text):
    with pytest.raises(SpecFileError) as excinfo:
        parse_spec_text(text)
    return excinfo.value


def test_unknown_atom_reports_line_number():
    error = _error_for(
        "idiom x {\n  order: a\n  frobnicate(a)\n}"
    )
    assert "line 3" in str(error)
    assert "unknown atom" in str(error)
    assert error.line == 3


def test_bad_statement_reports_line_number():
    error = _error_for(
        "idiom x {\n  order: a\n  constant(a)\n  opcode(a,)(\n}"
    )
    assert error.line == 4
    assert "line 4" in str(error)


def test_unbalanced_parens_reports_line_number():
    error = _error_for(
        "idiom x {\n  order: a\n  (constant(a) | constant(a)\n}"
    )
    assert error.line == 3


def test_missing_order_reports_closing_line():
    error = _error_for("idiom x {\n  constant(a)\n}")
    assert "no order" in str(error)
    assert error.line == 3


def test_unterminated_block_reports_header_line():
    error = _error_for("\n\nidiom x {\n  order: a\n  constant(a)")
    assert "unterminated" in str(error)
    assert error.line == 3


def test_statement_outside_block_reports_line():
    error = _error_for("# comment\nconstant(a)")
    assert "outside idiom" in str(error)
    assert error.line == 2


def test_label_missing_from_order_reports_closing_line():
    error = _error_for(
        "idiom x {\n  order: a\n  edge(a, b)\n}"
    )
    assert "missing from order" in str(error)
    assert error.line == 4


def test_unknown_extends_base_reports_line():
    error = _error_for("idiom x extends nope {\n  order: a\n  constant(a)\n}")
    assert "unknown idiom 'nope'" in str(error)
    assert error.line == 1


def test_flow_keyword_typo_is_reported():
    error = _error_for(
        "idiom x {\n  order: a h\n  flow(a, h, source=a)\n}"
    )
    assert "unknown flow keyword" in str(error)
    assert error.line == 3


def test_wrong_predicate_arity_is_reported():
    error = _error_for(
        "idiom x {\n  order: a b\n  load_before_store(a)\n}"
    )
    assert "argument" in str(error)
    assert error.line == 3


def test_extends_builtin_resolves_automatically():
    specs = parse_spec_text(
        """
        idiom tiny-loop extends for-loop {
          order: header test body exit entry latch iterator next_iter iter_begin iter_step iter_end
          distinct(body, latch)
        }
        """
    )
    spec = specs["tiny-loop"]
    assert len(spec.label_order) == 11
    for ctx in contexts_for(CORPUS["scalar-sum"]):
        # body == latch in this single-block loop: the extra conjunct
        # must now reject the match the plain for-loop spec finds.
        assert detect(ctx, spec) == []
