"""Tests for external specification files (§3.4 future work)."""

import os

import pytest

from repro.constraints import SolverContext, detect
from repro.constraints.specfile import (
    SpecFileError,
    load_spec_file,
    parse_spec_text,
)
from repro.frontend import compile_source

from native_specs import for_loop_spec

SPEC_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "src", "repro", "constraints",
    "specs", "forloop.icsl",
)


def test_shipped_forloop_spec_loads():
    specs = load_spec_file(SPEC_PATH)
    assert set(specs) == {"for-loop"}
    spec = specs["for-loop"]
    assert spec.label_order[0] == "header"
    assert len(spec.label_order) == 11


@pytest.mark.parametrize(
    "source,expected_loops",
    [
        (
            """
            double a[16]; int n;
            double f(void) {
                double s = 0.0;
                for (int i = 0; i < n; i++) s = 0.5 * s + a[i];
                return s;
            }
            """,
            1,
        ),
        (
            """
            double a[64]; int n;
            double f(void) {
                double s = 0.0;
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < 8; j++)
                        s = 0.5 * s + a[i*8 + j];
                return s;
            }
            """,
            2,
        ),
        (
            """
            int f(int n) {
                int i = 0;
                int lim = n;
                while (i < lim) { lim = lim - 1; i = i + 1; }
                return i;
            }
            """,
            0,
        ),
    ],
)
def test_file_spec_matches_native_spec(source, expected_loops):
    """The external spec must agree with the native Fig. 5 spec."""
    module = compile_source(source)
    fn = module.get_function("f")
    ctx = SolverContext(fn, module)
    native = for_loop_spec()
    external = load_spec_file(SPEC_PATH)["for-loop"]

    native_headers = {
        id(s["header"]) for s in detect(ctx, native)
    }
    external_headers = {
        id(s["header"]) for s in detect(ctx, external)
    }
    assert native_headers == external_headers
    assert len(external_headers) == expected_loops


def test_disjunction_syntax():
    specs = parse_spec_text(
        """
        idiom any-op {
          order: x
          opcode(x, add) | opcode(x, fadd)
        }
        """
    )
    module = compile_source(
        "double f(double x, int i) { return x + 1.0 + (double)(i + 2); }"
    )
    ctx = SolverContext(module.get_function("f"), module)
    solutions = detect(ctx, specs["any-op"])
    assert len(solutions) == 3  # two fadds + one integer add


def test_opcode_wildcard_operand():
    specs = parse_spec_text(
        """
        idiom load-of {
          order: x p
          opcode(x, load, p)
          opcode(p, gep, _, _)
        }
        """
    )
    module = compile_source(
        "double a[4]; double f(int i) { return a[i]; }"
    )
    ctx = SolverContext(module.get_function("f"), module)
    assert len(detect(ctx, specs["load-of"])) == 1


def test_error_on_unknown_atom():
    with pytest.raises(SpecFileError, match="unknown atom"):
        parse_spec_text("idiom x {\norder: a\nfrobnicate(a)\n}")


def test_error_on_missing_order():
    with pytest.raises(SpecFileError, match="no order"):
        parse_spec_text("idiom x {\nconstant(a)\n}")


def test_error_on_unterminated_block():
    with pytest.raises(SpecFileError, match="unterminated"):
        parse_spec_text("idiom x {\norder: a\nconstant(a)")


def test_error_on_statement_outside_block():
    with pytest.raises(SpecFileError, match="outside idiom"):
        parse_spec_text("constant(a)")


def test_comments_and_blank_lines_ignored():
    specs = parse_spec_text(
        """
        # a comment
        idiom trivial {   ; trailing comment
          order: x
          constant(x)     # another
        }
        """
    )
    assert "trivial" in specs
