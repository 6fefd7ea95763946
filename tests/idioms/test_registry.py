"""Tests for the idiom registry — the spec-file-first detection path."""

import pytest

from repro.constraints import SpecFileError
from repro.frontend import compile_source
from repro.idioms import (
    BUILTIN_IDIOMS,
    IdiomRegistry,
    default_registry,
    find_reductions,
    reset_default_registry,
)
from repro.idioms import registry as registry_module

SOURCE = """
double a[32]; int hist[8]; int keys[32]; int n;
double total(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + a[i];
    return s;
}
void count(void) {
    for (int i = 0; i < n; i++) hist[keys[i]]++;
}
"""


def test_builtins_load_from_shipped_spec_files():
    registry = IdiomRegistry()
    assert set(registry.names()) == set(BUILTIN_IDIOMS)
    for name in BUILTIN_IDIOMS:
        entry = registry.entry(name)
        assert entry.source.endswith(".icsl"), (
            f"{name} should come from a spec file, not {entry.source!r}"
        )
        assert entry.kind == name
    assert registry.spec("for-loop").label_order[0] == "header"
    assert len(registry.spec("histogram").label_order) == 18


def test_extension_idioms_are_shipped_builtins():
    """The §8 extension idioms load from their own ``.icsl`` files and
    extend the for-loop spec *object*, so the solver can replay its
    solved prefix."""
    from repro.idioms import EXTENSION_IDIOMS

    registry = IdiomRegistry()
    forloop = registry.spec("for-loop")
    assert set(EXTENSION_IDIOMS) <= set(registry.names())
    for name in EXTENSION_IDIOMS:
        entry = registry.entry(name)
        assert entry.source.endswith(".icsl")
        assert entry.spec.base is forloop
        assert entry.spec.label_order[:11] == forloop.label_order


def test_extension_override_rewires_extended_detection(tmp_path):
    """Replacing a shipped extension idiom through a user file rewires
    ``find_extended_reductions`` — same §3.4 loop as the core idioms."""
    from repro.idioms import find_extended_reductions

    source = """
    double xs[16]; double ys[16]; int n;
    double dot(void) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s = s + xs[i] * ys[i];
        return s;
    }
    """
    module = compile_source(source)
    assert len(find_extended_reductions(module).dot_products) == 1
    path = tmp_path / "no-dot.icsl"
    path.write_text(
        "idiom dot-product extends for-loop {\n"
        "  order: header test body exit entry latch iterator next_iter"
        " iter_begin iter_step iter_end acc update acc_init product"
        " load_a load_b gep_a gep_b base_a base_b\n"
        "  phi2(acc, update, acc_init)\n"
        "  opcode(product, fmul, load_a, load_b)\n"
        "  opcode(load_a, load, gep_a)\n"
        "  opcode(load_b, load, gep_b)\n"
        "  opcode(gep_a, gep, base_a, _)\n"
        "  opcode(gep_b, gep, base_b, _)\n"
        "  distinct(header, header)\n"  # never true
        "}\n"
    )
    registry = IdiomRegistry()
    registry.load_file(str(path))
    report = find_extended_reductions(module, registry=registry)
    assert not report.dot_products


def test_find_reductions_routes_through_registry():
    module = compile_source(SOURCE)
    report = find_reductions(module, registry=IdiomRegistry())
    scalars, histograms = report.counts()
    assert (scalars, histograms) == (1, 1)


def test_registry_override_changes_detection():
    """Replacing a built-in through a user file rewires detection —
    the §3.4 experimentation loop, no Python involved."""
    registry = IdiomRegistry()
    # A deliberately impossible scalar-reduction variant.
    registry_file = (
        "idiom scalar-reduction extends for-loop {\n"
        "  order: header test body exit entry latch iterator next_iter"
        " iter_begin iter_step iter_end acc acc_update acc_init\n"
        "  phi2(acc, acc_update, acc_init)\n"
        "  distinct(header, header)\n"  # never true
        "}\n"
    )
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "override.icsl")
        with open(path, "w") as handle:
            handle.write(registry_file)
        entries = registry.load_file(path)
    assert [e.name for e in entries] == ["scalar-reduction"]
    assert registry.entry("scalar-reduction").kind == "scalar-reduction"
    module = compile_source(SOURCE)
    report = find_reductions(module, registry=registry)
    scalars, histograms = report.counts()
    assert (scalars, histograms) == (0, 1)  # scalar path disabled


def test_load_file_registers_custom_idioms(tmp_path):
    path = tmp_path / "custom.icsl"
    path.write_text(
        "idiom any-phi {\n  order: x\n  opcode(x, phi)\n}\n"
    )
    registry = IdiomRegistry()
    entries = registry.load_file(str(path))
    assert [e.name for e in entries] == ["any-phi"]
    assert registry.entry("any-phi").kind == "custom"
    assert "any-phi" in registry
    assert [e.name for e in registry.custom()] == ["any-phi"]


def test_builtin_replacement_must_keep_required_labels(tmp_path):
    """A spec replacing a built-in without the labels post-processing
    reads (e.g. ``acc``) is rejected at load time, not with a KeyError
    mid-detection."""
    path = tmp_path / "bad-override.icsl"
    path.write_text(
        "idiom scalar-reduction {\n"
        "  order: st v p\n"
        "  opcode(st, store, v, p)\n"
        "}\n"
    )
    registry = IdiomRegistry()
    with pytest.raises(SpecFileError, match="required label"):
        registry.load_file(str(path))
    # The built-in stays registered and detection still works.
    module = compile_source(SOURCE)
    assert find_reductions(module, registry=registry).counts() == (1, 1)


def test_load_file_rejects_empty_spec(tmp_path):
    path = tmp_path / "empty.icsl"
    path.write_text("# nothing here\n")
    with pytest.raises(SpecFileError, match="no idioms"):
        IdiomRegistry().load_file(str(path))


def test_unknown_idiom_lookup_names_known_ones():
    with pytest.raises(KeyError, match="histogram"):
        IdiomRegistry().spec("no-such-idiom")


def test_missing_builtin_spec_file_is_an_error(monkeypatch):
    """A missing packaged spec fails loudly, naming the path — no
    silent switch to another spec source."""
    monkeypatch.setattr(
        registry_module, "builtin_spec_path",
        lambda name: "/nonexistent/" + name,
    )
    with pytest.raises(SpecFileError, match="/nonexistent/for-loop"):
        IdiomRegistry()


def test_broken_builtin_spec_file_is_an_error(monkeypatch, tmp_path):
    broken = tmp_path / "forloop.icsl"
    broken.write_text("idiom for-loop {\n  order: header\n  nosuchatom(header)\n}\n")
    monkeypatch.setattr(
        registry_module, "builtin_spec_path", lambda name: str(broken),
    )
    with pytest.raises(SpecFileError) as info:
        IdiomRegistry()
    assert str(broken) in str(info.value)


def test_default_registry_is_cached_and_resettable():
    reset_default_registry()
    first = default_registry()
    assert default_registry() is first
    reset_default_registry()
    assert default_registry() is not first


def test_describe_lists_every_idiom():
    text = IdiomRegistry().describe()
    for name in BUILTIN_IDIOMS:
        assert name in text
    assert "builtin" in text
