"""The idiom registry — spec files as the first-class detection path.

§3.4 proposes reading idiom specifications from external files at
runtime "avoiding the need for recompilation to experiment with
analysis passes".  :class:`IdiomRegistry` makes that the default: the
shipped ``specs/*.icsl`` files — the three Fig. 5/§3.1 core idioms
*and* the three §8 extension idioms — are loaded at startup (a missing
or unparsable packaged spec is an error), user spec files can be added
with :meth:`load_file`, and
both :func:`~repro.idioms.detect.find_reductions` and
:func:`~repro.idioms.extensions.find_extended_reductions` resolve
every spec they run through the registry — so new reduction scenarios
are new text files, not new Python.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

from ..constraints import IdiomSpec, SpecFileError, load_spec_file
from ..constraints.specfile import BUILTIN_SPEC_FILES, builtin_spec_path

#: Built-in idiom names; anything else is a custom idiom.
BUILTIN_IDIOMS: tuple[str, ...] = tuple(BUILTIN_SPEC_FILES)

#: The Fig. 5/§3.1 core idioms ``find_reductions`` runs (Figure 8).
CORE_IDIOMS: tuple[str, ...] = ("for-loop", "scalar-reduction", "histogram")

#: The §8 extension idioms ``find_extended_reductions`` runs.
EXTENSION_IDIOMS: tuple[str, ...] = (
    "dot-product", "argminmax", "nested-array-reduction",
)

#: Labels the post-processing stages read from solver assignments; a
#: spec replacing a built-in must keep binding them, as the shipped
#: ``.icsl`` files and their test reference
#: ``tests/constraints/native_specs.py`` do.
REQUIRED_LABELS: dict[str, frozenset[str]] = {
    "for-loop": frozenset({
        "header", "body", "latch", "entry", "exit", "test",
        "iterator", "next_iter", "iter_begin", "iter_step", "iter_end",
    }),
    "scalar-reduction": frozenset({
        "header", "iterator", "acc", "acc_init", "acc_update",
    }),
    "histogram": frozenset({
        "header", "iterator", "base", "idx", "hist_load", "hist_store",
        "update",
    }),
    "dot-product": frozenset({
        "header", "acc", "base_a", "base_b",
    }),
    "argminmax": frozenset({
        "header", "best", "pos", "cmp",
    }),
    "nested-array-reduction": frozenset({
        "header", "arr_store", "arr_load", "update", "base",
    }),
}


@dataclass
class RegisteredIdiom:
    """One registry entry: the spec plus where it came from."""

    name: str
    spec: IdiomSpec
    kind: str  # a built-in idiom's own name, or "custom"
    source: str  # spec file path, or "api"


class IdiomRegistry:
    """Loads and serves idiom specifications by name."""

    def __init__(self, builtins: bool = True, lint: bool = False):
        #: Opt-in lint gate: when set, :meth:`register` runs the static
        #: analyzer (:mod:`repro.constraints.analysis`) over every spec
        #: and rejects those with unsuppressed *errors* — warnings and
        #: notes never gate a load, so the gate cannot change which
        #: specs a clean registry serves.
        self.lint = lint
        self._idioms: dict[str, RegisteredIdiom] = {}
        if builtins:
            self._load_builtins()

    # -- loading ----------------------------------------------------------

    def _load_builtins(self) -> None:
        known: dict[str, IdiomSpec] = {}
        for name in BUILTIN_IDIOMS:
            path = builtin_spec_path(name)
            try:
                spec = load_spec_file(path, known=dict(known)).get(name)
            except (OSError, SpecFileError) as exc:
                raise SpecFileError(
                    f"built-in idiom {name!r}: cannot load {path}: {exc}",
                    path=path,
                ) from exc
            if spec is None:
                raise SpecFileError(
                    f"built-in idiom {name!r}: {path} does not define it",
                    path=path,
                )
            known[name] = spec
            self.register(spec, source=path)

    def register(self, spec: IdiomSpec, source: str = "api") -> RegisteredIdiom:
        """Register (or replace) an idiom spec under its own name.

        A spec replacing a built-in must keep the labels the
        post-processing stages read (:data:`REQUIRED_LABELS`), so an
        experimental variant cannot crash detection with a missing
        assignment key.
        """
        kind = spec.name if spec.name in BUILTIN_IDIOMS else "custom"
        required = REQUIRED_LABELS.get(spec.name, frozenset())
        missing = required - set(spec.label_order)
        if missing:
            raise SpecFileError(
                f"idiom {spec.name!r} replaces a built-in but does not "
                f"bind required label(s) {sorted(missing)}"
            )
        if self.lint:
            from ..constraints.analysis import analyze_spec

            errors = [
                diag for diag in analyze_spec(spec)
                if diag.severity == "error"
            ]
            if errors:
                raise SpecFileError(
                    f"idiom {spec.name!r} rejected by the lint gate:\n"
                    + "\n".join(diag.render() for diag in errors)
                )
        entry = RegisteredIdiom(spec.name, spec, kind, source)
        self._idioms[spec.name] = entry
        return entry

    def load_file(self, path: str) -> list[RegisteredIdiom]:
        """Load every idiom from a user spec file into the registry.

        Idioms already registered (including built-ins) are visible to
        the file's ``extends`` clauses, and a file idiom with a
        built-in's name *replaces* the built-in — that is the
        experimentation knob §3.4 asks for.
        """
        known = {name: entry.spec for name, entry in self._idioms.items()}
        specs = load_spec_file(path, known=known)
        if not specs:
            raise SpecFileError(f"no idioms defined in {path!r}")
        return [
            self.register(spec, source=os.path.abspath(path))
            for spec in specs.values()
        ]

    def apply_orders(
        self, orders: "dict[str, tuple[str, ...]] | None"
    ) -> list[RegisteredIdiom]:
        """Re-register idioms with new label enumeration orders.

        ``orders`` maps idiom names to permutations of their label
        sets — the form the solver-feedback store derives from recorded
        :class:`~repro.constraints.SolverStats` (and the pipeline ships
        to its workers as ``PipelineOptions.spec_orders``).  Entries
        for unregistered idioms are ignored, so one corpus-wide store
        can serve registries with different custom spec files loaded.

        Two invariants keep a reorder *safe*:

        * an order must be a permutation of the spec's labels (checked
          here) — so solutions are unchanged by construction, and the
          :data:`REQUIRED_LABELS` contract keeps holding;
        * a spec that ``extends`` a base keeps the base's (possibly
          reordered) label order as its prefix — enforced by
          re-prefixing, so the solver's prefix replay survives any
          reorder.  Extending specs are rebuilt whenever their base
          was, even without an explicit entry, so base and extension
          always agree on one enumeration of the shared labels.

        Returns the entries that were actually rebuilt.
        """
        if not orders:
            return []
        rebuilt: dict[str, IdiomSpec] = {}
        changed: list[RegisteredIdiom] = []
        for entry in list(self):
            spec = entry.spec
            base = spec.base
            if base is not None and base.name in rebuilt:
                base = rebuilt[base.name]
            order = orders.get(spec.name)
            if order is None and base is spec.base:
                continue
            new_order = tuple(order) if order is not None else spec.label_order
            if set(new_order) != set(spec.label_order) or (
                len(new_order) != len(spec.label_order)
            ):
                raise SpecFileError(
                    f"idiom {spec.name!r}: order {new_order} is not a "
                    f"permutation of the spec's labels"
                )
            if base is not None:
                base_labels = set(base.label_order)
                new_order = tuple(base.label_order) + tuple(
                    label for label in new_order
                    if label not in base_labels
                )
            if new_order == spec.label_order and base is spec.base:
                continue
            new_spec = IdiomSpec(spec.name, new_order, spec.constraint,
                                 base=base, origin=spec.origin,
                                 lint_ignores=spec.lint_ignores)
            rebuilt[spec.name] = new_spec
            changed.append(self.register(new_spec, source=entry.source))
        return changed

    # -- lookup -----------------------------------------------------------

    def spec(self, name: str) -> IdiomSpec:
        """The spec registered under ``name`` (KeyError if absent)."""
        try:
            return self._idioms[name].spec
        except KeyError:
            raise KeyError(
                f"unknown idiom {name!r}; registered: {sorted(self._idioms)}"
            ) from None

    def entry(self, name: str) -> RegisteredIdiom:
        return self._idioms[name]

    def names(self) -> list[str]:
        return list(self._idioms)

    def custom(self) -> list[RegisteredIdiom]:
        """All non-built-in idioms, in registration order."""
        return [e for e in self._idioms.values() if e.kind == "custom"]

    def __contains__(self, name: str) -> bool:
        return name in self._idioms

    def __iter__(self) -> Iterator[RegisteredIdiom]:
        return iter(self._idioms.values())

    def __len__(self) -> int:
        return len(self._idioms)

    def describe(self) -> str:
        """A human-readable table for ``--list-idioms``."""
        from ..constraints import compile_spec
        from ..constraints.plan import compile_plan

        lines = ["registered idioms:"]
        for entry in self:
            compiled = compile_spec(entry.spec)
            plan = compile_plan(entry.spec)
            source = entry.source
            if source != "api":
                source = os.path.basename(source)
            origin = "custom" if entry.kind == "custom" else "builtin"
            lines.append(
                f"  {entry.name:<18} {len(entry.spec.label_order):>2} labels"
                f"  {len(compiled.conjuncts):>2} constraints"
                f"  {plan.conjuncts_pruned:>2} pruned"
                f"  [{origin}, {source}]"
            )
        return "\n".join(lines)


_default: IdiomRegistry | None = None


def default_registry() -> IdiomRegistry:
    """The process-wide registry, created on first use."""
    global _default
    if _default is None:
        _default = IdiomRegistry()
    return _default


def reset_default_registry() -> None:
    """Drop the process-wide registry (tests)."""
    global _default
    _default = None
