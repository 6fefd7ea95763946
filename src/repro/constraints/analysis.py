"""Static analysis (lint) over ICSL specs, compiled plans and registries.

The solver never complains: a spec with an unconstrained solution
label silently over-matches, a label placed before its proposing atom
silently falls back to enumerating the whole universe, and a conjunct
implied by another is silently pruned by the plan compiler.  This
module turns each of those silences into a position-exact diagnostic,
surfaced by ``python -m repro lint`` and (opt-in) as a gate on
registry loads.

Every diagnostic carries a stable code:

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
ICSL000   error     spec file failed to parse / load
ICSL001   error     order label constrained by no conjunct (over-match)
ICSL002   warning   label has no guaranteed proposer at its depth
ICSL003   error     label used with irreconcilable value kinds
ICSL004   error     conjunct is unsatisfiable (always false)
ICSL005   warning   conjunct is trivially satisfied (always true)
ICSL006   warning   conjunct duplicates an earlier conjunct
ICSL007   warning   conjunct implied by an earlier conjunct
ICSL008   warning   ``extends`` order no longer keeps the base prefix
ICSL009   note      engine-level pruning record (never gates)
ICSL010   warning   registry idioms subsume each other (micro-universe)
ICSL012   warning   ``# lint: ignore[...]`` suppression matched nothing
========  ========  =====================================================

Suppressions: a ``# lint: ignore[ICSL0xx]`` comment on a statement
suppresses that conjunct's diagnostics; on the ``idiom``/``order`` line
(or a standalone comment inside the block) it suppresses spec-wide.
Unused suppressions are themselves flagged (ICSL012).
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from .core import (
    IdiomSpec,
    SolverContext,
    constraint_labels,
    kind_meet,
    top_level_conjuncts,
)

#: Severity rank used for sorting and gating (lower = more severe).
_SEVERITY_RANK = {"error": 0, "warning": 1, "note": 2}

#: Human explanations of each code, for docs and ``--json`` consumers.
DIAGNOSTIC_CODES: dict[str, tuple[str, str]] = {
    "ICSL000": ("error", "spec file failed to parse or load"),
    "ICSL001": ("error", "order label constrained by no conjunct"),
    "ICSL002": ("warning", "label has no guaranteed proposer at its depth"),
    "ICSL003": ("error", "label used with irreconcilable value kinds"),
    "ICSL004": ("error", "conjunct is unsatisfiable"),
    "ICSL005": ("warning", "conjunct is trivially satisfied"),
    "ICSL006": ("warning", "conjunct duplicates an earlier conjunct"),
    "ICSL007": ("warning", "conjunct is implied by an earlier conjunct"),
    "ICSL008": ("warning", "extends order no longer keeps the base prefix"),
    "ICSL009": ("note", "engine-level pruning record"),
    "ICSL010": ("warning", "registry idioms subsume each other"),
    "ICSL012": ("warning", "lint suppression matched nothing"),
}


class Diagnostic:
    """One lint finding, with a stable code and a source span."""

    __slots__ = ("code", "severity", "spec", "message", "hint",
                 "path", "line", "column", "count", "anchor")

    def __init__(self, code: str, severity: str, spec: str, message: str,
                 hint: str = "", span: tuple | None = None,
                 count: int | None = None, anchor=None):
        self.code = code
        self.severity = severity
        self.spec = spec
        self.message = message
        self.hint = hint
        path = line = column = None
        if span is not None:
            path = span[0]
            line = span[1] if len(span) > 1 else None
            column = span[2] if len(span) > 2 else None
        self.path = path
        self.line = line
        self.column = column
        #: For pruning diagnostics: how many scheduled check positions
        #: this finding accounts for (reconciles with ``evals_pruned``).
        self.count = count
        #: The conjunct object the finding is anchored to (suppression
        #: scope); not serialized.
        self.anchor = anchor

    def where(self) -> str:
        out = self.path if self.path else f"<{self.spec or 'spec'}>"
        if self.line is not None:
            out += f":{self.line}"
            if self.column is not None:
                out += f":{self.column}"
        return out

    def render(self) -> str:
        """``path:line:col: severity: message [code]`` plus a hint line."""
        out = f"{self.where()}: {self.severity}: {self.message} [{self.code}]"
        if self.hint:
            out += f"\n    hint: {self.hint}"
        return out

    def sort_key(self):
        return (
            self.path or "~", self.line or 0, self.column or 0,
            _SEVERITY_RANK.get(self.severity, 3), self.code,
            self.spec, self.message,
        )

    def to_jsonable(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "spec": self.spec,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "hint": self.hint,
        }
        if self.count is not None:
            out["count"] = self.count
        return out

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<Diagnostic {self.code} {self.where()}: {self.message!r}>"


def _describe(conjunct) -> str:
    """A conjunct in ICSL syntax (best effort)."""
    try:
        from .specfile import _render_constraint

        return _render_constraint(conjunct)
    except Exception:
        return repr(conjunct)


def _span_of(conjunct, fallback=None):
    return getattr(conjunct, "spec_span", None) or fallback


def _place(conjunct) -> str:
    """Short human position of a conjunct, for cross-references."""
    span = getattr(conjunct, "spec_span", None)
    if span and span[0]:
        return f"{os.path.basename(span[0])}:{span[1]}"
    if span:
        return f"line {span[1]}"
    return "an earlier conjunct"


# -- per-conjunct constant-verdict analysis (ICSL004/ICSL005) -----------------


def _always_verdict(constraint):
    """``(verdict, why)`` when the conjunct's truth is decidable
    statically for *any* assignment satisfying the label kinds, else
    None.  Conservative: only patterns that cannot be rescued by a
    particular universe are reported."""
    from .atomic import Distinct, Dominates, InBlock, Opcode, SESERegion
    from .logical import ConstraintAnd, ConstraintOr

    if isinstance(constraint, ConstraintAnd):
        verdicts = [_always_verdict(c) for c in constraint.children]
        for v in verdicts:
            if v is not None and v[0] is False:
                return v
        if verdicts and all(v is not None and v[0] for v in verdicts):
            return (True, "every conjunct of the conjunction is trivial")
        return None
    if isinstance(constraint, ConstraintOr):
        verdicts = [_always_verdict(c) for c in constraint.children]
        for v in verdicts:
            if v is not None and v[0]:
                return (True, f"one disjunct is always satisfied ({v[1]})")
        if verdicts and all(v is not None and not v[0] for v in verdicts):
            return (False, "every disjunct is unsatisfiable")
        return None
    if isinstance(constraint, Distinct):
        labels = constraint.labels
        if len(labels) < 2:
            return (True, "distinct() over fewer than two labels")
        if len(set(labels)) != len(labels):
            dup = next(l for l in labels if labels.count(l) > 1)
            return (False, f"distinct() repeats label {dup!r}")
        return None
    if isinstance(constraint, Dominates):
        a, b = constraint.labels
        if a == b:
            kind = ("post-dominates" if constraint.post else "dominates")
            if constraint.strict:
                return (False, f"no block strictly {kind} itself")
            return (True, f"every block {kind} itself")
        return None
    if isinstance(constraint, SESERegion):
        a, b = constraint.labels
        if a == b:
            return (True, "sese(x, x) holds for any block")
        return None
    if isinstance(constraint, Opcode):
        if (constraint.x_label in constraint.operand_labels
                and "phi" not in constraint.opcodes):
            return (
                False,
                "a non-phi instruction cannot be its own operand in SSA",
            )
        return None
    if isinstance(constraint, InBlock):
        x, block = constraint.labels
        if x == block:
            return (False, "an instruction cannot be its own parent block")
        return None
    return None


# -- per-spec analysis --------------------------------------------------------


def _kind_conflicts(conjuncts):
    """Walk the conjuncts folding per-label kind meets; yield
    irreconcilable uses as ``(label, prior_kind, prior, kind, conjunct)``."""
    kinds: dict[str, str] = {}
    origin: dict[str, object] = {}
    conflicts = []
    seen = set()
    for conjunct in conjuncts:
        for label, kind in conjunct.label_kinds():
            if kind == "any":
                continue
            current = kinds.get(label)
            if current is None:
                kinds[label] = kind
                origin[label] = conjunct
                continue
            met = kind_meet(current, kind)
            if met is None:
                key = (label, id(conjunct), current, kind)
                if key not in seen:
                    seen.add(key)
                    conflicts.append(
                        (label, current, origin[label], kind, conjunct)
                    )
                continue
            if met != current:
                origin[label] = conjunct
            kinds[label] = met
    return conflicts


def _owned_conjuncts(spec, conjuncts):
    """The conjuncts this spec states itself (not inherited via
    ``extends``) — the scope for unused-suppression reporting, so a
    suppression used by the base is not re-flagged by every extension."""
    base = spec.declared_base
    if base is None:
        return conjuncts
    return conjuncts[len(top_level_conjuncts(base.constraint)):]


def analyze_spec(spec: IdiomSpec, *, pruning: bool = True) -> list[Diagnostic]:
    """All diagnostics for one spec (suppressions already applied).

    ``pruning=False`` skips the plan-compiler pruning records
    (ICSL006/007/009) — the cheap mode the registry gate uses is the
    full one; this knob exists for callers that only want the
    structural checks.
    """
    diags: list[Diagnostic] = []
    name = spec.name
    order = spec.label_order
    conjuncts = top_level_conjuncts(spec.constraint)
    labelsets = [frozenset(constraint_labels(c)) for c in conjuncts]
    mentioned: frozenset = (
        frozenset().union(*labelsets) if labelsets else frozenset()
    )
    origin = getattr(spec, "origin", None)
    spec_span = origin if origin and origin[0] is not None else None
    order_span = getattr(spec, "order_span", None) or spec_span

    # ICSL001: a solution label no conjunct constrains binds *every*
    # universe value — the classic silent over-match.
    unconstrained = set()
    for label in order:
        if label not in mentioned:
            unconstrained.add(label)
            diags.append(Diagnostic(
                "ICSL001", "error", name,
                f"order label {label!r} is not constrained by any conjunct",
                hint="every universe value matches it, multiplying the "
                     "solution set — constrain the label or drop it from "
                     "the order",
                span=order_span,
            ))

    # ICSL002: no conjunct guarantees proposals for the label at its
    # depth, so the solver enumerates the whole value universe there.
    for k, label in enumerate(order):
        if label in unconstrained:
            continue
        bound = frozenset(order[:k])
        if any(label in c.proposable_labels(bound) for c in conjuncts):
            continue
        diags.append(Diagnostic(
            "ICSL002", "warning", name,
            f"label {label!r} has no guaranteed proposer at depth {k}",
            hint="the solver may fall back to enumerating the whole "
                 "universe here — move the label after one of the atoms "
                 "that can propose it",
            span=order_span,
        ))

    # ICSL003: kind meet over all uses of a label hit bottom.
    for label, prior_kind, prior, kind, conjunct in _kind_conflicts(conjuncts):
        diags.append(Diagnostic(
            "ICSL003", "error", name,
            f"label {label!r} is used as kind '{kind}' here but as "
            f"'{prior_kind}' by {_describe(prior)} ({_place(prior)})",
            hint="no single value satisfies both atoms, so the conjunct "
                 "can never hold — rename one of the labels",
            span=_span_of(conjunct, spec_span),
            anchor=conjunct,
        ))

    # ICSL004/ICSL005: statically decidable conjuncts.
    for conjunct in conjuncts:
        verdict = _always_verdict(conjunct)
        if verdict is None:
            continue
        value, why = verdict
        if value:
            diags.append(Diagnostic(
                "ICSL005", "warning", name,
                f"conjunct {_describe(conjunct)} is always satisfied: {why}",
                hint="the conjunct constrains nothing — delete it",
                span=_span_of(conjunct, spec_span),
                anchor=conjunct,
            ))
        else:
            diags.append(Diagnostic(
                "ICSL004", "error", name,
                f"conjunct {_describe(conjunct)} can never hold: {why}",
                hint="the spec matches nothing — fix or delete the conjunct",
                span=_span_of(conjunct, spec_span),
                anchor=conjunct,
            ))

    # ICSL008: extends declared but the enumeration order no longer
    # keeps the base's order as a prefix — full replay is off.
    base = spec.declared_base
    if base is not None and spec.base is None:
        shared = spec.shared_prefix_len()
        diags.append(Diagnostic(
            "ICSL008", "warning", name,
            f"order keeps only {shared} of base {base.name!r}'s "
            f"{len(base.label_order)} labels as a prefix, so solved-prefix "
            "replay is disabled",
            hint="restate the base's label order as this order's prefix "
                 "to re-enable full prefix replay (until then the search "
                 "starts from depth 0)",
            span=order_span,
        ))

    if pruning:
        diags.extend(_pruning_diags(spec, spec_span))

    return _apply_suppressions(spec, conjuncts, diags)


def _pruning_diags(spec: IdiomSpec, spec_span) -> list[Diagnostic]:
    """Lift the plan compiler's typed :class:`PruneDecision` records
    into user-facing diagnostics, aggregated per (conjunct, reason).

    The per-diagnostic ``count`` fields sum to exactly
    ``plan.conjuncts_pruned`` — the same quantity
    ``SolverStats.evals_pruned`` reports per search position — so the
    lint report and the engine's counters reconcile by construction.
    """
    from .plan import compile_plan

    plan = compile_plan(spec)
    order = spec.label_order
    groups: dict[tuple, list] = {}
    for decision in plan.pruning_decisions:
        groups.setdefault((decision.index, decision.reason), []).append(
            decision
        )

    def positions(decisions) -> str:
        spots = []
        for d in decisions:
            if d.where == "depth":
                spots.append(f"depth {d.depth} (binding {order[d.depth]!r})")
            else:
                spots.append("the full-prefix replay slice")
        return ", ".join(spots)

    diags: list[Diagnostic] = []
    for (index, reason), decisions in sorted(groups.items()):
        conjunct = decisions[0].conjunct
        span = _span_of(conjunct, spec_span)
        count = len(decisions)
        at = positions(decisions)
        if reason == "duplicate":
            by = decisions[0].established_by
            diags.append(Diagnostic(
                "ICSL006", "warning", spec.name,
                f"conjunct {_describe(conjunct)} is a structural duplicate "
                f"of the conjunct at {_place(by)}",
                hint=f"remove one copy; the engine already skips the repeat "
                     f"at {at} (counted in evals_pruned)",
                span=span, count=count, anchor=conjunct,
            ))
        elif reason == "implied-conjunct":
            by = decisions[0].established_by
            diags.append(Diagnostic(
                "ICSL007", "warning", spec.name,
                f"conjunct {_describe(conjunct)} is implied by "
                f"{_describe(by)} ({_place(by)})",
                hint=f"the engine skips it at {at}; stating only the "
                     "stronger conjunct keeps the spec minimal",
                span=span, count=count, anchor=conjunct,
            ))
        elif reason == "implied-proposal":
            diags.append(Diagnostic(
                "ICSL009", "note", spec.name,
                f"conjunct {_describe(conjunct)} is pre-satisfied by its "
                f"own proposals at {at}",
                hint="informational: the depth's candidates come from this "
                     "conjunct, so its check is pruned",
                span=span, count=count, anchor=conjunct,
            ))
        else:  # vacuous
            diags.append(Diagnostic(
                "ICSL009", "note", spec.name,
                f"partial check of {_describe(conjunct)} is constant-true "
                f"at {at}",
                hint="informational: the c_k padding the plan compiler "
                     "drops instead of emitting",
                span=span, count=count, anchor=conjunct,
            ))
    return diags


def _apply_suppressions(spec, conjuncts, diags) -> list[Diagnostic]:
    """Filter out suppressed diagnostics; flag unused suppressions."""
    spec_ignores = dict(getattr(spec, "lint_ignores", None) or {})
    used_spec: set[str] = set()
    used_conjunct: set[tuple] = set()
    kept: list[Diagnostic] = []
    for diag in diags:
        anchor = diag.anchor
        conj_ignores = (
            getattr(anchor, "lint_ignores", frozenset())
            if anchor is not None else frozenset()
        )
        if diag.code in conj_ignores:
            used_conjunct.add((id(anchor), diag.code))
            continue
        if diag.code in spec_ignores:
            used_spec.add(diag.code)
            continue
        kept.append(diag)

    origin = getattr(spec, "origin", None)
    for code in sorted(spec_ignores):
        if code in used_spec or code == "ICSL012":
            continue
        kept.append(Diagnostic(
            "ICSL012", "warning", spec.name,
            f"suppression for {code} matches no diagnostic",
            hint="remove the stale '# lint: ignore[...]' comment",
            span=spec_ignores[code] or origin,
        ))
    for conjunct in _owned_conjuncts(spec, conjuncts):
        for code in sorted(getattr(conjunct, "lint_ignores", ())):
            if (id(conjunct), code) in used_conjunct or code == "ICSL012":
                continue
            kept.append(Diagnostic(
                "ICSL012", "warning", spec.name,
                f"suppression for {code} on {_describe(conjunct)} matches "
                "no diagnostic",
                hint="remove the stale '# lint: ignore[...]' comment",
                span=_span_of(conjunct, origin),
                anchor=conjunct,
            ))
    kept.sort(key=Diagnostic.sort_key)
    return kept


# -- cross-spec registry analysis (ICSL010) -----------------------------------

#: Deterministic mini-C programs exercising each shipped idiom family.
#: Small enough that a full detection sweep per registered spec stays
#: cheap, varied enough that a genuinely narrower spec produces a
#: non-empty projected solution set.
_MICRO_UNIVERSE_SOURCE = """
double a[16]; double b[16]; int n;
int hist[8]; int keys[16];
double grid[40];

double lint_sum(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + a[i];
    return s;
}

double lint_dot(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + a[i] * b[i];
    return s;
}

void lint_hist(void) {
    for (int i = 0; i < n; i++)
        hist[keys[i]] = hist[keys[i]] + 1;
}

int lint_argmin(void) {
    double best = 1000000.0;
    int pos = 0;
    for (int i = 0; i < n; i++) {
        if (a[i] < best) { best = a[i]; pos = i; }
    }
    return pos;
}

void lint_nested(void) {
    for (int i = 0; i < n; i++)
        for (int m = 0; m < 5; m++) {
            double add = a[i*5 + m];
            grid[m] = grid[m] + add * add;
        }
}
"""

_micro_contexts_cache: list | None = None


def _micro_universe_contexts() -> list:
    """Solver contexts for the lint micro-universe (built once)."""
    global _micro_contexts_cache
    if _micro_contexts_cache is None:
        from ..frontend import compile_source

        module = compile_source(_MICRO_UNIVERSE_SOURCE, name="lint-universe")
        _micro_contexts_cache = [
            SolverContext(function, module)
            for function in module.defined_functions()
        ]
    return _micro_contexts_cache


def _ancestor_names(spec: IdiomSpec) -> set[str]:
    names: set[str] = set()
    seen: set[int] = set()
    base = spec.declared_base
    while base is not None and id(base) not in seen:
        seen.add(id(base))
        names.add(base.name)
        base = base.declared_base
    return names


def cross_spec_diagnostics(specs: Iterable[IdiomSpec]) -> list[Diagnostic]:
    """ICSL010: detect subsumption/overlap between specs.

    Runs every spec over the synthesized micro-universe and compares
    solution sets pairwise wherever one spec's label set is a subset of
    the other's (projecting the larger one down).  Pairs related by a
    declared ``extends`` ancestry are skipped — an extension *is meant*
    to refine its base.  Evidence is required: a pair is only reported
    when the subsumed spec actually matched something.
    """
    from .solver import SolverStats, detect

    specs = sorted(specs, key=lambda s: s.name)
    if len(specs) < 2:
        return []
    contexts = _micro_universe_contexts()
    solutions: dict[str, list] = {}
    evals: dict[str, int] = {}
    for spec in specs:
        stats = SolverStats()
        solutions[spec.name] = [
            detect(ctx, spec, stats=stats) for ctx in contexts
        ]
        evals[spec.name] = stats.constraint_evals

    def projected(name: str, labels: tuple) -> list:
        return [
            {tuple(id(sol[label]) for label in labels) for sol in per_ctx}
            for per_ctx in solutions[name]
        ]

    def subsumes(wide: IdiomSpec, narrow: IdiomSpec) -> bool:
        """Every ``narrow`` match projects onto a ``wide`` match."""
        labels = tuple(sorted(wide.label_order))
        if not set(labels) <= set(narrow.label_order):
            return False
        wide_sets = projected(wide.name, labels)
        narrow_sets = projected(narrow.name, labels)
        if not any(narrow_sets):
            return False  # no evidence
        return all(
            narrow_set <= wide_set
            for narrow_set, wide_set in zip(narrow_sets, wide_sets)
        )

    diags: list[Diagnostic] = []
    for i, first in enumerate(specs):
        for second in specs[i + 1:]:
            if (first.name in _ancestor_names(second)
                    or second.name in _ancestor_names(first)):
                continue
            forward = subsumes(first, second)
            backward = subsumes(second, first)
            if not forward and not backward:
                continue
            cost = (
                f"micro-universe solver cost: {first.name}="
                f"{evals[first.name]} evals, {second.name}="
                f"{evals[second.name]} evals"
            )
            if forward and backward:
                wide, narrow = first, second
                message = (
                    f"idioms {first.name!r} and {second.name!r} match "
                    "exactly the same solutions on the lint micro-universe"
                )
                hint = (f"running both duplicates work ({cost}) — drop one "
                        "or differentiate their constraints")
            else:
                wide, narrow = (first, second) if forward else (second, first)
                message = (
                    f"idiom {wide.name!r} subsumes {narrow.name!r} on the "
                    f"lint micro-universe: every {narrow.name!r} match is "
                    f"already a {wide.name!r} match"
                )
                hint = (f"{cost}; declare {narrow.name!r} as 'extends "
                        f"{wide.name}' or tighten its constraints")
            span = getattr(wide, "origin", None)
            if span is None or span[0] is None:
                span = getattr(narrow, "origin", None)
            diags.append(Diagnostic(
                "ICSL010", "warning", wide.name, message, hint=hint,
                span=span,
            ))
    diags.sort(key=Diagnostic.sort_key)
    return diags


def analyze_registry(registry, *, cross: bool = True) -> list[Diagnostic]:
    """Every per-spec diagnostic plus (optionally) the cross-spec
    subsumption analysis over the registry's full contents."""
    diags: list[Diagnostic] = []
    entries = sorted(registry, key=lambda entry: entry.name)
    for entry in entries:
        diags.extend(analyze_spec(entry.spec))
    if cross and len(entries) > 1:
        diags.extend(cross_spec_diagnostics(e.spec for e in entries))
    diags.sort(key=Diagnostic.sort_key)
    return diags


# -- file-level driver (the CLI's engine) -------------------------------------


def lint_spec_files(
    paths: Iterable[str], *, cross: bool = True
) -> tuple[list[Diagnostic], bool]:
    """Lint spec files; returns ``(diagnostics, parse_failed)``.

    Files are loaded in order (so later files may ``extends`` earlier
    ones; built-ins resolve automatically).  A file that fails to parse
    contributes a rendered ICSL000 diagnostic instead of aborting the
    whole run.
    """
    from .specfile import SpecFileError, load_spec_file

    diags: list[Diagnostic] = []
    specs: dict[str, IdiomSpec] = {}
    parse_failed = False
    for path in paths:
        try:
            loaded = load_spec_file(path, known=dict(specs))
        except (OSError, SpecFileError) as exc:
            parse_failed = True
            if isinstance(exc, SpecFileError):
                span = (exc.path or path, exc.line, exc.column)
                message = str(exc)
                prefix = f"line {exc.line}: "
                if exc.line is not None and message.startswith(prefix):
                    message = message[len(prefix):]
            else:
                span = (path, None, None)
                message = str(exc)
            diags.append(Diagnostic(
                "ICSL000", "error", "", message,
                hint="fix the spec file; nothing after the error was "
                     "analyzed",
                span=span,
            ))
            continue
        specs.update(loaded)
    for name in sorted(specs):
        diags.extend(analyze_spec(specs[name]))
    if cross and len(specs) > 1:
        diags.extend(cross_spec_diagnostics(specs.values()))
    diags.sort(key=Diagnostic.sort_key)
    return diags, parse_failed


def severity_counts(diags: Iterable[Diagnostic]) -> dict[str, int]:
    counts = {"error": 0, "warning": 0, "note": 0}
    for diag in diags:
        counts[diag.severity] = counts.get(diag.severity, 0) + 1
    return counts


def exit_code(diags: Iterable[Diagnostic], *, strict: bool = False,
              parse_failed: bool = False) -> int:
    """The lint gate: 2 on load failure, 1 on errors (or, under
    ``--strict``, warnings), 0 otherwise.  Notes never gate."""
    if parse_failed:
        return 2
    counts = severity_counts(diags)
    if counts["error"]:
        return 1
    if strict and counts["warning"]:
        return 1
    return 0


def render_report(diags: list[Diagnostic], *, notes: bool = False) -> str:
    """The human-readable report (deterministic).  Notes are elided by
    default — they record engine behaviour, not spec problems."""
    counts = severity_counts(diags)
    lines = []
    hidden = 0
    for diag in diags:
        if diag.severity == "note" and not notes:
            hidden += 1
            continue
        lines.append(diag.render())
    summary = (
        f"{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['note']} note(s)"
    )
    if hidden:
        summary += f" ({hidden} note(s) hidden; pass --notes to show)"
    lines.append(summary)
    return "\n".join(lines)


def report_json(diags: list[Diagnostic], *, strict: bool = False,
                files: Iterable[str] = ()) -> str:
    """The machine-readable report: stable key order, sorted
    diagnostics, byte-deterministic for identical inputs."""
    payload = {
        "version": 1,
        "strict": bool(strict),
        "files": list(files),
        "summary": severity_counts(diags),
        "diagnostics": [diag.to_jsonable() for diag in diags],
    }
    return json.dumps(payload, indent=2) + "\n"
