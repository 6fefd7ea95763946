"""The persistent solver feedback store.

PR 3 made ``suggest_order`` cost-aware: given the
:class:`~repro.constraints.SolverStats` of previous runs of a spec, it
follows the cheapest *measured* continuation at every step and is never
worse than the order that produced the feedback.  What it lacked was
supply: the statistics were recomputed from scratch every run and
thrown away.  This module closes that loop — the same
redundancy-elimination instinct the paper applies to constraint
evaluation (and CoreDiag applies to constraint *sets*), applied to the
search order itself:

* every work unit of a pipeline run records **per-spec** solver
  statistics (``UnitDigest.spec_stats``, merged order-canonically
  through :func:`~repro.pipeline.digest.assemble_program`);
* :func:`feedback_from_report` aggregates them corpus-wide into a
  :class:`FeedbackStore` — one merged :class:`SolverStats` per spec
  name;
* :func:`save_feedback` / :func:`load_feedback` persist the store as a
  **versioned JSON artifact beside the report**, with an embedded
  fingerprint verified on load (the ``save_report`` pattern: a
  corrupted or hand-edited artifact fails loudly);
* :meth:`FeedbackStore.spec_orders` turns the store back into label
  enumeration orders via :func:`~repro.constraints.suggest_order`,
  which ``detect`` / ``corpus`` / ``serve`` apply to every registered
  idiom (``--feedback-from``), and which a long-running
  :class:`~repro.pipeline.serving.ServingEngine` re-derives as jobs
  complete so serving sessions self-tune (``--self-tune``).

Determinism is the load-bearing property: :meth:`SolverStats.merge
<repro.constraints.SolverStats.merge>` is commutative and associative,
per-function statistics are independent of sharding (each function has
its own solver context), and serialization orders every key — so
``jobs=1`` and ``jobs=N`` (fork and spawn) produce **byte-identical**
feedback artifacts, and runs consuming the same artifact produce
fingerprint-identical reports.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Iterable, Mapping

from ..constraints import IdiomSpec, SolverStats, suggest_order

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..idioms.registry import IdiomRegistry
    from ..idioms.reports import DetectionReport
    from .digest import CorpusReport

#: Artifact schema version; bumped on incompatible changes so an old
#: artifact fails with a clear message instead of a KeyError.  Only
#: this version loads: a version-3 artifact could carry per-order rows
#: this build no longer reads, and re-recording is one corpus run.
FEEDBACK_VERSION = 4

#: Canonical wire form of a spec-orders mapping: name-sorted
#: ``(name, (label, ...))`` pairs.  Hashable, picklable, and usable as
#: a worker-side registry-cache key.
SpecOrders = tuple  # tuple[tuple[str, tuple[str, ...]], ...]


def canonical_orders(
    orders: "Mapping[str, Iterable[str]] | SpecOrders | None",
) -> SpecOrders | None:
    """``orders`` as the canonical tuple form (None when empty)."""
    if not orders:
        return None
    items = orders.items() if isinstance(orders, Mapping) else orders
    return tuple(sorted(
        (str(name), tuple(order)) for name, order in items
    )) or None


class FeedbackStore:
    """Corpus-wide solver feedback: one merged stats object per spec."""

    def __init__(self, specs: Mapping[str, SolverStats] | None = None) -> None:
        #: Spec name → merged :class:`SolverStats`.  Stats objects are
        #: owned by the store (merging copies), so feeding a store
        #: never mutates a caller's live counters.
        self.specs: dict[str, SolverStats] = {}
        for name, stats in (specs or {}).items():
            self.merge_stats(name, stats)
        self._fingerprint: str | None = None

    def __len__(self) -> int:
        return len(self.specs)

    # -- accumulation -----------------------------------------------------

    def merge_stats(self, name: str, stats: SolverStats) -> "FeedbackStore":
        """Fold one spec's recorded statistics into the store."""
        kept = self.specs.get(name)
        if kept is None:
            kept = self.specs[name] = SolverStats()
        kept.merge(stats)
        self._fingerprint = None
        return self

    def merge(self, other: "FeedbackStore") -> "FeedbackStore":
        """Fold another store into this one (in place; returns self)."""
        for name, stats in other.specs.items():
            self.merge_stats(name, stats)
        return self

    def copy(self) -> "FeedbackStore":
        """An independent deep copy."""
        return FeedbackStore(self.specs)

    # -- identity ---------------------------------------------------------

    def canonical(self) -> tuple:
        """Content as nested plain tuples, deterministically ordered."""
        return tuple(sorted(
            (name, stats.canonical()) for name, stats in self.specs.items()
        ))

    def fingerprint(self) -> str:
        """A stable SHA-256 of the store's content.

        Embedded in the artifact and verified by :func:`load_feedback`;
        also the :func:`~repro.constraints.suggest_order` cache token,
        so derived orders are memoized per store *state* (the cached
        value is invalidated whenever the store accumulates).
        """
        if self._fingerprint is None:
            self._fingerprint = hashlib.sha256(
                repr(self.canonical()).encode()
            ).hexdigest()
        return self._fingerprint

    # -- consumption ------------------------------------------------------

    def order_for(self, spec: IdiomSpec) -> tuple[str, ...] | None:
        """The feedback-suggested enumeration order for ``spec``.

        None when the store holds no measurements for the spec — an
        unmeasured spec keeps its authored (curated) order rather than
        falling back to the static heuristic, so consuming a store can
        never degrade specs it knows nothing about.

        The order is cost-aware :func:`~repro.constraints.suggest_order`
        replay over the spec's merged prefix-conditioned statistics, so
        it is never worse than the order that recorded them.

        A spec with a :attr:`~repro.constraints.IdiomSpec.base` is
        reordered with the base's label order as a fixed prefix: under
        prefix replay the search never enumerates base labels
        individually (their measured statistics all start at the
        fully-bound base set), and keeping the prefix verbatim is what
        keeps the replay available after the reorder.
        """
        stats = self.specs.get(spec.name)
        if stats is None or not stats.candidates_per_prefix:
            return None
        prefix = spec.base.label_order if spec.base is not None else ()
        return suggest_order(
            spec, feedback=stats, prefix=prefix,
            cache_token=self.fingerprint(),
        )

    def spec_orders(self, registry: "IdiomRegistry") -> dict[str, tuple[str, ...]]:
        """Suggested orders for every measured idiom in ``registry``.

        Only *changed* orders are returned — a spec whose feedback
        reproduces its current order exactly (the common case when the
        feedback was recorded from runs of that very order) needs no
        rebuild, so the mapping a warm run ships to its workers is
        usually empty.
        """
        orders: dict[str, tuple[str, ...]] = {}
        for entry in registry:
            order = self.order_for(entry.spec)
            if order is not None and order != entry.spec.label_order:
                orders[entry.name] = order
        return orders

    # -- persistence ------------------------------------------------------

    def to_jsonable(self) -> dict:
        """The versioned artifact as JSON-serializable plain data."""
        return {
            "version": FEEDBACK_VERSION,
            "fingerprint": self.fingerprint(),
            "specs": {
                name: self.specs[name].to_jsonable()
                for name in sorted(self.specs)
            },
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "FeedbackStore":
        """Rebuild a store; verifies version and fingerprint.

        Every malformation — wrong top-level type, wrong version,
        non-object spec entries, garbage inside a stats record — fails
        with :class:`ValueError`, the one exception type the CLI's
        artifact error path handles.
        """
        if not isinstance(data, dict):
            raise ValueError(
                "feedback artifact must be a JSON object"
            )
        version = data.get("version")
        if version != FEEDBACK_VERSION:
            raise ValueError(
                f"feedback artifact version {version!r} is not supported "
                f"(expected {FEEDBACK_VERSION})"
            )
        specs = data.get("specs", {})
        if not isinstance(specs, dict) or not all(
            isinstance(stats, dict) for stats in specs.values()
        ):
            raise ValueError(
                "feedback artifact 'specs' must map names to objects"
            )
        try:
            store = cls({
                name: SolverStats.from_jsonable(stats)
                for name, stats in specs.items()
            })
        except (TypeError, AttributeError, KeyError) as exc:
            raise ValueError(
                f"feedback artifact holds malformed statistics: {exc}"
            ) from exc
        # The field is required, not optional: save_feedback always
        # writes it, so its absence is tampering too — deleting the
        # mismatching fingerprint must not bypass verification.
        recorded = data.get("fingerprint")
        if recorded is None:
            raise ValueError(
                "feedback artifact is missing its fingerprint"
            )
        if recorded != store.fingerprint():
            raise ValueError(
                "feedback artifact fingerprint does not match its contents"
            )
        return store

    def describe(self) -> str:
        """One-line overview for the CLI."""
        prefixes = sum(
            len(stats.candidates_per_prefix) for stats in self.specs.values()
        )
        return (
            f"{len(self.specs)} spec(s), {prefixes} measured "
            f"prefix continuation(s) [{self.fingerprint()[:12]}]"
        )


def feedback_from_report(report: "CorpusReport") -> FeedbackStore:
    """Aggregate a pipeline report's per-spec statistics corpus-wide.

    The merge is order-canonical (sums only), so ``jobs=1`` and
    ``jobs=N`` reports of the same run yield stores with identical
    fingerprints — and identical serialized bytes.
    """
    store = FeedbackStore()
    for program in report.programs:
        for name, stats in program.spec_stats.items():
            store.merge_stats(name, stats)
    return store


def feedback_from_detection(report: "DetectionReport") -> FeedbackStore:
    """Aggregate one module's detection report (the ``detect`` CLI)."""
    store = FeedbackStore()
    for fr in report.functions:
        for name, stats in (fr.spec_stats or {}).items():
            store.merge_stats(name, stats)
    return store


def save_feedback(store: FeedbackStore, path: str) -> None:
    """Write ``store`` as the versioned JSON artifact.

    ``sort_keys`` plus the store's own deterministic ordering make the
    output a pure function of the store's content: two runs that
    observed the same searches write byte-identical files.
    """
    with open(path, "w") as handle:
        json.dump(store.to_jsonable(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_feedback(path: str) -> FeedbackStore:
    """Read a :func:`save_feedback` artifact (``--feedback-from``).

    Failures carry full context in the :class:`SpecFileError.render`
    style — the artifact path, what was found versus expected, and a
    fix hint — so an operator staring at a broken deployment knows
    *which* file is bad and what to do about it.
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ValueError(
                f"{path}: error: feedback artifact is not valid JSON "
                f"({exc})\n  hint: re-record it with --save-feedback"
            ) from exc
    try:
        return FeedbackStore.from_jsonable(data)
    except ValueError as exc:
        message = str(exc)
        if "version" in message:
            hint = (
                f"this build reads version {FEEDBACK_VERSION} only; "
                f"re-record the artifact with --save-feedback"
            )
        elif "fingerprint" in message:
            hint = (
                "the file changed after it was written; re-record it "
                "with --save-feedback (artifacts are not hand-editable)"
            )
        else:
            hint = "re-record the artifact with --save-feedback"
        raise ValueError(
            f"{path}: error: {message}\n  hint: {hint}"
        ) from exc
