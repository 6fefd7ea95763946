"""Process-portable detection digests.

A :class:`~repro.idioms.reports.DetectionReport` holds live IR objects
and cannot cross a process boundary (nor be compared between two
processes, where object identities differ).  The pipeline therefore
reduces every report to a **digest**: plain strings and integers that
pickle cheaply and compare structurally — two runs produced the same
reports if and only if their digests (and hence their fingerprints) are
equal.  Timings are carried but excluded from comparison and from the
fingerprint: they are the only fields allowed to differ between a
serial and a sharded run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..constraints import SolverStats
from ..idioms.extensions import ExtendedReport, FunctionExtensions
from ..idioms.reports import DetectionReport


@dataclass(frozen=True)
class ScalarDigest:
    """One scalar reduction, by stable names."""

    name: str
    op: str
    input_bases: tuple[str, ...]


@dataclass(frozen=True)
class HistogramDigest:
    """One histogram reduction, by stable names."""

    name: str
    op: str
    idx_affine: bool
    input_bases: tuple[str, ...]
    runtime_checks: tuple[str, ...]


@dataclass(frozen=True)
class ExtensionDigest:
    """One extension-idiom match (dot product / argminmax / nested)."""

    idiom: str
    name: str
    detail: str = ""


@dataclass(frozen=True)
class FunctionDigest:
    """One function's detections plus the search effort they cost."""

    function: str
    scalars: tuple[ScalarDigest, ...]
    histograms: tuple[HistogramDigest, ...]
    constraint_evals: int


#: How each extension idiom's matches digest, in the canonical
#: grouping order.  This table is the single source of truth for that
#: order: :func:`digest_extensions` concatenates groups by iterating
#: it, and function-granularity assembly stable-sorts by the derived
#: rank — so per-function partial results reproduce the whole-program
#: order byte-for-byte, including for any idiom added here later.
_EXTENSION_BUILDERS = {
    "dot-product": lambda report: tuple(
        ExtensionDigest("dot-product", m.name)
        for m in report.dot_products
    ),
    "argminmax": lambda report: tuple(
        ExtensionDigest("argminmax", m.name, detail=m.kind)
        for m in report.argminmax
    ),
    "nested-array-reduction": lambda report: tuple(
        ExtensionDigest("nested-array-reduction", m.name,
                        detail=m.op.value)
        for m in report.nested_array
    ),
}

_EXTENSION_RANK = {
    idiom: rank for rank, idiom in enumerate(_EXTENSION_BUILDERS)
}


@dataclass(frozen=True)
class UnitDigest:
    """One work unit's partial detection outcome.

    A unit is either a whole program (``function is None``) or a single
    ``(program, function)`` pair — the granularity at which the serving
    engine and function-level sharding ship work.  ``index``/``total``
    locate the unit among the program's defined functions so
    :func:`assemble_program` can re-establish module order and detect
    lost or duplicated units.
    """

    name: str
    suite: str
    function: str | None
    index: int
    total: int
    functions: tuple[FunctionDigest, ...]
    extended: tuple[ExtensionDigest, ...] = ()
    icc: int | None = None
    polly_scops: int | None = None
    polly_reductions: int | None = None
    #: Wall-clock per pipeline stage — informational only.
    stage_seconds: dict = field(default_factory=dict, compare=False,
                                hash=False)
    #: Per-spec solver statistics (spec name →
    #: :class:`~repro.constraints.SolverStats`) — the feedback store's
    #: raw material.  Deterministic per unit (each function has its own
    #: solver context), but ``compare=False`` like the timings: the
    #: fingerprint contract is about *detections and total effort*, and
    #: the feedback artifact has its own fingerprint.
    spec_stats: dict = field(default_factory=dict, compare=False,
                             hash=False)

    @property
    def key(self) -> tuple[str, str]:
        return (self.name, self.suite)


def fold_spec_stats(into: dict, spec_stats: dict) -> dict:
    """Add one unit's per-spec stats to the running sum ``into``.

    ``into`` holds fresh objects (a spec's first stats are copied,
    later ones summed into the copy), so folding never mutates the
    unit's own counters.  Order-canonical by construction —
    :meth:`SolverStats.merge <repro.constraints.SolverStats.merge>`
    only sums — so any arrival order of the same units produces an
    equal mapping.  Returns ``into``.
    """
    for name, stats in spec_stats.items():
        kept = into.get(name)
        if kept is None:
            kept = into[name] = SolverStats()
        kept.merge(stats)
    return into


def merge_spec_stats(units) -> dict:
    """Per-spec stats summed across digests, into fresh objects
    (:func:`fold_spec_stats`).  A single digest's mapping is copied,
    its stats objects shared."""
    if len(units) == 1:
        return dict(units[0].spec_stats)
    merged: dict[str, SolverStats] = {}
    for unit in units:
        fold_spec_stats(merged, unit.spec_stats)
    return merged


def assemble_program(units, spec_stats: dict | None = None) -> ProgramDigest:
    """Checked reassembly of one program from its unit digests.

    Units must cover indices ``0..total-1`` exactly once (a whole
    program is the single unit ``0`` of ``1``).  Functions concatenate
    in module order; extension matches are stable-sorted back into the
    idiom grouping a whole-module report produces; per-stage timings
    sum across units (each worker paid its own compile/detect time) —
    they are ``compare=False`` metadata, so the merge cannot perturb
    fingerprints.  Baseline results come from the one unit that ran
    the program-level stages.

    ``spec_stats`` is the program's per-spec sum when the caller
    folded it while the units arrived (:func:`fold_spec_stats`; the
    serving engine keeps only the units' detections); by default the
    units' own statistics are merged (:func:`merge_spec_stats`).
    """
    units = sorted(units, key=lambda u: u.index)
    if not units:
        raise ValueError("no units to assemble")
    first = units[0]
    key = first.key
    total = first.total
    if any(u.key != key or u.total != total for u in units):
        raise ValueError(f"mixed units assembled for program {key}")
    indices = [u.index for u in units]
    if indices != list(range(total)) and not (
        len(units) == 1 and first.function is None
    ):
        raise ValueError(
            f"program {key}: unit indices {indices} do not cover "
            f"0..{total - 1} exactly once"
        )
    functions = tuple(f for u in units for f in u.functions)
    extended = tuple(
        sorted(
            (e for u in units for e in u.extended),
            key=lambda e: _EXTENSION_RANK.get(e.idiom, len(_EXTENSION_RANK)),
        )
    )
    baseline_units = [u for u in units if u.icc is not None
                      or u.polly_scops is not None]
    if len(baseline_units) > 1:
        raise ValueError(
            f"program {key}: baselines ran on {len(baseline_units)} units"
        )
    lead = baseline_units[0] if baseline_units else None
    stage_seconds: dict[str, float] = {}
    for unit in units:
        for stage, seconds in unit.stage_seconds.items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    return ProgramDigest(
        name=first.name,
        suite=first.suite,
        functions=functions,
        extended=extended,
        icc=lead.icc if lead else None,
        polly_scops=lead.polly_scops if lead else None,
        polly_reductions=lead.polly_reductions if lead else None,
        stage_seconds=stage_seconds,
        spec_stats=(
            merge_spec_stats(units) if spec_stats is None else spec_stats
        ),
    )


@dataclass(frozen=True)
class ProgramDigest:
    """One corpus program's full detection outcome."""

    name: str
    suite: str
    functions: tuple[FunctionDigest, ...]
    extended: tuple[ExtensionDigest, ...] = ()
    #: Baseline model results (None when the stage was not run).
    icc: int | None = None
    polly_scops: int | None = None
    polly_reductions: int | None = None
    #: Wall-clock per pipeline stage — informational only.
    stage_seconds: dict = field(default_factory=dict, compare=False,
                                hash=False)
    #: Per-spec solver statistics summed over the program's units —
    #: see :attr:`UnitDigest.spec_stats`.  Aggregated corpus-wide by
    #: :func:`~repro.pipeline.feedback.feedback_from_report`.
    spec_stats: dict = field(default_factory=dict, compare=False,
                             hash=False)

    @property
    def key(self) -> tuple[str, str]:
        return (self.name, self.suite)

    def counts(self) -> tuple[int, int]:
        """(scalar count, histogram count)."""
        return (
            sum(len(f.scalars) for f in self.functions),
            sum(len(f.histograms) for f in self.functions),
        )

    @property
    def constraint_evals(self) -> int:
        return sum(f.constraint_evals for f in self.functions)


@dataclass(frozen=True)
class UnitFailure:
    """One work unit the serving engine could not complete.

    Recorded on :attr:`CorpusReport.failures` when a unit's worker
    died (and the unit exhausted its resubmission budget) — the
    structured alternative to a hung or aborted job.  ``attempts``
    counts every dispatch, the original included.
    """

    name: str
    suite: str
    function: str | None
    error: str
    attempts: int

    @property
    def key(self) -> tuple[str, str]:
        return (self.name, self.suite)

    def describe(self) -> str:
        return (
            f"{self.suite}/{self.name}/{self.function or '*'}: "
            f"{self.error} (after {self.attempts} attempt(s))"
        )


@dataclass(frozen=True)
class CorpusReport:
    """The pipeline's merged, order-canonical result."""

    programs: tuple[ProgramDigest, ...]
    jobs: int = 1
    #: End-to-end wall clock of the pipeline run — informational.
    wall_seconds: float = field(default=0.0, compare=False, hash=False)
    #: Units the serving engine abandoned after bounded retries.  A
    #: report with failures covers only the programs that completed;
    #: the fingerprint hashes those completions (a partial report can
    #: never collide with the full one — its program set differs).
    failures: tuple[UnitFailure, ...] = ()

    def counts(self) -> tuple[int, int]:
        """(scalar count, histogram count) over the whole corpus."""
        scalars = sum(p.counts()[0] for p in self.programs)
        histograms = sum(p.counts()[1] for p in self.programs)
        return scalars, histograms

    @property
    def total_constraint_evals(self) -> int:
        return sum(p.constraint_evals for p in self.programs)

    def program(self, name: str, suite: str) -> ProgramDigest:
        for digest in self.programs:
            if digest.key == (name, suite):
                return digest
        raise KeyError(f"no program {name!r} in suite {suite!r}")

    def canonical(self, effort: bool = True) -> tuple:
        """The comparison-relevant content as nested plain tuples.

        ``effort=False`` drops the search-effort counters, leaving only
        the detections — the form in which runs that search differently
        (another label order, a per-call solver cache) must agree.
        """
        return tuple(
            (
                p.name, p.suite,
                tuple(
                    (f.function, f.scalars, f.histograms)
                    + ((f.constraint_evals,) if effort else ())
                    for f in p.functions
                ),
                p.extended, p.icc, p.polly_scops, p.polly_reductions,
            )
            for p in self.programs
        )

    def fingerprint(self, effort: bool = True) -> str:
        """A stable hash of everything except timings.

        ``jobs=1`` and ``jobs=N`` runs of the same options must agree
        on this byte-for-byte — the pipeline's determinism contract.
        ``effort=False`` hashes detections only (see :meth:`canonical`).
        """
        return hashlib.sha256(
            repr(self.canonical(effort=effort)).encode()
        ).hexdigest()

    def summary(self) -> str:
        """One-line overview used by the CLI and the benchmark."""
        scalars, histograms = self.counts()
        extended = sum(len(p.extended) for p in self.programs)
        extra = f", {extended} extension match(es)" if extended else ""
        if self.failures:
            extra += f", {len(self.failures)} FAILED unit(s)"
        return (
            f"{len(self.programs)} program(s): {scalars} scalar, "
            f"{histograms} histogram reduction(s){extra} "
            f"[jobs={self.jobs}, {self.total_constraint_evals} evals, "
            f"{self.wall_seconds * 1000:.0f} ms]"
        )


def digest_function(fr) -> FunctionDigest:
    """Reduce one function's live detections to its digest."""
    return FunctionDigest(
        function=fr.function.name,
        scalars=tuple(
            ScalarDigest(
                name=s.name,
                op=s.op.value,
                input_bases=tuple(
                    b.short_name() for b in s.input_bases
                ),
            )
            for s in fr.scalars
        ),
        histograms=tuple(
            HistogramDigest(
                name=h.name,
                op=h.op.value,
                idx_affine=h.idx_affine,
                input_bases=tuple(
                    b.short_name() for b in h.input_bases
                ),
                runtime_checks=tuple(
                    c.describe() for c in h.runtime_checks
                ),
            )
            for h in fr.histograms
        ),
        constraint_evals=(
            fr.stats.constraint_evals if fr.stats is not None else 0
        ),
    )


def digest_report(report: DetectionReport) -> tuple[FunctionDigest, ...]:
    """Reduce a live detection report to its digests."""
    return tuple(digest_function(fr) for fr in report.functions)


def program_to_json(p: ProgramDigest) -> dict:
    """One program digest as JSON-serializable plain data.

    The per-program unit of :func:`report_to_json`, exposed on its own
    because the socket gateway streams individual digests over the
    wire as programs complete — the same encoding in a frame as in a
    saved report, so a client can rebuild either.
    """
    return {
        "name": p.name,
        "suite": p.suite,
        "functions": [
            {
                "function": f.function,
                "scalars": [
                    {"name": s.name, "op": s.op,
                     "input_bases": list(s.input_bases)}
                    for s in f.scalars
                ],
                "histograms": [
                    {"name": h.name, "op": h.op,
                     "idx_affine": h.idx_affine,
                     "input_bases": list(h.input_bases),
                     "runtime_checks": list(h.runtime_checks)}
                    for h in f.histograms
                ],
                "constraint_evals": f.constraint_evals,
            }
            for f in p.functions
        ],
        "extended": [
            {"idiom": e.idiom, "name": e.name, "detail": e.detail}
            for e in p.extended
        ],
        "icc": p.icc,
        "polly_scops": p.polly_scops,
        "polly_reductions": p.polly_reductions,
        "stage_seconds": dict(p.stage_seconds),
        # Per-spec solver statistics ride along (like the
        # timings, outside the fingerprint) so a saved report
        # remains a valid feedback_from_report source after a
        # load_report round trip.
        "spec_stats": {
            name: p.spec_stats[name].to_jsonable()
            for name in sorted(p.spec_stats)
        },
    }


def report_to_json(report: CorpusReport, programs: bool = True) -> dict:
    """The report as JSON-serializable plain data.

    The inverse of :func:`report_from_json`; round-tripping preserves
    the fingerprint (and the timing metadata the fingerprint excludes),
    so a saved run (``--save-report``) can be reloaded and compared
    across process — and machine — boundaries.

    ``programs=False`` lists the programs' ``[name, suite]`` keys, in
    report order, instead of their digests: the socket gateway's
    ``result`` frame, whose client already holds every digest from
    the request's ``digest`` frames.
    """
    data = {
        "jobs": report.jobs,
        "wall_seconds": report.wall_seconds,
        "fingerprint": report.fingerprint(),
        "failures": [
            {"name": f.name, "suite": f.suite, "function": f.function,
             "error": f.error, "attempts": f.attempts}
            for f in report.failures
        ],
    }
    if programs:
        data["programs"] = [program_to_json(p) for p in report.programs]
    else:
        data["keys"] = [[p.name, p.suite] for p in report.programs]
    return data


def program_from_json(p: dict) -> ProgramDigest:
    """Rebuild one :class:`ProgramDigest` from :func:`program_to_json`
    data (a saved report entry, or a gateway digest frame)."""
    return ProgramDigest(
        name=p["name"],
        suite=p["suite"],
        functions=tuple(
            FunctionDigest(
                function=f["function"],
                scalars=tuple(
                    ScalarDigest(
                        name=s["name"], op=s["op"],
                        input_bases=tuple(s["input_bases"]),
                    )
                    for s in f["scalars"]
                ),
                histograms=tuple(
                    HistogramDigest(
                        name=h["name"], op=h["op"],
                        idx_affine=h["idx_affine"],
                        input_bases=tuple(h["input_bases"]),
                        runtime_checks=tuple(h["runtime_checks"]),
                    )
                    for h in f["histograms"]
                ),
                constraint_evals=f["constraint_evals"],
            )
            for f in p["functions"]
        ),
        extended=tuple(
            ExtensionDigest(idiom=e["idiom"], name=e["name"],
                            detail=e.get("detail", ""))
            for e in p["extended"]
        ),
        icc=p["icc"],
        polly_scops=p["polly_scops"],
        polly_reductions=p["polly_reductions"],
        stage_seconds=dict(p.get("stage_seconds", {})),
        spec_stats={
            name: SolverStats.from_jsonable(stats)
            for name, stats in p.get("spec_stats", {}).items()
        },
    )


def report_from_json(data: dict, streamed=None) -> CorpusReport:
    """Rebuild a :class:`CorpusReport` from :func:`report_to_json` data.

    Data written with ``programs=False`` names its programs by key;
    ``streamed`` supplies their :class:`ProgramDigest`\\ s, in any
    order.  The recorded fingerprint, when present, is verified
    against the rebuilt report — a corrupted or hand-edited costs file
    (or a digest altered on the wire) fails loudly instead of silently
    mis-weighting work units.
    """
    if "programs" in data:
        programs = tuple(program_from_json(p) for p in data["programs"])
    else:
        by_key = {digest.key: digest for digest in streamed or ()}
        try:
            programs = tuple(
                by_key[(name, suite)] for name, suite in data["keys"]
            )
        except KeyError as exc:
            raise ValueError(
                f"report JSON names program {exc.args[0]} that was "
                f"not streamed"
            ) from None
    report = CorpusReport(
        programs=programs,
        jobs=data.get("jobs", 1),
        wall_seconds=data.get("wall_seconds", 0.0),
        failures=tuple(
            UnitFailure(name=f["name"], suite=f["suite"],
                        function=f["function"], error=f["error"],
                        attempts=f["attempts"])
            for f in data.get("failures", ())
        ),
    )
    recorded = data.get("fingerprint")
    if recorded is not None and recorded != report.fingerprint():
        raise ValueError(
            "report JSON fingerprint does not match its contents"
        )
    return report


def load_report(path: str) -> CorpusReport:
    """Read a :func:`report_to_json` file (``--save-report``)."""
    import json

    with open(path) as handle:
        return report_from_json(json.load(handle))


def save_report(report: CorpusReport, path: str) -> None:
    """Write ``report`` as JSON for later :func:`load_report` use.

    The file is ``json.dumps(report_to_json(report))`` with compact
    separators, encoded one program at a time: ``json.dumps`` runs the
    C encoder, which ``json.dump`` and any ``indent`` bypass, and one
    program at a time bounds the encoder's buffers by the largest
    program instead of the whole report (on the corpus: 0.01 s and
    250 KB, against 0.04 s and 656 KB indented).
    """
    import json

    data = report_to_json(report)
    programs = data.pop("programs")  # the last key of the object
    with open(path, "w") as handle:
        handle.write(json.dumps(data, separators=(",", ":"))[:-1])
        handle.write(',"programs":[')
        for index, program in enumerate(programs):
            if index:
                handle.write(",")
            handle.write(json.dumps(program, separators=(",", ":")))
        handle.write("]}\n")


def digest_extensions(
    report: ExtendedReport | FunctionExtensions,
) -> tuple[ExtensionDigest, ...]:
    """Reduce extension-idiom matches to their digests, grouped in the
    canonical ``_EXTENSION_BUILDERS`` order."""
    return tuple(
        digest
        for build in _EXTENSION_BUILDERS.values()
        for digest in build(report)
    )
