"""Experiment fig8a/fig8b/fig8c: reductions detected per benchmark.

For every program of a suite, runs our constraint-based detector plus
the icc and Polly baseline models, and reports the per-benchmark counts
that Figure 8 plots, together with the §6.1 totals.

Detection runs through the corpus pipeline
(:func:`repro.pipeline.detect_corpus`): one batched run over the
requested suites — served by worker processes when ``jobs > 1`` — whose
deterministically merged digests feed the panels, so the paper driver
and the production path cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pipeline import CorpusReport, detect_corpus
from ..workloads import suite
from . import paper
from .render import table


@dataclass
class DiscoveryRow:
    """One benchmark's detection outcome across tools."""

    benchmark: str
    ours_scalars: int
    ours_histograms: int
    icc: int
    polly: int
    expected_ok: bool
    #: True when the pipeline abandoned the program's units (see
    #: :attr:`~repro.pipeline.CorpusReport.failures`); the counts are
    #: zeros and must not be mistaken for "nothing detected".
    failed: bool = False


@dataclass
class DiscoveryResult:
    """One suite's Figure 8 panel."""

    suite: str
    rows: list[DiscoveryRow] = field(default_factory=list)
    #: The report's :class:`~repro.pipeline.UnitFailure` records for
    #: this suite — surfaced on the panel so a partial report can never
    #: silently masquerade as a full one.
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """All rows matched the paper *and* no unit failed."""
        return not self.failures and all(r.expected_ok for r in self.rows)

    @property
    def totals(self) -> tuple[int, int, int, int]:
        """(ours scalar, ours histogram, icc, polly) suite totals."""
        return (
            sum(r.ours_scalars for r in self.rows),
            sum(r.ours_histograms for r in self.rows),
            sum(r.icc for r in self.rows),
            sum(r.polly for r in self.rows),
        )

    def render(self) -> str:
        """The Figure 8 panel as a table."""
        rows = [
            [r.benchmark, r.ours_scalars, r.ours_histograms, r.icc,
             r.polly,
             "FAILED" if r.failed
             else ("ok" if r.expected_ok else "MISMATCH")]
            for r in self.rows
        ]
        scalars, histograms, icc_total, polly_total = self.totals
        rows.append(
            ["TOTAL", scalars, histograms, icc_total, polly_total, ""]
        )
        text = table(
            ["benchmark", "scalar", "histogram", "icc", "polly", "check"],
            rows,
            title=f"Figure 8 ({self.suite}): reductions detected",
        )
        if self.failures:
            lines = [text, "", f"{len(self.failures)} FAILED unit(s):"]
            lines.extend(
                f"  {failure.describe()}" for failure in self.failures
            )
            text = "\n".join(lines)
        return text


def run_discovery(
    suite_name: str,
    jobs: int = 1,
    report: CorpusReport | None = None,
    granularity: str = "program",
    feedback_from: str | None = None,
) -> DiscoveryResult:
    """Reproduce one panel of Figure 8.

    ``report`` reuses an existing pipeline run (``run_all_discovery``
    shares one batched run across all three panels); otherwise the
    pipeline runs here, on ``jobs`` worker processes at the
    requested granularity — the panels are identical either way, by
    the pipeline's fingerprint contract (feedback-reordered runs
    included: a reorder moves search cost, never detections).

    A report carrying :class:`~repro.pipeline.UnitFailure` records —
    a served run whose units exhausted their retry budget — renders
    those programs as ``FAILED`` rows (zero counts, never
    ``expected_ok``) and lists the failures under the panel, so a
    partial report is visibly partial.
    """
    if report is None:
        report = detect_corpus(
            jobs=jobs, baselines=True, suites=(suite_name,),
            granularity=granularity, feedback_from=feedback_from,
        )
    result = DiscoveryResult(suite_name)
    failed_keys = {
        failure.key for failure in report.failures
    }
    result.failures = [
        failure for failure in report.failures
        if failure.suite == suite_name
    ]
    for program in suite(suite_name):
        if (program.name, program.suite) in failed_keys:
            result.rows.append(
                DiscoveryRow(
                    benchmark=program.name,
                    ours_scalars=0, ours_histograms=0, icc=0, polly=0,
                    expected_ok=False, failed=True,
                )
            )
            continue
        digest = report.program(program.name, program.suite)
        scalars, histograms = digest.counts()
        icc_count = digest.icc
        polly_count = digest.polly_reductions
        expectation = program.expectation
        result.rows.append(
            DiscoveryRow(
                benchmark=program.name,
                ours_scalars=scalars,
                ours_histograms=histograms,
                icc=icc_count,
                polly=polly_count,
                expected_ok=(
                    scalars == expectation.ours_scalars
                    and histograms == expectation.ours_histograms
                    and icc_count == expectation.icc
                    and polly_count == expectation.polly_reductions
                ),
            )
        )
    return result


def run_all_discovery(
    jobs: int = 1,
    granularity: str = "program",
    feedback_from: str | None = None,
) -> dict[str, DiscoveryResult]:
    """All three Figure 8 panels from one batched pipeline run."""
    report = detect_corpus(jobs=jobs, baselines=True,
                           granularity=granularity,
                           feedback_from=feedback_from)
    return {
        name: run_discovery(name, report=report)
        for name in ("NAS", "Parboil", "Rodinia")
    }


def summary_against_paper(results: dict[str, DiscoveryResult]) -> str:
    """Paper-vs-measured totals (§6.1)."""
    scalars = sum(r.totals[0] for r in results.values())
    histograms = sum(r.totals[1] for r in results.values())
    rows = [
        ["scalar reductions (ours)", paper.TOTAL_SCALAR_REDUCTIONS, scalars],
        ["histogram reductions (ours)", paper.TOTAL_HISTOGRAM_REDUCTIONS,
         histograms],
    ]
    for suite_name, result in results.items():
        rows.append(
            [f"icc reductions ({suite_name})",
             paper.ICC_PER_SUITE[suite_name], result.totals[2]]
        )
        rows.append(
            [f"Polly reductions ({suite_name})",
             paper.POLLY_PER_SUITE[suite_name], result.totals[3]]
        )
    return table(["quantity", "paper", "measured"], rows,
                 title="§6.1 totals: paper vs measured")
