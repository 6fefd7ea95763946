"""``cli-cold-corpus``: repeated fresh-process ``python -m repro corpus``.

The cold path every CLI user pays: interpreter start, ``import repro``,
plan codegen, the frontend on the 40 corpus programs and the icc/Polly
baselines (the ``corpus`` verb always runs them).  The corpus is fixed,
so the seed changes nothing here.
"""

from __future__ import annotations

import sys
import time

from common import (
    CORPUS_COUNTS,
    CORPUS_FINGERPRINT,
    NOMINAL_S,
    Result,
    median,
    reference_wall,
    relative_median,
    remove,
    run_child,
    setup_seconds,
    workdir,
)

#: Fresh ``import repro`` samples taken for ``setup_s``.
SETUP_SAMPLES = 9
#: Cold invocations measured at least, whatever ``--seconds`` says.
MIN_RUNS = 5

IMPORT_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import repro\n"
    "print(time.perf_counter() - t)\n"
)

CORPUS_PROGRAMS = 40


def corpus_argv(report_path) -> list[str]:
    return [sys.executable, "-m", "repro", "corpus", "--extended",
            "--save-report", str(report_path)]


def check_corpus_run(run, report_path, result: Result, label: str) -> None:
    """A cold corpus run must exit 0 and save the pinned report."""
    from repro.pipeline import load_report

    if not result.check(run.returncode == 0,
                        f"{label}: exit {run.returncode}: "
                        f"{run.stderr.strip()[-300:]}"):
        return
    try:
        report = load_report(str(report_path))
    except (OSError, ValueError) as exc:
        result.fail(f"{label}: unreadable report: {exc}")
        return
    result.check(report.counts() == CORPUS_COUNTS,
                 f"{label}: counts {report.counts()} != {CORPUS_COUNTS}")
    result.check(report.fingerprint(effort=False) == CORPUS_FINGERPRINT,
                 f"{label}: detection fingerprint changed")


def run(seed: int, seconds: float) -> Result:
    result = Result()
    tmp = workdir("cli")
    try:
        setup = setup_seconds(IMPORT_SNIPPET, SETUP_SAMPLES, tmp, result)
        walls, references, rss = [], [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_RUNS or time.perf_counter() < deadline:
            reference = reference_wall(tmp, result)
            if reference is not None:
                references.append(reference)
            report_path = tmp / f"report{len(walls)}.json"
            child = run_child(corpus_argv(report_path), tmp)
            check_corpus_run(child, report_path, result,
                             f"cold run {len(walls)}")
            walls.append(child.wall_s)
            rss.append(child.peak_rss_mb)
    finally:
        remove(tmp)
    if not setup or not references:
        return result
    # The fastest cold run relative to the fastest reference run: shared
    # hosts change speed for seconds to minutes, which moved the median
    # of cold runs by ~20% between runs; the work of a cold run and of
    # the reference work does not change (see reference.py).
    cold = min(walls) * NOMINAL_S / min(references)
    result.put("setup_s", relative_median(setup), "s")
    result.put("latency_ms", 1000 * cold, "ms")
    result.put("programs_per_s", CORPUS_PROGRAMS / cold, "1/s")
    result.put("peak_rss_mb", median(rss), "MiB")
    result.notes += [
        f"cold_corpus_s = {cold:.4f} s relative to the reference "
        f"(fastest of {len(walls)} cold runs {min(walls):.4f} s, median "
        f"{median(walls):.4f} s; fastest reference {min(references):.4f} s "
        f"against {NOMINAL_S} s nominal)",
        f"setup_s (fresh import repro) = {relative_median(setup):.4f} s "
        f"relative (raw median {median([s for s, _ in setup]):.4f} s of "
        f"{len(setup)})",
    ]
    return result
