"""Shared helpers: checkout paths, child processes, statistics, results."""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
#: The checkout root: the benchmark directory's parent.
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes lives under here (listed in .gitignore).
OUT = ROOT / ".perfbench"

#: Fingerprint (detections only) of ``python -m repro corpus --extended``.
CORPUS_FINGERPRINT = (
    "129b10ea4f4189ffad12bf47a6bbf4a6b5f5472acd642a29d262f2c471bd4a38"
)
#: (scalar, histogram) reduction counts of the same report.
CORPUS_COUNTS = (84, 6)

#: Hard cap on any one child process, seconds.
CHILD_TIMEOUT = 150.0


def child_env() -> dict:
    """Environment for children: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def workdir(tag: str) -> Path:
    """A fresh private directory under :data:`OUT`."""
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


@dataclass
class ChildRun:
    """One finished child process."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], tmp: Path,
              timeout: float = CHILD_TIMEOUT) -> ChildRun:
    """Run ``argv`` to completion; wall time and peak RSS of its tree.

    The child is reaped with ``os.wait4`` so its resource usage is its
    own (plus the descendants it waited for), never another child's.
    """
    out_path = tmp / "child.out"
    err_path = tmp / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=child_env(), cwd=str(ROOT))
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, rss_mb(usage),
                    out_path.read_text(), err_path.read_text())


def rss_mb(usage) -> float:
    """``ru_maxrss`` in MiB (Linux reports KiB)."""
    return usage.ru_maxrss / 1024.0


def reference_wall(tmp: Path, result: "Result") -> float | None:
    """Wall seconds of the reference work in a fresh process."""
    run = run_child([sys.executable, str(HERE / "reference.py")], tmp)
    if result.check(run.returncode == 0,
                    f"reference run: {run.stderr.strip()[-300:]}"):
        return run.wall_s
    return None


def setup_seconds(code: str, samples: int, tmp: Path,
                  result: "Result") -> list[tuple[float, float]]:
    """``(seconds printed, reference wall)`` of ``samples`` fresh
    ``python -c code`` processes, each right after a reference run."""
    pairs = []
    for i in range(samples):
        reference = reference_wall(tmp, result)
        run = run_child([sys.executable, "-c", code], tmp)
        if result.check(run.returncode == 0,
                        f"set-up probe {i}: {run.stderr.strip()[-300:]}") \
                and reference is not None:
            pairs.append((float(run.stdout.split()[-1]), reference))
    return pairs


def relative_median(pairs) -> float:
    """Median of ``seconds * NOMINAL_S / reference`` over the pairs."""
    return median([s * NOMINAL_S / r for s, r in pairs])


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1])."""
    ordered = sorted(samples)
    index = max(0, min(len(ordered) - 1,
                       round(fraction * (len(ordered) - 1))))
    return ordered[index]


def median(samples) -> float:
    return statistics.median(samples)


@dataclass
class Result:
    """What one run measured and checked."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    #: Human-readable lines printed before the JSON result.
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 200:
                self.notes.append(f"FAILED: {what}")
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)
