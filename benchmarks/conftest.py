"""Shared helpers for the figure-regenerating benchmark harness.

The solver benchmarks compare against the test references in
``tests/constraints`` (the interpreted search in ``reference_solver.py``
and the Python idiom specs in ``native_specs.py``), so that directory
goes on ``sys.path``.
"""

import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests",
                                "constraints"))


def write_artifact(name: str, text: str) -> str:
    """Persist a rendered table/figure under results/ and return it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return text
