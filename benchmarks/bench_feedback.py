"""Solver feedback store benchmark: the corpus-wide eval reduction of
a feedback-warmed run, and the determinism of the artifact itself.

Scenario, recorded in ``results/BENCH_feedback.json``:

* **recording** — one curated-order corpus run; its per-spec solver
  statistics merge into a persisted feedback artifact
  (``save_feedback``);
* **cold** — the uncurated deployment: every spec reordered by the
  *static* ``suggest_order`` heuristic (the order a spec without a
  hand-curated ``order:`` gets), no feedback.  Same detections, far
  more search;
* **warmed** — the *same uncurated deployment* plus the artifact: the
  store's orders are derived against the static-ordered registry (the
  deployment's own view — crucially, this measures the artifact's
  contribution, not the pre-existing curated-vs-static gap) and
  override the static baseline.  Cost-aware ``suggest_order`` replays
  the cheapest measured continuation per spec, so the artifact
  carries the ordering knowledge the deployment lacks.

Acceptance bars:

* warmed evals **< cold** evals (the headline corpus-wide reduction —
  with the artifact's contribution isolated: both runs start from the
  same uncurated orders, only the artifact differs);
* warmed evals **≤ curated** evals (feedback is never worse than the
  order that produced it);
* consuming the artifact on the *default* (curated) registry is a
  no-op by cost: the recording's own orders are replayed exactly;
* identical detections in every configuration
  (``fingerprint(effort=False)``);
* the default warmed run's **full** fingerprint (search effort
  included) is identical across ``jobs=1``/``jobs=N``, fork/spawn,
  and program/function granularity — and all of those runs re-record
  **byte-identical** feedback artifacts.
"""

import json
import multiprocessing
import os
import tempfile

from conftest import write_artifact
from repro.constraints import suggest_order
from repro.evaluation.render import table
from repro.idioms.registry import IdiomRegistry
from repro.pipeline import (
    detect_corpus,
    feedback_from_report,
    load_feedback,
    save_feedback,
)


def _static_orders() -> dict:
    """Every built-in spec under the static (uncurated) heuristic."""
    registry = IdiomRegistry()
    return {
        entry.name: suggest_order(entry.spec) for entry in registry
    }


def test_feedback_store_corpus_reduction():
    with tempfile.TemporaryDirectory() as tmp:
        artifact = os.path.join(tmp, "feedback.json")

        # 1. Record a curated-order run and persist its feedback.
        recording = detect_corpus(jobs=1, extended=True)
        save_feedback(feedback_from_report(recording), artifact)
        store = load_feedback(artifact)

        # 2. Cold uncurated deployment: static suggest_order everywhere.
        static = _static_orders()
        cold = detect_corpus(jobs=1, extended=True, spec_orders=static)

        # 3. The same uncurated deployment warmed by the artifact: the
        # store's orders are derived against the deployment's own
        # (static-ordered) registry, then override the static
        # baseline — so cold and warmed differ by the artifact alone.
        deployed = IdiomRegistry()
        deployed.apply_orders(static)
        warm_orders = dict(static)
        warm_orders.update(store.spec_orders(deployed))
        warmed = detect_corpus(jobs=1, extended=True,
                               spec_orders=warm_orders)

        # 3b. Consuming the artifact on the default (curated) registry
        # replays the recording's own orders — a no-op by cost, and
        # the configuration whose determinism the matrix below pins.
        replay = detect_corpus(jobs=1, extended=True,
                               feedback_from=artifact)

        # Reordering moves search cost, never detections.
        for report in (cold, warmed, replay):
            assert report.fingerprint(effort=False) == (
                recording.fingerprint(effort=False)
            )
        # The headline reduction, and the never-worse bars.
        assert warmed.total_constraint_evals < cold.total_constraint_evals
        assert (warmed.total_constraint_evals
                <= recording.total_constraint_evals)
        assert (replay.total_constraint_evals
                <= recording.total_constraint_evals)

        # 4. Determinism matrix for the warmed configuration: the full
        # fingerprint (effort included) and the re-recorded artifact
        # bytes must agree across every sharding shape.
        matrix = {
            "jobs1-program": dict(jobs=1),
            "jobs4-program": dict(jobs=4),
            "jobs4-function": dict(jobs=4, granularity="function"),
        }
        for method in multiprocessing.get_all_start_methods():
            if method in ("fork", "spawn"):
                matrix[f"jobs2-function-{method}"] = dict(
                    jobs=2, granularity="function", start_method=method
                )
        fingerprints = {}
        blobs = {}
        for name, kwargs in matrix.items():
            report = detect_corpus(extended=True, feedback_from=artifact,
                                   **kwargs)
            fingerprints[name] = report.fingerprint()
            path = os.path.join(tmp, f"{name}.json")
            save_feedback(feedback_from_report(report), path)
            with open(path, "rb") as handle:
                blobs[name] = handle.read()
        reference = fingerprints["jobs1-program"]
        assert all(fp == reference for fp in fingerprints.values()), (
            fingerprints
        )
        reference_blob = blobs["jobs1-program"]
        assert all(blob == reference_blob for blob in blobs.values())

    reduction = 1.0 - (
        warmed.total_constraint_evals / cold.total_constraint_evals
    )
    payload = {
        "corpus_programs": len(recording.programs),
        "curated_constraint_evals": recording.total_constraint_evals,
        "cold_static_constraint_evals": cold.total_constraint_evals,
        "warmed_constraint_evals": warmed.total_constraint_evals,
        "curated_replay_constraint_evals": replay.total_constraint_evals,
        "eval_reduction_vs_cold": round(reduction, 4),
        "feedback_specs": len(store),
        "feedback_fingerprint": store.fingerprint(),
        "detections_fingerprint": recording.fingerprint(effort=False),
        "warmed_report_fingerprint": reference,
        "warmed_fingerprints_identical_across": sorted(matrix),
        "feedback_artifact_byte_identical_across": sorted(matrix),
    }
    write_artifact("BENCH_feedback.json", json.dumps(payload, indent=2))

    rows = [
        ["curated (recording)", recording.total_constraint_evals, "1.00x"],
        ["cold static orders", cold.total_constraint_evals,
         f"{cold.total_constraint_evals / recording.total_constraint_evals:.2f}x"],
        ["static + artifact (warmed)", warmed.total_constraint_evals,
         f"{warmed.total_constraint_evals / recording.total_constraint_evals:.2f}x"],
        ["curated + artifact (replay)", replay.total_constraint_evals,
         f"{replay.total_constraint_evals / recording.total_constraint_evals:.2f}x"],
    ]
    text = table(
        ["configuration", "constraint evals", "vs curated"],
        rows,
        title=(
            f"solver feedback store: corpus-wide constraint evals "
            f"({reduction * 100:.1f}% saved vs cold)"
        ),
    )
    print()
    print(write_artifact("bench_feedback.txt", text))


def test_feedback_of_a_static_run_is_honest():
    """Feedback recorded *from* a static-order run replays that run —
    it cannot invent improvements it never measured, so a deployment
    warming itself from its own recording never regresses.

    Note ``spec_orders`` takes precedence over ``feedback_from``, so
    the warm configuration is built explicitly: the store's orders are
    derived against the *static-ordered* registry (the deployment's
    own view) and merged over the static baseline.
    """
    with tempfile.TemporaryDirectory() as tmp:
        artifact = os.path.join(tmp, "static-feedback.json")
        static = _static_orders()
        cold = detect_corpus(jobs=1, spec_orders=static)
        save_feedback(feedback_from_report(cold), artifact)

        deployed = IdiomRegistry()
        deployed.apply_orders(static)
        derived = load_feedback(artifact).spec_orders(deployed)
        warm_orders = dict(static)
        warm_orders.update(derived)
        replay = detect_corpus(jobs=1, spec_orders=warm_orders)
        assert replay.fingerprint(effort=False) == cold.fingerprint(
            effort=False
        )
        assert replay.total_constraint_evals <= cold.total_constraint_evals
