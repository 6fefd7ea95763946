"""The long-lived library process of the ``lib-generated`` workload.

Usage: ``python lib_child.py PROGRAMS.json SECONDS OUT.json``

Runs every program through ``compile_source`` → ``find_reductions`` →
``find_extended_reductions`` once to warm up, then in complete passes
until ``SECONDS`` have elapsed (at least two passes), timing each
program, with the reference work (:mod:`reference`) timed before each
pass.  Every pass checks each program's detections against the
expected ones the generator planted.
"""

from __future__ import annotations

import json
import sys
import time

from generator import detection_names, detection_pairs
from reference import work

MIN_PASSES = 2


def main(argv: list[str]) -> int:
    programs_path, seconds, out_path = argv[1], float(argv[2]), argv[3]
    with open(programs_path) as handle:
        programs = json.load(handle)
    from repro import compile_source, find_extended_reductions, find_reductions

    def detect(program):
        module = compile_source(program["source"], program["name"])
        report = find_reductions(module)
        extended = find_extended_reductions(module)
        return report, extended

    mismatches: list[str] = []
    names = {}
    for program in programs:
        report, extended = detect(program)
        names[program["name"]] = list(detection_names(report, extended))
        if list(map(list, detection_pairs(report, extended))) \
                != program["expected"]:
            mismatches.append(f"warm-up {program['name']}")

    passes, references = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        references.append(work())
        latencies = []
        for program in programs:
            started = time.perf_counter()
            report, extended = detect(program)
            latencies.append(time.perf_counter() - started)
            if list(map(list, detection_pairs(report, extended))) \
                    != program["expected"]:
                mismatches.append(f"pass {len(passes)} {program['name']}")
        passes.append(latencies)

    with open(out_path, "w") as handle:
        json.dump({"names": names, "passes": passes,
                   "references": references, "mismatches": mismatches},
                  handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
