"""``lib-generated``: the library user's steady state on generated code.

One long-lived process (:mod:`lib_child`) feeds the seed's generated
programs through ``compile_source`` → ``find_reductions`` →
``find_extended_reductions``.  Import and IPC do none of the work; the
frontend, the SSA passes, the analyses and the solver do all of it, and
the large-function tail shows passes that grow faster than linearly.
"""

from __future__ import annotations

import hashlib
import json
import sys

import generator
from common import (
    HERE,
    NOMINAL_S,
    Result,
    median,
    percentile,
    relative_median,
    remove,
    run_child,
    setup_seconds,
    workdir,
)

#: Fresh-process set-up samples taken for ``setup_s``.
SETUP_SAMPLES = 7

#: Import, registry and plan compilation through the stable surface.
SETUP_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "from repro import compile_source, find_extended_reductions, "
    "find_reductions\n"
    "m = compile_source('int n; double x[8]; double f(void) { double s = "
    "0.0; for (int i = 0; i < n; i++) { s = s + x[i]; } return s; }', "
    "'setup')\n"
    "find_reductions(m)\n"
    "find_extended_reductions(m)\n"
    "print(time.perf_counter() - t)\n"
)

#: Detection digests pinned per seed (seeds without a pin skip that check).
PINNED_PATH = HERE / "pinned_digests.json"


def detection_digest(names: dict) -> str:
    """sha256 over every program's full detection names."""
    return hashlib.sha256(
        json.dumps(names, sort_keys=True).encode()
    ).hexdigest()


def pinned_digest(seed: int) -> str | None:
    with open(PINNED_PATH) as handle:
        return json.load(handle).get(str(seed))


def run(seed: int, seconds: float) -> Result:
    result = Result()
    programs = generator.generate(seed)
    tmp = workdir("lib")
    try:
        setup = setup_seconds(SETUP_SNIPPET, SETUP_SAMPLES, tmp, result)
        programs_path = tmp / "programs.json"
        programs_path.write_text(json.dumps([
            {"name": p.name, "source": p.source,
             "expected": [list(pair) for pair in p.expected]}
            for p in programs
        ]))
        out_path = tmp / "out.json"
        child = run_child([sys.executable, str(HERE / "lib_child.py"),
                           str(programs_path), str(seconds), str(out_path)],
                          tmp)
        if not result.check(child.returncode == 0,
                            f"library process exit {child.returncode}: "
                            f"{child.stderr[-500:]}"):
            return result
        out = json.loads(out_path.read_text())
    finally:
        remove(tmp)

    # Every program of every pass (and the warm-up) was checked.
    checked = len(programs) * (1 + len(out["passes"]))
    result.attempted += checked
    result.failed += len(out["mismatches"])
    result.notes += [f"FAILED: detections differ from the planted ones "
                     f"in {where}" for where in out["mismatches"][:20]]
    digest = detection_digest(out["names"])
    pinned = pinned_digest(seed)
    if pinned is None:
        result.notes.append(f"no pinned detection digest for seed {seed} "
                            f"(digest {digest})")
    else:
        result.check(digest == pinned,
                     f"detection digest {digest} != pinned {pinned}")
    if not setup:
        return result

    # Each program's latency is its fastest pass, relative to the
    # fastest reference run: the host's speed varies for seconds to
    # minutes, and neither a program's work nor the reference's does.
    scale = NOMINAL_S / min(out["references"])
    latencies = [scale * min(times) for times in zip(*out["passes"])]
    result.put("setup_s", relative_median(setup), "s")
    result.put("latency_ms", 1000 * median(latencies), "ms")
    result.put("programs_per_s", len(programs) / sum(latencies), "1/s")
    result.put("peak_rss_mb", child.peak_rss_mb, "MiB")
    loops = [p.loops for p in programs]
    result.notes += [
        f"{len(programs)} generated programs, {sum(loops)} loops "
        f"(1..{max(loops)} per function), {len(out['passes'])} timed passes",
        f"program_p50_ms = {1000 * median(latencies):.3f} ms, "
        f"program_p90_ms = {1000 * percentile(latencies, 0.9):.3f} ms "
        f"(each program's fastest pass, relative to the reference: "
        f"fastest {min(out['references']):.4f} s against {NOMINAL_S} s "
        f"nominal)",
    ]
    return result
