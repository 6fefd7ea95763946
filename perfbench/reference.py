"""Reference work that measures the host's speed, not the program's.

Shared hosts change speed for seconds to minutes at a time, by up to
2x, and the whole of a run can fall in a slow stretch.  Timings of the
``cli-cold-corpus`` and ``lib-generated`` workloads are therefore
reported relative to this work, measured in the same run: pure-Python
tokenizing, parsing and walking of a fixed synthetic text, which has the
interpreter-bound, allocation-heavy profile of the program but shares
none of its code.  A reported time is ``measured * NOMINAL_S /
reference``: the time on a host where this work takes ``NOMINAL_S``.

Run as a script, it does the work once and prints its seconds.
"""

from __future__ import annotations

import ast
import io
import json
import time
import tokenize

#: Seconds the work takes on the host the nominal values refer to.
NOMINAL_S = 0.15

#: Small chunks, so the work adds little to a process's peak memory.
CHUNKS = [
    "".join(
        f"def f{i}(a, b={i}):\n"
        f"    xs = [a * {i} + b for _ in range({i % 7})]\n"
        f"    return {{'k{i}': xs, 'n': len(xs), 's': str(a) + 'x{i}'}}\n"
        for i in range(start, start + 20)
    )
    for start in range(0, 600, 20)
]


def work() -> float:
    """Seconds one round of the reference work takes in this process."""
    started = time.perf_counter()
    counts: dict[str, int] = {}
    for text in CHUNKS:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
        counts["tokens"] = counts.get("tokens", 0) + len(tokens)
        for node in ast.walk(ast.parse(text)):
            name = type(node).__name__
            counts[name] = counts.get(name, 0) + 1
    json.loads(json.dumps(counts))
    return time.perf_counter() - started


if __name__ == "__main__":
    print(work())
