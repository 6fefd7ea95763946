"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-cold-corpus --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the layer sweep of :mod:`layers` instead and reports
the per-layer metrics.  Every output is checked; the last line printed
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads, metrics and
which layer should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SRC

WORKLOADS = ("cli-cold-corpus", "lib-generated", "gateway-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        import layers

        result = layers.run(args.workload, args.seed, args.seconds)
    elif args.workload == "cli-cold-corpus":
        import cli_cold

        result = cli_cold.run(args.seed, args.seconds)
    elif args.workload == "lib-generated":
        import lib_generated

        result = lib_generated.run(args.seed, args.seconds)
    else:
        import gateway_mixed

        result = gateway_mixed.run(args.seed, args.seconds)

    for line in result.notes:
        print(line)
    error_rate = result.failed / max(1, result.attempted)
    print(f"error_rate = {error_rate:.6f} "
          f"({result.failed} failed of {result.attempted} checked)")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<40} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
