#!/usr/bin/env python3
"""modbot benchmark: one command, three workloads, seeded inputs.

    python3 bench/run.py --workload diffuse_tree --seed 1 --seconds 30 --trace 0

Run from the root of a modbot checkout; the package is imported from its
`src/` directory, never from an installed copy. `--trace 0` runs untraced
episodes for `--seconds` seconds and reports the end-to-end metrics;
`--trace 1` runs one traced episode plus untraced reference episodes and
reports the per-layer metrics. Both print a readable report and finish
with one JSON line: {"correct", "attempted", "failed", "metrics"}. Trace
spans and a summary of every run go to `.bench_out/` in the checkout.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modbot" / "__init__.py").is_file():
        print(f"error: no modbot package under {SRC}; run from a modbot checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import modbot

    if Path(modbot.__file__).resolve().parent != (SRC / "modbot").resolve():
        print(f"error: imported modbot from {modbot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from harness import WORKLOADS, traced, untraced

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    inputs = workload.generate(args.seed)
    run = traced if args.trace else untraced
    correct, attempted, failed, metrics = run(workload, inputs, args)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
