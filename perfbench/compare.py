#!/usr/bin/env python3
"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files that perfbench/run.py wrote to
.perfbench_work/results/ (one per workload, seed and trace mode). For
every workload and metric both sides measured (including those printed
but not declared, such as the per-stage wall times), it prints the two medians,
the change as a share of the base median and, for end-to-end metrics,
whether the change stays within the bound in BENCHMARK.json. It refuses
(exit 2) to compare results taken with different kernel backends,
Python or numpy versions, or trace modes: their differences would be
the environment's, not the code's.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MUST_MATCH = ("kernel_backend", "python", "numpy", "scipy")


def load(directory: Path) -> list[dict]:
    results = []
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as fp:
            results.append(json.load(fp))
    if not results:
        raise SystemExit(f"compare: no result files in {directory}")
    return results


def measured(result: dict) -> dict:
    """Every metric a run measured, declared in BENCHMARK.json or not."""
    return result["per_layer"] if result["trace"] else result["end_to_end"]


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(arg)) for arg in sys.argv[1:])
    for key in MUST_MATCH + ("trace",):
        seen = {str(r["provenance"].get(key) if key != "trace" else r["trace"]) for r in base + new}
        if len(seen) > 1:
            print(f"compare: refusing: results differ in {key}: {sorted(seen)}", file=sys.stderr)
            return 2
    bench_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    with open(bench_path, encoding="utf-8") as fp:
        declared = json.load(fp)
    specs = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}

    worse_than_bound = 0
    workloads = sorted({r["provenance"]["workload"] for r in base} & {r["provenance"]["workload"] for r in new})
    print(f"{'workload':<14} {'metric':<34} {'base':>12} {'new':>12} {'change':>8}  n")
    for workload in workloads:
        sides = [[r for r in side if r["provenance"]["workload"] == workload] for side in (base, new)]
        names = [n for n in measured(sides[0][0]) if all(n in measured(r) for s in sides for r in s)]
        for name in names:
            b, n = (statistics.median(measured(r)[name]["value"] for r in s) for s in sides)
            change = (n - b) / b if b else float("nan")
            spec = specs.get(name, {})
            verdict = ""
            if "bound" in spec:
                worse = change if spec["better"] == "lower" else -change
                verdict = "within bound" if worse <= spec["bound"] else f"WORSE than bound {spec['bound']}"
                worse_than_bound += worse > spec["bound"]
            print(f"{workload:<14} {name:<34} {b:12.4f} {n:12.4f} {change:+8.1%}  "
                  f"{len(sides[0])}/{len(sides[1])} {verdict}")
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main())
