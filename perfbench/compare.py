"""Compare two sets of benchmark run records.

Usage:

    python3 perfbench/compare.py OLD NEW

OLD and NEW are directories (or single files) of the JSON records that
run.py writes to .bench_out/runs/.  Records are grouped by workload and
trace mode; for every metric the medians, the old quartile spread and the
relative change are printed.  Runs of the same workload and seed must give
the same answers digest on both sides.

Refuses (exit 2) to compare runs taken on different rational backends or
HYPERK_BACKEND settings, since their timings measure different arithmetic.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: Path):
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def backend(record):
    env = record["env"]
    return env["backend"], env["HYPERK_BACKEND"]


def spread(values):
    if len(values) < 4:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(Path(argv[0])), load(Path(argv[1]))
    backends = {backend(r) for r in old + new}
    if len(backends) > 1:
        print(f"refusing to compare runs on different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    digests_differ = 0
    groups = sorted({(r["workload"], r["trace"]) for r in old + new})
    for workload, trace in groups:
        a = [r for r in old if (r["workload"], r["trace"]) == (workload, trace)]
        b = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        print(f"== {workload} (trace {trace}): {len(a)} old runs, {len(b)} new runs")
        for key in sorted({k for r in a + b for k in r["metrics"]}):
            va = [r["metrics"][key] for r in a if key in r["metrics"]]
            vb = [r["metrics"][key] for r in b if key in r["metrics"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else float("nan")
            print(f"  {key:<52} {ma:>14.6g} -> {mb:<14.6g} {change:+8.2%}  old spread {spread(va):.3f}")
        da = {r["seed"]: r["workload_summary"].get("answers_digest") for r in a}
        for r in b:
            want = da.get(r["seed"])
            got = r["workload_summary"].get("answers_digest")
            if want is not None and got is not None and want != got:
                print(f"  answers differ for seed {r['seed']}: {want} -> {got}")
                digests_differ += 1
    return 1 if digests_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
