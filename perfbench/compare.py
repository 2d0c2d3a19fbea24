"""Diff two sweep result files: the perf ledger.

    python3 perfbench/compare.py base.jsonl head.jsonl

For every workload and end-to-end metric it prints both medians and the
change, and flags (``WORSE``) any metric whose head median is worse than
the base median by more than its bound in ``BENCHMARK.json``; a change
smaller than the base runs' own spread is marked ``noise``.  Files come
from ``sweep.py --trace 0``.  It also prints the ``src/`` line count
recorded with each file, as information: the line count is not gated.
Exits 1 when any metric is flagged.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from sweep import load_benchmark, load_runs, spread


def medians(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"] or run["result"] is None:
            continue
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args()
    metrics = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    base_runs, head_runs = load_runs(args.base), load_runs(args.head)
    base, head = medians(base_runs), medians(head_runs)
    flagged = 0
    print(f"{'workload':18s} {'metric':24s} {'base':>12s} {'head':>12s} "
          f"{'change':>8s} {'bound':>6s}")
    for workload, name in sorted(set(base) & set(head)):
        metric = metrics.get(name)
        if metric is None:
            continue
        b = statistics.median(base[(workload, name)])
        h = statistics.median(head[(workload, name)])
        change = (h - b) / b if b else 0.0
        worse = change if metric["better"] == "lower" else -change
        note = ""
        if worse > metric["bound"]:
            note = "WORSE"
            flagged += 1
        elif abs(change) <= spread(base[(workload, name)]):
            note = "noise"
        print(f"{workload:18s} {name:24s} {b:12.4f} {h:12.4f} "
              f"{change:+8.1%} {metric['bound']:6.2f} {note}")
    for label, runs in (("base", base_runs), ("head", head_runs)):
        counts = sorted({r.get("src_lines") for r in runs} - {None})
        print(f"src/ lines ({label}): "
              f"{', '.join(map(str, counts)) or 'not recorded'}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
