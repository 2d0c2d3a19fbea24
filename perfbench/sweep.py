"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/results/head.jsonl
    python3 perfbench/sweep.py --workloads twig-local --seeds 1-5 \
        --seconds 10 --trace 1 --out perfbench/results/traced.jsonl

Run from the root of a checkout.  Each run is one ``run.py`` process;
its result object is appended to ``--out`` as one JSON line with the
workload, seed and trace mode, plus the ``src/`` line count of the
checkout.  At the end, for every workload and metric, it prints the
median and the spread -- the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median -- against the metric's bound from ``BENCHMARK.json``, marking
spreads above a third of the bound (``~``) and above the bound (``!``).
``compare.py`` diffs two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def src_lines() -> int:
    """Lines of Python under ``src/`` (informational, not a gated metric)."""
    total = 0
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as f:
                    total += sum(1 for _ in f)
    return total


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` process; its parsed result plus how it was run."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode,
            "wall_s": time.perf_counter() - start,
            "result": result, "stderr": proc.stderr[-2000:]}


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 when the median is 0)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(median)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def load_runs(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(runs: list[dict], bounds: dict[str, float]) -> None:
    by_key: dict[tuple, list[float]] = {}
    for run in runs:
        if run["result"] is None:
            continue
        for name, metric in run["result"]["metrics"].items():
            by_key.setdefault((run["workload"], name), []).append(
                metric["value"])
    for (workload, name), values in sorted(by_key.items()):
        bound = bounds.get(name)
        s = spread(values)
        mark = ""
        if bound is not None:
            mark = "!" if s > bound else "~" if s > bound / 3 else ""
        print(f"{workload:18s} {name:40s} n={len(values):2d} "
              f"median={statistics.median(values):14.4f} "
              f"spread={s:6.3f}"
              + ("" if bound is None else f" bound={bound:.2f} {mark}"))


def main() -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    lines = src_lines()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            run["src_lines"] = lines
            runs.append(run)
            with open(args.out, "a") as f:
                f.write(json.dumps(run) + "\n")
            ok = run["result"] is not None and run["result"]["correct"]
            print(f"{workload} seed={seed} exit={run['exit']} "
                  f"correct={ok} wall={run['wall_s']:.1f}s", flush=True)
            if not ok:
                print(run["stderr"], file=sys.stderr)
    summarize(runs, {m["name"]: m["bound"] for m in bench["end_to_end"]})
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
