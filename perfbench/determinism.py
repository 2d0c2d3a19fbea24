"""Check that the traced run's counts repeat exactly for one seed.

    python3 perfbench/determinism.py --workload twig-edit-remote --seed 3

Runs ``run.py --trace 1`` twice with the same seed and compares every
count the traced cycles produce: questions, calls, batches, round trips,
bytes up and down, instances shipped, index builds and patches,
prefetch submitted/hits/wasted, and the cache ratios built from counts.
The traced part is a fixed number of whole cycles, so these must be
equal; any drift is a bug in the benchmark (or in the program's
determinism), not noise.  Exits 1 on drift.
"""

from __future__ import annotations

import argparse
import sys

from sweep import run_once

#: Units of metrics that are counts, not timings.
COUNT_UNITS = ("count/session", "B/session", "ratio")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()
    first, second = (run_once(args.workload, args.seed, args.seconds, 1)
                     for _ in range(2))
    for run in (first, second):
        if run["result"] is None or not run["result"]["correct"]:
            print(run["stderr"], file=sys.stderr)
            print("a traced run failed; nothing to compare")
            return 1
    a = first["result"]["metrics"]
    b = second["result"]["metrics"]
    drift = [(name, a[name]["value"], b[name]["value"]) for name in a
             if a[name]["unit"] in COUNT_UNITS
             and a[name]["value"] != b[name]["value"]]
    compared = sum(1 for m in a.values() if m["unit"] in COUNT_UNITS)
    for name, x, y in drift:
        print(f"DRIFT {name}: {x!r} != {y!r}")
    print(f"{args.workload} seed={args.seed}: {compared} counts compared, "
          f"{len(drift)} drifted")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
