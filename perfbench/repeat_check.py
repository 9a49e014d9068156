"""Check that a traced run's work counters repeat exactly for one seed.

    python3 perfbench/repeat_check.py --workload cli-mix --seed 1 --seconds 30

Runs ``run.py --trace 1`` twice and compares every per-layer metric whose
unit is ``count`` (calls, term products, max terms, checks, spans).  Exit 0
when all of them match and both runs are correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_counts(workload: str, seed: int, seconds: float) -> tuple[bool, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}
    return result["correct"] and proc.returncode == 0, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    ok1, first = traced_counts(args.workload, args.seed, args.seconds)
    ok2, second = traced_counts(args.workload, args.seed, args.seconds)
    differ = sorted(n for n in first.keys() | second.keys() if first.get(n) != second.get(n))
    for name in differ:
        print(f"{name}: {first.get(name)} != {second.get(name)}")
    print(f"{args.workload} seed {args.seed}: {len(first)} counters, "
          f"{len(differ)} differ, runs correct: {ok1 and ok2}")
    return 0 if ok1 and ok2 and not differ else 1


if __name__ == "__main__":
    sys.exit(main())
