"""Run every workload, each in a fresh interpreter, and print one table.

Usage (from the repository root)::

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload's own lines are printed as it finishes; the table at the end
lists every metric by name and unit, per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [
    w["name"]
    for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    results = {}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
    if not results:
        return 1
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{'metric':32} {'unit':10} " + " ".join(f"{w:>12}" for w in results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        row = " ".join(
            f"{r['metrics'][name]['value']:>12.5g}" for r in results.values()
        )
        print(f"{name:32} {unit:10} {row}")
    for key in ("attempted", "failed", "correct"):
        print(f"{key:43} " + " ".join(f"{str(r[key]):>12}" for r in results.values()))
    return status or int(not all(r["correct"] for r in results.values()))


if __name__ == "__main__":
    sys.exit(main())
