"""Checks that the benchmark is steady: runs every workload of BENCHMARK.json
on ten seeds and prints, for each end-to-end metric, the median and the
distance between the first and third quartiles as a share of the median,
against the bound that BENCHMARK.json fixes for the metric.

    python3 perfbench/spread.py

Run it from the root of a checkout. It exits 1 unless the spread of every
metric stays below a third of its bound and every run's output check passes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
FIRST_SEED = 1


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    steady = True
    for workload in bench["workloads"]:
        name = workload["name"]
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: output check failed", file=sys.stderr)
                steady = False
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        for metric in bench["end_to_end"]:
            xs = values[metric["name"]]
            spread = quartile_spread(xs)
            ok = spread < metric["bound"] / 3
            steady &= ok
            print(f"{name:16s} {metric['name']:12s} median={statistics.median(xs):.6g} "
                  f"spread={spread:.4f} bound/3={metric['bound'] / 3:.4f} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
