"""Runs one workload repeatedly in this process and prints its results as one JSON line.

run.py starts it in a fresh process whose PYTHONPATH names the checkout's
source tree and whose CORRPOOL_WORKERS is the workload's worker count:

    python3 perfbench/measure.py --workload NAME --seed N --seconds S --mode plain|trace --out DIR

plain: untraced iterations for S seconds.
trace: serial. Untraced iterations for S/2 seconds, then traced ones for S/2,
so that trace.overhead_ratio compares like with like and every span lands in
this process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from stats import median
from workloads import WORKLOADS

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src"


class Runs:
    """Wall times, failures and artifact hashes of a workload's iterations."""

    def __init__(self, cli, workload, seed: int, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] | None = None

    def once(self) -> tuple[float, bool]:
        """Run one iteration; its wall time and whether its artifacts passed the checks."""
        for stale in self.out_dir.iterdir():
            stale.unlink()
        argv = self.workload.command(self.seed, self.out_dir)
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # a failing iteration is counted and reported, not fatal
            code = None
            problems = [traceback.format_exc(limit=-3)]
        wall = time.perf_counter() - start
        if code is not None:
            problems = [f"corrpool exited with code {code}"] if code else self.workload.check(self.seed, self.out_dir)
        if not problems:
            hashes = self.workload.hashes(self.out_dir)
            if self.hashes is None:
                self.hashes = hashes
            elif hashes != self.hashes:
                problems.append("artifacts differ between iterations of the same inputs")
        if problems:
            self.failed += 1
            self.problems += problems
        return wall, not problems

    def repeat(self, budget_s: float, min_iterations: int, tracer=None) -> list[float]:
        """Iterate for about budget_s seconds, starting another iteration only
        while a median one would still end within the budget. Stops after the
        first failed iteration."""
        walls: list[float] = []
        start = time.perf_counter()
        while len(walls) < min_iterations or time.perf_counter() - start + median(walls)[0] <= budget_s:
            if tracer is not None:
                tracer.iteration = len(walls)
            wall, ok = self.once()
            walls.append(wall)
            if not ok:
                break
        return walls


def _traced(runs: Runs, seconds: float, workers: int) -> dict:
    import layers
    from corrpool.runner import WORKERS_ENV
    from spans import Tracer

    os.environ[WORKERS_ENV] = "1"
    untraced = runs.repeat(seconds / 2, min_iterations=1)
    untraced_hashes, runs.hashes = runs.hashes, None
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = runs.repeat(seconds / 2, min_iterations=1, tracer=tracer)
    finally:
        tracer.restore()
    if not runs.failed:
        problems = layers.replication_problems(tracer.spans, len(traced), runs.workload.replications)
        if runs.hashes != untraced_hashes:
            problems.append("traced artifacts differ from untraced ones")
        runs.failed += bool(problems)
        runs.problems += problems
    overhead = median(traced)[0] / median(untraced)[0] - 1.0
    per_layer = layers.per_layer_metrics(tracer.spans, len(traced), workers, overhead)
    return {"walls": untraced, "traced_walls": traced, "per_layer": per_layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "trace"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import corrpool
    import corrpool.cli
    from corrpool.runner import worker_count

    if SOURCE_DIR not in Path(corrpool.__file__).resolve().parents:
        print(f"corrpool was imported from {corrpool.__file__}, not from {SOURCE_DIR}", file=sys.stderr)
        return 2
    workers = worker_count()  # under the workload's CORRPOOL_WORKERS
    runs = Runs(corrpool.cli, WORKLOADS[args.workload], args.seed, args.out)
    result = {
        "versions": {"corrpool": corrpool.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__},
        "workers": workers,
    }
    if args.mode == "plain":
        result["walls"] = runs.repeat(args.seconds, min_iterations=2)
        # This process's peak RSS plus that of its largest worker child: the
        # kernel keeps one maximum over all children, not a sum, and the pages
        # a forked worker shares with this process count twice.
        peak_kib = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result["peak_rss_mb"] = peak_kib / 1024.0
    else:
        result.update(_traced(runs, args.seconds, workers))
    result.update(attempted=runs.attempted, failed=runs.failed, problems=runs.problems, hashes=runs.hashes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
