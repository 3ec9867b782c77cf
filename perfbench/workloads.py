"""The benchmark's workloads: the corrpool command each one runs and the checks
on the artifacts it writes.

The workload seed is the benchmark's argument; corrpool receives only the
generated config file and command line, as a user would pass them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from stats import hash_mismatches, sha256_file

DEFAULT_SEED = 0
GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"

POPULATION_SIZE = 12000
BETA_BAR = 0.05
# Sized so that one iteration takes about 10-16 s on 2 cores and a 25 s run
# holds two of them. Every workload calibrates tau, 3-4 s a call. In
# simulate_us6 the replications take about two thirds of an iteration, so
# pooling changes outweigh calibration changes there; sweep_grid calibrates
# four times, which is most of its iteration.
SIMULATE_REPLICATIONS = 360
SWEEP_REPLICATIONS = 24
SWEEP_ALPHAS = (0.01, 0.1)
SWEEP_POOL_SIZES = (2, 40)
DELTA_N = 6
# The delta-prime sampler draws loads in chunks of min(4*n*B, 4e6) until it
# has kept n*B individual-test misses (about 5% of draws). Below the cap that
# takes almost exactly 5 chunks, so work and memory jump between seeds. At
# B = 180000 a capped chunk yields about 2e5 misses and 1.08e6 are needed:
# 6 chunks for every seed.
DELTA_B = 180_000
DELTA_BOOTSTRAP = 1000


def _scenario(seed: int, replications: int) -> dict:
    """The paper's baseline cell: N=12000, n=6, alpha=1%, q=0.166, US households."""
    return {
        "alpha": 0.01,
        "q": 0.166,
        "household_dist": "US",
        "pool_size": 6,
        "beta_bar": BETA_BAR,
        "population_size": POPULATION_SIZE,
        "replications": replications,
        "master_seed": seed,
        "strategies": ["naive", "correlated"],
    }


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _simulate_command(seed: int, out_dir: Path) -> list[str]:
    config = out_dir / "config.json"
    config.write_text(json.dumps(_scenario(seed, SIMULATE_REPLICATIONS), indent=2) + "\n")
    return ["simulate", "--config", str(config),
            "--output-json", str(out_dir / "summary.json"),
            "--output-csv", str(out_dir / "replications.csv")]


def _sweep_command(seed: int, out_dir: Path) -> list[str]:
    config = out_dir / "config.json"
    config.write_text(json.dumps(_scenario(seed, SWEEP_REPLICATIONS), indent=2) + "\n")
    return ["sweep", "--config", str(config),
            "--alphas", ",".join(map(str, SWEEP_ALPHAS)),
            "--pool-sizes", ",".join(map(str, SWEEP_POOL_SIZES)),
            "--output", str(out_dir / "sweep.csv")]


def _delta_command(seed: int, out_dir: Path) -> list[str]:
    return ["delta-bound", "--n", str(DELTA_N), "--beta-bar", str(BETA_BAR),
            "--b", str(DELTA_B), "--bootstrap-reps", str(DELTA_BOOTSTRAP),
            "--seed", str(seed), "--output", str(out_dir / "delta.csv")]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int  # CORRPOOL_WORKERS for the untraced run
    replications: int  # per iteration, each running both strategies
    work: int  # units of work per iteration, the numerator of work_per_s
    artifacts: tuple[str, ...]
    # command(seed, out_dir) writes any config file into out_dir and returns
    # the corrpool command line; invariants(seed, out_dir) lists problems.
    command: Callable[[int, Path], list[str]]
    invariants: Callable[[int, Path], list[str]]

    def hashes(self, out_dir: Path) -> dict[str, str]:
        return {name: sha256_file(out_dir / name) for name in self.artifacts}

    def check(self, seed: int, out_dir: Path) -> list[str]:
        """Problems with the artifacts in out_dir; empty when they are correct.

        At DEFAULT_SEED the artifacts must also match the recorded hashes.
        """
        try:
            problems = self.invariants(seed, out_dir)
            if seed == DEFAULT_SEED and not problems:
                expected = golden().get(self.name, {})
                for name in hash_mismatches(self.hashes(out_dir), expected):
                    problems.append(f"{name} differs from the recorded default-seed output")
        except (OSError, KeyError, ValueError, TypeError) as exc:
            return [f"unreadable artifacts: {exc!r}"]
        return problems


def _check_simulate(seed: int, out_dir: Path) -> list[str]:
    problems = []
    summary = json.loads((out_dir / "summary.json").read_text())
    echo = summary["config"]
    if echo["master_seed"] != seed or echo["replications"] != SIMULATE_REPLICATIONS:
        problems.append("summary config echo does not match the generated config")
    if not isinstance(echo["tau"], int) or echo["tau"] < 1:
        problems.append("summary tau is not a positive integer")
    if sorted(summary["strategies"]) != ["correlated", "naive"]:
        problems.append("summary lacks a strategy")
    rows = _read_csv(out_dir / "replications.csv")
    pools = math.ceil(POPULATION_SIZE / 6)
    broken = {
        "pooled tests != ceil(N/n)": [r for r in rows if int(r["pooled_tests"]) != pools],
        "D outside [0, S]": [r for r in rows if not 0 <= int(r["D_total"]) <= int(r["S_total"])],
        "negative follow-up count": [r for r in rows if int(r["followup_tests"]) < 0],
    }
    for what, bad in broken.items():
        if bad:
            problems.append(f"{len(bad)} replication rows: {what}")
    seen = {(r["strategy"], int(r["replication"])) for r in rows}
    expected = {(s, r) for s in ("naive", "correlated") for r in range(SIMULATE_REPLICATIONS)}
    if seen != expected or len(rows) != len(expected):
        problems.append("replication CSV does not hold one row per strategy and replication")
    return problems


def _check_sweep(seed: int, out_dir: Path) -> list[str]:
    problems = []
    rows = _read_csv(out_dir / "sweep.csv")
    cells = [(r["strategy"], float(r["alpha"]), int(r["pool_size"])) for r in rows]
    expected = [(s, a, n) for a in SWEEP_ALPHAS for n in SWEEP_POOL_SIZES for s in ("naive", "correlated")]
    if sorted(cells) != sorted(expected) or len(cells) != len(expected):
        problems.append("sweep CSV does not hold one row per strategy and cell")
    for row in rows:
        n = int(row["pool_size"])
        if not 0 <= float(row["sensitivity"]) <= 1:
            problems.append(f"sweep cell {row['alpha']},{n}: sensitivity outside [0, 1]")
        if not 0 < float(row["efficiency"]) <= n:
            problems.append(f"sweep cell {row['alpha']},{n}: efficiency outside (0, n]")
    return problems


def _check_delta(seed: int, out_dir: Path) -> list[str]:
    problems = []
    rows = _read_csv(out_dir / "delta.csv")
    if len(rows) != 1:
        return ["delta-bound CSV does not hold exactly one row"]
    row = rows[0]
    point, low, high = float(row["delta_prime"]), float(row["ci_low"]), float(row["ci_high"])
    if int(row["n"]) != DELTA_N or float(row["beta_bar"]) != BETA_BAR:
        problems.append("delta-bound row is for another cell")
    if not 0 < low <= point <= high:
        problems.append("delta-bound CI does not bracket a positive point estimate")
    if int(row["achieved_b"]) != DELTA_B:
        problems.append("delta-bound achieved_b != B")
    if row["ci_reliable"] != "True":
        problems.append("delta-bound CI flagged unreliable")
    return problems


_SWEEP_TOTAL = SWEEP_REPLICATIONS * len(SWEEP_ALPHAS) * len(SWEEP_POOL_SIZES)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate_us6", 1, SIMULATE_REPLICATIONS, SIMULATE_REPLICATIONS,
                 ("summary.json", "replications.csv"), _simulate_command, _check_simulate),
        Workload("sweep_grid", 2, _SWEEP_TOTAL, _SWEEP_TOTAL, ("sweep.csv",), _sweep_command, _check_sweep),
        # delta-bound runs no replications; its work is the conditional loads kept, B*(n+1)
        Workload("delta_bound_n6", 1, 0, DELTA_B * (DELTA_N + 1), ("delta.csv",), _delta_command, _check_delta),
    )
}


def golden() -> dict:
    """Artifact hashes recorded at DEFAULT_SEED, keyed by workload."""
    return json.loads(GOLDEN_FILE.read_text())["hashes"]
