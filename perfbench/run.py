"""corrpool benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones (wall_s, work_per_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones of layers.py,
measured in a separate serial traced process. The lines before it give each
metric's sample count, fail_ratio and the run's provenance.

Each measurement runs in a child process started from here, so the
benchmark's own imports never count towards corrpool's set-up or memory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import layers
from stats import median
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE_DIR = ROOT / "src"
PACKAGE = SOURCE_DIR / "corrpool"
OUT_ROOT = ROOT / ".perfbench_out"
# Set-up probes before and again after the timed run, so that their median
# spans the run rather than a few seconds of a host whose speed drifts;
# one warm-up probe before them is discarded.
SETUP_PROBES = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def run_child(cmd: list[str], env: dict, deadline: float) -> dict:
    """Run a child in its own process group; return its last stdout line as JSON.

    On timeout the whole group is killed, so pool workers do not outlive it.
    """
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{Path(cmd[1]).name} timed out") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray grandchildren, if any
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{Path(cmd[1]).name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure_setup(probe: list[str], env: dict, deadline: float, count: int) -> list[float]:
    return [run_child(probe, env, deadline)["setup_s"] for _ in range(count)]


def provenance(args, child: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **child["versions"],
        "git_commit": commit,
        "seed": args.seed,  # also corrpool's master seed
        "workers": child["workers"],
    }


def end_to_end(workload, child: dict, setup: list[float]) -> dict[str, tuple[float, int]]:
    walls = child["walls"]
    return {
        "wall_s": median(walls),
        "work_per_s": median([workload.work / w for w in walls]),
        "setup_s": median(setup),
        "peak_rss_mb": (child["peak_rss_mb"], 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="corrpool benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no corrpool source tree at {PACKAGE}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        print("--seed must be a 64-bit unsigned integer and --seconds positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, CORRPOOL_WORKERS=str(workload.workers),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SOURCE_DIR), os.environ.get("PYTHONPATH")])))
    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        shutil.rmtree(out_dir, ignore_errors=True)  # left by a killed run with this pid
        out_dir.mkdir(parents=True)
        (out_dir / "setup").mkdir()
        probe = [sys.executable, str(HERE / "probe_setup.py"),
                 json.dumps(workload.command(args.seed, out_dir / "setup"))]
        setup = [] if args.trace else measure_setup(probe, env, deadline, SETUP_PROBES + 1)[1:]
        (out_dir / "run").mkdir()
        child = run_child(
            [sys.executable, str(HERE / "measure.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--mode", "trace" if args.trace else "plain",
             "--out", str(out_dir / "run")],
            env, deadline)
        if not args.trace:
            setup += measure_setup(probe, env, deadline, SETUP_PROBES)
    except (ChildFailed, ValueError, KeyError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        metrics, units = child["per_layer"], layers.PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(workload, child, setup), END_TO_END_UNITS
    attempted, failed = child["attempted"], child["failed"]
    print(f"corrpool benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, samples) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]:6s} n={samples}")
    print(f"  {'fail_ratio':36s} {failed / attempted:>16.6g} {'ratio':6s} ({failed} of {attempted} runs)")
    for label, walls in (("untraced", child["walls"]), ("traced", child.get("traced_walls", []))):
        if walls:
            print(f"  {label} iterations (s): " + " ".join(f"{w:.4f}" for w in walls))
    for problem in child["problems"]:
        print(f"  problem: {problem.strip()}")
    print("provenance " + json.dumps(provenance(args, child), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
