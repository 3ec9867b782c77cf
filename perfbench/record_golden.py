"""Records the artifact hashes that the benchmark expects at its default seed.

    python3 perfbench/record_golden.py

Run it only to re-baseline on purpose, when a change is meant to alter
corrpool's output at fixed seeds; say so where the change is recorded.
"""

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corrpool.cli  # noqa: E402

from workloads import DEFAULT_SEED, GOLDEN_FILE, WORKLOADS  # noqa: E402


def main() -> int:
    out_root = HERE.parent / ".perfbench_out" / f"golden-{os.getpid()}"
    hashes = {}
    try:
        for name, workload in WORKLOADS.items():
            out_dir = out_root / name
            out_dir.mkdir(parents=True)
            os.environ["CORRPOOL_WORKERS"] = str(workload.workers)
            with contextlib.redirect_stdout(io.StringIO()):
                code = corrpool.cli.main(workload.command(DEFAULT_SEED, out_dir))
            problems = [f"exit code {code}"] if code else workload.invariants(DEFAULT_SEED, out_dir)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            hashes[name] = workload.hashes(out_dir)
            print(f"{name}: {hashes[name]}")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    GOLDEN_FILE.write_text(json.dumps({"seed": DEFAULT_SEED, "hashes": hashes}, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
