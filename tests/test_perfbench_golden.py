"""Every benchmark workload, run once at its default seed, writes artifacts
that pass the benchmark's own checks, recorded hashes included, so a change
that alters an artifact fails here before the benchmark runs."""

import contextlib
import importlib
import io
import sys
from pathlib import Path

from corrpool import cli
from corrpool.runner import WORKERS_ENV

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_workload_matches_its_golden_artifacts(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "stats"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")
    problems = {}
    for name, workload in workloads.WORKLOADS.items():
        out_dir = tmp_path / name
        out_dir.mkdir()
        monkeypatch.setenv(WORKERS_ENV, str(workload.workers))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(workload.command(workloads.DEFAULT_SEED, out_dir))
        problems[name] = [f"exit code {code}"] if code else workload.check(workloads.DEFAULT_SEED, out_dir)
    assert problems == {name: [] for name in workloads.WORKLOADS}
