"""The traced benchmark run wraps corrpool functions by module and attribute
name; a refactor that renames or un-imports one would otherwise break only
that run."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_wrap_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "spans", "stats"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    layers = importlib.import_module("layers")
    missing = []
    for module, attribute, *_ in layers.WRAPS:
        owner = importlib.import_module(module)
        try:
            for part in attribute.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{module}.{attribute}")
    assert not missing
