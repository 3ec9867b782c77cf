"""The traced benchmark run wraps corrpool functions by module and attribute
name, and its counters read some of their arguments by position or by name; a
refactor that renames or un-imports one, or moves a parameter a counter reads,
would otherwise break only that run."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# counter in perfbench/layers.py -> (position, name) of each argument it reads
COUNTER_ARGUMENTS = {
    "_tail_counts": [(0, "counts"), (2, "tau")],
    "_delta_counts": [(0, "n"), (4, "B")],
    "_split_counts": [(0, "population")],
    "_written_bytes": [(1, "path")],
}


@pytest.fixture
def wraps(monkeypatch):
    """perfbench's WRAPS: (module, attribute, span name, counter, boundary)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "spans", "stats"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("layers").WRAPS


def _resolve(module, attribute):
    """The object at module.attribute, or None if it does not exist."""
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_benchmark_wrap_targets_resolve(wraps):
    missing = [f"{module}.{attribute}" for module, attribute, *_ in wraps if _resolve(module, attribute) is None]
    assert not missing


def test_benchmark_counters_find_their_arguments(wraps):
    # a counter reads args[position] when the argument came positionally and
    # kwargs[name] otherwise, so the parameter must sit at that position or be
    # keyword-only
    checked = set()
    for module, attribute, _, count, _ in wraps:
        if count is None or count.__name__ not in COUNTER_ARGUMENTS:
            continue
        parameters = inspect.signature(_resolve(module, attribute)).parameters
        names = list(parameters)
        for position, name in COUNTER_ARGUMENTS[count.__name__]:
            assert name in parameters, (module, attribute, name)
            assert (
                names.index(name) == position or parameters[name].kind is inspect.Parameter.KEYWORD_ONLY
            ), (module, attribute, name)
        checked.add(count.__name__)
    assert checked == set(COUNTER_ARGUMENTS)
