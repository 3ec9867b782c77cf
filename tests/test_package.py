"""Tests for the package's public surface."""

import inspect

import corrpool


def test_all_lists_exactly_the_public_names():
    # every public name the package defines, apart from its submodules, is
    # exported once, and every export resolves: a name that leaves a
    # submodule must leave both the imports and __all__
    public = [name for name, value in vars(corrpool).items() if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(corrpool.__all__) == sorted(public)
