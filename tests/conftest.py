"""Shared test set-up."""

import os

import pytest

from corrpool.runner import WORKERS_ENV


@pytest.fixture(autouse=True)
def _at_most_two_workers(monkeypatch):
    # the worker count defaults to every CPU the process may run on; a test
    # that sets none runs on two, however many CPUs the host has
    monkeypatch.setenv(WORKERS_ENV, os.environ.get(WORKERS_ENV, "2"))
