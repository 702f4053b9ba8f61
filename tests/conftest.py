"""Fixtures shared by the test modules."""

import multiprocessing.pool

import pytest


@pytest.fixture
def pools(monkeypatch):
    """The list of pools started, one entry each."""
    started = []

    class Counted(multiprocessing.pool.Pool):
        def __init__(self, *args, **kwargs):
            started.append(1)
            super().__init__(*args, **kwargs)

    # ``get_context("fork").Pool(...)`` looks the class up here at every call
    monkeypatch.setattr(multiprocessing.pool, "Pool", Counted)
    return started
