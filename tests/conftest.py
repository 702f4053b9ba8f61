"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def pools(monkeypatch):
    """The list of pools started, one entry each."""
    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(1)
            super().__init__(*args, **kwargs)

    # ``evaluate._RunPool`` imports the class from here at every start
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started
