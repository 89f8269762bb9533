"""Fixtures shared by the execution-backend suites."""

from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.exec.backends as backends_module


@pytest.fixture
def submissions(monkeypatch):
    """Every worker function a process pool built in the test submits."""
    submitted = []

    class CountingExecutor(ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(backends_module, "ProcessPoolExecutor", CountingExecutor)
    return submitted
