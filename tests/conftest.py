"""Fixtures shared by the per-module suites."""

import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch) -> list[int]:
    """A one-element list counting every ``np.fft`` call made in the test."""
    calls = [0]
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def read_table():
    """Reader of the files the field and CSV writers make: asserts the
    first line is exactly ``header`` and returns the values below it, one
    row per line, with commas between the columns of a row."""

    def read(path, header: str) -> np.ndarray:
        with open(path) as fh:
            assert fh.readline() == header + "\n"
        return np.loadtxt(path, delimiter=",", skiprows=1)

    return read


@pytest.fixture
def traced_peak():
    """Caller of ``fn()`` under tracemalloc, which sees numpy's allocations:
    returns the peak bytes allocated during the call, and fn's result."""

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, result

    return run
