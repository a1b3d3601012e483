"""Shared test fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def peak_bytes():
    """``measure(fn, *args) -> (result, peak)``: the call's result and the
    tracemalloc peak of the memory it allocated, in bytes, counted from the
    memory traced when the call starts."""

    def measure(fn, *args):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    return measure
