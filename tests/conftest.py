"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_bytes_per_row():
    """``measure(call, rows)``: the peak of the memory ``call()`` allocates
    while it runs, under ``tracemalloc``, per row of its input.

    tracemalloc sees numpy's array buffers but not the anonymous shared
    mappings of :func:`inofdm.workers.shared_array`.
    """
    def measure(call, rows):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return (tracemalloc.get_traced_memory()[1] - before) / rows
        finally:
            tracemalloc.stop()
    return measure
