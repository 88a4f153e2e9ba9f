import tracemalloc

import pytest


def _traced_peak(call):
    """(call(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
