"""Shared fixtures: the traced peak memory of one call."""

import tracemalloc

import numpy as np
import pytest

# what a traced peak holds beyond its arrays: numpy's iterator buffers (up to
# three operands of np.getbufsize() doubles, for ufuncs on strided operands)
# and small Python objects
PEAK_OVERHEAD = 3 * np.getbufsize() * 8 + 64 * 1024


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args) -> (fn(*args), the peak bytes of the
    allocations tracemalloc traces during the call). Arrays made before the
    call, such as its inputs, are not counted; what it returns is.
    traced_peak.overhead is PEAK_OVERHEAD."""

    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak.overhead = PEAK_OVERHEAD
    return peak
