"""Memory measured with tracemalloc, which sees every numpy buffer."""

import tracemalloc


def traced_bytes(fn):
    """fn's result, the tracemalloc peak while it ran and the bytes it
    left allocated, both above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, current - base
