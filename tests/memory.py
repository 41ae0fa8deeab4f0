"""Peak traced memory of one call, the memory it leaves allocated, and the
working-memory bound of the blocked O(n) kernels."""

import tracemalloc

from countfact.sequences import _SUM_BLOCK

# Five float64 blocks measured, whatever n: the compensated sum's three
# working arrays and two blocks of input terms; one more for slack.
BLOCK_WORKSPACE = 6 * 8 * _SUM_BLOCK


def traced_peak(fn) -> int:
    """Largest number of bytes tracemalloc saw allocated while fn ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_growth(fn) -> int:
    """Bytes still allocated after fn returned and its result was dropped,
    beyond those allocated before it ran."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
