"""Peak traced memory of one call, the memory it leaves allocated, its
peak resident memory, and the working-memory bound of the blocked O(n)
kernels."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import countfact
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


# Run in a fresh interpreter: the resident set just before the measured
# statement, then the peak resident set (VmHWM) after it, both in bytes.
_RSS_SCRIPT = """\
import os
{setup}
with open("/proc/self/statm") as statm:
    before = int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
{call}
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(peak * 1024 - before)
"""


def rss_growth(setup: str, call: str) -> int:
    """Bytes by which the peak resident set of a fresh interpreter grows
    above its resident set just before the statement ``call`` runs, after
    the statements ``setup``.

    Unlike tracemalloc this sees every allocation, numpy's FFT work
    buffers too.  The peak is the kernel's high-water mark of the
    interpreter's own memory map (VmHWM), not ru_maxrss, which keeps the
    resident set of the process that spawned it across the exec: under a
    test runner of a few hundred MB it would hide the growth measured
    here.  A peak reached during ``setup`` above the resident set before
    ``call`` counts in the growth, so ``setup`` should only import.  Skips
    off Linux, which alone has /proc/self/status.
    """
    if sys.platform != "linux":
        pytest.skip("the peak resident set is read from /proc/self/status, on Linux only")
    src = Path(countfact.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT.format(setup=setup, call=call)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return int(result.stdout)
