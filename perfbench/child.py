"""Launch the countfact CLI as a cold process and report when its import ends.

Usage: python3 perfbench/child.py ARGV...       runs countfact.cli.main(ARGV)
       python3 perfbench/child.py --import-only  prints versions as JSON

The parent puts the checkout's ``src`` on PYTHONPATH.  Right after
``import countfact.cli`` returns, one line ``perfbench-imported <ns>`` goes to
stderr, where <ns> is CLOCK_MONOTONIC in nanoseconds.  The parent reads the
same clock just before it spawns this process, so the difference is the
CLI's set-up time.  Everything after that line is what the ``countfact``
console script does.
"""

import sys
import time

IMPORTED_MARKER = "perfbench-imported"

if __name__ == "__main__":
    import countfact.cli

    imported_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    print(f"{IMPORTED_MARKER} {imported_ns}", file=sys.stderr, flush=True)
    if sys.argv[1:] == ["--import-only"]:
        import json
        import platform

        import numpy

        print(json.dumps({
            "countfact_file": countfact.cli.__file__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }))
        sys.exit(0)
    sys.exit(countfact.cli.main(sys.argv[1:]))
