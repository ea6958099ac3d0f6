"""Entry point named by ``BENCHMARK.json``.

Run from the root of a checkout as ``python3 benchmarks/trajectory/run.py
--workload W --seed N --seconds S --trace 0|1``.  It puts the checkout
and its ``src`` on ``sys.path`` (the contract passes no environment) and
hands over to :mod:`benchmarks.trajectory.cli`; spawned peers inherit
the path.  In a directory without ``src/repro`` the import fails and the
exit code is non-zero, as the contract requires.
"""

import os
import sys
from time import perf_counter

_STARTED = perf_counter()
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]

from benchmarks.trajectory.cli import main  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    sys.exit(main(import_s=perf_counter() - _STARTED))
