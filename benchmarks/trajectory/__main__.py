"""``PYTHONPATH=src python -m benchmarks.trajectory`` (from the repo root)."""

import sys
from time import perf_counter

_STARTED = perf_counter()

from benchmarks.trajectory.cli import main  # noqa: E402  (timed import)

if __name__ == "__main__":
    sys.exit(main(import_s=perf_counter() - _STARTED))
