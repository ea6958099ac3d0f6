"""The repo's benchmark: six workloads over the whole stack, end-to-end
metrics with regression bounds, per-layer probes and a traced run.

See README.md in this directory; run ``python -m benchmarks.trajectory
--help`` (with ``PYTHONPATH=src``) or the command in ``BENCHMARK.json``.
"""
