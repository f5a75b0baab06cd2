"""End-to-end figure-family benchmark with outside-in layer tracing.

``python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0``
runs one workload (``census``, ``verify`` or ``sweep``) and prints the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` prints the
per-layer metrics instead.  See ``perfbench/README.md``.
"""
