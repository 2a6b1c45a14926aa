"""Benchmark of this repository's optimizer and analysis pipeline.

Entry point: ``python3 perfbench/run.py --workload NAME``.  See
``run.py`` for the command line and the result format, ``workloads.py``
for what each workload runs and why, and ``tracer.py`` for the
per-layer tracing.
"""
