"""Time one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Prints
the seconds spent importing the program and constructing the
workload's circuits and operations, as the last line of its output.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), None)
print(repr(time.perf_counter() - _START))
