"""Start-up cost of a fresh interpreter: import shiftpat.cli, build one workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line {"import_s": ...} once the inputs exist,
then exits. The parent times this process from spawn to that line.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
t0 = time.perf_counter()
import shiftpat.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0
import workloads  # noqa: E402

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print('{"import_s": %r}' % import_s, flush=True)
