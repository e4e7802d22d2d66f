"""Builds one workload's inputs in a fresh interpreter, then prints "ready".

    python3 benchmark/probe_setup.py <workload> <seed>

run.py times this process from its start to the "ready" line; the
median over several starts is the benchmark's setup_s.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]]().setup(int(sys.argv[2]), os.path.join(HERE, "out", "probe"))
print("ready", flush=True)
