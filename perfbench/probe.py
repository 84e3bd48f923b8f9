"""Setup probe: import doubleslit, generate a workload's inputs, print the time.

Run as ``python3 perfbench/probe.py <workload> <seed>`` by run.py, which
times it from spawn to the perf_counter value printed here. It covers what
a CLI user pays on every invocation: interpreter start, the imports, and
the inputs the workload hands the program.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import doubleslit.cli  # noqa: E402  (the path must be set first)
import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
workloads.WORKLOADS[name].make_inputs(seed, HERE.parent / ".perfbench_out" / name / "probe")
print(repr(time.perf_counter()))
