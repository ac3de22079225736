"""Set-up probe: one fresh interpreter doing everything a workload does before its first step.

Usage: python3 perfbench/probe.py WORKLOAD SEED

Prints ``ready`` once the imports, scheme construction and initial field are
done; the parent times the interval from starting this process to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
    print("ready", flush=True)
