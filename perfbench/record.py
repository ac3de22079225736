"""Record the expected outcome of every workload at seed 0 into expected.json.

Usage: python3 perfbench/record.py [WORKLOAD ...]

Run this only on a commit whose results are trusted: the correctness gate
compares later passes with what it writes.  Without arguments every
workload is recorded; named workloads replace only their own entries.
"""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import EXPECTED_PATH, WORKLOADS  # noqa: E402


def dump(table: dict) -> str:
    """JSON with every innermost list (one run's outcome) on a single line."""
    text = json.dumps(table, indent=1, sort_keys=True)
    return re.sub(r"\[([^\[\]{}]*)\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


if __name__ == "__main__":
    names = sys.argv[1:] or list(WORKLOADS)
    table = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    for name in names:
        workload = WORKLOADS[name]
        summary = workload.summarize(workload.run_pass(0), 0)
        # Checked against itself, the pass must still meet every check that
        # does not compare with a record, the criterion-09 slopes included.
        attempted, failures = workload.check(summary, summary)
        if failures:
            sys.exit(f"{name}: refusing to record, the gate fails: {failures[:5]}")
        table[name] = {"inputs": workload.inputs(0), "outcome": summary}
        print(f"{name}: recorded {attempted} runs")
    EXPECTED_PATH.write_text(dump(table))
