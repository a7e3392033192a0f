"""A traced benchmark run stays correct and accounts for every span.

``perfbench/run.py --trace 1`` checks every verdict against its known answer
and cross-checks the tracer's spans against the reports (engine rows,
loading commands, conversions).  A change that breaks either shows here
rather than only when the benchmark is run.  The attribution share is left
out: it depends on timing.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_sweep_run_is_correct_and_its_span_counts_match():
    argv = ["--workload", "sweep", "--seed", "3", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    assert result["failed"] == 0, info["failures"]
    assert info["selfcheck"]
    for name, (spans, expected) in info["selfcheck"].items():
        assert spans == expected, name
