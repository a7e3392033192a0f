"""Peak memory and wall time of each command of the benchmark's cli workload.

    python tools/cli_peaks.py [--tree PATH] [--seed N] [--runs K]

Runs the cli workload's set-up (its two ``fixture`` commands) and then its
commands in order, each as a fresh ``python -m twogrp.cli`` child importing
``PATH/src`` (default: this tree), ``K`` times over (default 3), each started by a small launcher
process.  Prints one line per command: the median wall seconds and the
median peak resident set (``ru_maxrss`` of the child, from ``wait4``) over
the runs, and whether every
run gave the workload's known answer.  The command list and the answers are
``perfbench/workloads.py``'s; the documents go to a temporary directory that
is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# the launcher of every measured child: a fresh interpreter that starts the
# command, waits for it and writes its exit status, wall seconds and
# ``ru_maxrss`` to the file named first.  A child forked straight from this
# process would start from this process's high-water mark (it reads the
# 45 MB documents to compare them), and ``ru_maxrss`` would report that.
LAUNCHER = """import json, os, subprocess, sys, time
started = time.perf_counter()
_, status, usage = os.wait4(subprocess.Popen(sys.argv[2:]).pid, 0)
with open(sys.argv[1], "w") as fh:
    json.dump([os.waitstatus_to_exitcode(status), time.perf_counter() - started, usage.ru_maxrss], fh)
"""


def run_child(cmd: list[str], env: dict, cwd: str) -> tuple[tuple[int, str, str], float, float]:
    """``(exit code, stdout, stderr)``, wall seconds and peak RSS in MB of
    one child."""
    with tempfile.TemporaryDirectory() as tmp:
        result = os.path.join(tmp, "result.json")
        proc = subprocess.run([sys.executable, "-c", LAUNCHER, result, *cmd], env=env, cwd=cwd,
                              capture_output=True, text=True)
        with open(result, encoding="utf-8") as fh:
            code, wall, peak_kb = json.load(fh)
    return (code, proc.stdout, proc.stderr), wall, peak_kb / 1024


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", default=ROOT, help="the source tree whose src/ the children import")
    p.add_argument("--seed", type=int, default=7101)
    p.add_argument("--runs", type=int, default=3)
    args = p.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(ROOT, "perfbench")]
    import workloads

    measured: dict[str, list] = {}
    child = workloads.run_child

    def setup_child(cmd, env, cwd, timeout=None):  # the set-up's fixture commands, measured
        out, wall, peak = run_child(cmd, env, cwd)
        measured.setdefault(" ".join(cmd[3:7]), []).append((wall, peak, out[0] == 0))
        return out

    workload = workloads.Cli(args.seed)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.runs):
            workloads.run_child = setup_child
            os.chdir(tree)  # the set-up points its children at the working directory's src/
            try:
                state = workload.setup(tmp)
            finally:
                os.chdir(cwd)
                workloads.run_child = child
            for job in workload.jobs(state, 0):
                out, wall, peak = run_child([sys.executable, "-m", "twogrp.cli", *job.argv], state.env, tmp)
                measured.setdefault(job.name, []).append((wall, peak, not job.check(out)))
    print(f"{'command':32s} {'wall_s':>8s} {'peak_mb':>8s}  answer")
    for name, runs in measured.items():
        walls, peaks, right = zip(*runs)
        print(f"{name:32s} {statistics.median(walls):8.3f} {statistics.median(peaks):8.1f}  "
              f"{'ok' if all(right) else 'WRONG'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
