"""Host-speed sampling that times are normalised by.

On a shared virtual machine a vCPU changes speed from one second to the
next as other tenants load its physical core and caches: on a 2-vCPU VM a
fixed pure-Python loop took about 1.6 ms in some seconds and 2.6 ms in
others, and 10-second medians of it ranged from 10.8 to 18.9 ms over three
minutes.  CPU time slows down with it, so neither wall nor CPU time of a run
can be compared with a run a few minutes later.

``Sampler`` therefore runs while the benchmark and the children it starts
are pinned to one CPU, and times a short probe every ``INTERVAL_S`` seconds
from a timer signal; the probe interrupts the Python code or, while the
benchmark waits on a child, takes the CPU from the child.  A piece of work
is then reported in *reference seconds*: its measured time, less the probe
ticks that ran inside it, scaled by the host's speed while it ran, as the
probe saw it.  That is its time on a host that runs the probe at its
nominal speed.  The probe has two pure-Python passes: one composes through a
table keyed by string pairs and one builds and copies small dicts, the
kinds of work twogrp does.  Nothing in it depends on twogrp, so a change to the program
moves reference seconds as it moves seconds.
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import time

# Nominal durations of the probe's two passes: close to their fast-state
# times on the 2-vCPU VM the benchmark was written on, so that reference
# seconds read about like seconds there.
REF_S = {"lookup": 0.0003, "alloc": 0.0002}
INTERVAL_S = 0.02

_N = 10
_MORS = [str(k) for k in range(_N)]
_TABLE = {(g, f): str((3 * int(g) + int(f)) % _N) for g in _MORS for f in _MORS}


def lookup_pass() -> int:
    """Composes through a table keyed by string pairs."""
    table, mors = _TABLE, _MORS
    acc = "0"
    seen: dict = {}
    for g in mors:
        for f in mors:
            row = []
            for h in mors:
                acc = table[table[(g, acc)], table[(f, h)]]
                row.append((acc, h))
            seen[(g, f)] = row
    return len(seen) + int(acc)


def alloc_pass() -> int:
    """Builds, copies and drops small dicts and lists."""
    out = []
    held: dict = {}
    for g in _MORS:
        for f in _MORS:
            fam = {(g, f, h): h for h in _MORS}
            copy = dict(held)
            copy[(g, f)] = fam
            out.append(sorted(fam.values()))
            held = copy if len(copy) < 20 else {}
    return len(out)


# A pass that read a buffer larger than the caches was tried as well: it
# evicted the work's own data on every tick, and cli times spread more.
PASSES = {"lookup": lookup_pass, "alloc": alloc_pass}


def pin_to_one_cpu() -> int | None:
    """Pins this process, and every child it starts later, to the lowest
    CPU it may run on, so that probe and work share a CPU.  Returns the CPU,
    or None where affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


class Sampler:
    """Probe ticks taken from a timer signal while entered: tick k ended at
    ``at[k]``, and ``took[name][k]`` is how long its pass ``name`` ran."""

    def __init__(self):
        self.at: list[float] = []
        self.took: dict[str, list[float]] = {name: [] for name in PASSES}
        self._old = None

    def _tick(self, signum, frame) -> None:
        clock = time.perf_counter
        for name, run in PASSES.items():
            t0 = clock()
            run()
            self.took[name].append(clock() - t0)
        self.at.append(clock())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def reference_s(self, t0: float, t1: float) -> float:
        """The time measured over [t0, t1] in reference seconds.  Each pass
        gives the host's mean speed over the ticks inside the interval or,
        for one too short to hold a tick, over the last tick before it and
        the first after.  The passes' speeds enter as their geometric mean:
        under the same load, code that looks up and code that allocates
        slow down by different amounts, and twogrp does both."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_right(self.at, t1)
        own = (t1 - t0) - sum(sum(took[i:j]) for took in self.took.values())
        ticks = range(i, j) or [k for k in (i - 1, j) if 0 <= k < len(self.at)]
        if not ticks:
            return own
        log_speed = sum(math.log(sum(REF_S[name] / took[k] for k in ticks) / len(ticks))
                        for name, took in self.took.items())
        return own * math.exp(log_speed / len(self.took))
