"""twogrp benchmark.

    python3 perfbench/run.py --workload grid|cli|sweep --seed N --seconds S --trace 0|1

Run from the root of a twogrp source tree: the program is imported from
``src/``, and generated documents go to a temporary directory under
``.perfbench_tmp/`` that is removed at the end.  Inputs are drawn from
``--seed``.  A run sets up the workload several times (``setup_s`` is the
median), then runs rounds of the workload's job list, one job at a time (a
closed loop with one client), until ``--seconds`` have passed and the
workload's minimum number of rounds is done; the round under way always
completes.  Every round runs the same jobs (a workload may send a job more
than once a round), and each job's time is its median over all its
sendings.  Every verdict is checked against its known answer
after its round, outside the timed section.

The end-to-end times (``setup_s``, ``wall_s``, ``job_s_p50`` and the
``instances_per_s`` they give) are in reference seconds: the run is pinned
to one CPU, a probe samples that CPU's speed fifty times a second, and each
job's measured time is scaled to a host that runs the probe at a fixed
speed (see ``speed.py``).  A shared VM changes speed by half from one second
to the next, so plain seconds of two runs minutes apart do not compare; the
measured seconds are on the info line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.  The
line before it records the environment, the inputs drawn and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from speed import Sampler, pin_to_one_cpu

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
HASH_SEED = "0"
ATTRIBUTION_TOLERANCE = 0.05


def _now() -> float:
    return time.perf_counter()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(root: str, workload) -> dict:
    src = os.path.join(root, "src", "twogrp")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    numpy_ok = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                              timeout=60).returncode == 0
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "numpy_imports": numpy_ok,
        "hash_seed": HASH_SEED,
        "workload": workload.name,
        "inputs": workload.inputs(),
    }


@dataclass
class Pass:
    """One pass over the rounds of a workload."""

    walls: list = field(default_factory=list)
    times: list = field(default_factory=list)  # per job, its time at each sending (reference seconds)
    raw: list = field(default_factory=list)  # per job, its measured seconds at each sending
    instances: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)

    @property
    def job_s(self) -> list:
        """Each job's median time over all its sendings."""
        return [statistics.median(t) for t in self.times]

    @property
    def round_s(self) -> float:
        """A round with every job at its median time."""
        return sum(self.job_s)


class Runner:
    """Executes jobs; in a traced pass it also collects the spans."""

    def __init__(self, workload, tmp: str):
        self.workload = workload
        self.tmp = tmp
        self.traced = False
        self.tracer = None  # in-process only; cli children run their own
        self.spans: list = []
        self.entries: dict = {}
        self.spawn_s = 0.0
        self.install_s = 0.0
        self.loads = 0
        self.job_walls: dict = {}

    def execute(self, job, job_id: str):
        if self.workload.inprocess:
            if self.tracer is None:
                return job.run()
            self.tracer.job = job_id
            try:
                return job.run()
            finally:
                self.tracer.job = None
        from workloads import run_child

        if not self.traced:
            return run_child([sys.executable, "-m", "twogrp.cli", *job.argv], self.state.env, self.tmp)
        spans_path = os.path.join(self.tmp, "spans.json")
        started = _now()
        out = run_child([sys.executable, os.path.join(BENCH_DIR, "launch.py"), spans_path, *job.argv],
                        self.state.env, self.tmp)
        elapsed = _now() - started
        with open(spans_path, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(spans_path)
        base = len(self.spans)
        inside = 0.0
        for s in data["spans"]:
            if s[3] < 0:
                inside += s[2] - s[1]
            else:
                s[3] += base
            s[4] = job_id
            self.spans.append(s)
        for k, v in data["entries"].items():
            self.entries[k] = self.entries.get(k, 0) + v
        self.install_s += data["install_s"]
        self.spawn_s += elapsed - inside - data["install_s"]
        self.loads += job.loads
        return out

    def run(self, state, seconds: float, sampler: Sampler | None = None) -> Pass:
        """Rounds until ``seconds`` have passed and ``min_rounds`` are done;
        job times are in reference seconds when a sampler runs."""
        from verify import loop_instances

        self.state = state
        res = Pass()
        res.digest.update(json.dumps(self.workload.inputs(), sort_keys=True).encode())
        first = _now()
        while True:
            rnd = len(res.walls)
            jobs = self.workload.jobs(state, rnd)
            slot: dict = {}  # a job sent more than once keeps the slot of its first sending
            for job in jobs:
                slot.setdefault(id(job), len(slot))
            outs = []
            started = _now()
            for i, job in enumerate(jobs):
                t0 = _now()
                try:
                    out, err = self.execute(job, f"{rnd}:{i}"), None
                except Exception as exc:  # a job that raises counts as failed
                    out, err = None, f"{type(exc).__name__}: {exc}"
                t1 = _now()
                outs.append((slot[id(job)], job, out, err, t0, t1))
                self.job_walls[f"{rnd}:{i}"] = (job.name, t1 - t0)
            res.walls.append(_now() - started)
            if rnd == 0:
                res.times = [[] for _ in slot]
                res.raw = [[] for _ in slot]
            counted = set()
            for j, job, out, err, t0, t1 in outs:
                res.raw[j].append(t1 - t0)
                res.times[j].append(sampler.reference_s(t0, t1) if sampler else t1 - t0)
                res.attempted += 1
                res.digest.update(job.name.encode() + b"\n")
                problems = [err] if err else []
                if not err:
                    try:
                        problems = job.check(out)
                        if j not in counted:  # a round counts each job's instances once, as wall_s times it once
                            counted.add(j)
                            res.instances += loop_instances(job.rows(out))
                    except Exception as exc:  # a verdict the checker cannot read fails the job
                        problems = [f"check raised {type(exc).__name__}: {exc}"]
                if problems:
                    res.failures.append({"job": job.name, "round": rnd, "problems": problems[:3]})
            if len(res.walls) >= self.workload.min_rounds and _now() - first >= seconds:
                return res


def setup_once(workload, tmp, sampler=None):
    """Builds the workload's inputs; returns them and the time it took, in
    reference seconds when a sampler runs."""
    started = _now()
    state = workload.setup(tmp)
    ended = _now()
    return state, sampler.reference_s(started, ended) if sampler else ended - started


def peak_rss_mb(inprocess: bool) -> float:
    who = resource.RUSAGE_SELF if inprocess else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name in ("validations_per_structure", "trace.attributed_share"):
        return "ratio"
    return "count"


def measure_untraced(args, workload, runner, tmp):
    setups = []
    state = None
    with Sampler() as sampler:
        for _ in range(SETUPS):
            state = None  # let the previous set-up go before building the next
            state, dt = setup_once(workload, tmp, sampler)
            setups.append(dt)
        res = runner.run(state, args.seconds, sampler)
    job_s = res.job_s
    raw_s = [statistics.median(t) for t in res.raw]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (res.round_s, "s"),
        "job_s_p50": (statistics.median(job_s), "s"),
        "instances_per_s": (res.instances / len(res.walls) / res.round_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(workload.inprocess), "MB"),
    }
    info = {"rounds": len(res.walls), "round_walls_s": [round(w, 3) for w in res.walls],
            "measured_s": {"wall_s": sum(raw_s), "job_s_p50": statistics.median(raw_s)},
            "jobs_per_round": len(job_s), "instances": res.instances,
            "inputs_sha256": res.digest.hexdigest()[:16]}
    return metrics, res.attempted, res.failures, info, []


def measure_traced(args, workload, runner, tmp):
    """Per-layer figures.  Self times include the wrappers' own cost, so
    with the cli children's start-up they must account for the traced wall
    time; ``trace.overhead_s`` estimates that cost from a calibrated
    per-span price plus the time the children spent installing wrappers."""
    from tracer import Tracer, layer_metrics, span_cost

    runner.traced = True
    if workload.inprocess:
        runner.tracer = Tracer()
        runner.tracer.install()
    state, _ = setup_once(workload, tmp)
    res = runner.run(state, args.seconds)
    if workload.inprocess:
        spans, entries = runner.tracer.spans, dict(runner.tracer.entries)
    else:
        spans, entries = runner.spans, runner.entries
    layers, counts = layer_metrics(spans, entries)
    wall = sum(res.walls)
    job_spans = sum(1 for s in spans if s[4] is not None)
    attributed = counts["self_total_s"] + runner.spawn_s + runner.install_s
    layers.update({
        "cli.spawn_s": runner.spawn_s,
        "trace.overhead_s": job_spans * span_cost() + runner.install_s,
        "trace.wall_s": wall,
        "trace.spans": job_spans,
        "trace.attributed_share": attributed / wall,
    })
    selfcheck = {
        "diagram spans vs engine rows": (counts["diagram_spans"], counts["engine_rows"]),
        "parse spans vs loading commands": (counts["parse_spans"], runner.loads),
        "conversion spans vs ac.convert_calls": (counts["conversion_spans"], layers["ac.convert_calls"]),
    }
    problems = [f"{k}: {a} != {b}" for k, (a, b) in selfcheck.items() if a != b]
    if abs(attributed / wall - 1.0) > ATTRIBUTION_TOLERANCE:
        problems.append(f"attribution: self times + start-up = {attributed:.3f}s of traced wall {wall:.3f}s")
    metrics = {k: (v, per_layer_unit(k)) for k, v in layers.items()}
    info = {"rounds": len(res.walls), "inputs_sha256": res.digest.hexdigest()[:16],
            "selfcheck": {k: list(v) for k, v in selfcheck.items()}, "selfcheck_problems": problems}
    if not workload.inprocess:
        info["commands"] = per_job_breakdown(spans, runner.job_walls)
    return metrics, res.attempted, res.failures, info, problems


def per_job_breakdown(spans, job_walls) -> list:
    """Per-command layer split of a traced ``cli`` pass."""
    from tracer import layer_metrics

    by_job: dict = {}
    for i, s in enumerate(spans):
        if s[4] is not None:
            by_job.setdefault(s[4], {})[i] = s
    out = []
    for job_id, (name, dt) in job_walls.items():
        own = by_job.get(job_id, {})
        pos = {g: n for n, g in enumerate(own)}
        job_spans = [[s[0], s[1], s[2], pos.get(s[3], -1), s[4], s[5]] for s in own.values()]
        entries: dict = {}
        for s in job_spans:
            entries[s[0]] = entries.get(s[0], 0) + 1
        layers, _ = layer_metrics(job_spans, entries)
        out.append({
            "job": name,
            "seconds": round(dt, 3),
            "diagram.loop_s": round(layers["diagram.loop_s"], 3),
            "document+groupoid+ac self_s": round(
                layers["document.self_s"] + layers["groupoid.self_s"] + layers["ac.self_s"], 3),
            "ac.convert_calls": layers["ac.convert_calls"],
        })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides the probe order of every table lookup; a
        # random per-process seed moved one AF1 scan by up to 25% (2-vCPU
        # VM, Python 3.11).
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "twogrp", "cli.py")):
        print(f"error: no twogrp source tree under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    sys.path.insert(0, src)
    import twogrp
    from workloads import WORKLOADS

    if not os.path.abspath(twogrp.__file__).startswith(os.path.join(src, "")):
        print(f"error: twogrp imported from {twogrp.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    cpu = pin_to_one_cpu()
    # a terminated run still removes its documents and stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        info = environment(root, workload)
        info["pinned_cpu"] = cpu
        measure = measure_traced if args.trace else measure_untraced
        metrics, attempted, failures, run_info, problems = measure(args, workload, Runner(workload, tmp), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    info.update(run_info)
    info.update({"seed": args.seed, "failed_ratio": len(failures) / attempted, "failures": failures[:10]})
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
