"""Record benchmark runs as ``BENCH_<tag>.json``.

    python tools/bench_trajectory.py --tag TAG --workload cli --seeds 7101 7102 \
        [--tree parent=PATH --tree change=.] [--trace 0|1]

Runs each tree's own ``perfbench/run.py`` (from that tree's root) once per
workload and seed, for the ``run_seconds`` that ``BENCHMARK.json`` sets.  With two or more trees the runs of one seed form a
group, and the order of the trees rotates from seed to seed.  The output
holds the machine, every run's metrics, and per workload, tree and metric
the median and quartiles; with two trees it also counts, per metric, the
seeds on which the second tree did better than the first (the direction
comes from ``BENCHMARK.json``).  The output goes to ``BENCH_<tag>.json`` in
the current directory; an existing file is extended: its runs are kept and
the summaries are recomputed over all runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"platform": platform.platform(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} in {tree} failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    return {
        "workload": workload, "seed": seed, "trace": trace, "started": round(started, 1),
        "commit": info.get("commit"), "src_sha256": info.get("src_sha256"),
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload (traced runs apart), per tree and metric: the spread;
    with two trees, the seeds on which the second beat the first."""
    groups: dict = {}
    for run in runs:
        groups.setdefault(run["workload"] + (" traced" if run["trace"] else ""), []).append(run)
    out = {}
    for key, group in groups.items():
        trees = list(dict.fromkeys(run["tree"] for run in group))
        values: dict = {}
        for run in group:
            for name, value in run["metrics"].items():
                values.setdefault(run["tree"], {}).setdefault(name, []).append(value)
        out[key] = {tree: {name: spread(v) for name, v in metrics.items()} for tree, metrics in values.items()}
        if len(trees) == 2:
            by_seed: dict = {}
            for run in group:
                by_seed.setdefault(run["seed"], {})[run["tree"]] = run["metrics"]
            wins = {}
            for name, direction in better.items():
                pairs = [(m[trees[0]][name], m[trees[1]][name]) for m in by_seed.values()
                         if len(m) == 2 and name in m[trees[0]] and name in m[trees[1]]]
                if pairs:
                    won = sum((b < a) if direction == "lower" else (b > a) for a, b in pairs)
                    wins[name] = {"better": won, "pairs": len(pairs)}
            out[key]["pairs"] = {"baseline": trees[0], "candidate": trees[1], "wins": wins}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--tree", action="append", help="LABEL=PATH (default: this=.)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    trees = [t.split("=", 1) for t in (args.tree or ["this=."])]
    out_path = f"BENCH_{args.tag}.json"
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {"tag": args.tag, "runs": []}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            record = json.load(fh)
    record["machine"] = machine()
    for workload in args.workload:
        for n, seed in enumerate(args.seeds):
            k = n % len(trees)
            for label, path in trees[k:] + trees[:k]:
                run = {"tree": label, **run_once(path, workload, seed, bench["run_seconds"], args.trace)}
                record["runs"].append(run)
                print(json.dumps({key: run[key] for key in ("tree", "workload", "seed", "correct")}
                                 | {"wall_s": run["metrics"].get("wall_s")}), flush=True)
                record["summary"] = summarize(record["runs"], better)
                with open(out_path, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
