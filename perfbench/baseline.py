"""Repeat benchmark runs over seeds and summarize their spread.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--trace-pairs 1] [--out FILE]

For each workload, runs `run.py --trace 0` once per seed and reports, for
every end-to-end metric, the median, the quartiles (statistics.quantiles,
n=4) and their distance as a share of the median, next to the metric's
bound. With `--trace-pairs N`, it also makes N pairs of traced runs on one
seed and reports whether the deterministic per-layer counters repeat exactly.
With `--compare FILE` (an earlier `--out`), it reports by how much each median
is worse than that file's, against the bound. The summary is printed and,
with `--out`, written as JSON.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# counters that depend only on the inputs, never on timing
DETERMINISTIC = ("models.epoch_rows", "models.decision_rows", "recourse.iterations",
                 "recourse.decision_calls", "theory.trials")


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["run_s"] = time.monotonic() - started
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median,
            "values": values}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace-pairs", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    report = {"revision": git_revision(), "run_seconds": seconds, "seeds": seeds,
              "python": platform.python_version(), "cpus": os.cpu_count(),
              "machine": platform.machine(), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "run_s": spread([r["run_s"] for r in runs]),
            "end_to_end": {},
        }
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']} "
              f"attempted={entry['attempted']} run_s median {entry['run_s']['median']:.1f}", flush=True)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            entry["end_to_end"][name] = stats
            print(f"  {name:<14} median {stats['median']:10.4f} {metric['unit']:<4} "
                  f"IQR/median {stats['iqr_share']:.3f} (bound {metric['bound']})", flush=True)
        traced = []
        for _ in range(args.trace_pairs):
            pair = [run_once(workload, seeds[0], seconds, 1) for _ in range(2)]
            same = {k: pair[0]["metrics"][k]["value"] == pair[1]["metrics"][k]["value"]
                    for k in DETERMINISTIC}
            traced.append({"metrics": [p["metrics"] for p in pair], "counters_repeat": same})
            print(f"  traced pair on seed {seeds[0]}: counters repeat {all(same.values())} {same}",
                  flush=True)
        if traced:
            entry["traced"] = traced
        report["workloads"][workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.compare:
        compare(json.loads(Path(args.compare).read_text()), report, spec)
    return 0


def compare(before: dict, after: dict, spec: dict) -> None:
    """Print how much worse each end-to-end median got, as a share of the earlier one."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for workload, entry in after["workloads"].items():
        for name, stats in entry["end_to_end"].items():
            old = before["workloads"][workload]["end_to_end"][name]["median"]
            change = (stats["median"] - old) / old
            worse = change if better[name] == "lower" else -change
            verdict = "ok" if worse <= stats["bound"] else "WORSE THAN BOUND"
            print(f"{workload:<20} {name:<14} {old:10.4f} -> {stats['median']:10.4f} "
                  f"worse by {worse:+.3f} (bound {stats['bound']}) {verdict}")


if __name__ == "__main__":
    sys.exit(main())
