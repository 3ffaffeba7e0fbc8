"""Self-check of the benchmark in its smallest mode (one block per run).

    python3 perfbench/selfcheck.py

Checks that
- the result line of `run.py` holds exactly the metrics of BENCHMARK.json,
  with their units, for `--trace 0` (on run-readme) and `--trace 1` (on every
  workload), and `correct` is true;
- the deterministic per-layer counters repeat exactly across two traced runs
  of the same seed;
- in a directory holding only BENCHMARK.json and the benchmark, `run.py`
  exits non-zero without printing a result.
Takes a few minutes; exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from baseline import DETERMINISTIC, HERE, ROOT


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=False)


def result_line(proc: subprocess.CompletedProcess, declared: list[dict]) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(line)}")
    if line["correct"] is not True or not isinstance(line["attempted"], int) \
            or not isinstance(line["failed"], int) or line["attempted"] < 1:
        raise AssertionError(f"result header {line['correct']} {line['attempted']} {line['failed']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in line["metrics"].items()}
    if got != want:
        raise AssertionError(f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, entry in line["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{name} is not a number")
    return line


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(label: str, fn) -> None:
        try:
            fn()
            print(f"ok   {label}", flush=True)
        except AssertionError as exc:
            failures.append(label)
            print(f"FAIL {label}: {exc}", flush=True)

    check("run-readme --trace 0 schema",
          lambda: result_line(run("run-readme", 0), spec["end_to_end"]))
    for workload in (w["name"] for w in spec["workloads"]):
        def traced_twice(workload=workload):
            first, second = (result_line(run(workload, 1), spec["per_layer"])["metrics"]
                             for _ in range(2))
            differ = [k for k in DETERMINISTIC if first[k]["value"] != second[k]["value"]]
            if differ:
                raise AssertionError(f"counters differ between two runs: {differ}")
        check(f"{workload} --trace 1 schema and repeatable counters", traced_twice)

    def without_program():
        bare = ROOT / ".perfbench_work" / "selfcheck-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
            if proc.returncode == 0 or proc.stdout.strip():
                raise AssertionError(f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                bare.parent.rmdir()
            except OSError:
                pass  # a benchmark run still uses it
    check("no program: non-zero exit, no result", without_program)

    print("self-check " + ("passed" if not failures else f"FAILED: {', '.join(failures)}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
