"""Benchmark of the recourse-lab CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory holding `src/recourse_lab` and
`BENCHMARK.json` works). The run writes the workload's inputs under
`.perfbench_work/`, then invokes the CLI in a closed loop: one invocation at a
time, each started when the previous one has exited. It repeats the workload's
block of invocations while the next block is expected to end within S seconds,
and always runs at least one block. Every invocation's output is checked.

With `--trace 0` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json: wall and CPU seconds (pool workers included) of a
block as the median over blocks, interpreter start to `recourse_lab.cli`
imported as the median over invocations, the largest resident set of any
process, and result items (CF1 records, sweep points or verified Monte-Carlo
trials) per wall second. Times and rates are scaled by the run's reference
task (see REFERENCE_TASK); the summary lines show them unscaled too. With `--trace 1` each invocation runs twice, plain
and then traced (spans.py, `-X importtime`); the last line holds the per-layer
metrics, as means per traced invocation, and `trace.overhead_s` is the mean
difference of traced over plain wall time. Lines before the last one are a
readable summary. Exit status: 0 with a result line, 1 when the program could
not be started or the run needed more than 160 s, 2 when the checkout holds
no program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
# The host's speed drifts by up to 40% over tens of minutes, evenly for every
# CPU-bound task. Each run therefore times a fixed task outside the program,
# a fresh interpreter importing NumPy and scipy.stats, twice before the first
# block, before every block and within a block every REFERENCE_EVERY_S, and
# scales its times by REFERENCE_S over the median of those: they read as
# seconds on a host where the task takes exactly 1 s.
REFERENCE_TASK = "import numpy, scipy.stats"
REFERENCE_S = 1.0
REFERENCE_EVERY_S = 8.0
RUN_LIMIT_S = 160  # a run that needs longer ends with an error and no result
# shown in the summary but not in the result line: each is exactly 0 on some workload
SUMMARY_ONLY = ("models.cv_s", "shiftlab.pipeline_s", "shiftlab.self_s", "theory.verify_s")


class BenchmarkError(Exception):
    """The run cannot measure: the program does not start or the run overruns its limit."""


@dataclass
class Sample:
    wall: float
    setup: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def program_env() -> dict:
    env = dict(os.environ)
    env.pop("RECOURSE_LAB_SEED_OVERRIDE", None)  # it would replace the workload's seeds
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(argv, cwd: Path, scratch: Path, span_dir: Path | None, deadline: float) -> Sample:
    """Run the CLI once; wall time runs from just before the spawn to the reap."""
    ready = scratch / "ready"
    ready.unlink(missing_ok=True)
    cmd = [sys.executable, *(["-X", "importtime"] if span_dir else []), str(LAUNCH),
           str(ready), str(span_dir or ""), *argv]
    env = program_env()
    with open(scratch / "stdout", "w+", encoding="utf-8") as out, \
            open(scratch / "stderr", "w+", encoding="utf-8") as err:
        started = time.monotonic()
        if started >= deadline:
            raise BenchmarkError(f"the run took longer than {RUN_LIMIT_S} s")
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        # past the deadline the invocation is killed together with its pool workers
        timer = threading.Timer(deadline - started, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the invocation before leaving
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if started + wall >= deadline:
            raise BenchmarkError(f"the run took longer than {RUN_LIMIT_S} s")
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if not ready.exists():
        raise BenchmarkError(f"recourse_lab.cli did not import (exit {proc.returncode}): {stderr[-2000:]}")
    return Sample(
        wall=wall,
        setup=float(ready.read_text()) - started,
        cpu=usage.ru_utime + usage.ru_stime,  # includes reaped pool workers
        rss_mb=usage.ru_maxrss / 1024.0,  # largest process of the tree
        code=proc.returncode,
        stdout=stdout,
        stderr=stderr,
    )


def reference(deadline: float) -> float:
    """Wall seconds of the reference task in a fresh interpreter."""
    started = time.monotonic()
    try:
        subprocess.run([sys.executable, "-c", REFERENCE_TASK], check=True,
                       timeout=max(deadline - started, 0.001))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"the run took longer than {RUN_LIMIT_S} s") from None
    except subprocess.CalledProcessError as exc:
        raise BenchmarkError(f"the reference task failed: {exc}") from None
    return time.monotonic() - started


class Outcomes:
    """Attempted and failed invocations, and why each failure happened."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # exited 0 with wrong output, or failed undocumented
        self.errors: list[str] = []  # documented runtime failures (exit 1, "error: ...")

    def judge(self, inv: workloads.Invocation, sample: Sample) -> int:
        """Count the invocation and return the result items it produced."""
        self.attempted += 1
        command = " ".join(inv.argv)
        if sample.code == 0:
            try:
                return inv.check(sample.stdout)
            except (workloads.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                self.failed += 1
                self.wrong.append(f"{command}: {exc}")
                return 0
        self.failed += 1
        messages = [ln for ln in sample.stderr.splitlines() if not ln.startswith("import time:")]
        last = messages[-1] if messages else ""
        if sample.code == 1 and last.startswith("error: "):
            self.errors.append(f"{command}: {last}")
        else:
            self.wrong.append(f"{command}: exit {sample.code}: {last}")
        return 0


def run(workload: workloads.Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    inputs, scratch = work / "inputs", work / "scratch"
    inputs.mkdir(parents=True)
    scratch.mkdir()
    deadline = time.monotonic() + RUN_LIMIT_S
    block = workload.build(seed, inputs)
    references = [reference(deadline)]
    # one extra setup sample, so that runs of a single invocation have two
    probes = [invoke(("--help",), inputs, scratch, None, deadline)]
    references.append(reference(deadline))

    outcomes = Outcomes()
    plain: list[Sample] = []
    block_wall: list[float] = []
    block_cpu: list[float] = []
    items = 0
    pairs: list[tuple[Sample, Sample, dict]] = []
    started = time.monotonic()
    while True:
        samples = []
        for i, inv in enumerate(block):
            if i == 0 or time.monotonic() - last_reference >= REFERENCE_EVERY_S:
                references.append(reference(deadline))
                last_reference = time.monotonic()
            sample = invoke(inv.argv, inputs, scratch, None, deadline)
            items += outcomes.judge(inv, sample)
            samples.append(sample)
            if traced:
                span_dir = scratch / f"spans-{len(pairs)}"
                span_dir.mkdir()
                sample_t = invoke(inv.argv, inputs, scratch, span_dir, deadline)
                outcomes.judge(inv, sample_t)
                per_layer = layers.summarize(layers.load_spans(span_dir))
                per_layer.update(layers.import_times(sample_t.stderr))
                pairs.append((sample, sample_t, per_layer))
        plain += samples
        block_wall.append(sum(s.wall for s in samples))
        block_cpu.append(sum(s.cpu for s in samples))
        elapsed = time.monotonic() - started
        if elapsed * (len(block_wall) + 1) / len(block_wall) > seconds:
            break

    summary = {
        "workload": workload.name,
        "output": workload.output,
        "seed": seed,
        "blocks": len(block_wall),
        "invocations": len(plain) + len(pairs),
        "setup_samples": len(probes) + len(plain),
        "block_wall": block_wall,
        "references": references,
    }
    raw = {
        "wall_s": statistics.median(block_wall),
        "setup_s": statistics.median(s.setup for s in probes + plain),
        "cpu_s": statistics.median(block_cpu),
        "outputs_per_s": items / sum(block_wall),
    }
    scale = REFERENCE_S / statistics.median(references)
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["outputs_per_s"] = raw["outputs_per_s"] / scale
    metrics["peak_rss_mb"] = max(s.rss_mb for s in plain)
    summary["raw"] = raw
    if traced:
        metrics.update(trace_metrics(pairs))
        metrics["trace.reference_s"] = statistics.median(references)
    return {"summary": summary, "outcomes": outcomes, "metrics": metrics}


def trace_metrics(pairs) -> dict:
    """Per-layer metrics as means per traced invocation, plus the trace's own accounting."""
    n = len(pairs)
    out = {key: sum(p[2][key] for p in pairs) / n for key in pairs[0][2]}
    negatives = out["recourse.negatives"]
    out["recourse.found_ratio"] = out["recourse.found"] / negatives if negatives else 0.0
    out["cli.invocations"] = n
    out["trace.wall_s"] = sum(t.wall for _, t, _ in pairs) / n
    out["trace.setup_s"] = sum(t.setup for _, t, _ in pairs) / n
    # what no span covers: interpreter start to root span is setup, the rest is
    # tracer install, span writing, interpreter exit and reaping
    out["trace.unattributed_s"] = out["trace.wall_s"] - out["trace.setup_s"] - out.pop("root_s")
    out["trace.overhead_s"] = sum(t.wall - p.wall for p, t, _ in pairs) / n
    return out


def print_summary(result: dict, declared: list[dict], traced: bool) -> None:
    summary, outcomes, metrics = result["summary"], result["outcomes"], result["metrics"]
    print(f"workload {summary['workload']} seed {summary['seed']}: {summary['blocks']} block(s), "
          f"{summary['invocations']} invocations, {outcomes.failed} failed "
          f"(share {outcomes.failed / outcomes.attempted:.4f}), "
          f"{summary['setup_samples']} setup samples; outputs are {summary['output']}")
    print("  block wall times: " + " ".join(f"{w:.3f}" for w in summary["block_wall"]))
    print("  reference task times: " + " ".join(f"{w:.3f}" for w in summary["references"]))
    print("  unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in summary["raw"].items()))
    for line in outcomes.errors + outcomes.wrong:
        print(f"  failed: {line}")
    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(units):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    if traced:
        for name in SUMMARY_ONLY:
            print(f"  {name} = {metrics[name]:.6g} s (summary only)")
        wall = metrics["trace.wall_s"]
        parts = [("setup", metrics["trace.setup_s"])]
        parts += [(layer, metrics[f"{layer}.self_s"]) for layer in layers.LAYERS]
        parts.append(("unattributed", metrics["trace.unattributed_s"]))
        print(f"  traced wall {wall:.3f} s per invocation; self time by layer "
              "(pool workers run in parallel, so shares can sum past 100%):")
        for name, value in parts:
            print(f"    {name:<13} {value:9.3f} s {100 * value / wall:6.1f}%")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "recourse_lab" / "cli.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'recourse_lab'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass  # another run still uses it

    print_summary(result, declared, bool(args.trace))
    outcomes = result["outcomes"]
    line = {
        "correct": not outcomes.wrong,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
