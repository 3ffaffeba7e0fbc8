"""The four benchmark workloads: seeded inputs, CLI invocations and output checks.

Each workload turns a seed into input files and a *block* of CLI invocations.
The driver (run.py) repeats whole blocks, so every run of a workload does the
same mix of work, and checks each invocation's output with the workload's
`check`, which returns the number of result items the invocation produced.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckError(Exception):
    """An invocation exited 0 but its output is wrong."""


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]  # CLI arguments after the program name
    check: Callable[[str], int]  # stdout -> result items; raises CheckError


@dataclass(frozen=True)
class Workload:
    name: str
    output: str  # what the result items counted by `check` are
    build: Callable[[int, Path], list[Invocation]]  # (seed, input dir) -> block


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# --- run-readme and sweep-readme -------------------------------------------

README_CONFIG = {
    "d1_source": {"synthetic": {"scenario": "target_shift", "alpha": 0.0, "n": 5000, "seed": 101}},
    "d2_source": {"synthetic": {"scenario": "target_shift", "alpha": 0.3, "n": 5000, "seed": 202}},
    "model": {"kind": "logistic_regression", "learning_rate": 0.5, "epochs": 300, "l2_penalty": 1e-4},
    "recourse": {"method": "cfe", "params": {"margin_target": 0.2}},
    "cost": {"norm": "L2"},
    "holdout_fraction": 0.1,
    "seeds": {"data": 0, "model": 1, "recourse": 2},
    "cv_folds": 10,
}
README_ALPHAS = "0,0.1,0.2,0.3,0.4,0.5,0.6"

# The README documents these outputs of its example config. The README
# workloads run that config unchanged whatever the seed, so every run is checked
# against them exactly: with other sample seeds the alpha-0 invalidation ranges
# from 0% to 45% and the curve can fall by 3 points where it flattens.
README_REPORT_ROW = ["CFE", "LR", "99.62", "99.71", "2325", "40.04"]
README_SWEEP_INVALIDATION = [0.99, 26.49, 34.41, 40.04, 44.82, 45.33, 46.19]

REPORT_COLUMNS = ["Algorithm", "Model", "M1 acc", "M2 acc", "CF1 Size", "Invalidation %"]


def check_report(out_dir: Path, algorithm: str, model: str) -> list[str]:
    """Check that report.csv agrees with report.json; return the report.csv row."""
    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(len(rows) == 2 and rows[0] == REPORT_COLUMNS, f"report.csv layout: {rows[:1]}")
    row = rows[1]
    _require(row[:2] == [algorithm, model], f"labels {row[:2]}, expected {[algorithm, model]}")
    _, _, m1, m2, size, invalidation = row
    records = doc["per_record"]
    cf1 = int(size)
    _require(cf1 == doc["cf1_size"] == len(records), "CF1 size differs from the per-record count")
    _require(m1 == f"{doc['m1_cv_acc']:.2f}" and m2 == f"{doc['m2_cv_acc']:.2f}",
             "report.csv accuracies differ from report.json")
    _require(all(math.isfinite(r["cost"]) and r["cost"] >= 0 for r in records), "bad recourse cost")
    _require(cf1 > 0, "no recourses found")
    flags_pct = 100.0 * sum(r["invalidated"] for r in records) / cf1
    _require(_close(flags_pct, doc["invalidation_pct"], 1e-9),
             "Invalidation % is not the mean of the per-record flags")
    _require(invalidation == f"{flags_pct:.2f}", "report.csv Invalidation % differs from report.json")
    return row


class _SameBytes:
    """Reruns of one config must write byte-identical files."""

    def __init__(self, out_dir: Path, names: tuple[str, ...]):
        self.out_dir = out_dir
        self.names = names
        self.first: list[bytes] | None = None

    def check(self) -> None:
        now = [(self.out_dir / name).read_bytes() for name in self.names]
        if self.first is None:
            self.first = now
        _require(now == self.first, f"a rerun changed {', '.join(self.names)}")


def build_run_readme(seed: int, inputs: Path) -> list[Invocation]:
    (inputs / "readme.json").write_text(json.dumps(README_CONFIG, indent=2))
    out = inputs / "out-run"
    same = _SameBytes(out, ("report.csv", "report.json"))

    def check(stdout: str) -> int:
        row = check_report(out, "CFE", "LR")
        _require(row == README_REPORT_ROW, f"report row {row} != README's {README_REPORT_ROW}")
        same.check()
        return int(row[4])

    return [Invocation(("run", "--config", "readme.json", "--out", "out-run"), check)]


def check_sweep(out_dir: Path) -> int:
    """sweep.csv has one row per alpha, one CF1 size, and the README's rising curve."""
    with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    alphas = [float(a) for a in README_ALPHAS.split(",")]
    _require(rows[0] == ["alpha", "invalidation_pct", "cf1_size"], f"sweep.csv header {rows[0]}")
    body = rows[1:]
    _require(len(body) == len(alphas), f"sweep.csv has {len(body)} rows, expected {len(alphas)}")
    _require([float(r[0]) for r in body] == alphas, "sweep.csv alphas differ from the request")
    _require({r[2] for r in body} == {README_REPORT_ROW[4]}, "CF1 size differs from the run report")
    invalidation = [float(r[1]) for r in body]
    _require(invalidation == README_SWEEP_INVALIDATION,
             f"sweep {invalidation} != README's {README_SWEEP_INVALIDATION}")
    return len(body)


def build_sweep_readme(seed: int, inputs: Path) -> list[Invocation]:
    (inputs / "readme.json").write_text(json.dumps(README_CONFIG, indent=2))
    out = inputs / "out-sweep"
    same = _SameBytes(out, ("sweep.csv",))

    def check(stdout: str) -> int:
        points = check_sweep(out)
        same.check()
        return points

    argv = ("sweep", "--config", "readme.json", "--out", "out-sweep",
            "--scenario", "target_shift", "--alphas", README_ALPHAS, "--jobs", "2")
    return [Invocation(argv, check)]


# --- run-csv-mlp-causal -----------------------------------------------------

CSV_ROWS = 1200
CSV_X0_SHIFT = 0.3
# the default chain SCM of recourse_lab.recourse, written out as the config's scm section
CHAIN_SCM = [
    {"name": "x0"},
    {"name": "x1", "parents": {"0": 0.8}},
    {"name": "x2", "parents": {"1": 0.5}},
]
CSV_SCHEMA = {
    "features": [{"name": f"x{i}", "kind": "continuous", "actionable": True} for i in range(3)],
    "label": "label",
}


def chain_sample(rng: np.random.Generator, n: int, x0_mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the chain SCM, labelled +1 above a curved boundary."""
    x0 = x0_mean + rng.standard_normal(n)
    x1 = 0.8 * x0 + rng.standard_normal(n)
    x2 = 0.5 * x1 + rng.standard_normal(n)
    y = np.where(x0 + 0.5 * x1 + 0.4 * x2 * x2 - 0.5 >= 0.0, 1, -1)
    return np.column_stack([x0, x1, x2]), y


def _write_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "x2", "label"])
        for row, label in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def build_run_csv_mlp_causal(seed: int, inputs: Path) -> list[Invocation]:
    rng = np.random.default_rng(seed)
    for name, x0_mean in (("d1.csv", 0.0), ("d2.csv", CSV_X0_SHIFT)):
        _write_csv(inputs / name, *chain_sample(rng, CSV_ROWS, x0_mean))
    doc = {
        "d1_source": {"csv": {"path": "d1.csv", "schema": CSV_SCHEMA}},
        "d2_source": {"csv": {"path": "d2.csv", "schema": CSV_SCHEMA}},
        "model": {"kind": "mlp", "hidden_layers": [16, 16], "learning_rate": 0.001,
                  "epochs": 60, "l2_penalty": 1e-4},
        "recourse": {"method": "causal", "params": {}},
        "scm": CHAIN_SCM,
        "cost": {"norm": "L2"},
        "holdout_fraction": 0.1,
        "seeds": {"data": seed, "model": seed + 1, "recourse": seed + 2},
        "cv_folds": 5,
    }
    (inputs / "csv.json").write_text(json.dumps(doc, indent=2))
    out = inputs / "out-csv"
    train_rows = CSV_ROWS - int(math.floor(0.1 * CSV_ROWS + 0.5))
    same = _SameBytes(out, ("report.csv", "report.json"))

    def check(stdout: str) -> int:
        row = check_report(out, "Causal", "DNN")
        # ranges around seeds 0-9: accuracy 96-98%, CF1 50-55% of the training
        # rows (every negative gets a recourse), invalidation 14-41%
        _require(min(float(row[2]), float(row[3])) >= 90.0, f"accuracy {row[2]}/{row[3]} below 90")
        cf1 = int(row[4])
        _require(0.35 * train_rows <= cf1 <= 0.65 * train_rows, f"CF1 size {cf1} out of range")
        _require(1.0 <= float(row[5]) <= 60.0, f"Invalidation % {row[5]} out of range")
        same.check()
        return cf1

    return [Invocation(("run", "--config", "csv.json", "--out", "out-csv"), check)]


# --- bounds-verify ----------------------------------------------------------

BOUNDS_STRATA = 7  # draws per kind in one block
CONTINUOUS_LOG10_RHO = (-2.0, 2.0)  # rho > 0 is accepted; 1e-2..1e2 spans slow to instant walks
CONTINUOUS_DELTA_MAX = 3.0
ORDINAL_DELTA_MAX = 10  # whole steps; the built-in grid runs 0..80 with its boundary at 30.5
VERIFY_TRIALS = 2000  # fixed by the CLI
# Monte-Carlo tolerance on |empirical_Q - theoretical_Q|: four binomial standard
# errors, plus the bias of walking in discrete steps (stop probability up to 0.1
# per step, overshoot of up to one step past the boundary).
MC_SIGMAS = 4.0
MC_DISCRETIZATION = 0.03


def closed_form(kind: str, rho: float, delta: float) -> float:
    if kind == "continuous":
        return -math.expm1(-rho * delta)
    return -math.expm1(int(delta) * math.log1p(-rho)) if rho < 1.0 else float(delta > 0)


def bounds_draws(seed: int) -> list[tuple[str, float, float]]:
    """Evenly spaced rho over each kind's domain, at a seeded phase, in seeded order.

    Each kind gets one rho per stratum, all strata shifted by one seeded phase
    (wrapping around), so every block covers the domain evenly: the share of
    slow low-rho walks, and of ordinal rho values where verification fails,
    barely changes with the seed. Deltas are drawn independently.
    """
    rng = random.Random(seed)
    phase = rng.random()
    lo, hi = CONTINUOUS_LOG10_RHO
    draws = []
    for i in range(BOUNDS_STRATA):
        position = (i + phase) / BOUNDS_STRATA  # in [0, 1)
        rho = 10.0 ** (lo + (hi - lo) * position)
        draws.append(("continuous", rho, rng.uniform(0.0, CONTINUOUS_DELTA_MAX)))
        # ordinal rho lies in (0, 1]
        draws.append(("ordinal", 1.0 - position, float(rng.randint(0, ORDINAL_DELTA_MAX))))
    rng.shuffle(draws)
    return draws


_VERIFY_LINE = re.compile(
    r"empirical_Q=(\S+) theoretical_Q=(\S+) abs_gap=(\S+) n=(\d+)$"
)


def check_bounds(stdout: str, kind: str, rho: float, delta: float) -> int:
    """First line is the closed form to 5 decimals; the Monte-Carlo gap is small."""
    lines = stdout.splitlines()
    _require(len(lines) == 2, f"bounds printed {len(lines)} lines")
    expected = closed_form(kind, rho, delta)
    _require(_close(float(lines[0]), expected, 0.5e-5 + 1e-12),
             f"bound {lines[0]} != closed form {expected:.7f}")
    match = _VERIFY_LINE.match(lines[1])
    _require(match is not None, f"unexpected verify line {lines[1]!r}")
    empirical, theoretical, gap = (float(match.group(i)) for i in (1, 2, 3))
    n = int(match.group(4))
    _require(n == VERIFY_TRIALS, f"verified {n} trials, expected {VERIFY_TRIALS}")
    _require(match.group(2) == lines[0], "theoretical_Q differs from the printed bound")
    _require(_close(gap, abs(empirical - theoretical), 1.5e-5), "abs_gap is not |empirical - theoretical|")
    tol = MC_SIGMAS * math.sqrt(max(expected * (1 - expected), 1.0 / n) / n) + MC_DISCRETIZATION
    _require(abs(empirical - expected) <= tol,
             f"empirical_Q {empirical} further than {tol:.4f} from {expected:.5f}")
    return n


def build_bounds_verify(seed: int, inputs: Path) -> list[Invocation]:
    block = []
    for kind, rho, delta in bounds_draws(seed):
        delta_arg = repr(delta) if kind == "continuous" else str(int(delta))

        def check(stdout: str, kind=kind, rho=rho, delta=delta) -> int:
            return check_bounds(stdout, kind, rho, delta)

        argv = ("bounds", "--rho", repr(rho), "--delta", delta_arg, "--kind", kind, "--verify")
        block.append(Invocation(argv, check))
    return block


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-readme", "CF1 records", build_run_readme),
        Workload("sweep-readme", "sweep points", build_sweep_readme),
        Workload("run-csv-mlp-causal", "CF1 records", build_run_csv_mlp_causal),
        Workload("bounds-verify", "verified trials", build_bounds_verify),
    )
}
