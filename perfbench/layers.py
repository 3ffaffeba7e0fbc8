"""Per-layer numbers of one traced invocation, from its spans and `-X importtime` log.

Layers are the package modules. A span's self time is its duration minus the
part of it covered by its child spans (children in pool workers included)
and minus the `decision_values` calls folded into it, which count to `models`.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "dataset", "models", "recourse", "shiftlab", "theory")
SPAN_METRICS = (
    "dataset.busy_s", "dataset.rows",
    "models.train_calls", "models.train_s", "models.cv_s", "models.epoch_rows",
    "models.decision_calls", "models.decision_rows", "models.decision_s",
    "recourse.batch_s", "recourse.iterations", "recourse.decision_calls",
    "recourse.decision_rows", "recourse.negatives", "recourse.found",
    "shiftlab.pipelines", "shiftlab.pipeline_s",
    "theory.verify_s", "theory.trials", "theory.decision_rows",
    "root_s",
    *(f"{layer}.self_s" for layer in LAYERS),
)

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$", re.MULTILINE)


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of each `recourse_lab.<layer>` module, first import."""
    seconds: dict[str, float] = {}
    for match in _IMPORT_LINE.finditer(stderr):
        package, _, layer = match.group(3).partition(".")
        if package == "recourse_lab" and layer in LAYERS:
            seconds.setdefault(layer, int(match.group(2)) / 1e6)
    return {f"{layer}.import_s": seconds.get(layer, 0.0) for layer in LAYERS}


def load_spans(span_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[dict]) -> dict[str, float]:
    """Layer metrics of one invocation; `root_s` is the `cli.main` span's duration."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    out = dict.fromkeys(SPAN_METRICS, 0.0)
    for span in spans:
        layer, _, func = span["name"].partition(".")
        duration = span["end"] - span["start"]
        covered = _covered(children[span["id"]], span["start"], span["end"])
        out[f"{layer}.self_s"] += duration - covered - span["decision_s"]
        out["models.self_s"] += span["decision_s"]
        for key in ("decision_calls", "decision_rows", "decision_s"):
            out[f"models.{key}"] += span[key]
        if layer == "recourse":
            out["recourse.batch_s"] += duration
            out["recourse.decision_calls"] += span["decision_calls"]
            out["recourse.decision_rows"] += span["decision_rows"]
            for key in ("negatives", "found", "iterations"):
                out[f"recourse.{key}"] += span.get(key, 0)
        elif layer == "models" and func == "train":
            out["models.train_calls"] += 1
            out["models.train_s"] += duration
            out["models.epoch_rows"] += span.get("epoch_rows", 0)
        elif layer == "models" and func == "cross_val_accuracy":
            out["models.cv_s"] += duration
        elif layer == "dataset":
            out["dataset.busy_s"] += duration
            out["dataset.rows"] += span.get("rows", 0)
        elif layer == "shiftlab":
            out["shiftlab.pipelines"] += 1
            out["shiftlab.pipeline_s"] += duration
        elif layer == "theory":
            out["theory.verify_s"] += duration
            out["theory.trials"] += span.get("trials", 0)
            out["theory.decision_rows"] += span["decision_rows"]
        elif span["name"] == "cli.main":
            out["root_s"] += duration
    out["recourse.not_found"] = out["recourse.negatives"] - out["recourse.found"]
    return out
