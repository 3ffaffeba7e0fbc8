"""Spans around calls into recourse-lab's modules, installed from outside the package.

Modules import each other's functions by name, so each wrapper replaces the
binding that its caller looks up (for example `shiftlab.train`, which the
pipeline calls, and `models.train`, which the CV folds and `bounds` call).

A span records its name, start, end and parent. Spans stay in memory and are
appended to `<span_dir>/spans-<pid>.jsonl` when a process's outermost span
closes; forked pool workers inherit the open parent span, so their spans reach
the trace with the right parent. `TrainedModel.decision_values` is called up
to hundreds of thousands of times per invocation (causal search scores single
rows), so its calls are folded into the enclosing span as a count, a row count
and seconds rather than kept as spans of their own.
"""

from __future__ import annotations

import functools
import json
import os
import time


class Tracer:
    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.closed: list[dict] = []
        self.open: list[dict] = []
        self.base_depth = 0
        self.next_id = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # the child keeps the open spans as parents; the parent writes its closed ones
        self.closed = []
        self.base_depth = len(self.open)

    def start(self, name: str) -> dict:
        self.next_id += 1
        span = {
            "id": f"{os.getpid()}-{self.next_id}",
            "parent": self.open[-1]["id"] if self.open else None,
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "decision_calls": 0,
            "decision_rows": 0,
            "decision_s": 0.0,
        }
        self.open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self.open.pop()
        self.closed.append(span)
        if len(self.open) == self.base_depth:
            self.flush()

    def flush(self) -> None:
        path = os.path.join(self.span_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.closed:
                fh.write(json.dumps(span) + "\n")
        self.closed = []

    def wrap(self, fn, name: str, count=None):
        """Record a span per call; `count(args, result)` adds counters to it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.start(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.update(count(args, result))
                return result
            finally:
                self.end(span)

        return wrapper

    def fold_decisions(self, fn):
        @functools.wraps(fn)
        def wrapper(model, X):
            started = time.monotonic()
            try:
                return fn(model, X)
            finally:
                span = self.open[-1]
                span["decision_calls"] += 1
                span["decision_rows"] += len(X)
                span["decision_s"] += time.monotonic() - started

        return wrapper


def _rows(args, data):
    return {"rows": data.n}


def _fit(args, model):
    spec, data = args[:2]
    return {"epoch_rows": spec.epochs * data.n}


def _recourse_set(args, result):
    return {
        "negatives": result.size + result.not_found,
        "found": result.size,
        "iterations": sum(r.iterations for r in result.records),
    }


def _walk(args, result):
    finals, iters = result
    return {
        "negatives": len(finals),
        "found": sum(p is not None for p in finals),
        "iterations": int(iters.sum()),
    }


def _trials(args, check):
    return {"trials": check.n}


def install(span_dir: str) -> Tracer:
    """Wrap the layer boundaries of the imported package and return the tracer."""
    from recourse_lab import cli, models, shiftlab, theory

    tracer = Tracer(span_dir)
    patches = [
        (shiftlab, "synth_shift", "dataset.synth_shift", _rows),
        (shiftlab, "load_csv", "dataset.load_csv", _rows),
        (shiftlab, "split", "dataset.split", None),
        (cli, "synth_base", "dataset.synth_base", _rows),
        (shiftlab, "train", "models.train", _fit),
        (models, "train", "models.train", _fit),
        (shiftlab, "cross_val_accuracy", "models.cross_val_accuracy", None),
        (shiftlab, "batch_recourse", "recourse.batch_recourse", _recourse_set),
        (theory, "_markov_batch", "recourse.walk", _walk),
        (cli, "run_pipeline", "shiftlab.run_pipeline", None),
        (cli, "sensitivity_sweep", "shiftlab.sensitivity_sweep", None),
        (cli, "verify_bound", "theory.verify_bound", _trials),
    ]
    for module, attr, name, count in patches:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))
    cls = models.TrainedModel
    cls.decision_values = tracer.fold_decisions(cls.decision_values)
    return tracer
