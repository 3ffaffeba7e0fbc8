"""Paired-model experiment pipeline and invalidation metrics.

A run materializes two data samples, trains one model on each with identical
hyperparameters, generates recourses against the first model's negatives, and
measures how many of those recourses the second model rejects.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import pickle
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .dataset import (
    Dataset,
    FeatureSchema,
    ShiftSpec,
    holdout_size,
    load_csv,
    split,
    synth_schema,
    synth_shift,
)
from .errors import ConfigError, DegenerateMetricError, RecourseLabError, SchemaMismatchError
from .models import ModelSpec, TrainedModel, cross_val_accuracy, train
from .recourse import CostFn, RecourseSet, Scm, _causal_scm, batch_recourse, method_params
from .util import derive_seed

ALGORITHM_LABELS = {"cfe": "CFE", "ar": "AR", "causal": "Causal", "markov": "Markov"}
MODEL_LABELS = {"logistic_regression": "LR", "linear_svm": "SVM", "mlp": "DNN"}

REPORT_COLUMNS = ("Algorithm", "Model", "M1 acc", "M2 acc", "CF1 Size", "Invalidation %")


@dataclass(frozen=True)
class Seeds:
    data: int
    model: int
    recourse: int

    def __post_init__(self):
        for name in ("data", "model", "recourse"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be a nonnegative integer, got {getattr(self, name)}")


@dataclass(frozen=True)
class CsvSource:
    path: str
    schema: FeatureSchema


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One paired-model experiment. Construction checks the fields together;
    each error's message starts with the path of the config field it
    concerns, such as `recourse.params.n_samples: `."""

    d1_source: ShiftSpec | CsvSource
    d2_source: ShiftSpec | CsvSource
    model_spec: ModelSpec
    method: str
    cost: CostFn = CostFn("L2")
    method_params: dict = field(default_factory=dict)
    holdout_fraction: float = 0.1
    seeds: Seeds = Seeds(0, 1, 2)
    cv_folds: int = 10
    scm: Scm | None = None

    def __post_init__(self):
        if not 0.0 <= self.holdout_fraction <= 0.5:
            raise ValueError(
                f"holdout_fraction: must lie in [0, 0.5], got {self.holdout_fraction}"
            )
        try:
            params = method_params(self.method, self.method_params)
        except ValueError as exc:  # its message starts with `method: ` or `params.<name>: `
            raise ValueError(f"recourse.{exc}") from None
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds: must be at least 2, got {self.cv_folds}")
        s1, s2 = _source_schema(self.d1_source), _source_schema(self.d2_source)
        if not s1.compatible_with(s2):
            raise SchemaMismatchError("d2_source.schema: incompatible with the d1 source's schema")
        if self.method == "causal":
            _causal_scm(self.scm, s1)
        if self.method == "ar" and not s1.actionable_mask().any():
            raise ValueError("d1_source.csv.schema.features: ar needs an actionable feature, got none")
        # the AR surrogate fit needs 10 samples per feature; checked here, before any training
        if self.method == "ar" and params["n_samples"] < 10 * s1.n_features:
            raise ValueError(
                f"recourse.params.n_samples: must be at least 10 * {s1.n_features} features, "
                f"got {params['n_samples']}"
            )


def _source_schema(source) -> FeatureSchema:
    if isinstance(source, CsvSource):
        return source.schema
    return synth_schema()


def _materialize(source) -> Dataset:
    if isinstance(source, CsvSource):
        return load_csv(source.path, source.schema)
    return synth_shift(source)


def _percent(flags) -> float | None:
    """The percentage of true flags; None when there are none."""
    return 100.0 * float(np.mean(flags)) if len(flags) else None


def _csv_text(header, rows) -> str:
    """CSV text with one header; a None cell reads NAN and a float one has 2 decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["NAN" if v is None else f"{v:.2f}" if isinstance(v, float) else v
                         for v in row])
    return buf.getvalue()


@dataclass(frozen=True, eq=False)
class InvalidationReport:
    """One run's result: the labels, both CV accuracies, and per recourse of
    CF1 its cost and whether M2 invalidates it, as read-only columns `costs`
    (finite floats) and `flags` (bools) of equal length."""

    algorithm: str
    model_kind: str
    m1_cv_acc: float
    m2_cv_acc: float
    costs: np.ndarray
    flags: np.ndarray

    def __post_init__(self):
        for name, dtype in (("costs", float), ("flags", bool)):
            column = np.array(getattr(self, name), dtype=dtype)
            if column.ndim != 1:
                raise ValueError(f"{name}: expected one dimension, got shape {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.costs.size != self.flags.size:
            raise ValueError(f"flags: expected {self.costs.size} entries, got {self.flags.size}")
        if not np.all(np.isfinite(self.costs)):
            raise ValueError("costs: must be finite")

    @property
    def cf1_size(self) -> int:
        return self.costs.size

    @property
    def invalidation_pct(self) -> float | None:
        return _percent(self.flags)

    def to_csv_text(self) -> str:
        return _csv_text(REPORT_COLUMNS, [(
            self.algorithm, self.model_kind, self.m1_cv_acc, self.m2_cv_acc,
            self.cf1_size, self.invalidation_pct,
        )])

    def json_chunks(self):
        """report.json's text in chunks: json.dumps(doc, indent=2) + "\n" for
        the document of the scalars and a `per_record` list of {"cost",
        "invalidated"} objects, written from the columns without building it:
        one chunk per record, in json's layout, with a finite cost as its repr."""
        pct = self.invalidation_pct
        head = json.dumps({
            "algorithm": self.algorithm,
            "model_kind": self.model_kind,
            "m1_cv_acc": self.m1_cv_acc,
            "m2_cv_acc": self.m2_cv_acc,
            "cf1_size": self.cf1_size,
            "invalidation_pct": "NAN" if pct is None else pct,
            "per_record": [],
        }, indent=2)
        if not self.cf1_size:
            yield head + "\n"
            return
        yield head.removesuffix("]\n}")
        sep = "\n"
        for cost, flag in zip(self.costs.tolist(), self.flags.tolist()):
            value = "true" if flag else "false"
            yield f'{sep}    {{\n      "cost": {cost!r},\n      "invalidated": {value}\n    }}'
            sep = ",\n"
        yield "\n  ]\n}\n"


def _less_holdout(cfg: ExperimentConfig, data: Dataset, split_name: str) -> Dataset:
    """data less its holdout; `split_name` keys the split seed."""
    if cfg.holdout_fraction > 0.0:
        data, _ = split(data, cfg.holdout_fraction, derive_seed(cfg.seeds.data, split_name))
    return data


def _training_sample(cfg: ExperimentConfig, source, split_name: str) -> Dataset:
    """The source's sample less its holdout; `split_name` keys the split seed."""
    return _less_holdout(cfg, _materialize(source), split_name)


def _model_spec(cfg: ExperimentConfig) -> ModelSpec:
    return replace(cfg.model_spec, seed=cfg.seeds.model)


def _prepare(cfg: ExperimentConfig, d1_train: Dataset) -> RecourseSet:
    """The recourses against M1, the model trained on d1_train; M1 is the set's model."""
    m1 = train(_model_spec(cfg), d1_train)
    return batch_recourse(
        m1, d1_train, cfg.method, cfg.cost,
        params=cfg.method_params, seed=cfg.seeds.recourse, scm=cfg.scm,
    )


def _evaluate_m2(points: np.ndarray, m2: TrainedModel) -> tuple[np.ndarray, float | None]:
    """Invalidation flags under M2 of the recourse points, one per row, and
    their percentage (None when there are no points)."""
    flags = m2.predict(points) == -1
    return flags, _percent(flags)


def _fork_cv(spec: ModelSpec, samples, folds: int) -> tuple[int, io.BufferedReader]:
    """Fork a child that cross-validates each of `samples` in order; return its
    pid and the read end of its pipe. The child inherits the samples, so
    nothing is pickled into it. For each sample it pickles (True, accuracy)
    or (False, the exception) into the pipe, then it leaves by os._exit."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for data in samples:
                    try:
                        # looked up when called, so the child runs whatever this
                        # module binds to that name
                        result = (True, cross_val_accuracy(spec, data, folds))
                    except Exception as exc:
                        result = (False, exc)
                    pickle.dump(result, pipe)
                    pipe.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _cv_result(pid: int, pipe) -> float:
    """The next accuracy that child `pid` sends; raises the error it sends instead."""
    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise RecourseLabError(f"cross-validation worker {pid} ended without a result") from None
    if not ok:
        raise value
    return value


@contextlib.contextmanager
def _cv_reads(spec: ModelSpec, samples, folds: int, workers: int):
    """One call per sample that returns its CV accuracy. With workers == 0 the
    call cross-validates in this process. Otherwise `workers` forked children
    run the CVs while this process goes on, child i the samples i, i +
    workers, ...; leaving the block reaps every child, and SIGKILLs them all
    first if the block raises."""
    if not workers:
        yield [partial(cross_val_accuracy, spec, data, folds) for data in samples]
        return
    children = []
    try:
        for i in range(workers):
            children.append(_fork_cv(spec, samples[i::workers], folds))
        yield [partial(_cv_result, *children[i % workers]) for i in range(len(samples))]
    except BaseException:
        import signal  # only a failing parallel run kills its children

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def run_pipeline(cfg: ExperimentConfig, jobs: int = 1) -> InvalidationReport:
    """Full paired-model run; deterministic given the config (seeds included).

    Both training samples are loaded before any training, and each must
    hold at least cv_folds rows, or ConfigError names its source's `n` or
    `path`. With jobs > 1, min(jobs - 1, 2) children forked by os.fork
    cross-validate the two samples while this process trains M1, searches
    recourses, trains M2 and evaluates; with jobs == 1 the CV runs last, in
    this process. The report is the same at every `jobs`, and so is the
    first error: this process raises its own before it reads a child's
    result, and reads the d1 CV before the d2 CV. When this process raises,
    it kills and reaps every child first; a child that ends without sending
    its result raises RecourseLabError.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    sources = {"d1_source": cfg.d1_source, "d2_source": cfg.d2_source}
    loaded = [_materialize(source) for source in sources.values()]
    for (name, source), n in zip(sources.items(), [data.n for data in loaded]):
        rows = n - holdout_size(n, cfg.holdout_fraction)
        if rows < cfg.cv_folds:
            field = "synthetic.n" if isinstance(source, ShiftSpec) else "csv.path"
            raise ConfigError(f"{name}.{field}: leaves {rows} training rows after the holdout, "
                              f"fewer than cv_folds ({cfg.cv_folds})")
    d1_train, d2_train = samples = (_less_holdout(cfg, loaded[0], "d1-split"),
                                    _less_holdout(cfg, loaded[1], "d2-split"))
    del loaded  # the full samples; only their training rows are used from here
    spec = _model_spec(cfg)
    with _cv_reads(spec, samples, cfg.cv_folds, min(jobs - 1, len(samples))) as cv:
        cf1 = _prepare(cfg, d1_train)
        flags, _ = _evaluate_m2(cf1.points, train(spec, d2_train))
        m1_acc, m2_acc = (read() for read in cv)
    return InvalidationReport(
        algorithm=ALGORITHM_LABELS[cfg.method],
        model_kind=MODEL_LABELS[cfg.model_spec.kind],
        m1_cv_acc=m1_acc,
        m2_cv_acc=m2_acc,
        costs=cf1.costs,
        flags=flags,
    )


@dataclass(frozen=True)
class SweepPoint:
    alpha: float
    invalidation_pct: float | None
    cf1_size: int


def _sweep_point(cfg: ExperimentConfig, d2_source: ShiftSpec, points: np.ndarray) -> SweepPoint:
    """M2 trained on d2_source's sample, and how many of the recourse points it rejects."""
    d2_train = _training_sample(cfg, d2_source, "d2-split")
    _, pct = _evaluate_m2(points, train(_model_spec(cfg), d2_train))
    return SweepPoint(d2_source.alpha, pct, len(points))


def sweep_sources(scenario: str, alphas, base: ExperimentConfig) -> list[ShiftSpec]:
    """The shifted d2 source of each alpha; raises ValueError for a bad alpha or base.

    The alphas must be nonempty and valid for the scenario, and both of the
    base config's sources synthetic. A source too small to hold rows out, or
    to leave 2 training rows, raises ConfigError naming its `n`.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alphas must be nonempty")
    if not isinstance(base.d1_source, ShiftSpec) or not isinstance(base.d2_source, ShiftSpec):
        raise ValueError("sensitivity_sweep needs synthetic d1 and d2 sources")
    for name, source in (("d1_source", base.d1_source), ("d2_source", base.d2_source)):
        if base.holdout_fraction > 0.0 and source.n < 2:
            raise ConfigError(
                f"{name}.synthetic.n: must be at least 2 to hold rows out, got {source.n}")
        rows = source.n - holdout_size(source.n, base.holdout_fraction)
        if rows < 2:
            raise ConfigError(f"{name}.synthetic.n: leaves {rows} training rows, fewer than 2")
    return [
        ShiftSpec(scenario, float(alpha), base.d2_source.n, base.d2_source.seed)
        for alpha in alphas
    ]


def sensitivity_sweep(scenario: str, alphas, base: ExperimentConfig) -> list[SweepPoint]:
    """One pipeline run per shift magnitude, with the d1 sample and model fixed.

    Every alpha (see sweep_sources) is validated before any training. The d1
    side is prepared once, then each alpha's d2 side, all in this process. The
    sweep trains no CV folds: a SweepPoint holds no accuracy. Invalidation and
    CF1 size match per-alpha run_pipeline calls exactly (all stages are pure).
    """
    specs = sweep_sources(scenario, alphas, base)
    points = _prepare(base, _training_sample(base, base.d1_source, "d1-split")).points
    return [_sweep_point(base, spec, points) for spec in specs]


def sweep_csv_text(points) -> str:
    return _csv_text(("alpha", "invalidation_pct", "cf1_size"),
                     [(repr(p.alpha), p.invalidation_pct, p.cf1_size) for p in points])


@dataclass(frozen=True)
class TradeoffStats:
    quartile_rates: tuple[float, float, float, float]
    spearman: float


def cost_invalidation_check(cf1: RecourseSet, m2_draws) -> TradeoffStats:
    """Invalidation rate per cost quartile plus cost/invalidation rank correlation.

    (cost, invalidated) pairs are pooled across all updated-model draws; quartiles
    are formed over the recourse costs with ties broken by input order. The rank
    correlation is NaN when every recourse shares one invalidation rate.
    For a linear M1 and `parallel_perturb` draws, invalidation depends only on
    depth past the boundary, so the quartile gap measures how strongly depth is
    correlated with cost.
    """
    m2_draws = list(m2_draws)
    if not m2_draws:
        raise ValueError("need at least one updated-model draw")
    if cf1.size < 4:
        raise DegenerateMetricError("cost quartiles need at least 4 recourses")
    costs = cf1.costs
    if np.allclose(costs, costs[0]):
        raise DegenerateMetricError("all recourse costs identical; quartiles undefined")
    invalid = np.stack([m2.predict(cf1.points) == -1 for m2 in m2_draws], axis=1)

    order = np.argsort(costs, kind="stable")
    groups = np.array_split(order, 4)
    rates = tuple(float(invalid[g].mean()) for g in groups)

    mean_invalid = invalid.mean(axis=1)
    if np.all(mean_invalid == mean_invalid[0]):
        return TradeoffStats(rates, float("nan"))
    return TradeoffStats(rates, _spearman(costs, mean_invalid))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _spearman(a, b) -> float:
    """Spearman rank correlation: Pearson correlation of the average ranks."""
    ra = _average_ranks(np.asarray(a, dtype=float))
    rb = _average_ranks(np.asarray(b, dtype=float))
    return float(np.corrcoef(ra, rb)[0, 1])
