"""Paired-model experiment pipeline and invalidation metrics.

A run materializes two data samples, trains one model on each with identical
hyperparameters, generates recourses against the first model's negatives, and
measures how many of those recourses the second model rejects.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .dataset import Dataset, FeatureSchema, ShiftSpec, load_csv, split, synth_schema, synth_shift
from .errors import (
    DegenerateMetricError,
    SchemaMismatchError,
)
from .models import ModelSpec, TrainedModel, cross_val_accuracy, train
from .recourse import CostFn, RecourseSet, Scm, batch_recourse, method_params
from .util import derive_seed

ALGORITHM_LABELS = {"cfe": "CFE", "ar": "AR", "causal": "Causal", "markov": "Markov"}
MODEL_LABELS = {"logistic_regression": "LR", "linear_svm": "SVM", "mlp": "DNN"}

REPORT_COLUMNS = ("Algorithm", "Model", "M1 acc", "M2 acc", "CF1 Size", "Invalidation %")


@dataclass(frozen=True)
class Seeds:
    data: int
    model: int
    recourse: int


@dataclass(frozen=True)
class CsvSource:
    path: str
    schema: FeatureSchema


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
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
                f"holdout_fraction must lie in [0, 0.5], got {self.holdout_fraction}"
            )
        if self.method not in ALGORITHM_LABELS:
            raise ValueError(f"unknown recourse method {self.method!r}")
        params = method_params(self.method, self.method_params)
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")
        s1, s2 = _source_schema(self.d1_source), _source_schema(self.d2_source)
        if not s1.compatible_with(s2):
            raise SchemaMismatchError("d1 and d2 sources have incompatible schemas")
        if self.method == "causal" and self.scm is None and s1.n_features != 3:
            raise ValueError(
                f"no scm given and the default causal chain needs 3 features, got {s1.n_features}"
            )
        # the AR surrogate fit needs 10 samples per feature; checked here, before any training
        if self.method == "ar" and params["n_samples"] < 10 * s1.n_features:
            raise ValueError(
                f"n_samples must be at least 10 * {s1.n_features} features, "
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


@dataclass(frozen=True, eq=False)
class InvalidationReport:
    algorithm: str
    model_kind: str
    m1_cv_acc: float
    m2_cv_acc: float
    cf1_size: int
    invalidation_pct: float | None
    per_record: tuple[tuple[float, bool], ...]

    def __post_init__(self):
        object.__setattr__(self, "per_record", tuple(self.per_record))
        if (self.invalidation_pct is None) != (self.cf1_size == 0):
            raise ValueError("invalidation_pct must be NAN exactly when CF1 is empty")
        if self.cf1_size:
            expected = 100.0 * sum(flag for _, flag in self.per_record) / self.cf1_size
            if abs(expected - self.invalidation_pct) > 1e-9:
                raise ValueError("invalidation_pct disagrees with per_record flags")

    def csv_row(self) -> list[str]:
        inv = "NAN" if self.invalidation_pct is None else f"{self.invalidation_pct:.2f}"
        return [
            self.algorithm,
            self.model_kind,
            f"{self.m1_cv_acc:.2f}",
            f"{self.m2_cv_acc:.2f}",
            str(self.cf1_size),
            inv,
        ]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        writer.writerow(self.csv_row())
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "model_kind": self.model_kind,
            "m1_cv_acc": self.m1_cv_acc,
            "m2_cv_acc": self.m2_cv_acc,
            "cf1_size": self.cf1_size,
            "invalidation_pct": "NAN" if self.invalidation_pct is None else self.invalidation_pct,
            "per_record": [
                {"cost": cost, "invalidated": bool(flag)} for cost, flag in self.per_record
            ],
        }


@dataclass(frozen=True, eq=False)
class _Prepared:
    """First half of a run: everything that does not depend on the d2 sample."""

    config: ExperimentConfig
    model_spec: ModelSpec
    d1_train: Dataset
    m1: TrainedModel
    cf1: RecourseSet


def _training_sample(cfg: ExperimentConfig, source, split_name: str) -> Dataset:
    """The source's sample less its holdout; `split_name` keys the split seed."""
    data = _materialize(source)
    if cfg.holdout_fraction > 0.0:
        data, _ = split(data, cfg.holdout_fraction, derive_seed(cfg.seeds.data, split_name))
    return data


def _check_compatible(d1_train: Dataset, d2_train: Dataset) -> None:
    if not d1_train.schema.compatible_with(d2_train.schema):
        raise SchemaMismatchError("d2 schema incompatible with d1")


def _model_spec(cfg: ExperimentConfig) -> ModelSpec:
    return replace(cfg.model_spec, seed=cfg.seeds.model)


def _prepare(cfg: ExperimentConfig, d1_train: Dataset) -> _Prepared:
    spec = _model_spec(cfg)
    m1 = train(spec, d1_train)
    cf1 = batch_recourse(
        m1, d1_train, cfg.method, cfg.cost,
        params=cfg.method_params, seed=cfg.seeds.recourse, scm=cfg.scm,
    )
    return _Prepared(cfg, spec, d1_train, m1, cf1)


def _evaluate_m2(cf1: RecourseSet, m2: TrainedModel) -> tuple[np.ndarray, float | None]:
    """Per-recourse invalidation flags under M2, and their percentage (None for an empty CF1)."""
    if not cf1.size:
        return np.zeros(0, dtype=bool), None
    flags = m2.predict(cf1.recourse_matrix()) == -1
    return flags, 100.0 * float(np.mean(flags))


def _invalidation(cfg: ExperimentConfig, d1_train: Dataset, d2_train: Dataset):
    """M1, its recourses, M2 and the flags: (CF1, flags, percentage)."""
    prepared = _prepare(cfg, d1_train)
    flags, pct = _evaluate_m2(prepared.cf1, train(prepared.model_spec, d2_train))
    return prepared.cf1, flags, pct


def _cross_validate(state, i: int) -> float:
    spec, samples, folds = state
    return cross_val_accuracy(spec, samples[i], folds)


# Set by _init_worker in each pool worker; forked workers get its argument without pickling.
_worker_state = None


def _init_worker(state) -> None:
    global _worker_state
    _worker_state = state


def _in_worker(fn, *args):
    return fn(_worker_state, *args)


def _fork_pool(workers: int, state):
    """A pool of `workers` forked processes; run a task there as `_in_worker(fn, ...)`.

    The pool modules are imported here, not at module level, because only a
    parallel `run` or `sweep` forks.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(state,),
    )


def run_pipeline(cfg: ExperimentConfig, jobs: int = 1) -> InvalidationReport:
    """Full paired-model run; deterministic given the config (seeds included).

    Both training samples are loaded and their schemas checked before any
    training. With jobs > 1, min(jobs - 1, 2) forked workers cross-validate
    the two samples while this process trains M1, searches recourses, trains
    M2 and evaluates; with jobs == 1 the CV runs last, in this process. The
    report is the same at every `jobs`, and so is the first error: this
    process raises its own before it reads a worker's result, and reads the
    d1 CV before the d2 CV.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    d1_train = _training_sample(cfg, cfg.d1_source, "d1-split")
    d2_train = _training_sample(cfg, cfg.d2_source, "d2-split")
    _check_compatible(d1_train, d2_train)
    samples = (d1_train, d2_train)
    cv_state = (_model_spec(cfg), samples, cfg.cv_folds)
    workers = min(jobs - 1, len(samples))
    if workers == 0:
        cf1, flags, pct = _invalidation(cfg, *samples)
        m1_acc, m2_acc = (_cross_validate(cv_state, i) for i in range(len(samples)))
    else:
        with _fork_pool(workers, cv_state) as pool:
            pending = [pool.submit(_in_worker, _cross_validate, i) for i in range(len(samples))]
            cf1, flags, pct = _invalidation(cfg, *samples)
            m1_acc, m2_acc = (future.result() for future in pending)
    return InvalidationReport(
        algorithm=ALGORITHM_LABELS[cfg.method],
        model_kind=MODEL_LABELS[cfg.model_spec.kind],
        m1_cv_acc=m1_acc,
        m2_cv_acc=m2_acc,
        cf1_size=cf1.size,
        invalidation_pct=pct,
        per_record=tuple((rec.cost, bool(flag)) for rec, flag in zip(cf1.records, flags)),
    )


@dataclass(frozen=True)
class SweepPoint:
    alpha: float
    invalidation_pct: float | None
    cf1_size: int


def _sweep_point(prepared: _Prepared, d2_source: ShiftSpec) -> SweepPoint:
    d2_train = _training_sample(prepared.config, d2_source, "d2-split")
    _check_compatible(prepared.d1_train, d2_train)
    _, pct = _evaluate_m2(prepared.cf1, train(prepared.model_spec, d2_train))
    return SweepPoint(d2_source.alpha, pct, prepared.cf1.size)


def sweep_sources(scenario: str, alphas, base: ExperimentConfig) -> list[ShiftSpec]:
    """The shifted d2 source of each alpha; raises ValueError for a bad alpha or base.

    The alphas must be nonempty and valid for the scenario, and both of the
    base config's sources synthetic.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alphas must be nonempty")
    if not isinstance(base.d1_source, ShiftSpec) or not isinstance(base.d2_source, ShiftSpec):
        raise ValueError("sensitivity_sweep needs synthetic d1 and d2 sources")
    return [
        ShiftSpec(scenario, float(alpha), base.d2_source.n, base.d2_source.seed)
        for alpha in alphas
    ]


def sensitivity_sweep(scenario: str, alphas, base: ExperimentConfig, jobs: int = 1) -> list[SweepPoint]:
    """One pipeline run per shift magnitude, with the d1 sample and model fixed.

    Every alpha (see sweep_sources), and `jobs` itself, is validated before
    any training, so a bad alpha fails the same way whatever `jobs` is. The
    d1 side is prepared once in the calling process. When min(jobs,
    len(alphas)) exceeds one, that many forked workers run only the d2 side.
    The sweep trains no CV folds: a SweepPoint holds no accuracy.
    Invalidation and CF1 size match per-alpha run_pipeline calls exactly (all
    stages are pure).
    """
    specs = sweep_sources(scenario, alphas, base)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    prepared = _prepare(base, _training_sample(base, base.d1_source, "d1-split"))
    workers = min(jobs, len(specs))
    if workers <= 1:
        return [_sweep_point(prepared, spec) for spec in specs]
    with _fork_pool(workers, prepared) as pool:
        return list(pool.map(partial(_in_worker, _sweep_point), specs))


def sweep_csv_text(points) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha", "invalidation_pct", "cf1_size"])
    for p in points:
        inv = "NAN" if p.invalidation_pct is None else f"{p.invalidation_pct:.2f}"
        writer.writerow([repr(p.alpha), inv, p.cf1_size])
    return buf.getvalue()


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
    costs = cf1.costs()
    if np.allclose(costs, costs[0]):
        raise DegenerateMetricError("all recourse costs identical; quartiles undefined")
    points = cf1.recourse_matrix()
    invalid = np.stack([m2.predict(points) == -1 for m2 in m2_draws], axis=1)

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
