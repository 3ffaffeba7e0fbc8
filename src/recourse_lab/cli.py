"""Config-driven command line: `run`, `sweep`, and `bounds` subcommands.

All randomness flows from the seeds named in the config; the environment
variable RECOURSE_LAB_SEED_OVERRIDE (an integer) replaces every config seed
for smoke tests. Output files are written atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .dataset import Dataset, FeatureSchema, FeatureSpec, ShiftSpec, synth_base
from .errors import ConfigError, DataValidationError, RecourseLabError, SchemaMismatchError
from .models import ModelSpec, linear_model, train
from .recourse import RECOURSE_METHODS, CostFn, Scm, ScmVariable, method_params
from .shiftlab import (
    CsvSource,
    ExperimentConfig,
    Seeds,
    run_pipeline,
    sensitivity_sweep,
    sweep_csv_text,
    sweep_sources,
)
from .theory import BoundInput, verify_bound
from .util import atomic_write_text, canonical_json, is_number

SEED_OVERRIDE_ENV = "RECOURSE_LAB_SEED_OVERRIDE"


def _fail(field: str, message: str):
    raise ConfigError(f"{field}: {message}")


def _get(doc: dict, field: str, expected=None, default=...):
    if field.split(".")[-1] not in doc:
        if default is not ...:
            return default
        _fail(field, "missing required field")
    value = doc[field.split(".")[-1]]
    if expected in (int, (int, float)):
        if not (is_number(value, int) if expected is int else is_number(value)):
            what = "an integer" if expected is int else "a finite number"
            _fail(field, f"expected {what}, got {json.dumps(value)}")
    elif expected is not None and not isinstance(value, expected):
        _fail(field, f"expected {expected.__name__}, got {type(value).__name__}")
    return value


def _known_keys(doc: dict, field: str, keys) -> dict:
    """doc itself; a key outside `keys` exits 2 and names its full path."""
    for key in doc:
        if key not in keys:
            _fail(f"{field}.{key}" if field else key, "unknown key")
    return doc


def _parse_source(doc, field: str):
    if not isinstance(doc, dict) or len(doc) != 1:
        _fail(field, 'expected exactly one of {"synthetic": {...}} or {"csv": {...}}')
    if "synthetic" in doc:
        field = f"{field}.synthetic"
        sub = _known_keys(_get(doc, field, dict), field, ("scenario", "alpha", "n", "seed"))
        try:
            return ShiftSpec(
                scenario=_get(sub, f"{field}.scenario", str),
                alpha=float(_get(sub, f"{field}.alpha", (int, float))),
                n=int(_get(sub, f"{field}.n", int)),
                seed=int(_get(sub, f"{field}.seed", int)),
            )
        except ValueError as exc:
            _fail(field, str(exc))
    if "csv" in doc:
        field = f"{field}.csv"
        sub = _known_keys(_get(doc, field, dict), field, ("path", "schema"))
        path = _get(sub, f"{field}.path", str)
        schema_doc = _get(sub, f"{field}.schema", dict)
        try:
            schema = FeatureSchema.from_dict(schema_doc)
        except DataValidationError as exc:  # its message starts with the path inside the schema
            raise ConfigError(f"{field}.schema.{exc}") from None
        return CsvSource(path=path, schema=schema)
    _fail(field, 'source must be "synthetic" or "csv"')


def _parse_scm(doc, field: str) -> Scm:
    if not isinstance(doc, list) or not doc:
        _fail(field, "expected a nonempty list of variables")
    variables = []
    for i, var in enumerate(doc):
        if not isinstance(var, dict):
            _fail(f"{field}[{i}]", f"expected an object, got {type(var).__name__}")
        _known_keys(var, f"{field}[{i}]", ("name", "parents", "intervenable"))
        parents = _get(var, f"{field}[{i}].parents", dict, {})
        for idx, coeff in parents.items():
            if not (idx.isdecimal() and is_number(coeff)):
                _fail(f"{field}[{i}].parents",
                      f"expected parent index: coefficient, got {idx!r}: {coeff!r}")
        variables.append(ScmVariable(
            name=_get(var, f"{field}[{i}].name", str),
            parents=tuple((int(idx), float(coeff)) for idx, coeff in parents.items()),
            intervenable=bool(_get(var, f"{field}[{i}].intervenable", bool, True)),
        ))
    try:
        return Scm(tuple(variables))
    except ValueError as exc:
        _fail(field, str(exc))


def _apply_seed_override(doc: dict) -> dict:
    raw = os.environ.get(SEED_OVERRIDE_ENV)
    if raw is None:
        return doc
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_OVERRIDE_ENV}: expected an integer, got {raw!r}")
    doc = json.loads(json.dumps(doc))  # deep copy
    doc["seeds"] = {"data": value, "model": value, "recourse": value}
    # keep the two samples distinct so the override still exercises a real update
    for key, bump in (("d1_source", 0), ("d2_source", 1)):
        src = doc.get(key)
        if isinstance(src, dict) and "synthetic" in src:
            src["synthetic"]["seed"] = value + bump
    return doc


_TOP_LEVEL_KEYS = ("d1_source", "d2_source", "model", "recourse", "cost",
                   "holdout_fraction", "seeds", "cv_folds", "scm")


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    _known_keys(doc, "", _TOP_LEVEL_KEYS)
    seeds_doc = _known_keys(_get(doc, "seeds", dict), "seeds", ("data", "model", "recourse"))
    seeds = Seeds(
        data=int(_get(seeds_doc, "seeds.data", int)),
        model=int(_get(seeds_doc, "seeds.model", int)),
        recourse=int(_get(seeds_doc, "seeds.recourse", int)),
    )
    model_doc = _known_keys(_get(doc, "model", dict), "model",
                            ("kind", "hidden_layers", "learning_rate", "epochs", "l2_penalty"))
    hidden = _get(model_doc, "model.hidden_layers", list, [])
    if not all(is_number(width, int) for width in hidden):
        _fail("model.hidden_layers", f"expected a list of integers, got {hidden!r}")
    try:
        spec = ModelSpec(
            kind=_get(model_doc, "model.kind", str),
            hidden_layers=tuple(hidden),
            learning_rate=float(_get(model_doc, "model.learning_rate", (int, float), 0.5)),
            epochs=int(_get(model_doc, "model.epochs", int, 300)),
            l2_penalty=float(_get(model_doc, "model.l2_penalty", (int, float), 1e-4)),
            seed=seeds.model,
        )
    except ValueError as exc:
        _fail("model", str(exc))
    recourse_doc = _known_keys(_get(doc, "recourse", dict), "recourse", ("method", "params"))
    method = _get(recourse_doc, "recourse.method", str)
    params = _get(recourse_doc, "recourse.params", dict, {})
    if method in RECOURSE_METHODS:  # ExperimentConfig names an unknown method
        for name, value in params.items():
            try:
                method_params(method, {name: value})
            except ValueError as exc:
                _fail(f"recourse.params.{name}", str(exc))
    cost_doc = _known_keys(_get(doc, "cost", dict, {"norm": "L2"}), "cost", ("norm",))
    try:
        cost = CostFn(_get(cost_doc, "cost.norm", str, "L2"))
    except ValueError as exc:
        _fail("cost.norm", str(exc))
    holdout = float(_get(doc, "holdout_fraction", (int, float), 0.1))
    cv_folds = int(_get(doc, "cv_folds", int, 10))
    scm = None
    if doc.get("scm") is not None:
        scm = _parse_scm(doc["scm"], "scm")
    try:
        return ExperimentConfig(
            d1_source=_parse_source(_get(doc, "d1_source", dict), "d1_source"),
            d2_source=_parse_source(_get(doc, "d2_source", dict), "d2_source"),
            model_spec=spec,
            method=method,
            cost=cost,
            method_params=dict(params),
            holdout_fraction=holdout,
            seeds=seeds,
            cv_folds=cv_folds,
            scm=scm,
        )
    except SchemaMismatchError as exc:
        _fail("d2_source.schema", str(exc))
    except ValueError as exc:
        message = str(exc)
        field = "recourse.params.n_samples" if "n_samples" in message else (
            "holdout_fraction" if "holdout_fraction" in message else (
            "recourse.method" if "method" in message else (
                "cv_folds" if "cv_folds" in message else "config")))
        _fail(field, message)


def _load_config(path: str) -> tuple[ExperimentConfig, dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}")
    doc = _apply_seed_override(doc)
    return parse_config(doc), doc


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _write_manifest(out_dir: str, doc: dict, outputs: list[str], started: float) -> str:
    manifest = {
        "config_hash": _config_hash(doc),
        "tool_version": __version__,
        "outputs": outputs,
        "wall_time": time.monotonic() - started,
    }
    path = os.path.join(out_dir, "manifest.json")
    atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
    return path


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"--jobs: must be at least 1, got {jobs}")


def cmd_run(args) -> int:
    started = time.monotonic()
    _check_jobs(args.jobs)
    cfg, doc = _load_config(args.config)
    report = run_pipeline(cfg, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "report.csv")
    json_path = os.path.join(args.out, "report.json")
    atomic_write_text(csv_path, report.to_csv_text())
    atomic_write_text(json_path, json.dumps(report.to_json_dict(), indent=2) + "\n")
    manifest = _write_manifest(args.out, doc, [csv_path, json_path], started)
    print(f"wrote {csv_path}, {json_path}, {manifest}")
    return 0


def cmd_sweep(args) -> int:
    started = time.monotonic()
    _check_jobs(args.jobs)
    cfg, doc = _load_config(args.config)
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip() != ""]
    except ValueError:
        raise ConfigError(f"alphas: expected comma-separated numbers, got {args.alphas!r}")
    try:
        sweep_sources(args.scenario, alphas, cfg)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}")
    points = sensitivity_sweep(args.scenario, alphas, cfg, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    atomic_write_text(csv_path, sweep_csv_text(points))
    manifest = _write_manifest(args.out, doc, [csv_path], started)
    print(f"wrote {csv_path}, {manifest}")
    return 0


def _builtin_ordinal_setup(delta: float) -> tuple:
    """Unit grid 0..top with the boundary at 30.5 and negatives on 0..30.

    Walkers cross at 31, and verify_bound retires a walker once the boundary
    translated by delta accepts it, at level 31 + delta at the latest. A top
    of at least that level means no walker can stall there, whatever rho is.
    """
    top = max(80, 31 + int(delta))
    schema = FeatureSchema((FeatureSpec("level", kind="ordinal", lower=0, upper=top),))
    model = linear_model(np.array([1.0]), -30.5, schema)
    values = np.tile(np.arange(31), 10)[:, None].astype(float)
    labels = np.full(values.shape[0], -1)
    return model, Dataset(schema, values, labels)


def cmd_bounds(args) -> int:
    try:
        bound = BoundInput(rho=args.rho, delta_m=args.delta, kind=args.kind)
    except ValueError as exc:
        raise ConfigError(f"bounds: {exc}")
    print(f"{bound.value():.5f}")
    if args.verify:
        if args.kind == "continuous":
            data = synth_base(4000, seed=0)
            model = train(ModelSpec.logistic(epochs=200), data)
        else:
            model, data = _builtin_ordinal_setup(args.delta)
        check = verify_bound(model, data, args.rho, args.delta, n_trials=2000, seed=0)
        print(
            f"empirical_Q={check.empirical_q:.5f} "
            f"theoretical_Q={check.theoretical_q:.5f} "
            f"abs_gap={check.abs_gap:.5f} n={check.n}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recourse-lab",
        description="Measure recourse invalidation under model updates and verify its bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cpus = len(os.sched_getaffinity(0))
    jobs_help = "most processes doing work at once (default: usable CPUs, here %(default)s)"

    p_run = sub.add_parser("run", help="run the paired-model pipeline from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--jobs", type=int, default=cpus, help=jobs_help)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="invalidation curve over shift magnitudes")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--scenario", required=True, choices=("target_shift", "predictor_shift"))
    p_sweep.add_argument("--alphas", required=True, help="comma-separated shift magnitudes")
    p_sweep.add_argument("--jobs", type=int, default=cpus, help=jobs_help)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="closed-form invalidation bound")
    p_bounds.add_argument("--rho", type=float, required=True)
    p_bounds.add_argument("--delta", type=float, required=True)
    p_bounds.add_argument("--kind", choices=("continuous", "ordinal"), default="continuous")
    p_bounds.add_argument("--verify", action="store_true",
                          help="also run the Monte-Carlo check on a built-in synthetic setup")
    p_bounds.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RecourseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
