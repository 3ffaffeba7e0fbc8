"""Config-driven command line: `run`, `sweep`, and `bounds` subcommands.

This module alone knows the config JSON format (see parse_config). All
randomness flows from the seeds named in the config. `run` and `sweep` write
each output file atomically, then a manifest.json that names them. The
package's public names that only `run` and `sweep` use, such as run_pipeline,
load on first use, so `bounds` loads neither `shiftlab` nor `recourse`.

Importing this module moves every object alive then into the garbage
collector's permanent generation (gc.freeze), and exit does so again, so
the interpreter's final collection at exit walks none of them. Collection
stays enabled for the objects made in between.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import hashlib
import json
import os
import sys
import time

# No matrix here is wider than about ten columns, so a second BLAS thread only
# spins; every CLI process and every worker it forks runs one. An explicit
# setting wins. BLAS reads these when NumPy loads, so this precedes every
# import that can load it, the package's own included.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import __version__, models
from .dataset import Dataset, FeatureSchema, FeatureSpec, ShiftSpec, synth_base
from .errors import ConfigError, DataValidationError, RecourseLabError, SchemaMismatchError
from .models import ModelSpec, linear_model
from .theory import invalidation_bound, verify_bound
from .util import atomic_write_text, canonical_json, is_number

# The start-up heap, NumPy's objects and the package's, lives until exit.
# Frozen, no collection walks it again: not this process's, nor a forked
# CV child's, whose pages it would copy. Freezing again at exit spares the
# interpreter's final collection the objects made since. Collection stays on.
gc.freeze()
atexit.register(gc.freeze)

_this = sys.modules[__name__]


def __getattr__(name):
    """A public name of the package, looked up there on first use (PEP 562).
    Code here reads these through `_this`, so a value set on this module, such
    as a wrapper, is the one called."""
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(package, name)


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


# kinds of config value: (test, what the error says was expected)
_TEXT = (lambda v: isinstance(v, str), "a string")
_BOOL = (lambda v: isinstance(v, bool), "a boolean")
_INT = (lambda v: is_number(v, int), "an integer")
_NUMBER = (is_number, "a finite number")
_BOUND = (lambda v: is_number(v) or v in (-np.inf, np.inf), "a non-NaN number")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_LIST = (lambda v: isinstance(v, list), "a list")
_WIDTHS = (lambda v: isinstance(v, list) and all(is_number(w, int) for w in v), "a list of integers")
_PARENTS = (lambda v: isinstance(v, dict) and all(k.isdecimal() and is_number(c) for k, c in v.items()),
            "an object of parent index: coefficient")
_VARIABLES = (lambda v: v is None or (isinstance(v, list) and len(v) > 0), "a nonempty list of variables")


def _read(doc, path: str, fields: dict) -> dict:
    """doc's value, or the default, for each key of `fields`, which maps a key
    to (default, kind); the default ... marks a required key. An unknown,
    missing or mistyped key exits 2 and names its full path."""
    if not isinstance(doc, dict):
        _fail(path or "config", f"expected an object, got {json.dumps(doc)}")
    at = f"{path}." if path else ""
    for key in doc:
        if key not in fields:
            _fail(at + key, "unknown key")
    out = {}
    for key, (default, (test, expected)) in fields.items():
        if key not in doc:
            if default is ...:
                _fail(at + key, "missing required field")
            out[key] = default
        elif not test(doc[key]):
            _fail(at + key, f"expected {expected}, got {json.dumps(doc[key])}")
        else:
            out[key] = doc[key]
    return out


def _made(prefix: str, make, **fields):
    """make(**fields), exiting 2 on a ValueError, DataValidationError or
    SchemaMismatchError it raises, with `prefix` put before the message. The
    prefix ends in "." when make's messages start with the field they
    concern, and in ": " when they do not."""
    try:
        return make(**fields)
    except (ValueError, DataValidationError, SchemaMismatchError) as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _parse_schema(doc, path: str) -> FeatureSchema:
    top = _read(doc, path, {"features": (..., _LIST), "label": ("label", _TEXT)})
    features = []
    for i, entry in enumerate(top["features"]):
        at = f"{path}.features[{i}]"
        spec = _read(entry, at, {
            "name": (..., _TEXT), "kind": ("continuous", _TEXT), "actionable": (True, _BOOL),
            "lower": (-np.inf, _BOUND), "upper": (np.inf, _BOUND),
        })
        features.append(_made(f"{at}: ", FeatureSpec, **{
            **spec, "lower": float(spec["lower"]), "upper": float(spec["upper"])}))
    return _made(f"{path}.features: ", FeatureSchema,
                 features=tuple(features), label_name=top["label"])


def _parse_source(doc, path: str):
    source = _read(doc, path, {"synthetic": (None, _OBJECT), "csv": (None, _OBJECT)})
    if (source["synthetic"] is None) == (source["csv"] is None):
        _fail(path, 'expected exactly one of {"synthetic": {...}} or {"csv": {...}}')
    if source["synthetic"] is not None:
        at = f"{path}.synthetic"
        spec = _read(source["synthetic"], at, {
            "scenario": (..., _TEXT), "alpha": (..., _NUMBER), "n": (..., _INT), "seed": (..., _INT),
        })
        return _made(f"{at}.", ShiftSpec, **{**spec, "alpha": float(spec["alpha"])})
    at = f"{path}.csv"
    spec = _read(source["csv"], at, {"path": (..., _TEXT), "schema": (..., _OBJECT)})
    return _this.CsvSource(path=spec["path"], schema=_parse_schema(spec["schema"], f"{at}.schema"))


def _parse_scm(doc: list, path: str) -> Scm:
    variables = []
    for i, entry in enumerate(doc):
        var = _read(entry, f"{path}[{i}]", {
            "name": (..., _TEXT), "parents": ({}, _PARENTS), "intervenable": (True, _BOOL),
        })
        variables.append(_this.ScmVariable(**{**var, "parents": tuple(var["parents"].items())}))
    return _made(f"{path}: ", _this.Scm, variables=tuple(variables))


def parse_config(doc) -> ExperimentConfig:
    """The experiment a config JSON document describes. Every section is read
    by `_read`, and every error exits 2 with a message that starts with the
    path of the field it concerns."""
    top = _read(doc, "", {
        "d1_source": (..., _OBJECT), "d2_source": (..., _OBJECT),
        "model": (..., _OBJECT), "recourse": (..., _OBJECT), "cost": ({}, _OBJECT),
        "holdout_fraction": (0.1, _NUMBER), "seeds": (..., _OBJECT), "cv_folds": (10, _INT),
        "scm": (None, _VARIABLES),
    })
    seeds = _made("seeds.", _this.Seeds, **_read(top["seeds"], "seeds", {
        "data": (..., _INT), "model": (..., _INT), "recourse": (..., _INT),
    }))
    model = _read(top["model"], "model", {
        "kind": (..., _TEXT), "hidden_layers": ([], _WIDTHS), "learning_rate": (0.5, _NUMBER),
        "epochs": (300, _INT), "l2_penalty": (1e-4, _NUMBER),
    })
    spec = _made("model.", ModelSpec, **{
        **model, "hidden_layers": tuple(model["hidden_layers"]),
        "learning_rate": float(model["learning_rate"]), "l2_penalty": float(model["l2_penalty"]),
    })
    recourse = _read(top["recourse"], "recourse", {"method": (..., _TEXT), "params": ({}, _OBJECT)})
    cost = _read(top["cost"], "cost", {"norm": ("L2", _TEXT)})
    return _made(
        "", _this.ExperimentConfig,
        d1_source=_parse_source(top["d1_source"], "d1_source"),
        d2_source=_parse_source(top["d2_source"], "d2_source"),
        model_spec=spec,
        method=recourse["method"],
        cost=_made("cost.", _this.CostFn, **cost),
        method_params=dict(recourse["params"]),
        holdout_fraction=float(top["holdout_fraction"]),
        seeds=seeds,
        cv_folds=top["cv_folds"],
        scm=None if top["scm"] is None else _parse_scm(top["scm"], "scm"),
    )


def _load_config(path: str) -> tuple[ExperimentConfig, dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}")
    return parse_config(doc), doc


def _write_outputs(out_dir: str, texts: dict, doc: dict, started: float) -> None:
    """Write each text of `texts`, keyed by file name, into out_dir, then a
    manifest.json that lists them, and print the paths written. A text is a
    string or an iterable of strings (see atomic_write_text)."""
    os.makedirs(out_dir, exist_ok=True)
    outputs = [os.path.join(out_dir, name) for name in texts]
    for path, text in zip(outputs, texts.values()):
        atomic_write_text(path, text)
    manifest = {
        "config_hash": hashlib.sha256(canonical_json(doc).encode()).hexdigest(),
        "tool_version": __version__,
        "outputs": outputs,
        "wall_time": time.monotonic() - started,
    }
    path = os.path.join(out_dir, "manifest.json")
    atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {', '.join(outputs + [path])}")


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"--jobs: must be at least 1, got {jobs}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"--jobs: must be 1 where processes cannot fork, got {jobs}")


def _check_out(out_dir: str) -> None:
    """Exit 2 unless out_dir is nonempty and it or its nearest existing ancestor is a directory."""
    if not out_dir:
        raise ConfigError("--out: must not be empty")
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out: {path} is not a directory")


def cmd_run(args) -> int:
    started = time.monotonic()
    _check_jobs(args.jobs)
    cfg, doc = _load_config(args.config)
    _check_out(args.out)
    report = _this.run_pipeline(cfg, jobs=args.jobs)
    _write_outputs(args.out, {
        "report.csv": report.to_csv_text(),
        # streamed: the text of every record is never joined into one string
        "report.json": report.json_chunks(),
    }, doc, started)
    return 0


def cmd_sweep(args) -> int:
    from .shiftlab import sweep_csv_text, sweep_sources

    started = time.monotonic()
    _check_jobs(args.jobs)
    cfg, doc = _load_config(args.config)
    _check_out(args.out)
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip() != ""]
    except ValueError:
        raise ConfigError(f"alphas: expected comma-separated numbers, got {args.alphas!r}")
    try:
        sweep_sources(args.scenario, alphas, cfg)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}")
    points = _this.sensitivity_sweep(args.scenario, alphas, cfg)
    _write_outputs(args.out, {"sweep.csv": sweep_csv_text(points)}, doc, started)
    return 0


def _builtin_ordinal_setup(delta: float) -> tuple:
    """Unit grid 0..top with the boundary at 30.5 and negatives on 0..30.

    Walkers cross at 31, and verify_bound retires a walker once the boundary
    translated by delta accepts it, at level 31 + delta at the latest. A top
    of at least that level means no walker can stall there, whatever rho is.
    A float top keeps the bounds a float array for any delta, even one past
    the int64 range.
    """
    top = max(80.0, 31.0 + delta)
    schema = FeatureSchema((FeatureSpec("level", kind="ordinal", lower=0, upper=top),))
    model = linear_model(np.array([1.0]), -30.5, schema)
    values = np.tile(np.arange(31), 10)[:, None].astype(float)
    labels = np.full(values.shape[0], -1)
    return model, Dataset(schema, values, labels)


def cmd_bounds(args) -> int:
    try:
        bound = invalidation_bound(args.kind, args.rho, args.delta)
    except ValueError as exc:
        raise ConfigError(f"bounds: {exc}")
    print(f"{bound:.5f}")
    if args.verify:
        if args.kind == "continuous":
            data = synth_base(4000, seed=0)
            model = models.train(ModelSpec.logistic(epochs=200), data)
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
    # more than one job forks, and os.fork is missing on Windows; os.sched_getaffinity
    # is missing on some platforms, macOS and Windows among them
    if not hasattr(os, "fork"):
        cpus = 1
    elif hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    jobs_help = ("most processes doing work at once "
                 "(default: usable CPUs, or 1 where processes cannot fork; here %(default)s)")

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
    except (RecourseLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
