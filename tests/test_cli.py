import csv
import functools
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import recourse_lab as rl
from recourse_lab import cli, models, shiftlab, theory
from recourse_lab.cli import main
from recourse_lab.errors import TrainingError
from recourse_lab.util import atomic_write_text


def write_config(tmp_path, **overrides):
    doc = {
        "d1_source": {"synthetic": {"scenario": "target_shift", "alpha": 0.0,
                                    "n": 1200, "seed": 31}},
        "d2_source": {"synthetic": {"scenario": "target_shift", "alpha": 0.3,
                                    "n": 1200, "seed": 32}},
        "model": {"kind": "logistic_regression", "learning_rate": 0.5,
                  "epochs": 150, "l2_penalty": 1e-4},
        "recourse": {"method": "cfe", "params": {"margin_target": 0.2}},
        "cost": {"norm": "L2"},
        "holdout_fraction": 0.1,
        "seeds": {"data": 0, "model": 1, "recourse": 2},
        "cv_folds": 5,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# the README's example config
README_DOC = {
    "d1_source": {"synthetic": {"scenario": "target_shift", "alpha": 0.0, "n": 5000, "seed": 101}},
    "d2_source": {"synthetic": {"scenario": "target_shift", "alpha": 0.3, "n": 5000, "seed": 202}},
    "model": {"kind": "logistic_regression", "learning_rate": 0.5, "epochs": 300,
              "l2_penalty": 1e-4},
    "recourse": {"method": "cfe", "params": {"margin_target": 0.2}},
    "cost": {"norm": "L2"},
    "holdout_fraction": 0.1,
    "seeds": {"data": 0, "model": 1, "recourse": 2},
    "cv_folds": 10,
}
CHAIN_SCHEMA = {"features": [{"name": f"x{i}"} for i in range(3)], "label": "label"}
README_ALPHAS = "0,0.1,0.2,0.3,0.4,0.5,0.6"
# sha256 of the README run's report files and of its sweep over README_ALPHAS;
# every per-record cost in report.json is pinned to the last bit
README_DIGESTS = {
    "report.csv": "2939cd7e55ff4d0cd68dc36693e6faf6f831c11c6c8c0d2ebb28576061a9e993",
    "report.json": "2a99225b3e24484f7160ddb29376d678cd1c3a8bc3a8043dd47751eb49542497",
    "sweep.csv": "36b5c7f07425996eec36b282611b0c6fa502aa6e9fc61f8933bca29714afea51",
}
# the default chain SCM, written out as a config's scm section
CHAIN_SCM = [{"name": "x0"}, {"name": "x1", "parents": {"0": 0.8}},
             {"name": "x2", "parents": {"1": 0.5}}]
# sha256 of the report files of a causal run on chain-SCM CSVs with an (8, 8) MLP
CAUSAL_DIGESTS = {
    "report.csv": "06ccedff96f53c1654ab2a93445f26e0c47229566b665dce64ef532cc28b0031",
    "report.json": "38fd57d7421c21df652f87ba8291df4c78f5d85a744113c2e14bce65fa35c91e",
}

# sha256 of the report files (csv, json) of ar runs on chain CSVs, by model kind and norm
AR_DIGESTS = {
    ("logistic_regression", "L1"): (
        "2b74f6d95cdef445601a3b33f77a6844544e44d4fca14cd44fcbc58bb2338dda",
        "199dcddb0ea27ee83bfbe6a3a6bc0bbe61b1d6d8eccbb64f987b027792d5acd4"),
    ("logistic_regression", "L2"): (
        "010746695b1e5f73eed6bf01dcc2dbe288c39b494d452b3bbe9c6cdc8d5bb55c",
        "711a71be6542f5019951b7c2cb89ae524d215103030591f62b0ff31acf70e026"),
    ("linear_svm", "L1"): (
        "eb91db12080f62987e55202f9ec5bb2f40c9773dbc0a885065399b93b81a6f35",
        "2ef94bdec77faecebf2e02d1d4b5e9f97c0341c14b92a0d822e5999df827b98f"),
    ("linear_svm", "L2"): (
        "c8ee8f0f7d4c0dc3fa5ae5761786ec48e8549b69a0350f648534489a0ff688c9",
        "b6fe28448403ae58b3593a90f980d4b0a8985ac02237c3e47593e5a111ffd857"),
}


def write_chain_csv(path, n, x0_mean, seed, labels=None):
    """Rows of the default chain SCM, labelled +1 above a curved boundary unless `labels`."""
    rng = np.random.default_rng(seed)
    x0 = x0_mean + rng.standard_normal(n)
    x1 = 0.8 * x0 + rng.standard_normal(n)
    x2 = 0.5 * x1 + rng.standard_normal(n)
    if labels is None:
        labels = np.where(x0 + 0.5 * x1 + 0.4 * x2 * x2 - 0.5 >= 0.0, 1, -1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "x2", "label"])
        for row in zip(x0, x1, x2, labels):
            writer.writerow([repr(float(v)) for v in row[:3]] + [int(row[3])])
    return {"csv": {"path": str(path), "schema": CHAIN_SCHEMA}}


class TestBoundsCommand:
    def test_continuous_value(self, capsys):
        code = main(["bounds", "--rho", "2.0", "--delta", "0.25", "--kind", "continuous"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "0.39347"

    def test_ordinal_value(self, capsys):
        code = main(["bounds", "--rho", "0.5", "--delta", "2", "--kind", "ordinal"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "0.75000"

    def test_negative_rate_exits_2(self, capsys):
        assert main(["bounds", "--rho", "-1", "--delta", "0.25"]) == 2

    def test_verify_flag_prints_gap(self, capsys):
        code = main(["bounds", "--rho", "0.5", "--delta", "2", "--kind", "ordinal",
                     "--verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "empirical_Q=" in out and "abs_gap=" in out

    def test_verify_flag_continuous_setup(self, capsys):
        code = main(["bounds", "--rho", "2.0", "--delta", "0.25", "--verify"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0.39347"
        gap = float(lines[1].split("abs_gap=")[1].split()[0])
        assert gap <= 0.05

    @pytest.mark.parametrize("kind, fits", [("continuous", 1), ("ordinal", 0)])
    def test_verify_trains_through_models_module(self, capsys, monkeypatch, kind, fits):
        # a wrapper installed on recourse_lab.models.train must see every fit
        calls = []
        real_train = models.train
        monkeypatch.setattr(models, "train", lambda *args: calls.append(args) or real_train(*args))
        monkeypatch.setattr(cli, "verify_bound", lambda *args, **kwargs: SimpleNamespace(
            empirical_q=0.5, theoretical_q=0.5, abs_gap=0.0, n=2000))
        assert main(["bounds", "--rho", "0.5", "--delta", "2", "--kind", kind, "--verify"]) == 0
        assert len(calls) == fits

    def test_missing_flag_exits_2(self):
        assert main(["bounds", "--rho", "1.0"]) == 2

    @pytest.mark.parametrize("rho, delta", [("0.5", "1e20"), ("1e-310", "2")])
    def test_verify_extreme_ordinal_prints_two_lines_only(self, capsys, rho, delta):
        # delta 1e20 puts the grid top past the int64 range; rho 1e-310 overflows
        # the stop draw to K = inf, a walker that never stops by itself
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["bounds", "--rho", rho, "--delta", delta, "--kind", "ordinal",
                         "--verify"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 2
        assert err == "" and not caught

    def check_ordinal_verify(self, capsys, rho, delta):
        code = main(["bounds", "--rho", str(rho), "--delta", str(delta), "--kind", "ordinal",
                     "--verify"])
        assert code == 0
        line = capsys.readouterr().out.splitlines()[1]
        empirical = float(line.split("empirical_Q=")[1].split()[0])
        q = 1.0 - (1.0 - rho) ** delta
        assert abs(empirical - q) <= 4.0 * math.sqrt(q * (1.0 - q) / 2000) + 0.03

    def test_verify_small_ordinal_rho(self, capsys):
        # the built-in grid must leave the slow walkers room to stop
        self.check_ordinal_verify(capsys, 0.02, 3)

    def test_verify_tiny_ordinal_rho(self, capsys, monkeypatch):
        # walkers start at or above 0 and retire at level 31 + delta at the latest,
        # so none walks near the 50 000-step budget or the grid top
        walk = theory._markov_batch
        longest = []

        def recording_walk(*args, **kwargs):
            finals, iters = walk(*args, **kwargs)
            longest.append(int(iters.max()))
            return finals, iters

        monkeypatch.setattr(theory, "_markov_batch", recording_walk)
        self.check_ordinal_verify(capsys, 0.0001, 6)
        assert len(longest) == 1 and longest[0] <= 31 + 6


class TestRunCommand:
    def test_report_files_and_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.csv").read_text()
        assert report.splitlines()[0] == "Algorithm,Model,M1 acc,M2 acc,CF1 Size,Invalidation %"
        payload = json.loads((out / "report.json").read_text())
        assert payload["algorithm"] == "CFE"
        manifest = json.loads((out / "manifest.json").read_text())
        assert all(os.path.exists(p) for p in manifest["outputs"])
        assert manifest["tool_version"]
        assert manifest["wall_time"] > 0

    @pytest.mark.parametrize("source", ["readme", "nan", "one"])
    def test_report_json_streams_the_dumped_bytes(self, tmp_path, monkeypatch, source):
        cfg = tmp_path / "readme.json"
        cfg.write_text(json.dumps(README_DOC))
        reports = []
        stubs = {  # no recourse found, so Invalidation % reads NAN; or a single one
            "nan": dict(costs=(), flags=()),
            "one": dict(costs=[0.1 + 0.2], flags=[True]),
        }

        def run_pipeline(*args, **kwargs):
            if source == "readme":
                reports.append(shiftlab.run_pipeline(*args, **kwargs))
            else:
                reports.append(rl.InvalidationReport(
                    algorithm="AR", model_kind="LR", m1_cv_acc=90.0, m2_cv_acc=91.0,
                    **stubs[source]))
            return reports[-1]

        monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
        text = (out / "report.json").read_text(encoding="utf-8")
        report, = reports
        pct = report.invalidation_pct
        want = {
            "algorithm": report.algorithm,
            "model_kind": report.model_kind,
            "m1_cv_acc": report.m1_cv_acc,
            "m2_cv_acc": report.m2_cv_acc,
            "cf1_size": report.cf1_size,
            "invalidation_pct": "NAN" if pct is None else pct,
            "per_record": [{"cost": cost, "invalidated": flag}
                           for cost, flag in zip(report.costs.tolist(), report.flags.tolist())],
        }
        assert text == json.dumps(want, indent=2) + "\n"
        doc = json.loads(text)
        assert (doc["cf1_size"], doc["invalidation_pct"] == "NAN") == {
            "readme": (2325, False), "nan": (0, True), "one": (1, False)}[source]

    def test_csv_mlp_causal_bytes_pinned(self, tmp_path):
        cfg = write_config(
            tmp_path,
            d1_source=write_chain_csv(tmp_path / "d1.csv", 300, 0.0, 11),
            d2_source=write_chain_csv(tmp_path / "d2.csv", 300, 0.3, 12),
            model={"kind": "mlp", "hidden_layers": [8, 8], "learning_rate": 0.01, "epochs": 10},
            recourse={"method": "causal", "params": {}},
            scm=CHAIN_SCM,
            cv_folds=3,
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name, digest in CAUSAL_DIGESTS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("kind, norm", list(AR_DIGESTS))
    def test_csv_linear_ar_bytes_pinned(self, tmp_path, kind, norm):
        cfg = write_config(
            tmp_path,
            d1_source=write_chain_csv(tmp_path / "d1.csv", 300, 0.0, 11),
            d2_source=write_chain_csv(tmp_path / "d2.csv", 300, 0.3, 12),
            model={"kind": kind},
            recourse={"method": "ar", "params": {}},
            cost={"norm": norm},
            cv_folds=3,
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("report.csv", "report.json"))
        assert got == AR_DIGESTS[kind, norm]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_invalid_holdout_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, holdout_fraction=0.9)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "holdout_fraction" in capsys.readouterr().err

    def test_unknown_method_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, recourse={"method": "genetic", "params": {}})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "method" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_data_file_exits_1(self, tmp_path, capsys):
        schema_doc = {"features": [{"name": "x0"}, {"name": "x1"}], "label": "label"}
        cfg = write_config(
            tmp_path,
            d1_source={"csv": {"path": str(tmp_path / "absent.csv"), "schema": schema_doc}},
            d2_source={"csv": {"path": str(tmp_path / "absent.csv"), "schema": schema_doc}},
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_unknown_method_param_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           recourse={"method": "cfe", "params": {"momentum": 0.9}})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "recourse.params" in capsys.readouterr().err

    @pytest.mark.parametrize("field, overrides", [
        ("recourse.params.step", {"recourse": {"method": "markov", "params": {"step": "a"}}}),
        ("recourse.params.inner_iters",
         {"recourse": {"method": "cfe", "params": {"inner_iters": -1}}}),
        ("recourse.params.grid_percentiles",
         {"recourse": {"method": "ar", "params": {"grid_percentiles": [200]}}}),
        ("model.hidden_layers", {"model": {"kind": "mlp", "hidden_layers": [4.5]}}),
        ("model.hidden_layers", {"model": {"kind": "mlp", "hidden_layers": ["a"]}}),
        ("scm[1]", {"scm": [{"name": "x0"}, 3]}),
        ("scm[1].parents", {"scm": [{"name": "x0"}, {"name": "x1", "parents": {"a": 0.5}}]}),
        ("model.learning_rate", {"model": {"kind": "logistic_regression", "learning_rate": True}}),
        ("model.epochs", {"model": {"kind": "logistic_regression", "epochs": True}}),
        ("model.l2_penalty", {"model": {"kind": "logistic_regression", "l2_penalty": math.nan}}),
        ("model.l2_penalty", {"model": {"kind": "logistic_regression", "l2_penalty": math.inf}}),
        ("recourse.method", {"recourse": {"method": "holdout_fraction"}}),
        ("recourse.method", {"recourse": {"method": "n_samples"}}),
        ("cv_folds", {"cv_folds": 1}),
        ("holdout_fraction", {"holdout_fraction": 0.9}),
        ("d1_source.synthetic.seed", {"d1_source": {"synthetic": {
            "scenario": "target_shift", "alpha": 0.0, "n": 1200, "seed": -1}}}),
        ("seeds.model", {"model": {"kind": "mlp", "hidden_layers": [4]},
                         "seeds": {"data": 0, "model": -1, "recourse": 2}}),
        ("seeds.data", {"seeds": {"data": -1, "model": 1, "recourse": 2}}),
        ("seeds.recourse", {"seeds": {"data": 0, "model": 1, "recourse": -1}}),
        ("scm", {"recourse": {"method": "causal"},
                 "scm": [{"name": "x0"}, {"name": "x1"}, {"name": "x2"}]}),
        ("scm", {"recourse": {"method": "causal"},
                 "scm": [{"name": "x0", "intervenable": False},
                         {"name": "x1", "intervenable": False}]}),
        ("scm", {"recourse": {"method": "causal"},
                 "d1_source": {"csv": {"path": "d1.csv", "schema": {
                     "features": [{"name": "x0"}, {"name": "x1", "actionable": False}],
                     "label": "label"}}},
                 "scm": [{"name": "x0", "intervenable": False}, {"name": "x1"}]}),
        ("d1_source", {"d1_source": {}}),
        ("d1_source", {"d1_source": {
            "synthetic": {"scenario": "target_shift", "alpha": 0.0, "n": 1200, "seed": 31},
            "csv": {"path": "d1.csv", "schema": CHAIN_SCHEMA}}}),
    ], ids=["step-str", "inner-iters-negative", "percentile-200", "hidden-float", "hidden-str",
            "scm-entry-int", "scm-parent-key", "rate-bool", "epochs-bool", "l2-nan", "l2-inf",
            "method-holdout-fraction", "method-n-samples", "cv-folds-1", "holdout-0.9",
            "synthetic-seed-negative", "model-seed-negative", "data-seed-negative",
            "recourse-seed-negative", "scm-3-variables", "scm-none-intervenable",
            "scm-none-intervenable-and-actionable", "source-neither", "source-both"])
    def test_bad_value_names_field(self, tmp_path, capsys, monkeypatch, field, overrides):
        def no_training(*args, **kwargs):
            raise AssertionError("config errors must come before any training")

        monkeypatch.setattr(shiftlab, "train", no_training)
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, overrides", [
        ("bogus", {"bogus": 1}),
        ("seeds.extra", {"seeds": {"data": 0, "model": 1, "recourse": 2, "extra": 3}}),
        ("model.epoch", {"model": {"kind": "logistic_regression", "epoch": 5}}),
        ("recourse.param", {"recourse": {"method": "cfe", "param": {}}}),
        ("cost.nrom", {"cost": {"norm": "L2", "nrom": "L1"}}),
        ("d1_source.synthetic.sead", {"d1_source": {"synthetic": {
            "scenario": "target_shift", "alpha": 0.0, "n": 1200, "seed": 31, "sead": 1}}}),
        ("d2_source.csv.delimiter", {"d2_source": {"csv": {
            "path": "d2.csv", "schema": {"features": [{"name": "x0"}, {"name": "x1"}]},
            "delimiter": ";"}}}),
        ("scm[0].noise_std", {"scm": [{"name": "x0", "noise_std": 1.0}, {"name": "x1"}]}),
    ], ids=["top", "seeds", "model", "recourse", "cost", "synthetic", "csv", "scm-noise-std"])
    def test_unknown_key_names_path(self, tmp_path, capsys, monkeypatch, field, overrides):
        def no_training(*args, **kwargs):
            raise AssertionError("config errors must come before any training")

        monkeypatch.setattr(shiftlab, "train", no_training)
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {field}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("field, entry", [
        ("d1_source.csv.schema.features[1].actionable", {"actionable": "false"}),
        ("d1_source.csv.schema.features[1].lower", {"lower": True}),
        ("d1_source.csv.schema.features[1].upper", {"upper": math.nan}),
        ("d1_source.csv.schema.features[1].actionble", {"actionble": False}),
        ("d1_source.csv.schema.features[1]", {"kind": "ordinal", "lower": 0.5}),
        ("d1_source.csv.schema.features[1]", {"kind": "binary", "upper": 0.5}),
    ], ids=["actionable-str", "lower-bool", "upper-nan", "misspelt-key", "ordinal-lower-half",
            "binary-upper-half"])
    def test_bad_csv_schema_names_path(self, tmp_path, capsys, monkeypatch, field, entry):
        def no_training(*args, **kwargs):
            raise AssertionError("config errors must come before any training")

        monkeypatch.setattr(shiftlab, "train", no_training)
        schema_doc = {"features": [{"name": "x0"}, {"name": "x1", **entry}], "label": "label"}
        cfg = write_config(tmp_path, d1_source={"csv": {"path": "d1.csv", "schema": schema_doc}})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err


    def test_parse_config_reads_every_schema_field(self, tmp_path):
        schema = rl.FeatureSchema(
            (rl.FeatureSpec("a", kind="ordinal", lower=0, upper=5, actionable=False),
             rl.FeatureSpec("b", kind="binary")),
            "target",
        )
        schema_doc = {
            "features": [
                {"name": "a", "kind": "ordinal", "actionable": False, "lower": 0, "upper": 5},
                {"name": "b", "kind": "binary"},
            ],
            "label": "target",
        }
        source = {"csv": {"path": "d.csv", "schema": schema_doc}}
        doc = json.loads(write_config(tmp_path, d1_source=source, d2_source=source).read_text())
        cfg = cli.parse_config(doc)
        assert cfg.d1_source.schema == schema and cfg.d2_source.schema == schema

    def test_parse_config_checks_method_params_once(self, tmp_path, monkeypatch):
        calls = []
        real = shiftlab.method_params

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (cli, shiftlab):  # every binding a config check could call
            monkeypatch.setattr(module, "method_params", counting, raising=False)
        doc = json.loads(write_config(tmp_path, recourse={
            "method": "cfe", "params": {"margin_target": 0.2, "inner_iters": 50}}).read_text())
        cli.parse_config(doc)
        assert len(calls) == 1

    def test_readme_example_config_is_pinned(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### `run`\n", 1)[1].split("\n### ", 1)[0]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        doc = json.loads(block)
        assert doc == README_DOC
        assert isinstance(cli.parse_config(doc), shiftlab.ExperimentConfig)

    def test_incompatible_source_schemas_exit_2(self, tmp_path, capsys):
        schema_doc = {"features": [{"name": "z0"}], "label": "label"}
        cfg = write_config(
            tmp_path,
            d2_source={"csv": {"path": str(tmp_path / "d2.csv"), "schema": schema_doc}},
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "d2_source" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, overrides", [
        (("d1_source",), {}),
        (("seeds",), {}),
        (("seeds", "model"), {}),
        (("model", "kind"), {}),
        (("recourse", "method"), {}),
        (("d2_source", "synthetic", "scenario"), {}),
        (("d2_source", "synthetic", "alpha"), {}),
        (("d2_source", "synthetic", "n"), {}),
        (("d2_source", "synthetic", "seed"), {}),
        (("d2_source", "csv", "path"), {"d2_source": {"csv": {"path": "d2.csv", "schema": CHAIN_SCHEMA}}}),
        (("d2_source", "csv", "schema"), {"d2_source": {"csv": {"path": "d2.csv", "schema": CHAIN_SCHEMA}}}),
        (("d2_source", "csv", "schema", "features"),
         {"d2_source": {"csv": {"path": "d2.csv", "schema": CHAIN_SCHEMA}}}),
        (("d2_source", "csv", "schema", "features", 1, "name"),
         {"d2_source": {"csv": {"path": "d2.csv", "schema": CHAIN_SCHEMA}}}),
        (("scm", 1, "name"), {"scm": CHAIN_SCM}),
    ], ids=["top", "seeds", "seeds-model", "model-kind", "recourse-method", "synthetic-scenario",
            "synthetic-alpha", "synthetic-n", "synthetic-seed", "csv-path", "csv-schema",
            "schema-features", "feature-name", "scm-name"])
    def test_missing_required_field_names_path(self, tmp_path, capsys, monkeypatch, keys,
                                               overrides):
        def no_work(*args, **kwargs):
            raise AssertionError("config errors must come before any loading or training")

        monkeypatch.setattr(shiftlab, "_materialize", no_work)
        monkeypatch.setattr(shiftlab, "train", no_work)
        cfg = write_config(tmp_path, **overrides)
        doc = json.loads(cfg.read_text())
        *parents, last = keys
        section = doc
        for key in parents:
            section = section[key]
        del section[last]
        cfg.write_text(json.dumps(doc))
        path = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)[1:]
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {path}: missing required field\n"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_output_files_get_the_umask_mode(tmp_path, umask):
    # a plain open makes files 0o666 less the umask, and so must the atomic writes
    cfg = write_config(tmp_path)
    previous = os.umask(umask)
    try:
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"),
                     "--scenario", "target_shift", "--alphas", "0,0.4"]) == 0
    finally:
        os.umask(previous)
    modes = {f"{p.parent.name}/{p.name}": p.stat().st_mode & 0o777
             for out in ("run", "sweep") for p in (tmp_path / out).iterdir()}
    assert modes == dict.fromkeys(["run/report.csv", "run/report.json", "run/manifest.json",
                                   "sweep/sweep.csv", "sweep/manifest.json"], 0o666 & ~umask)


@pytest.mark.parametrize("existing", [None, "old text\n"])
def test_atomic_write_leaves_nothing_when_chunks_raise(tmp_path, existing):
    target = tmp_path / "report.json"
    if existing is not None:
        target.write_text(existing)

    def chunks():
        yield "{\n"
        yield '  "a": 1'
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        atomic_write_text(target, chunks())
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["report.json"])
    if existing is not None:
        assert target.read_text() == existing


class TestSweepCommand:
    def test_rows_in_input_order(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--scenario", "target_shift", "--alphas", "0,0.2,0.4,0.6"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,invalidation_pct,cf1_size"
        assert len(lines) == 5
        assert [row.split(",")[0] for row in lines[1:]] == ["0.0", "0.2", "0.4", "0.6"]

    def test_noise_floor_at_zero_shift(self, tmp_path):
        cfg = write_config(tmp_path, d1_source={"synthetic": {
            "scenario": "target_shift", "alpha": 0.0, "n": 3000, "seed": 31}},
            d2_source={"synthetic": {
                "scenario": "target_shift", "alpha": 0.0, "n": 3000, "seed": 32}})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--scenario", "target_shift", "--alphas", "0"]) == 0
        row = (out / "sweep.csv").read_text().splitlines()[1]
        assert float(row.split(",")[1]) <= 5.0

    def test_empty_alphas_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                     "--scenario", "target_shift", "--alphas", ""]) == 2

    def test_bad_alpha_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                     "--scenario", "target_shift", "--alphas", "0,zebra"]) == 2

    def test_out_of_range_alpha_exits_2(self, tmp_path):
        # target_shift alpha lies in [-0.6, 0.6]; alphas are checked before any training
        cfg = write_config(tmp_path)
        for jobs in ("1", "2"):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                         "--scenario", "target_shift", "--alphas", "0.9",
                         "--jobs", jobs]) == 2

    def test_nan_alpha_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        for jobs in ("1", "2"):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                         "--scenario", "target_shift", "--alphas", "0,nan",
                         "--jobs", jobs]) == 2

    def test_parallel_sweep_prepares_once_in_caller(self, tmp_path, monkeypatch):
        calls = []
        prepare = shiftlab._prepare

        def counting_prepare(*args):
            calls.append(os.getpid())
            return prepare(*args)

        monkeypatch.setattr(shiftlab, "_prepare", counting_prepare)
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                     "--scenario", "target_shift", "--alphas", "0,0.4",
                     "--jobs", "2"]) == 0
        assert calls == [os.getpid()]

    def test_nonpositive_jobs_exit_2(self, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("started work before checking --jobs")

        monkeypatch.setattr(shiftlab, "_prepare", no_work)
        monkeypatch.setattr(shiftlab, "_forked_cv", no_work)
        cfg = write_config(tmp_path)
        for jobs in ("0", "-3"):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                         "--scenario", "target_shift", "--alphas", "0,0.4",
                         "--jobs", jobs]) == 2

    def test_readme_sweep_bytes_pinned(self, tmp_path):
        cfg = tmp_path / "readme.json"
        cfg.write_text(json.dumps(README_DOC))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--scenario", "target_shift", "--alphas", README_ALPHAS, "--jobs", "2"]) == 0
        digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        assert digest == README_DIGESTS["sweep.csv"]

    def test_parallel_jobs_match_serial(self, tmp_path, monkeypatch):
        # the sweep runs in one process whatever --jobs is
        def no_fork(*args, **kwargs):
            raise AssertionError("the sweep forked a CV child")

        monkeypatch.setattr(shiftlab, "_forked_cv", no_fork)
        cfg = write_config(tmp_path)
        files = []
        for jobs in ("1", "2", "64"):
            out = tmp_path / f"s-{jobs}"
            assert main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--scenario", "target_shift", "--alphas", "0,0.4",
                         "--jobs", jobs]) == 0
            files.append((out / "sweep.csv").read_bytes())
        assert files[1:] == files[:1] * 2


class TestParallelRun:
    def test_jobs_default_without_sched_getaffinity(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        args = cli.build_parser().parse_args(["run", "--config", "c.json"])
        assert args.jobs == (os.cpu_count() or 1)
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "1"]) == 0

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_one_job_without_fork(self, tmp_path, capsys, monkeypatch, command):
        def no_loading(*args, **kwargs):
            raise AssertionError("loaded a sample before checking --jobs")

        monkeypatch.delattr(os, "fork")
        argv = [command, "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--scenario", "target_shift", "--alphas", "0,0.4"]
        assert cli.build_parser().parse_args(argv).jobs == 1
        monkeypatch.setattr(shiftlab, "_materialize", no_loading)
        assert main(argv + ["--jobs", "2"]) == 2
        assert "config error: --jobs: must be 1 where processes cannot fork" in capsys.readouterr().err

    @pytest.mark.parametrize("command, jobs, name", [("run", "3", "cross_val_accuracy")])
    def test_workers_call_module_bindings(self, tmp_path, monkeypatch, command, jobs, name):
        # wrapped as a tracer wraps them; a task that pickled such a wrapper by
        # reference would fail to submit
        def recording(fn, log):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
                return fn(*args, **kwargs)
            return wrapper

        for wrapped in ("cross_val_accuracy", "train"):
            log = tmp_path / f"{wrapped}.pids"
            monkeypatch.setattr(shiftlab, wrapped, recording(getattr(shiftlab, wrapped), log))
        cfg = write_config(tmp_path)
        files = []
        for j in ("1", jobs):
            out = tmp_path / f"out-{j}"
            assert main([command, "--config", str(cfg), "--out", str(out), "--jobs", j]) == 0
            files.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
        assert files[0] == files[1]
        pids = set((tmp_path / f"{name}.pids").read_text().split())
        assert pids - {str(os.getpid())}

    @pytest.mark.parametrize("command, name, result", [
        ("run", "run_pipeline", SimpleNamespace(to_csv_text=lambda: "", json_chunks=list)),
        ("sweep", "sensitivity_sweep", []),
    ])
    def test_commands_call_cli_bindings(self, tmp_path, monkeypatch, command, name, result):
        # cli loads shiftlab on first use, and a value set on cli, as a tracer
        # sets one, is still the one called
        calls = []
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args) or result)
        argv = [command, "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--scenario", "target_shift", "--alphas", "0,0.4"]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_cli_names_come_from_the_package(self):
        assert cli.run_pipeline is shiftlab.run_pipeline
        # only the package's public names: not its dunders, nor recourse's helpers
        for name in ("__path__", "__wrapped__", "method_params"):
            with pytest.raises(AttributeError, match=f"'recourse_lab.cli' has no attribute '{name}'"):
                getattr(cli, name)

    @pytest.mark.parametrize("argv, names", [
        (["bounds", "--rho", "0.5", "--delta", "2", "--verify"],
         {"cli.main", "dataset.synth_base", "models.train", "recourse.walk", "theory.verify_bound"}),
        (["bounds", "--rho", "0.5", "--delta", "2", "--kind", "ordinal", "--verify"],
         {"cli.main", "recourse.walk", "theory.verify_bound"}),
        (["run", "--jobs", "1"],
         {"shiftlab.run_pipeline", "recourse.batch_recourse", "models.cross_val_accuracy"}),
        (["sweep", "--jobs", "2", "--scenario", "target_shift", "--alphas", "0,0.4"],
         {"shiftlab.sensitivity_sweep"}),
    ], ids=["bounds-continuous", "bounds-ordinal", "run", "sweep"])
    def test_tracer_wraps_what_commands_call(self, tmp_path, fresh_env, argv, names):
        # perfbench/spans.py wraps module bindings; each must be the one called
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        src = str(Path(rl.__file__).resolve().parents[1])
        env = {**fresh_env, "PYTHONPATH": os.pathsep.join((src, str(perfbench)))}
        if argv[0] != "bounds":
            data = {"scenario": "target_shift", "n": 600}
            argv = argv + ["--config", str(write_config(
                tmp_path, d1_source={"synthetic": {**data, "alpha": 0.0, "seed": 31}},
                d2_source={"synthetic": {**data, "alpha": 0.3, "seed": 32}},
                model={"kind": "logistic_regression", "epochs": 30}))]
        span_dir = tmp_path / "spans"
        span_dir.mkdir()
        outs = [subprocess.run([sys.executable, str(perfbench / "launch.py"), "ready", spans, *argv],
                               cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
                for spans in ("", str(span_dir))]
        assert [proc.returncode for proc in outs] == [0, 0], outs[1].stderr
        assert outs[1].stdout == outs[0].stdout
        recorded = [json.loads(line) for path in span_dir.glob("spans-*.jsonl")
                    for line in path.read_text().splitlines()]
        assert names <= {span["name"] for span in recorded}
        if argv[0] == "run":
            # the tracer counts the recourse set's records and sums their int iterations
            [search] = [span for span in recorded if span["name"] == "recourse.batch_recourse"]
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert search["found"] == report["cf1_size"]
            assert search["negatives"] >= search["found"]
            assert isinstance(search["iterations"], int) and search["iterations"] > 0

    def run_at_jobs(self, cfg, tmp_path, capsys, jobs):
        out = tmp_path / f"out-{jobs}"
        code = main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs])
        return code, capsys.readouterr().err, out

    def test_readme_reports_identical_at_every_jobs(self, tmp_path, capsys):
        cfg = tmp_path / "readme.json"
        cfg.write_text(json.dumps(README_DOC))
        files = []
        for jobs in ("1", "2"):
            code, _, out = self.run_at_jobs(cfg, tmp_path, capsys, jobs)
            assert code == 0
            files.append([(out / n).read_bytes() for n in ("report.csv", "report.json")])
        assert files[0] == files[1]
        # the README documents this row
        assert files[0][0].decode().splitlines()[1] == "CFE,LR,99.62,99.71,2325,40.04"
        for name, content in zip(("report.csv", "report.json"), files[0]):
            assert hashlib.sha256(content).hexdigest() == README_DIGESTS[name], name

    def test_csv_mlp_causal_reports_identical_at_every_jobs(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            d1_source=write_chain_csv(tmp_path / "d1.csv", 300, 0.0, 1),
            d2_source=write_chain_csv(tmp_path / "d2.csv", 300, 0.3, 2),
            model={"kind": "mlp", "hidden_layers": [8], "learning_rate": 0.01, "epochs": 20},
            recourse={"method": "causal", "params": {}},
            cv_folds=3,
        )
        files = []
        for jobs in ("1", "2", "3"):
            code, _, out = self.run_at_jobs(cfg, tmp_path, capsys, jobs)
            assert code == 0
            files.append([(out / n).read_bytes() for n in ("report.csv", "report.json")])
        assert files[0] == files[1] == files[2]

    @pytest.mark.parametrize("d2_labels, message", [
        # the d1 CV's error, read before d2's
        ([-1] * 22 + [1], "training data holds a single class (+1)"),
        # M2's error beats the failing CV
        ([-1] * 23, "training data holds a single class (-1)"),
    ], ids=["cv", "m2-before-cv"])
    def test_failure_identical_at_every_jobs(self, tmp_path, capsys, d2_labels, message):
        # 21 training rows of each sample against 20 folds; the last row, the
        # only one of its class and kept by both splits, leaves the fold that
        # holds it out with a single class, so every CV fails
        cfg = write_config(
            tmp_path,
            d1_source=write_chain_csv(tmp_path / "d1.csv", 23, 0.0, 1, [1] * 22 + [-1]),
            d2_source=write_chain_csv(tmp_path / "d2.csv", 23, 0.3, 2, d2_labels),
            cv_folds=20,
        )
        results = []
        for jobs in ("1", "2", "3"):
            code, err, _ = self.run_at_jobs(cfg, tmp_path, capsys, jobs)
            results.append((code, err))
        assert results[0] == results[1] == results[2]
        assert results[0][0] == 1 and message in results[0][1]

    def test_nonpositive_jobs_exit_2_before_loading(self, tmp_path, capsys, monkeypatch):
        def no_loading(*args, **kwargs):
            raise AssertionError("loaded a sample before checking --jobs")

        monkeypatch.setattr(shiftlab, "_materialize", no_loading)
        cfg = write_config(tmp_path)
        for jobs in ("0", "-2"):
            code, err, _ = self.run_at_jobs(cfg, tmp_path, capsys, jobs)
            assert code == 2 and "config error: --jobs:" in err

    @pytest.mark.parametrize("death", ["exit", "sigkill"])
    def test_cv_child_without_result_exits_1(self, tmp_path, capsys, monkeypatch, death):
        def dying(*args, **kwargs):  # called in the forked child only
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(shiftlab, "cross_val_accuracy", dying)
        code, err, _ = self.run_at_jobs(write_config(tmp_path), tmp_path, capsys, "2")
        assert code == 1
        assert re.fullmatch(r"error: cross-validation worker \d+ ended without a result\n", err)

    def test_cv_child_stops_at_the_first_error(self, tmp_path, capsys, monkeypatch):
        # d1's CV fails (see test_failure_identical_at_every_jobs), so the one
        # child sends that error without cross-validating d2
        cfg = write_config(
            tmp_path,
            d1_source=write_chain_csv(tmp_path / "d1.csv", 23, 0.0, 1, [1] * 22 + [-1]),
            d2_source=write_chain_csv(tmp_path / "d2.csv", 23, 0.3, 2, [-1] * 22 + [1]),
            cv_folds=20,
        )
        log = tmp_path / "cv.pids"
        cross_val_accuracy = shiftlab.cross_val_accuracy

        def logging_cv(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return cross_val_accuracy(*args, **kwargs)

        monkeypatch.setattr(shiftlab, "cross_val_accuracy", logging_cv)
        code, err, _ = self.run_at_jobs(cfg, tmp_path, capsys, "2")
        assert code == 1 and "training data holds a single class (+1)" in err
        pids = log.read_text().split()
        assert len(pids) == 1 and pids[0] != str(os.getpid())

    def test_parent_error_kills_and_reaps_every_child(self, tmp_path, capsys, monkeypatch):
        def slow_cv(*args, **kwargs):
            time.sleep(20)
            return 50.0

        def failing_prepare(*args):
            raise TrainingError("M1 failed")

        forked = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(shiftlab, "cross_val_accuracy", slow_cv)
        monkeypatch.setattr(shiftlab, "_prepare", failing_prepare)
        monkeypatch.setattr(os, "fork", recording_fork)
        started = time.monotonic()
        code, err, _ = self.run_at_jobs(write_config(tmp_path), tmp_path, capsys, "3")
        assert time.monotonic() - started < 10
        assert code == 1 and err == "error: M1 failed\n"
        # one child however many jobs are allowed
        assert len(forked) == 1
        for pid in forked:  # each was reaped, so it is no child of this process any more
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_missing_d2_csv_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before loading d2")

        monkeypatch.setattr(shiftlab, "train", no_training)
        cfg = write_config(
            tmp_path,
            d1_source=write_chain_csv(tmp_path / "d1.csv", 50, 0.0, 1),
            d2_source={"csv": {"path": str(tmp_path / "absent.csv"), "schema": CHAIN_SCHEMA}},
        )
        for jobs in ("1", "2"):
            code, err, _ = self.run_at_jobs(cfg, tmp_path, capsys, jobs)
            assert code == 1 and "absent.csv" in err

    def test_blas_thread_count_moves_no_output_byte(self, tmp_path, fresh_env):
        cfg = write_config(tmp_path)
        commands = (["run", "--config", str(cfg), "--out", "out", "--jobs", "2"],
                    ["bounds", "--rho", "0.5", "--delta", "2", "--kind", "ordinal", "--verify"])
        outputs = []
        for threads in (None, "2"):
            cwd = tmp_path / f"threads-{threads}"
            cwd.mkdir()
            env = fresh_env if threads is None else {**fresh_env, "OPENBLAS_NUM_THREADS": threads}
            stdout = [subprocess.run([sys.executable, "-m", "recourse_lab.cli", *argv], cwd=cwd,
                                     env=env, capture_output=True, check=True, timeout=300).stdout
                      for argv in commands]
            outputs.append(stdout + [(cwd / "out" / n).read_bytes() for n in ("report.csv", "report.json")])
        assert outputs[0] == outputs[1]


class TestExitCodesAgree:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("out", ["file", "file/sub", ""])
    def test_out_not_a_directory_exits_2_before_loading(self, tmp_path, capsys, monkeypatch,
                                                        command, out):
        def no_loading(*args, **kwargs):
            raise AssertionError("loaded a sample before checking --out")

        monkeypatch.setattr(shiftlab, "_materialize", no_loading)
        (tmp_path / "file").write_text("")
        out_dir = str(tmp_path / out) if out else ""
        argv = [command, "--config", str(write_config(tmp_path)), "--out", out_dir]
        if command == "sweep":
            argv += ["--scenario", "target_shift", "--alphas", "0,0.4"]
        assert main(argv) == 2
        message = f"{tmp_path / 'file'} is not a directory" if out else "must not be empty"
        assert capsys.readouterr().err == f"config error: --out: {message}\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_too_few_surrogate_samples_exit_2_before_training(
            self, tmp_path, capsys, monkeypatch, command):
        def no_training(*args, **kwargs):
            raise AssertionError("config errors must come before any training")

        monkeypatch.setattr(shiftlab, "train", no_training)
        monkeypatch.setattr(shiftlab, "train_many", no_training)
        cfg = write_config(tmp_path, model={"kind": "mlp", "hidden_layers": [4]},
                           recourse={"method": "ar", "params": {"n_samples": 5}})
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--scenario", "target_shift", "--alphas", "0,0.4"]
        assert main(argv) == 2
        assert "config error: recourse.params.n_samples:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_causal_without_scm_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, command):
        def no_training(*args, **kwargs):
            raise AssertionError("config errors must come before any training")

        monkeypatch.setattr(shiftlab, "train", no_training)
        monkeypatch.setattr(shiftlab, "train_many", no_training)
        monkeypatch.setattr(models, "train", no_training)
        # the synthetic samples have 2 features; the default chain needs 3
        cfg = write_config(tmp_path, recourse={"method": "causal", "params": {}})
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--scenario", "target_shift", "--alphas", "0,0.4"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: scm: no scm given" in err and "needs 3 features, got 2" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_ar_without_actionable_feature_exits_2_before_loading(
            self, tmp_path, capsys, monkeypatch, command):
        def no_loading(*args, **kwargs):
            raise AssertionError("config errors must come before any sample loads")

        monkeypatch.setattr(shiftlab, "_materialize", no_loading)
        schema = {"features": [{"name": "x0", "actionable": False},
                               {"name": "x1", "actionable": False}]}
        source = {"csv": {"path": str(tmp_path / "d.csv"), "schema": schema}}
        cfg = write_config(tmp_path, d1_source=source, d2_source=source,
                           recourse={"method": "ar", "params": {}})
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--scenario", "target_shift", "--alphas", "0,0.4"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "config error: d1_source.csv.schema.features: ar needs an actionable feature")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_runtime_value_error_exits_1(self, tmp_path, capsys, monkeypatch, command):
        def failing_search(*args, **kwargs):
            raise ValueError("search failed")

        monkeypatch.setattr(shiftlab, "batch_recourse", failing_search)
        cfg = write_config(tmp_path)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "1"]
        if command == "sweep":
            argv += ["--scenario", "target_shift", "--alphas", "0,0.4"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: search failed\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_huge_margin_target_prints_one_error_line(self, tmp_path, capsys, command):
        # at 1e308 the CFE gradient overflows; at 1e160 it is finite, but its
        # square would overflow the Adam second moment. Either way its
        # SearchError is the only thing on stderr.
        for margin in (1e308, 1e160):
            cfg = write_config(tmp_path, recourse={"method": "cfe",
                                                   "params": {"margin_target": margin}})
            argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "1"]
            if command == "sweep":
                argv += ["--scenario", "target_shift", "--alphas", "0,0.4"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv) == 1, margin
            assert capsys.readouterr().err == "error: non-finite search gradient\n", margin
            assert not caught, margin


def count_train_calls(monkeypatch):
    """Log the model kind of every fit: `train` and the CV folds fit through
    models.train_many, and the sweep calls it through shiftlab."""
    calls = []
    real_train_many = models.train_many

    def counting(spec, sets):
        calls.extend(spec.kind for _ in sets)
        return real_train_many(spec, sets)

    monkeypatch.setattr(models, "train_many", counting)
    monkeypatch.setattr(shiftlab, "train_many", counting)
    return calls


class TestTrainingRows:
    """`run` needs cv_folds training rows in each sample, and says so before any training."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("source, n", [
        ("d1_source", 1), ("d1_source", 2), ("d1_source", 10), ("d2_source", 1), ("d2_source", 10),
    ])
    def test_small_synthetic_sample_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, source, n, jobs):
        # 10 rows less a 0.1 holdout leave 9 against 10 folds
        calls = count_train_calls(monkeypatch)
        doc = {"scenario": "target_shift", "alpha": 0.0, "n": n, "seed": 31}
        cfg = write_config(tmp_path, cv_folds=10, **{source: {"synthetic": doc}})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {source}.synthetic.n: ") and "cv_folds (10)" in err
        assert err.count("\n") == 1 and calls == []

    # 12 rows less a 0.1 holdout leave 11 against 20 folds; one row is too few to split
    @pytest.mark.parametrize("source, n, left", [
        ("d1_source", 12, 11), ("d2_source", 12, 11), ("d1_source", 1, 1),
    ])
    def test_small_csv_sample_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, source, n, left):
        calls = count_train_calls(monkeypatch)
        sources = {
            "d1_source": write_chain_csv(tmp_path / "d1.csv", 300, 0.0, 1),
            "d2_source": write_chain_csv(tmp_path / "d2.csv", 300, 0.3, 2),
        }
        sources[source] = write_chain_csv(tmp_path / "small.csv", n, 0.0, 3)
        cfg = write_config(tmp_path, cv_folds=20, **sources)
        for jobs in ("1", "2"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--jobs", jobs]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {source}.csv.path: leaves {left} training rows")
        assert calls == []

    @pytest.mark.parametrize("source, n, holdout, message", [
        # a one-row sample cannot be split into training rows and a holdout
        ("d1_source", 1, 0.1, "must be at least 2 to hold rows out, got 1"),
        ("d2_source", 1, 0.1, "must be at least 2 to hold rows out, got 1"),
        # one training row, with no holdout or after half of 3 rows is held out
        ("d1_source", 1, 0.0, "leaves 1 training rows, fewer than 2"),
        ("d2_source", 1, 0.0, "leaves 1 training rows, fewer than 2"),
        ("d2_source", 3, 0.5, "leaves 1 training rows, fewer than 2"),
    ], ids=["d1_source", "d2_source", "d1_source-no-holdout", "d2_source-no-holdout",
            "d2_source-half-holdout"])
    def test_sweep_one_row_sample_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                          source, n, holdout, message):
        calls = count_train_calls(monkeypatch)
        doc = {"scenario": "target_shift", "alpha": 0.0, "n": n, "seed": 31}
        cfg = write_config(tmp_path, holdout_fraction=holdout, **{source: {"synthetic": doc}})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--scenario", "target_shift", "--alphas", "0,0.4", "--jobs", "1"]) == 2
        assert capsys.readouterr().err == f"config error: {source}.synthetic.n: {message}\n"
        assert calls == []

    def test_sweep_trains_small_samples(self, tmp_path, monkeypatch):
        # the sweep trains no CV folds, so cv_folds does not bound its samples
        calls = count_train_calls(monkeypatch)
        doc = {"scenario": "target_shift", "alpha": 0.0, "n": 10, "seed": 31}
        cfg = write_config(tmp_path, cv_folds=10, d1_source={"synthetic": doc},
                           d2_source={"synthetic": {**doc, "seed": 32}})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--scenario", "target_shift", "--alphas", "0,0.4", "--jobs", "1"]) == 0
        assert len(calls) == 3


# values a mutated config leaf takes: about half the time one of its own JSON
# type, else any of them; numbers at and past the float range, and names that
# are valid somewhere in the config. DELETE drops the key or list entry.
DELETE = object()
KIN_VALUES = {
    bool: (True, False),
    int: (0, 1, -1, 2, 3, 20, 400, 10**400),
    float: (0.0, 0.05, 0.5, 0.9, -0.5, 1e-320, 1e300, -1e300, math.inf, -math.inf, math.nan),
    str: ("", "²", "x0", "label", "logistic_regression", "linear_svm", "mlp", "cfe", "ar",
          "causal", "markov", "L1", "ordinal", "binary", "target_shift", "predictor_shift"),
    list: ([], [4], [0.5], ["x0"]),
    dict: ({}, {"x0": 1}),
}
MUTANT_VALUES = (DELETE, None, *(v for values in KIN_VALUES.values() for v in values))
ERROR_PATH = r"[A-Za-z_][\w.\[\]]*"


def mutant_bases(csv_dir):
    """Small configs to mutate: synthetic LR, synthetic MLP and CSV chain samples."""
    base = {
        "d1_source": {"synthetic": {"scenario": "target_shift", "alpha": 0.0, "n": 400,
                                    "seed": 31}},
        "d2_source": {"synthetic": {"scenario": "target_shift", "alpha": 0.3, "n": 400,
                                    "seed": 32}},
        "model": {"kind": "logistic_regression", "hidden_layers": [], "learning_rate": 0.5,
                  "epochs": 20, "l2_penalty": 1e-4},
        "recourse": {"method": "cfe", "params": {"margin_target": 0.2}},
        "cost": {"norm": "L2"},
        "holdout_fraction": 0.1,
        "seeds": {"data": 0, "model": 1, "recourse": 2},
        "cv_folds": 5,
    }
    mlp = {**base, "model": {"kind": "mlp", "hidden_layers": [4], "learning_rate": 0.01,
                             "epochs": 20, "l2_penalty": 1e-4},
           "recourse": {"method": "markov", "params": {}}}
    schema = {"features": [{"name": f"x{i}", "kind": "continuous", "actionable": True,
                            "lower": -100, "upper": 100} for i in range(3)], "label": "label"}
    chain = {
        **base,
        "d1_source": {"csv": {"path": str(csv_dir / "d1.csv"), "schema": schema}},
        "d2_source": {"csv": {"path": str(csv_dir / "d2.csv"), "schema": schema}},
        "recourse": {"method": "causal", "params": {"max_intervened": 2}},
        "scm": [{"name": "x0"}, {"name": "x1", "parents": {"0": 0.8}},
                {"name": "x2", "parents": {"1": 0.5}, "intervenable": True}],
    }
    return base, mlp, chain


def leaf_paths(doc, at=()):
    """Paths to every scalar and empty container in doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    paths = []
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            paths += leaf_paths(value, at + (key,))
        else:
            paths.append(at + (key,))
    return paths


def node_at(doc, path):
    return functools.reduce(lambda node, key: node[key], path, doc)


def mutate(doc, path, value):
    """A deep copy of doc with the leaf at path set to value (or deleted)."""
    doc = json.loads(json.dumps(doc))
    parent = node_at(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = json.loads(json.dumps(value))
    return doc


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutants")
    write_chain_csv(path / "d1.csv", 300, 0.0, 1)
    write_chain_csv(path / "d2.csv", 300, 0.3, 2)
    return path


class TestMutatedConfigs:
    """`main` on a small config with one to three leaves mutated either succeeds,
    exits 2 naming a config path before any training, or exits 1 with one
    error line; nothing else reaches stderr or the warnings machinery."""

    @given(data=st.data())
    @settings(derandomize=True, max_examples=250, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_outcome_is_documented(self, mutant_dir, monkeypatch, capsys, data):
        doc = data.draw(st.sampled_from(mutant_bases(mutant_dir)), label="base")
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            paths = leaf_paths(doc)
            if not paths:
                break
            path = data.draw(st.sampled_from(paths), label="path")
            kin = KIN_VALUES.get(type(node_at(doc, path)), MUTANT_VALUES)
            value = data.draw(st.sampled_from(kin) | st.sampled_from(MUTANT_VALUES), label="value")
            doc = mutate(doc, path, value)
        command = data.draw(st.sampled_from(["run", "sweep"]), label="command")
        cfg = mutant_dir / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg), "--out", str(mutant_dir / "out"), "--jobs", "1"]
        if command == "sweep":
            argv += ["--scenario", "target_shift", "--alphas", "0,0.4"]

        with monkeypatch.context() as patch:
            calls = count_train_calls(patch)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
        err = capsys.readouterr().err
        assert not caught, [str(w.message) for w in caught]
        if code == 0:
            assert err == ""
        elif code == 2:
            assert re.fullmatch(f"config error: {ERROR_PATH}: [^\n]*\n", err), err
            assert calls == []
        else:
            assert code == 1
            assert re.fullmatch("error: [^\n]*\n", err), err
