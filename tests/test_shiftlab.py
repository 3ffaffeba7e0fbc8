import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

import recourse_lab as rl
from recourse_lab import recourse, shiftlab
from recourse_lab.errors import (
    DegenerateMetricError,
    SchemaMismatchError,
)
from recourse_lab.shiftlab import (
    REPORT_COLUMNS,
    _evaluate_m2,
    _prepare,
    _spearman,
    _training_sample,
    sweep_csv_text,
)


def small_config(**overrides):
    base = dict(
        d1_source=rl.ShiftSpec("target_shift", 0.0, 1200, 31),
        d2_source=rl.ShiftSpec("target_shift", 0.0, 1200, 32),
        model_spec=rl.ModelSpec.logistic(epochs=150),
        method="cfe",
        cost=rl.CostFn("L2"),
        holdout_fraction=0.1,
        seeds=rl.Seeds(0, 1, 2),
        cv_folds=5,
    )
    base.update(overrides)
    return rl.ExperimentConfig(**base)


def prepare(cfg):
    """The d1 training sample and the recourses against M1, the set's model."""
    d1_train = _training_sample(cfg, cfg.d1_source, "d1-split")
    return d1_train, _prepare(cfg, rl.train(cfg.model_spec, d1_train), d1_train)


class TestConfig:
    def test_holdout_range(self):
        with pytest.raises(ValueError):
            small_config(holdout_fraction=0.9)
        with pytest.raises(ValueError):
            small_config(holdout_fraction=-0.1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            small_config(method="prototype")

    def test_cv_folds(self):
        with pytest.raises(ValueError):
            small_config(cv_folds=1)

    def test_bad_method_params_rejected_before_training(self, monkeypatch):
        calls = []
        real_train = shiftlab.train

        def counting_train(*args, **kwargs):
            calls.append(args)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(shiftlab, "train", counting_train)
        with pytest.raises(ValueError, match="inner_iters"):
            rl.run_pipeline(small_config(method_params={"inner_iters": -1}))
        assert calls == []

    @pytest.mark.parametrize("make", [
        lambda: rl.Seeds(0, -1, 2),
        lambda: rl.ShiftSpec("target_shift", 0.0, 100, -1),
        lambda: rl.ModelSpec.logistic(seed=-1),
    ], ids=["seeds", "shift-spec", "model-spec"])
    def test_negative_seed_rejected(self, make):
        with pytest.raises(ValueError, match="must be a nonnegative integer, got -1"):
            make()

    def test_seeds_model_is_the_model_seed(self):
        cfg = small_config(model_spec=rl.ModelSpec.logistic(epochs=150, seed=5),
                           seeds=rl.Seeds(0, 1, 2))
        assert cfg.model_spec.seed == 1
        one = small_config(model_spec=rl.ModelSpec.logistic(epochs=150, seed=1))
        a, b = rl.run_pipeline(cfg), rl.run_pipeline(one)
        assert a.to_csv_text() == b.to_csv_text()
        assert "".join(a.json_chunks()) == "".join(b.json_chunks())

    def test_schema_compatibility_enforced(self):
        other = rl.FeatureSchema((rl.FeatureSpec("z"),))
        with pytest.raises(SchemaMismatchError):
            small_config(d2_source=rl.CsvSource("nowhere.csv", other))


class TestEvaluateM2:
    def make_cf(self):
        data = rl.synth_base(400, 3)
        model = rl.train(rl.ModelSpec.logistic(epochs=150), data)
        return rl.batch_recourse(model, data, "cfe", rl.CostFn("L2")), model

    def test_counting(self):
        cf, model = self.make_cf()
        sub = rl.RecourseSet(model, cf.origins[:4], cf.points[:4], cf.costs[:4], cf.iterations[:4])
        fake_preds = np.array([1, 1, -1, 1])

        class Stub:
            def predict(self, X):
                return fake_preds[: len(X)]

        flags, pct = _evaluate_m2(sub.points, Stub())
        assert flags.tolist() == [False, False, True, False]
        assert pct == pytest.approx(25.0)

    def test_empty_set_has_no_percentage(self):
        _, model = self.make_cf()
        flags, pct = _evaluate_m2(np.empty((0, model.schema.n_features)), model)
        assert flags.size == 0 and pct is None


class TestRunPipeline:
    def test_run_and_sweep_build_no_record_rows(self, monkeypatch):
        # the set's columns are what the pipeline reads; rows are for callers that ask
        def no_rows(*args):
            raise AssertionError("built a RecourseRecord")

        monkeypatch.setattr(recourse, "RecourseRecord", no_rows)
        assert rl.run_pipeline(small_config()).cf1_size > 0
        assert rl.sensitivity_sweep("target_shift", [0.0, 0.3], small_config())[0].cf1_size > 0

    def test_identical_sources_zero_invalidation(self):
        cfg = small_config(d2_source=rl.ShiftSpec("target_shift", 0.0, 1200, 31))
        report = rl.run_pipeline(cfg)
        assert report.invalidation_pct == 0.0
        assert report.cf1_size > 0

    def test_negated_model_invalidates_everything(self):
        cfg = small_config()
        _, cf1 = prepare(cfg)
        m1 = cf1.model
        negated = rl.linear_model(-m1.weight_vector, -m1.bias - 1e-9, m1.schema)
        flags, pct = _evaluate_m2(cf1.points, negated)
        assert pct == 100.0
        assert flags.size == cf1.size and flags.all()

    def test_report_columns(self):
        report = rl.run_pipeline(small_config())
        lines = report.to_csv_text().splitlines()
        assert lines[0].split(",") == list(REPORT_COLUMNS)
        assert len(lines) == 2

    def test_determinism(self):
        a = rl.run_pipeline(small_config())
        b = rl.run_pipeline(small_config())
        assert a.to_csv_text() == b.to_csv_text()
        assert a.costs.tobytes() == b.costs.tobytes()
        assert np.array_equal(a.flags, b.flags)

    def test_labels_in_report(self):
        report = rl.run_pipeline(small_config())
        assert report.algorithm == "CFE"
        assert report.model_kind == "LR"

    def test_accounting(self):
        cfg = small_config()
        d1_train, cf1 = prepare(cfg)
        negatives = int(np.sum(cf1.model.predict(d1_train.X) == -1))
        assert cf1.size + cf1.not_found == negatives

    def test_nan_representation(self):
        report = rl.InvalidationReport(
            algorithm="AR", model_kind="LR", m1_cv_acc=90.0, m2_cv_acc=91.0,
            costs=(), flags=(),
        )
        assert report.to_csv_text().splitlines()[1].endswith("NAN")
        assert json.loads("".join(report.json_chunks()))["invalidation_pct"] == "NAN"

    def test_report_columns_are_read_only(self):
        costs, flags = np.array([0.5, 1.5]), np.array([True, False])
        report = rl.InvalidationReport(
            algorithm="CFE", model_kind="LR", m1_cv_acc=90.0, m2_cv_acc=91.0,
            costs=costs, flags=flags,
        )
        assert (report.cf1_size, report.invalidation_pct) == (2, 50.0)
        for column in (report.costs, report.flags):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        costs[0] = 9.0  # the report holds its own copy
        assert report.costs.tolist() == [0.5, 1.5] and costs.flags.writeable

    @pytest.mark.parametrize("columns, message", [
        (dict(costs=[1.0, 2.0], flags=[True]), "flags: expected 2 entries, got 1"),
        (dict(costs=[[1.0]], flags=[[True]]), "costs: expected one dimension"),
        (dict(costs=[np.inf], flags=[True]), "costs: must be finite"),
    ])
    def test_report_rejects_bad_columns(self, columns, message):
        with pytest.raises(ValueError, match=message):
            rl.InvalidationReport(algorithm="CFE", model_kind="LR", m1_cv_acc=90.0,
                                  m2_cv_acc=91.0, **columns)

    def test_mlp_with_surrogate_actions_end_to_end(self):
        cfg = small_config(
            d1_source=rl.ShiftSpec("target_shift", 0.0, 500, 31),
            d2_source=rl.ShiftSpec("target_shift", 0.3, 500, 32),
            model_spec=rl.ModelSpec.mlp(hidden_layers=(8,), epochs=15),
            method="ar",
            cost=rl.CostFn("L1"),
            cv_folds=3,
        )
        report = rl.run_pipeline(cfg)
        assert report.algorithm == "AR" and report.model_kind == "DNN"
        assert (report.invalidation_pct is None) == (report.cf1_size == 0)

    def test_causal_pipeline_with_custom_scm(self):
        scm = rl.Scm((
            rl.ScmVariable("x0"),
            rl.ScmVariable("x1", parents=((0, 0.5),)),
        ))
        cfg = small_config(
            d1_source=rl.ShiftSpec("target_shift", 0.0, 500, 31),
            d2_source=rl.ShiftSpec("target_shift", 0.3, 500, 32),
            method="causal",
            cv_folds=3,
            scm=scm,
        )
        report = rl.run_pipeline(cfg)
        assert report.algorithm == "Causal"
        assert report.cf1_size > 0


class TestSensitivitySweep:
    def test_order_and_length(self):
        cfg = small_config()
        alphas = [0.3, 0.0, 0.6]
        points = rl.sensitivity_sweep("target_shift", alphas, cfg)
        assert [p.alpha for p in points] == alphas

    def test_requires_synthetic_sources(self):
        schema = rl.synth_base(2, 0).schema
        cfg = small_config(d1_source=rl.CsvSource("x.csv", schema))
        with pytest.raises(ValueError):
            rl.sensitivity_sweep("target_shift", [0.0], cfg)

    def test_empty_alphas(self):
        with pytest.raises(ValueError):
            rl.sensitivity_sweep("target_shift", [], small_config())

    def test_csv_text(self):
        points = [rl.shiftlab.SweepPoint(0.0, 1.5, 10),
                  rl.shiftlab.SweepPoint(0.2, None, 0)]
        text = sweep_csv_text(points)
        lines = text.splitlines()
        assert lines[0] == "alpha,invalidation_pct,cf1_size"
        assert lines[2] == "0.2,NAN,0"

    def test_matches_individual_runs(self):
        cfg = small_config()
        points = rl.sensitivity_sweep("target_shift", [0.4], cfg)
        solo = rl.run_pipeline(
            rl.ExperimentConfig(
                d1_source=cfg.d1_source,
                d2_source=rl.ShiftSpec("target_shift", 0.4, 1200, 32),
                model_spec=cfg.model_spec, method=cfg.method, cost=cfg.cost,
                holdout_fraction=cfg.holdout_fraction, seeds=cfg.seeds,
                cv_folds=cfg.cv_folds,
            )
        )
        assert points[0].invalidation_pct == solo.invalidation_pct
        assert points[0].cf1_size == solo.cf1_size

    def test_trains_every_model_in_one_call_before_the_search(self, monkeypatch):
        # M1 and both M2s train together, and the d2 samples are gone before the search
        events, d2_samples = [], []
        real_train_many, real_search = shiftlab.train_many, shiftlab.batch_recourse

        def recording_train_many(spec, sets):
            events.append(("train_many", len(sets)))
            d2_samples.extend(weakref.ref(data) for data in sets[1:])
            return real_train_many(spec, sets)

        def recording_search(*args, **kwargs):
            events.append(("search", sum(ref() is not None for ref in d2_samples)))
            return real_search(*args, **kwargs)

        monkeypatch.setattr(shiftlab, "train_many", recording_train_many)
        monkeypatch.setattr(shiftlab, "batch_recourse", recording_search)
        rl.sensitivity_sweep("target_shift", [0.0, 0.4], small_config())
        assert events == [("train_many", 3), ("search", 0)]

    def test_runs_no_cross_validation(self, monkeypatch):
        # sweep.csv prints no accuracy, so the sweep may fit no CV fold
        cfg = small_config()
        alphas = [0.0, 0.4]
        solo = [
            rl.run_pipeline(replace(cfg, d2_source=rl.ShiftSpec("target_shift", a, 1200, 32)))
            for a in alphas
        ]
        expected = [(a, r.invalidation_pct, r.cf1_size) for a, r in zip(alphas, solo)]

        def no_cv(*args, **kwargs):
            raise AssertionError("the sweep ran cross-validation")

        monkeypatch.setattr(shiftlab, "cross_val_accuracy", no_cv)
        points = rl.sensitivity_sweep("target_shift", alphas, cfg)
        assert [(p.alpha, p.invalidation_pct, p.cf1_size) for p in points] == expected


class TestCostInvalidationCheck:
    def make_manual_set(self, costs):
        schema = rl.synth_base(2, 0).schema
        model = rl.linear_model([1.0, 0.0], 0.0, schema)
        c = np.asarray(costs, dtype=float)
        zero = np.zeros_like(c)
        return rl.RecourseSet(model, np.column_stack([-c, zero]), np.column_stack([c, zero]),
                              2.0 * c, np.ones(c.size), 0)

    def test_counting_example(self):
        # recourses sit at depths .5, 1, 1.5, 2 with costs 1, 2, 3, 4; a boundary
        # shift of 1.2 invalidates exactly the two cheap ones
        cf = self.make_manual_set([0.5, 1.0, 1.5, 2.0])
        m2 = rl.parallel_perturb(cf.model, 1.2)
        stats = rl.cost_invalidation_check(cf, [m2])
        assert stats.quartile_rates == (1.0, 1.0, 0.0, 0.0)
        assert stats.spearman < 0

    def test_single_recourse_degenerate(self):
        cf = self.make_manual_set([1.0])
        with pytest.raises(DegenerateMetricError):
            rl.cost_invalidation_check(cf, [cf.model])

    def test_identical_costs_degenerate(self):
        cf = self.make_manual_set([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DegenerateMetricError):
            rl.cost_invalidation_check(cf, [cf.model])

    def test_needs_a_draw(self):
        cf = self.make_manual_set([0.5, 1.0, 1.5, 2.0])
        with pytest.raises(ValueError):
            rl.cost_invalidation_check(cf, [])

    def test_tradeoff_direction_with_spread_depths(self, logistic10k, synth10k):
        # walk recourses have exponentially spread crossing depths, making the
        # cost/invalidation tradeoff observable under random parallel updates
        sub = synth10k.subset(np.arange(2500))
        cf = rl.batch_recourse(logistic10k, sub, "markov", rl.CostFn("L2"),
                               params={"step": 0.02, "rho": 2.0}, seed=3)
        rng = np.random.default_rng(10)
        draws = [rl.parallel_perturb(logistic10k, d)
                 for d in np.abs(rng.normal(0.0, 0.2, size=50))]
        stats = rl.cost_invalidation_check(cf, draws)
        assert stats.quartile_rates[0] >= stats.quartile_rates[3]
        assert stats.spearman <= -0.2

    def test_spearman_matches_scipy_on_ties(self):
        from scipy import stats

        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(4, 80))
            # few distinct values, so most ranks are shared; never constant
            a = rng.integers(0, int(rng.integers(2, 6)), size=n) * 0.5
            b = np.round(rng.normal(size=n) + 0.3 * a, int(rng.integers(0, 2)))
            a[:2], b[:2] = (0.0, 1.0), (-9.0, 9.0)
            expected = stats.spearmanr(a, b).statistic
            assert abs(_spearman(a, b) - expected) <= 1e-12
