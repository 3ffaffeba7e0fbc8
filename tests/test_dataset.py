import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import recourse_lab as rl
from recourse_lab.errors import (
    CsvParseError,
    DataValidationError,
    SchemaMismatchError,
)


def two_feature_schema(**kw):
    return rl.FeatureSchema(
        (rl.FeatureSpec("x0", **kw), rl.FeatureSpec("x1", **kw)), "label"
    )


def same_data(a, b) -> bool:
    """Equal schemas, and X and y equal element for element."""
    return a.schema == b.schema and np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataValidationError):
            rl.FeatureSchema((rl.FeatureSpec("a"), rl.FeatureSpec("a")))

    def test_empty_name_rejected(self):
        with pytest.raises(DataValidationError):
            rl.FeatureSpec("")

    def test_bounds_order(self):
        with pytest.raises(DataValidationError):
            rl.FeatureSpec("a", lower=2.0, upper=1.0)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_nan_bound_rejected(self, side):
        with pytest.raises(DataValidationError, match=f"feature 'a': {side} bound must not be NaN"):
            rl.FeatureSpec("a", **{side: math.nan})

    @pytest.mark.parametrize("kind", ["ordinal", "binary"])
    @pytest.mark.parametrize("bounds", [
        {"lower": 0.5}, {"upper": 9.5}, {"lower": -1e-9, "upper": 1},
    ])
    def test_grid_bounds_are_whole_numbers(self, kind, bounds):
        with pytest.raises(DataValidationError, match="must be a whole number"):
            rl.FeatureSpec("a", kind=kind, **bounds)

    def test_whole_and_infinite_grid_bounds_accepted(self):
        rl.FeatureSpec("a", kind="ordinal", lower=-math.inf, upper=10.0)
        rl.FeatureSpec("a", kind="binary", lower=0, upper=1)
        rl.FeatureSpec("a", lower=0.5, upper=9.5)  # continuous bounds may be fractional

    def test_label_collision(self):
        with pytest.raises(DataValidationError):
            rl.FeatureSchema((rl.FeatureSpec("y"),), label_name="y")


class TestDatasetValidation:
    def test_label_values(self):
        schema = two_feature_schema()
        with pytest.raises(DataValidationError):
            rl.Dataset(schema, np.zeros((2, 2)), np.array([1, 2]))

    @pytest.mark.parametrize("labels, row", [
        ([1.7, -1.2], 0), ([1.0, np.nan], 1), (["a"], 0), ([1, -1, 0.5], 2), ([None], 0),
        (["1", "-1"], 0),
    ])
    def test_label_checked_before_int_cast(self, labels, row):
        # a fractional, NaN or non-numeric label is named, not truncated or cast
        n = len(labels)
        message = f"label at row {row} must be -1 or +1, got {labels[row]!r}"
        with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
            rl.Dataset(two_feature_schema(), np.zeros((n, 2)), labels)

    def test_float_labels_accepted(self):
        data = rl.Dataset(two_feature_schema(), np.zeros((3, 2)), [1.0, -1.0, True])
        assert data.y.tolist() == [1, -1, 1] and data.y.dtype == int

    def test_binary_grid(self):
        schema = rl.FeatureSchema((rl.FeatureSpec("b", kind="binary"),))
        with pytest.raises(DataValidationError):
            rl.Dataset(schema, np.array([[0.5]]), np.array([1]))

    def test_ordinal_grid(self):
        schema = rl.FeatureSchema((rl.FeatureSpec("o", kind="ordinal"),))
        with pytest.raises(DataValidationError):
            rl.Dataset(schema, np.array([[1.5]]), np.array([1]))

    def test_bounds(self):
        schema = rl.FeatureSchema((rl.FeatureSpec("c", lower=0.0, upper=1.0),))
        with pytest.raises(DataValidationError):
            rl.Dataset(schema, np.array([[2.0]]), np.array([1]))

    def test_immutable(self):
        data = rl.synth_base(5, 0)
        with pytest.raises(ValueError):
            data.X[0, 0] = 99.0


class TestLoadCsv:
    def test_zero_maps_to_minus_one(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,label\n1.0,2.0,1\n0.5,-1.0,0\n")
        data = rl.load_csv(p, two_feature_schema())
        assert data.n == 2
        assert list(data.y) == [1, -1]
        assert data.X[1, 1] == -1.0

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,label\n1.0,1\n")
        with pytest.raises(SchemaMismatchError, match="x1"):
            rl.load_csv(p, two_feature_schema())

    def test_extra_column_named(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,x2,label\n1,2,3,1\n")
        with pytest.raises(SchemaMismatchError, match="x2"):
            rl.load_csv(p, two_feature_schema())

    def test_non_numeric_cell_reports_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,label\n1.0,2.0,1\nfoo,0.0,1\n")
        with pytest.raises(CsvParseError, match="row 1"):
            rl.load_csv(p, two_feature_schema())

    def test_out_of_bounds_value(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("b,label\n0.5,1\n")
        schema = rl.FeatureSchema((rl.FeatureSpec("b", kind="binary"),))
        with pytest.raises(DataValidationError):
            rl.load_csv(p, schema)

    def test_save_load_round_trip(self, tmp_path):
        # repr floats must parse back to the exact same doubles
        data = rl.synth_base(50, 3)
        p = tmp_path / "out.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(data.schema.names) + [data.schema.label_name])
            for row, label in zip(data.X, data.y):
                writer.writerow([repr(float(v)) for v in row] + [int(label)])
        again = rl.load_csv(p, data.schema)
        assert same_data(again, data)

    def test_duplicate_column_named(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x0,x1,label\n1.0,5.0,2.0,1\n")
        with pytest.raises(SchemaMismatchError, match="duplicate column 'x0'"):
            rl.load_csv(p, two_feature_schema())

    def test_columns_matched_by_name(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,x1,x0\n1,2.0,1.0\n")
        data = rl.load_csv(p, two_feature_schema())
        assert data.X[0, 0] == 1.0 and data.X[0, 1] == 2.0

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet programs start a "CSV UTF-8" file with a UTF-8 byte-order mark
        text = "x0,x1,label\n1.0,2.0,1\n0.5,-1.0,0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        schema = two_feature_schema()
        assert same_data(rl.load_csv(marked, schema), rl.load_csv(plain, schema))

    @pytest.mark.parametrize("text, error, message", [
        ("", CsvParseError, "empty file"),
        ("x0,x1,label\n1.0,2.0,1\n0.5,1\n", CsvParseError, r"row 1: expected 3 cells, got 2"),
        ("x0,x1,label\n1.0,2.0,1\n0.5,-1.0,2\n", DataValidationError,
         r"row 1: label 2.0 not in \{-1, 0, 1\}"),
        ("x0,x1,label\n1.0,2.0,1\n0.5,-1.0,0.5\n", DataValidationError,
         r"row 1: label 0.5 not in \{-1, 0, 1\}"),
    ], ids=["empty", "short-row", "label-2", "label-half"])
    def test_malformed_file_named_error(self, tmp_path, text, error, message):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(error, match=message):
            rl.load_csv(p, two_feature_schema())

class TestSplit:
    def test_sizes_round_half_up(self):
        data = rl.synth_base(100, 0)
        train, hold = rl.split(data, 0.1, 7)
        assert (train.n, hold.n) == (90, 10)
        train, hold = rl.split(rl.synth_base(25, 0), 0.1, 7)
        assert (train.n, hold.n) == (22, 3)  # 2.5 rounds up

    def test_deterministic(self):
        data = rl.synth_base(100, 0)
        a = rl.split(data, 0.1, seed=7)
        b = rl.split(data, 0.1, seed=7)
        assert same_data(a[0], b[0]) and same_data(a[1], b[1])

    def test_fraction_range(self):
        data = rl.synth_base(10, 0)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                rl.split(data, bad, 0)

    @given(st.integers(2, 200), st.floats(0.05, 0.95), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, n, frac, seed):
        data = rl.synth_base(n, 1)
        train, hold = rl.split(data, frac, seed)
        assert train.n + hold.n == n
        merged = np.vstack([train.X, hold.X])
        assert np.array_equal(
            np.sort(merged.view([("a", float), ("b", float)]), axis=0),
            np.sort(data.X.view([("a", float), ("b", float)]), axis=0),
        )


class TestSynth:
    def test_base_positive_fraction(self):
        data = rl.synth_base(10000, 123)
        assert abs(np.mean(data.y == 1) - 0.5) <= 0.02

    def test_base_feature_means(self):
        data = rl.synth_base(10000, 123)
        assert np.all(np.abs(data.X.mean(axis=0)) <= 0.05)

    def test_base_deterministic(self):
        assert same_data(rl.synth_base(1000, 5), rl.synth_base(1000, 5))

    def test_labels_reproducible_from_rule(self):
        data = rl.synth_base(2000, 11)
        expect = np.where(data.X[:, 0] + data.X[:, 1] >= 0.0, 1, -1)
        assert np.array_equal(data.y, expect)

    def test_shift_alpha_zero_equals_base(self):
        spec = rl.ShiftSpec("target_shift", 0.0, 1500, 21)
        assert same_data(rl.synth_shift(spec), rl.synth_base(1500, 21))

    def test_target_shift_disagreement_fraction(self):
        # oracle: label one predictor sample under both rules and compare;
        # the isotropic law makes the analytic value an angle ratio
        spec = rl.ShiftSpec("target_shift", -0.6, 20000, 33)
        data = rl.synth_shift(spec)
        base_rule = np.where(data.X[:, 0] + data.X[:, 1] >= 0.0, 1, -1)
        measured = float(np.mean(base_rule != data.y))
        analytic = abs(math.atan(1.0) - math.atan(0.4)) / math.pi
        assert abs(measured - analytic) <= 0.01

    def test_predictor_shift_positive_fraction(self):
        spec = rl.ShiftSpec("predictor_shift", 1.0, 20000, 44)
        data = rl.synth_shift(spec)
        analytic = float(norm.cdf(2.0 / math.sqrt(2.0)))
        assert abs(np.mean(data.y == 1) - analytic) <= 0.01

    def test_predictor_shift_label_rule_unchanged(self):
        spec = rl.ShiftSpec("predictor_shift", -0.5, 3000, 1)
        data = rl.synth_shift(spec)
        expect = np.where(data.X.sum(axis=1) >= 0.0, 1, -1)
        assert np.array_equal(data.y, expect)

    def test_shift_spec_validation(self):
        with pytest.raises(ValueError):
            rl.ShiftSpec("target_shift", 0.7, 10, 0)
        with pytest.raises(ValueError):
            rl.ShiftSpec("predictor_shift", math.inf, 10, 0)
        with pytest.raises(ValueError):
            rl.ShiftSpec("mean_shift", 0.1, 10, 0)
        with pytest.raises(ValueError):
            rl.ShiftSpec("target_shift", 0.0, 0, 0)
