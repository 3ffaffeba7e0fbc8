"""Dataset containers, CSV ingestion, splitting, and synthetic generators.

Labels are always in {-1, +1}. Feature kinds:
  continuous - any real value within the declared bounds
  ordinal    - integer grid (unit spacing) within the declared bounds
  binary     - {0, 1}
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, DataValidationError, SchemaMismatchError

FEATURE_KINDS = ("continuous", "ordinal", "binary")
SHIFT_SCENARIOS = ("target_shift", "predictor_shift")


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str = "continuous"
    actionable: bool = True
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if not self.name:
            raise DataValidationError("feature name must be nonempty")
        if self.kind not in FEATURE_KINDS:
            raise DataValidationError(f"unknown feature kind {self.kind!r}")
        for side, bound in (("lower", self.lower), ("upper", self.upper)):
            if math.isnan(bound):
                raise DataValidationError(f"feature {self.name!r}: {side} bound must not be NaN")
        if self.lower > self.upper:
            raise DataValidationError(
                f"feature {self.name!r}: lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        if self.kind != "continuous":
            for side, bound in (("lower", self.lower), ("upper", self.upper)):
                if math.isfinite(bound) and bound != round(bound):
                    raise DataValidationError(
                        f"feature {self.name!r}: {self.kind} {side} bound {bound} "
                        "must be a whole number"
                    )


@dataclass(frozen=True)
class FeatureSchema:
    features: tuple[FeatureSpec, ...]
    label_name: str = "label"

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        names = [f.name for f in self.features]
        if not names:
            raise DataValidationError("schema needs at least one feature")
        if len(set(names)) != len(names):
            raise DataValidationError("feature names must be unique")
        if self.label_name in names:
            raise DataValidationError(f"label column {self.label_name!r} collides with a feature name")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(f.kind for f in self.features)

    def grid_mask(self) -> np.ndarray:
        """Features living on a discrete grid (ordinal or binary)."""
        return np.array([f.kind in ("ordinal", "binary") for f in self.features])

    def actionable_mask(self) -> np.ndarray:
        """Features a recourse may change."""
        return np.array([f.actionable for f in self.features])

    def lower_bounds(self) -> np.ndarray:
        return np.array([f.lower for f in self.features])

    def upper_bounds(self) -> np.ndarray:
        return np.array([f.upper for f in self.features])

    def compatible_with(self, other: "FeatureSchema") -> bool:
        return self.names == other.names and self.kinds == other.kinds

    def validate_matrix(self, X: np.ndarray) -> None:
        """Raise DataValidationError naming the first offending feature/row."""
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise SchemaMismatchError(
                f"expected {self.n_features} feature columns, got shape {X.shape}"
            )
        if not np.all(np.isfinite(X)):
            i, j = np.argwhere(~np.isfinite(X))[0]
            raise DataValidationError(f"non-finite value at row {i}, feature {self.features[j].name!r}")
        for j, f in enumerate(self.features):
            col = X[:, j]
            if f.kind == "binary":
                bad = ~np.isin(col, (0.0, 1.0))
                if bad.any():
                    i = int(np.argmax(bad))
                    raise DataValidationError(
                        f"binary feature {f.name!r}: value {col[i]} at row {i} not in {{0, 1}}"
                    )
            elif f.kind == "ordinal":
                bad = col != np.round(col)
                if bad.any():
                    i = int(np.argmax(bad))
                    raise DataValidationError(
                        f"ordinal feature {f.name!r}: value {col[i]} at row {i} is off the integer grid"
                    )
            low, up = f.lower, f.upper
            out = (col < low) | (col > up)
            if out.any():
                i = int(np.argmax(out))
                raise DataValidationError(
                    f"feature {f.name!r}: value {col[i]} at row {i} outside bounds [{low}, {up}]"
                )


def _snap_to_schema(schema: FeatureSchema, Z: np.ndarray) -> np.ndarray:
    """Round grid features to their grids and clip everything to bounds."""
    out = np.array(Z, dtype=float)
    grid = schema.grid_mask()
    if grid.any():
        out[:, grid] = np.round(out[:, grid])
    lo, hi = schema.lower_bounds(), schema.upper_bounds()
    np.clip(out, lo, hi, out=out)
    binary = np.array([f.kind == "binary" for f in schema.features])
    if binary.any():
        out[:, binary] = np.clip(np.round(out[:, binary]), 0.0, 1.0)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix plus {-1,+1} labels, validated against a schema."""

    schema: FeatureSchema
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        raw = np.asarray(self.y)
        if X.ndim != 2:
            raise DataValidationError(f"feature matrix must be 2-D, got ndim={X.ndim}")
        if raw.ndim != 1 or raw.shape[0] != X.shape[0]:
            raise DataValidationError(
                f"label count {raw.shape} does not match row count {X.shape[0]}"
            )
        # checked before the int cast, which would truncate 1.7 to 1; a NaN or
        # non-numeric label, the string '1' included, equals neither
        bad = np.flatnonzero(~((raw == 1) | (raw == -1)))
        if bad.size:
            raise DataValidationError(
                f"label at row {bad[0]} must be -1 or +1, got {raw.item(int(bad[0]))!r}")
        y = raw.astype(int, copy=False)
        self.schema.validate_matrix(X)
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.schema, self.X[idx], self.y[idx])  # indexing copies


@dataclass(frozen=True)
class ShiftSpec:
    """Synthetic shift scenario: which moment moves and by how much."""

    scenario: str
    alpha: float
    n: int
    seed: int

    def __post_init__(self):
        if self.scenario not in SHIFT_SCENARIOS:
            raise ValueError(
                f"scenario: unknown scenario {self.scenario!r}; expected one of {SHIFT_SCENARIOS}"
            )
        if not math.isfinite(self.alpha):
            raise ValueError("alpha: must be finite")
        if self.scenario == "target_shift" and not -0.6 <= self.alpha <= 0.6:
            raise ValueError(f"alpha: must lie in [-0.6, 0.6] for target_shift, got {self.alpha}")
        if self.n < 1:
            raise ValueError("n: must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed: must be a nonnegative integer, got {self.seed}")


def load_csv(path, schema: FeatureSchema) -> Dataset:
    """Read a comma-separated file whose header holds the schema columns plus the label.

    Labels may be given as {-1,+1} or {0,1}; 0 maps to -1.
    """
    import csv  # only a CSV source reads one

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        duplicated = sorted({h for h in header if header.count(h) > 1})
        if duplicated:
            raise SchemaMismatchError(f"duplicate column {duplicated[0]!r}")
        expected = set(schema.names) | {schema.label_name}
        missing = expected - set(header)
        extra = set(header) - expected
        if missing:
            raise SchemaMismatchError(f"missing column {sorted(missing)[0]!r}")
        if extra:
            raise SchemaMismatchError(f"unexpected column {sorted(extra)[0]!r}")
        col_of = {name: header.index(name) for name in header}
        feat_cols = [col_of[name] for name in schema.names]
        label_col = col_of[schema.label_name]

        rows, labels = [], []
        for i, rec in enumerate(reader):
            if len(rec) != len(header):
                raise CsvParseError(f"row {i}: expected {len(header)} cells, got {len(rec)}")
            try:
                values = [float(rec[c]) for c in feat_cols]
                raw_label = float(rec[label_col])
            except ValueError as exc:
                raise CsvParseError(f"row {i}: non-numeric cell ({exc})") from None
            if raw_label not in (-1.0, 0.0, 1.0):
                raise DataValidationError(f"row {i}: label {raw_label} not in {{-1, 0, 1}}")
            rows.append(values)
            labels.append(-1 if raw_label <= 0.0 else 1)

    X = np.array(rows, dtype=float).reshape(len(rows), schema.n_features)
    y = np.array(labels, dtype=int)
    return Dataset(schema, X, y)


def holdout_size(n: int, holdout_fraction: float) -> int:
    """Rows `split` holds out of n: round-half-up(fraction * n)."""
    return int(math.floor(holdout_fraction * n + 0.5))


def split(data: Dataset, holdout_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint (train, holdout) partition of holdout_size(n, fraction) held-out rows."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must lie in (0, 1), got {holdout_fraction}")
    if data.n < 2:
        raise ValueError("need at least 2 rows to split")
    h = holdout_size(data.n, holdout_fraction)
    perm = np.random.default_rng(seed).permutation(data.n)
    return data.subset(perm[h:]), data.subset(perm[:h])


def synth_schema() -> FeatureSchema:
    """Two unbounded continuous predictors, both actionable."""
    return FeatureSchema((FeatureSpec("x0"), FeatureSpec("x1")), "label")


def synth_base(n: int, seed: int) -> Dataset:
    """Standard-normal predictors labeled +1 exactly when x0 + x1 >= 0."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    y = np.where(X[:, 0] + X[:, 1] >= 0.0, 1, -1)
    return Dataset(synth_schema(), X, y)


def synth_shift(spec: ShiftSpec) -> Dataset:
    """Shifted companion sample.

    target_shift: same predictor law as synth_base, labels from x0 + c*x1 >= 0 with
    c = 1 + alpha (alpha = 0 reproduces synth_base bit for bit).

    predictor_shift: label rule unchanged, predictor mean moved to (alpha, alpha).
    """
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n, 2))
    if spec.scenario == "target_shift":
        c = 1.0 + spec.alpha
        y = np.where(X[:, 0] + c * X[:, 1] >= 0.0, 1, -1)
    else:
        X = X + spec.alpha
        y = np.where(X[:, 0] + X[:, 1] >= 0.0, 1, -1)
    return Dataset(synth_schema(), X, y)
