"""Exception types shared across the package."""


class RecourseLabError(Exception):
    """Base class for all package-specific failures."""


class SchemaMismatchError(RecourseLabError):
    """Columns, feature names, or kinds do not line up with the schema."""


class CsvParseError(RecourseLabError):
    """A CSV cell could not be parsed; the message carries the row index."""


class DataValidationError(RecourseLabError):
    """A value violates a declared invariant (bounds, grids, labels)."""


class TrainingError(RecourseLabError):
    """Training preconditions violated, e.g. single-class data."""


class DivergenceError(TrainingError):
    """Loss became non-finite; the message names the epoch."""


class UnsupportedModelError(RecourseLabError):
    """Operation requires a model kind the given model does not have."""


class SearchError(RecourseLabError):
    """A recourse search produced a non-finite iterate."""


class SurrogateFitError(RecourseLabError):
    """Local linear surrogate could not be fit (degenerate design)."""


class DegenerateMetricError(RecourseLabError):
    """Metric requested on an input with no variation (e.g. identical costs)."""


class InsufficientSampleError(RecourseLabError):
    """Too few points to run a Monte-Carlo check at the requested size."""


class ConfigError(RecourseLabError):
    """Invalid experiment configuration; the message names the field."""
